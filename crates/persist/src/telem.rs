//! [`MetricSource`] adapters for this crate's stats structs.
//!
//! Pure reads of already-snapshotted values; the I/O hot paths that fill the
//! structs are untouched.  Names are relative — collectors choose the
//! namespace (`pager.loads`, `wal.fsyncs`, …) via
//! [`SnapshotBuilder::source`].

use crate::disk::{DiskStoreStats, ResidencyStats};
use crate::pager::PagerStats;
use crate::wal::WalStats;
use ppr_telemetry::{MetricSource, SnapshotBuilder};

impl MetricSource for PagerStats {
    fn emit(&self, out: &mut SnapshotBuilder) {
        out.counter("loads", self.loads);
        out.counter("hits", self.hits);
        out.counter("bytes_read", self.bytes_read);
        out.counter("evictions", self.evictions);
        out.counter("refaults", self.refaults);
        out.counter("streamed", self.streamed);
        // Fraction of page reads served from memory; 0.0 before any read.
        out.ratio("hit_rate", self.hits, self.hits + self.loads);
    }
}

impl MetricSource for DiskStoreStats {
    fn emit(&self, out: &mut SnapshotBuilder) {
        out.counter("pages_rewritten", self.pages_rewritten);
    }
}

impl MetricSource for ResidencyStats {
    fn emit(&self, out: &mut SnapshotBuilder) {
        out.gauge("resident_pages", self.resident_pages as f64);
        out.gauge("resident_page_bytes", self.resident_page_bytes as f64);
        out.gauge("cached_path_steps", self.cached_path_steps as f64);
        out.gauge("arena_steps", self.arena_steps as f64);
    }
}

impl MetricSource for WalStats {
    fn emit(&self, out: &mut SnapshotBuilder) {
        out.counter("appended", self.appended);
        out.counter("fsyncs", self.fsyncs);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppr_telemetry::TelemetrySnapshot;

    #[test]
    fn pager_hit_rate_guards_zero_and_wal_counters_namespace() {
        let mut out = SnapshotBuilder::new();
        out.source("pager", &PagerStats::default());
        out.source(
            "wal",
            &WalStats {
                appended: 4,
                fsyncs: 4,
            },
        );
        let snap = TelemetrySnapshot::from_builder(0, out);
        assert_eq!(snap.gauge("pager.hit_rate"), Some(0.0));
        assert_eq!(snap.counter("wal.appended"), Some(4));
        assert_eq!(snap.counter("wal.fsyncs"), Some(4));
    }
}
