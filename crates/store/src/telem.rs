//! [`MetricSource`] adapters for every stats struct this crate owns.
//!
//! Each adapter is a pure read of an already-snapshotted stats value — the hot
//! paths that fill those structs are untouched.  Collectors namespace the
//! output themselves via [`SnapshotBuilder::source`], so the names emitted
//! here are relative (`fetches`, not `store.fetches`).

use crate::arena::ArenaStats;
use crate::metrics::{StoreMetrics, WorkCounter};
use crate::view::SpineCopyStats;
use ppr_telemetry::{MetricSource, SnapshotBuilder};

impl MetricSource for StoreMetrics {
    fn emit(&self, out: &mut SnapshotBuilder) {
        out.counter("fetches", self.fetches);
        out.counter("edges_returned", self.edges_returned);
        out.counter("sampled_neighbor_queries", self.sampled_neighbor_queries);
        out.counter("edge_insertions", self.edge_insertions);
        out.counter("edge_deletions", self.edge_deletions);
    }
}

impl MetricSource for WorkCounter {
    fn emit(&self, out: &mut SnapshotBuilder) {
        out.counter("segments_updated", self.segments_updated);
        out.counter("walk_steps", self.walk_steps);
        out.counter("edges_processed", self.edges_processed);
        out.counter("arrivals_filtered", self.arrivals_filtered);
        out.counter("total_work", self.total_work());
        // steps_per_edge already guards its zero denominator.
        out.gauge("steps_per_edge", self.steps_per_edge());
    }
}

impl MetricSource for ArenaStats {
    fn emit(&self, out: &mut SnapshotBuilder) {
        out.counter("in_place_writes", self.in_place_writes);
        out.counter("relocations", self.relocations);
        out.counter("compactions", self.compactions);
        out.counter("compaction_nanos", self.compaction_nanos);
        out.counter("compaction_steps_moved", self.compaction_steps_moved);
        out.gauge("live_steps", self.live_steps as f64);
        out.gauge("dead_steps", self.dead_steps as f64);
        out.gauge("buffer_len", self.buffer_len as f64);
        out.ratio(
            "dead_fraction",
            self.dead_steps as u64,
            self.buffer_len as u64,
        );
    }
}

impl MetricSource for SpineCopyStats {
    fn emit(&self, out: &mut SnapshotBuilder) {
        out.counter("chunks_copied", self.chunks_copied);
        out.counter("blocks_copied", self.blocks_copied);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppr_telemetry::TelemetrySnapshot;

    fn collect(source: &dyn MetricSource, segment: &str) -> TelemetrySnapshot {
        let mut out = SnapshotBuilder::new();
        out.source(segment, source);
        TelemetrySnapshot::from_builder(0, out)
    }

    #[test]
    fn store_metrics_emit_namespaced_counters() {
        let metrics = StoreMetrics {
            fetches: 5,
            edges_returned: 40,
            sampled_neighbor_queries: 1,
            edge_insertions: 9,
            edge_deletions: 2,
        };
        let snap = collect(&metrics, "store");
        assert_eq!(snap.counter("store.fetches"), Some(5));
        assert_eq!(snap.counter("store.edge_deletions"), Some(2));
    }

    #[test]
    fn arena_stats_emit_guarded_dead_fraction() {
        let snap = collect(&ArenaStats::default(), "arena");
        assert_eq!(snap.gauge("arena.dead_fraction"), Some(0.0));
        assert_eq!(snap.counter("arena.relocations"), Some(0));
    }

    #[test]
    fn work_counter_emits_paper_work_units() {
        let work = WorkCounter {
            segments_updated: 2,
            walk_steps: 10,
            edges_processed: 4,
            arrivals_filtered: 1,
        };
        let snap = collect(&work, "work");
        assert_eq!(snap.counter("work.total_work"), Some(12));
        assert_eq!(snap.gauge("work.steps_per_edge"), Some(2.5));
    }
}
