//! Telemetry adapters for the incremental engine.
//!
//! [`MetricSource`] impls for this crate's stats structs, plus an
//! `emit_telemetry` method on the engine that folds *every* layer the engine
//! owns — Social Store access counts, cumulative update work, batch wall-time
//! profile, the search effort of the reroute scans, the walk store's own
//! counters (arena; plus pager / residency / on-disk compaction for
//! [`ppr_persist::DiskWalkStore`]), and the attached
//! WAL — into one snapshot builder.  This is what lets a single
//! `TelemetrySnapshot` see the whole stack.

use crate::batch::BatchProfile;
use crate::engine::{UpdateStats, WalkEngine, WalkKind};
use ppr_store::index::WalkIndexMut;
use ppr_telemetry::{MetricSource, SnapshotBuilder};

impl MetricSource for BatchProfile {
    fn emit(&self, out: &mut SnapshotBuilder) {
        out.counter("total_nanos", self.total.as_nanos() as u64);
        out.counter("detect_nanos", self.detect.as_nanos() as u64);
        out.counter("candidates_nanos", self.candidates.as_nanos() as u64);
        out.counter("apply_nanos", self.apply.as_nanos() as u64);
        out.counter("compactions", self.compactions);
        out.counter("compaction_nanos", self.compaction_time.as_nanos() as u64);
        out.counter("compaction_steps_moved", self.compaction_steps_moved);
    }
}

impl MetricSource for UpdateStats {
    fn emit(&self, out: &mut SnapshotBuilder) {
        out.counter("segments_updated", self.segments_updated);
        out.counter("walk_steps", self.walk_steps);
        out.gauge(
            "touched_walk_store",
            if self.touched_walk_store { 1.0 } else { 0.0 },
        );
    }
}

impl<K: WalkKind, W: WalkIndexMut> WalkEngine<K, W> {
    /// Emits every observability layer this engine owns into `out`: Social
    /// Store access metrics (`store.*`), cumulative update work (`work.*`),
    /// the batch wall-time profile (`batch.*`), what phase 1 scanned and read to
    /// find the reroutes `work.segments_updated` counts (`reroute.*`), the walk
    /// store's counters
    /// (`arena.*` always; `disk.*` / `pager.*` / `residency.*` for the disk
    /// layout), and WAL counters (`wal.*`) when a durable
    /// log is attached.  The layout is the same for both walk kinds.
    pub fn emit_telemetry(&self, out: &mut SnapshotBuilder) {
        out.source("store", &self.store.metrics());
        out.source("work", &self.work);
        out.source("batch", &self.profile);
        out.scoped("reroute", |out| {
            out.counter("postings_scanned", self.profile.postings_scanned);
            out.counter("paths_read", self.profile.paths_read);
        });
        self.walks.emit_telemetry(out);
        if let Some(log) = &self.durability {
            out.source("wal", &log.wal_stats());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MonteCarloConfig;
    use crate::{IncrementalPageRank, IncrementalSalsa};
    use ppr_graph::{DynamicGraph, Edge};
    use ppr_telemetry::TelemetrySnapshot;

    fn tiny_graph() -> DynamicGraph {
        let mut graph = DynamicGraph::with_nodes(4);
        for (src, dst) in [(0, 1), (1, 2), (2, 3), (3, 0)] {
            graph.add_edge(Edge::new(src, dst));
        }
        graph
    }

    #[test]
    fn engine_emits_store_work_batch_and_arena_layers() {
        let config = MonteCarloConfig::new(0.2, 2).with_seed(7);
        let mut engine = IncrementalPageRank::from_graph(tiny_graph(), config);
        engine.apply_arrivals(&[Edge::new(0, 2)]);
        let mut out = SnapshotBuilder::new();
        out.scoped("engine", |out| engine.emit_telemetry(out));
        let snap = TelemetrySnapshot::from_builder(0, out);
        assert!(snap.counter("engine.store.fetches").is_some());
        assert!(snap.counter("engine.work.walk_steps").is_some());
        // Where the batch went: the three phases, for the flat store too.
        let phases: u64 = ["detect_nanos", "candidates_nanos", "apply_nanos"]
            .iter()
            .map(|phase| snap.counter(&format!("engine.batch.{phase}")).unwrap())
            .sum();
        assert!(phases > 0);
        assert!(phases <= snap.counter("engine.batch.total_nanos").unwrap());
        // The arrival out of node 0 (out-degree 1, so p = 1/2 over a handful of
        // visits) read at least the paths it rerouted.
        let paths_read = snap.counter("engine.reroute.paths_read").unwrap();
        assert!(paths_read >= snap.counter("engine.work.segments_updated").unwrap());
        assert!(snap.counter("engine.reroute.postings_scanned").unwrap() >= paths_read);
        assert!(snap.counter("engine.arena.in_place_writes").is_some());
        // In-memory engine: no WAL layer.
        assert_eq!(snap.counter("engine.wal.appended"), None);
    }

    #[test]
    fn salsa_engine_emits_the_same_layout() {
        let config = MonteCarloConfig::new(0.2, 2).with_seed(7);
        let mut engine = IncrementalSalsa::from_graph(tiny_graph(), config);
        engine.apply_arrivals(&[Edge::new(1, 3)]);
        let mut out = SnapshotBuilder::new();
        engine.emit_telemetry(&mut out);
        let snap = TelemetrySnapshot::from_builder(0, out);
        assert!(snap.counter("store.fetches").is_some());
        assert!(snap.counter("arena.in_place_writes").is_some());
    }
}
