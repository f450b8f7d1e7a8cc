//! Telemetry adapters and span bundles for the serving layer.
//!
//! The [`MetricSource`] impl for [`CommitStats`], plus two crate-private
//! pre-created span bundles the hot paths use: `CommitSpans` times the commit
//! lifecycle (`commit.apply` → `commit.mirror` → `commit.wal_sync` →
//! `commit.publish`) and `QuerySpans` times the query lifecycle (`query.pin` →
//! `query.walk` → `query.topk`, under an overall `query.latency`; a global-rank or
//! hub/authority query times its whole-store scan as `query.global_topk`) and
//! counts served queries, fetches, budget/deadline exhaustions, and queries per
//! batch (`query.batch_size`).  Both bundles hold [`Histogram`]/[`Counter`] handles
//! created once at [`crate::QueryEngine::with_telemetry`] time, so recording on
//! the hot path is handle-local — no registry lock, no allocation.

use crate::engine::CommitStats;
use ppr_telemetry::{Counter, Histogram, MetricSource, SnapshotBuilder, Telemetry};

impl MetricSource for CommitStats {
    fn emit(&self, out: &mut SnapshotBuilder) {
        out.counter("commits", self.commits);
        out.counter("walk_chunks_copied", self.walk_chunks_copied);
        out.counter("count_chunks_copied", self.count_chunks_copied);
        out.counter("graph_chunks_copied", self.graph_chunks_copied);
        out.counter("spine_blocks_copied", self.spine_blocks_copied);
    }
}

/// Pre-created histograms for the commit lifecycle stages: `commit.apply` wraps
/// the engine apply, `commit.wal_sync` books the WAL sync inside it, and the
/// committer times the mirror advance and the generation publish/reclaim swap.
#[derive(Debug)]
pub(crate) struct CommitSpans {
    pub(crate) tele: Telemetry,
    /// `commit.apply`: applying the batch to the live engine, its WAL sync
    /// excluded.
    pub(crate) apply: Histogram,
    /// `commit.mirror`: replaying the batch's segments + edges onto the COW
    /// mirror.
    pub(crate) mirror: Histogram,
    /// `commit.wal_sync`: the batch's own WAL `fdatasync`, inside the apply
    /// (durable only).
    pub(crate) wal_sync: Histogram,
    /// `commit.publish`: the generation swap plus ping-pong buffer reclaim.
    pub(crate) publish: Histogram,
}

impl CommitSpans {
    pub(crate) fn new(tele: &Telemetry) -> Self {
        CommitSpans {
            apply: tele.histogram("commit.apply"),
            mirror: tele.histogram("commit.mirror"),
            wal_sync: tele.histogram("commit.wal_sync"),
            publish: tele.histogram("commit.publish"),
            tele: tele.clone(),
        }
    }
}

/// Pre-created instruments for the query lifecycle, shared by every
/// [`crate::ServeHandle`] clone of a session (readers on any thread record into
/// the same sharded cells).
#[derive(Debug)]
pub(crate) struct QuerySpans {
    pub(crate) tele: Telemetry,
    /// `query.pin`: pinning the current generation (one lock + `Arc` clone).
    pub(crate) pin: Histogram,
    /// `query.walk`: the stitched/direct walk phase (walking queries only).
    pub(crate) walk: Histogram,
    /// `query.topk`: scoring, exclusion, and top-k selection of a walking query.
    pub(crate) topk: Histogram,
    /// `query.global_topk`: the O(n) scan of a whole-store ranking — a global-rank
    /// query's pass over every visit count, or a hub/authority query's
    /// `salsa_estimates_from` over every segment.
    pub(crate) global_topk: Histogram,
    /// `query.latency`: the whole serve call, pin included.
    pub(crate) latency: Histogram,
    /// `query.fetches`: Social-Store fetches per query (Corollary 9 budget).
    pub(crate) fetches: Histogram,
    /// `query.served`: queries answered.
    pub(crate) served: Counter,
    /// `query.budget_exhausted`: walks cut short by their fetch budget.
    pub(crate) budget_exhausted: Counter,
    /// `query.deadline_exhausted`: walks cut short by their deadline budget.
    pub(crate) deadline_exhausted: Counter,
    /// `query.batch_size`: queries per served batch.
    pub(crate) batch_size: Histogram,
}

impl QuerySpans {
    pub(crate) fn new(tele: &Telemetry) -> Self {
        QuerySpans {
            pin: tele.histogram("query.pin"),
            walk: tele.histogram("query.walk"),
            topk: tele.histogram("query.topk"),
            global_topk: tele.histogram("query.global_topk"),
            latency: tele.histogram("query.latency"),
            fetches: tele.histogram("query.fetches"),
            served: tele.counter("query.served"),
            budget_exhausted: tele.counter("query.budget_exhausted"),
            deadline_exhausted: tele.counter("query.deadline_exhausted"),
            batch_size: tele.histogram("query.batch_size"),
            tele: tele.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppr_telemetry::TelemetrySnapshot;

    #[test]
    fn commit_stats_emit_counters_and_coalescing_ratio() {
        let stats = CommitStats {
            commits: 4,
            walk_chunks_copied: 7,
            ..CommitStats::default()
        };
        let mut out = SnapshotBuilder::new();
        out.source("commit", &stats);
        let snap = TelemetrySnapshot::from_builder(0, out);
        assert_eq!(snap.counter("commit.commits"), Some(4));
        assert_eq!(snap.counter("commit.walk_chunks_copied"), Some(7));
        // Every commit syncs its own WAL record (`wal.fsyncs` counts them), so
        // there is no coalescing ratio to report.
        assert_eq!(snap.gauge("commit.wal_appends_per_fsync"), None);
    }
}
