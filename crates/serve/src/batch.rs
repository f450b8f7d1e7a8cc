//! Batched query execution: pin once, pool all scratch.
//!
//! The paper's serving story (Theorem 8 / Corollary 9) is that personalized walks
//! are cheap because cached state is *shared* — and a real serving system receives
//! queries in batches, not one at a time.  This module turns per-query fixed costs
//! into per-batch costs:
//!
//! * **One pin per batch.**  [`QueryBatch`] is served under a single generation
//!   pin ([`crate::ServeHandle::serve_batch`] /
//!   [`crate::ReaderPool::serve_batch`]), instead of one lock acquisition per
//!   query.  Every query in the batch fetches adjacency straight from the pinned
//!   generation's `FrozenGraph`; the walker's own per-walk memory is the only
//!   fetch memo (Corollary 9 counts fetches per walk).
//! * **Pooled scratch.**  Each lane runs its queries through one pooled
//!   per-query scratch holding every per-query buffer the answer path needs (walk
//!   memory, visit counts, exclusion set, top-k accumulator, global-rank
//!   scores), so steady-state serving performs no per-query allocation beyond
//!   the `k`-element answers themselves.  A single
//!   [`crate::ServeHandle::serve`] is a batch of one through the same pool.
//!   The personalized and SALSA-authority buffers are sized by the walk, not by
//!   the graph (`O(walk_length)` per context — see
//!   [`ppr_core::personalized`]'s cost model), so a context outlives node growth
//!   and a pool of them stays small at any `n`.
//! * **Deadline budgets.**  [`QueryBatch::with_deadline`] extends the Corollary 9
//!   fetch budget into a per-query *time* budget over an injectable
//!   [`Clock`]: each query starts its own timer, and an expired walk returns a
//!   partial result with `deadline_exhausted` set — the same semantics as fetch
//!   exhaustion.
//!
//! The load-bearing invariant is unchanged: every answer is a pure function of
//! `(generation, query_seed, query_id)`.  Batching changes only *which buffers
//! hold intermediate state*, never any value the walk or the selection observes
//! — so each answer in a batch is bit-identical to the same query served alone,
//! which `tests/concurrent_serving.rs` proves differentially at every batch
//! width and store layout.

use crate::generation::Query;
use ppr_core::{PersonalizedWalkResult, TopKScratch, WalkScratch};
use ppr_graph::NodeId;
use ppr_telemetry::Clock;
use std::collections::HashSet;
use std::sync::{Arc, Mutex};

/// A per-query deadline budget: `clock` is read once at each walk's start and the
/// walk stops at the first fetch attempted `budget_nanos` or more later.
#[derive(Debug, Clone)]
pub struct DeadlineBudget {
    pub(crate) clock: Arc<dyn Clock>,
    pub(crate) budget_nanos: u64,
}

/// A batch of `(query_id, query)` jobs served under **one** generation pin, with
/// pooled scratch (see the [module docs](self)).
///
/// Construction is cheap and reusable: build one with [`QueryBatch::of`] or
/// [`QueryBatch::push`], hand it to [`crate::ServeHandle::serve_batch`]
/// (sequential, one reader) or [`crate::ReaderPool::serve_batch`] (fanned across
/// the pool with a deterministic `slot % threads` query→worker assignment).
/// Answers come back in submission order and are bit-identical to serving each
/// query alone — batching changes cost, never answers.
#[derive(Debug, Clone, Default)]
pub struct QueryBatch {
    pub(crate) jobs: Vec<(u64, Query)>,
    pub(crate) deadline: Option<DeadlineBudget>,
}

impl QueryBatch {
    /// An empty batch.
    pub fn new() -> Self {
        QueryBatch::default()
    }

    /// A batch of the given `(query_id, query)` jobs.
    pub fn of(jobs: &[(u64, Query)]) -> Self {
        QueryBatch {
            jobs: jobs.to_vec(),
            deadline: None,
        }
    }

    /// Appends one job to the batch.
    pub fn push(&mut self, query_id: u64, query: Query) {
        self.jobs.push((query_id, query));
    }

    /// Number of queries in the batch.
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// Whether the batch holds no queries.
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    /// Gives every query in the batch a deadline budget of `budget_nanos` against
    /// `clock` (each query starts its own timer at walk start).  With a frozen
    /// [`ppr_telemetry::ManualClock`] the cut points — and therefore the answers
    /// — are deterministic; with a real monotonic clock the cut point is
    /// timing-dependent by design, which is what a tail-latency SLO wants.
    pub fn with_deadline(mut self, clock: Arc<dyn Clock>, budget_nanos: u64) -> Self {
        self.deadline = Some(DeadlineBudget {
            clock,
            budget_nanos,
        });
        self
    }
}

/// Every reusable per-query buffer the answer path needs.
///
/// One scratch serves one *lane* of a batch (a sequence of queries on one
/// thread); the buffers persist across batches through the session's pool, so
/// steady-state serving allocates nothing per query.  Scratch never affects
/// answers: every buffer is fully reset before reuse.
#[derive(Debug, Default)]
pub(crate) struct QueryScratch {
    /// Walk working memory (fetched-node map + recycled adjacency buffers).
    pub(crate) walk: WalkScratch,
    /// The walk outcome buffer (sparse visit counts reused across queries;
    /// SALSA-authority walks record into it too).
    pub(crate) result: PersonalizedWalkResult,
    /// Seed + friends exclusion set, rebuilt per query into the same allocation.
    pub(crate) exclude: HashSet<NodeId>,
    /// Top-k candidate accumulator.
    pub(crate) topk: TopKScratch,
    /// Score vector buffer for global-rank queries.
    pub(crate) scores: Vec<f64>,
}

impl QueryScratch {
    /// Heap bytes held across every buffer (capacity, not length).
    #[cfg(test)]
    pub(crate) fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        self.walk.heap_bytes()
            + self.result.heap_bytes()
            + self.exclude.capacity() * size_of::<NodeId>()
            + self.topk.heap_bytes()
            + self.scores.capacity() * size_of::<f64>()
    }
}

/// The session-wide pool of [`QueryScratch`]es: every serve entry point pops one
/// per lane (a single query is a lane of one) and pushes it back when the lane
/// completes, so a steady stream of queries reuses the same walk memory, visit
/// buffers, and accumulators indefinitely.
#[derive(Debug, Default)]
pub(crate) struct ScratchPool {
    pool: Mutex<Vec<QueryScratch>>,
}

impl ScratchPool {
    /// Pops a pooled scratch, or makes a fresh one (first lanes warm the pool).
    pub(crate) fn take(&self) -> QueryScratch {
        self.pool
            .lock()
            .expect("scratch pool poisoned")
            .pop()
            .unwrap_or_default()
    }

    /// Returns a finished lane's scratch to the pool (its buffers are reset per
    /// query, not here).  Bounded: the pool never holds more than the widest
    /// reader fan-out that ever ran.
    pub(crate) fn put(&self, scratch: QueryScratch) {
        let mut pool = self.pool.lock().expect("scratch pool poisoned");
        if pool.len() < 64 {
            pool.push(scratch);
        }
    }
}
