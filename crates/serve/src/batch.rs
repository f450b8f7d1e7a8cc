//! Batched query execution: pin once, stitch-fetch together, pool all scratch.
//!
//! The paper's serving story (Theorem 8 / Corollary 9) is that personalized walks
//! are cheap because cached state is *shared* — and a real serving system receives
//! queries in batches, not one at a time.  This module turns per-query fixed costs
//! into per-batch costs:
//!
//! * **One pin per batch.**  [`QueryBatch`] is served under a single generation
//!   pin ([`crate::ServeHandle::serve_batch`] /
//!   [`crate::ReaderPool::serve_batch`]), instead of one lock acquisition per
//!   query.
//! * **A batch-local fetch layer.**  Every query executes against a
//!   [`StitchContext`] layered over the generation's shared
//!   [`crate::FetchCache`]: the first query in the batch to touch a node pays the
//!   fetch (one shared-cache probe, filling it if needed), every later query hits
//!   the batch-local map with *no lock at all* — Corollary 9's fetch bound
//!   amortized across the batch.
//! * **Pooled scratch.**  The context also carries every per-query buffer the
//!   answer path needs (walk memory, visit counts, exclusion set, top-k
//!   accumulator, global-rank scores), so steady-state serving performs no
//!   per-query allocation beyond the `k`-element answers themselves.  A single
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
//! `(generation, query_seed, query_id)`.  The batch layers change only *where
//! adjacency bytes come from* (batch-local map vs shared cache vs graph) and
//! *which buffers hold intermediate state*, never any value the walk or the
//! selection observes — so each answer in a batch is bit-identical to the same
//! query served alone, which `tests/concurrent_serving.rs` proves differentially
//! at every batch width and store layout.

use crate::cache::FetchCache;
use crate::generation::Query;
use ppr_core::{PersonalizedWalkResult, TopKScratch, WalkScratch};
use ppr_graph::{GraphView, NodeId};
use ppr_store::{AdjacencyFetch, FrozenGraph};
use ppr_telemetry::Clock;
use std::cell::{Cell, RefCell};
use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};
use std::sync::{Arc, Mutex};

/// A per-query deadline budget: `clock` is read once at each walk's start and the
/// walk stops at the first fetch attempted `budget_nanos` or more later.
#[derive(Debug, Clone)]
pub struct DeadlineBudget {
    pub(crate) clock: Arc<dyn Clock>,
    pub(crate) budget_nanos: u64,
}

/// A batch of `(query_id, query)` jobs served under **one** generation pin, with
/// shared stitch-fetch state and pooled scratch (see the [module docs](self)).
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

/// The per-batch execution context: a batch-local adjacency layer over the
/// generation's shared [`FetchCache`], plus every reusable per-query buffer the
/// answer path needs.
///
/// One context serves one *lane* of a batch (a sequence of queries on one
/// thread).  The local layer lives exactly as long as the lane — adjacency is
/// only valid for the generation the batch pinned, and is dropped when the
/// context goes back to the pool — while the scratch buffers persist across
/// batches through the session's context pool, so steady-state serving
/// allocates nothing per query.  Contexts never affect answers: the walker's own
/// per-walk memory already makes each walk's fetch *count* independent of any
/// cache layer below it, and every buffer here is fully reset before reuse.
#[derive(Debug, Default)]
pub struct StitchContext {
    /// Batch-local adjacency: nodes some query in this lane already fetched this
    /// batch.  Probed lock-free before the shared generation cache.
    pub(crate) local: HashMap<NodeId, Arc<Vec<NodeId>>>,
    /// Fetches answered by the batch-local layer this batch (`query.batch_fetch_saved`).
    pub(crate) saved: u64,
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

impl StitchContext {
    /// Fetches answered by the batch-local layer in the lane being served.
    pub(crate) fn saved(&self) -> u64 {
        self.saved
    }

    /// Heap bytes held across every buffer of the context (capacity, not
    /// length).
    #[cfg(test)]
    pub(crate) fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        self.local.capacity() * size_of::<(NodeId, Arc<Vec<NodeId>>)>()
            + self.walk.heap_bytes()
            + self.result.heap_bytes()
            + self.exclude.capacity() * size_of::<NodeId>()
            + self.topk.heap_bytes()
            + self.scores.capacity() * size_of::<f64>()
    }
}

/// [`AdjacencyFetch`] over a pinned generation *through* a batch-local layer:
/// probes the lane's own map first (lock-free), then the generation's shared
/// cache, filling both on a true miss.  `RefCell`/`Cell` because fetches arrive
/// through `&self` but a lane is strictly single-threaded.
pub(crate) struct StitchFetch<'a> {
    pub(crate) graph: &'a FrozenGraph,
    pub(crate) cache: &'a FetchCache,
    pub(crate) local: RefCell<&'a mut HashMap<NodeId, Arc<Vec<NodeId>>>>,
    pub(crate) saved: Cell<u64>,
}

impl AdjacencyFetch for StitchFetch<'_> {
    fn node_count(&self) -> usize {
        GraphView::node_count(self.graph)
    }

    fn fetch_out(&self, node: NodeId, out: &mut Vec<NodeId>) {
        let mut local = self.local.borrow_mut();
        let adj = match local.entry(node) {
            Entry::Occupied(hit) => {
                self.saved.set(self.saved.get() + 1);
                Arc::clone(hit.get())
            }
            Entry::Vacant(slot) => Arc::clone(
                slot.insert(
                    self.cache
                        .get_or_fill(node, || self.graph.shared_out_neighbors(node)),
                ),
            ),
        };
        drop(local);
        out.clear();
        out.extend_from_slice(&adj);
    }
}

/// The session-wide pool of [`StitchContext`]s: every serve entry point pops one
/// per lane (a single query is a lane of one) and pushes it back when the lane
/// completes, so a steady stream of queries reuses the same walk memory, visit
/// buffers, and accumulators indefinitely.
#[derive(Debug, Default)]
pub(crate) struct ScratchPool {
    pool: Mutex<Vec<StitchContext>>,
}

impl ScratchPool {
    /// Pops a pooled context, or makes a fresh one (first lanes warm the pool);
    /// either way its local layer is empty and its saved-fetch counter zero.
    pub(crate) fn take(&self) -> StitchContext {
        self.pool
            .lock()
            .expect("scratch pool poisoned")
            .pop()
            .unwrap_or_default()
    }

    /// Returns a finished lane's context to the pool.  The lane ends here: its
    /// local adjacency layer is dropped — it belonged to the lane's pin, and an
    /// idle context holding those `Arc`s would keep superseded lists alive and
    /// make the committer deep-copy any list it next edits — and its
    /// saved-fetch counter reset; scratch buffers are kept (they are reset per
    /// query).  Bounded: the pool never holds more contexts than the widest
    /// reader fan-out that ever ran.
    pub(crate) fn put(&self, mut ctx: StitchContext) {
        ctx.local.clear();
        ctx.saved = 0;
        let mut pool = self.pool.lock().expect("scratch pool poisoned");
        if pool.len() < 64 {
            pool.push(ctx);
        }
    }
}
