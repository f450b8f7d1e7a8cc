//! Personalized PageRank by stitching cached walk segments (Algorithm 1, Section 3).
//!
//! To answer a personalized query for seed `w`, the walker simulates a long random walk
//! with resets to `w`, but instead of paying one social-store access per step it
//! opportunistically consumes the `R` cached walk segments of every node it reaches:
//!
//! * with probability ε the walk resets to `w`;
//! * otherwise, if the current node still has an unused cached segment, the whole
//!   segment is appended to the walk and the walk resets (the segment already ends at a
//!   reset);
//! * otherwise, if the current node has already been fetched, one random out-edge is
//!   taken in memory;
//! * otherwise a *fetch* is issued, bringing the node's adjacency (and its cached
//!   segments) into memory.
//!
//! The number of fetches is the cost the paper bounds in Theorem 8 / Corollary 9 and
//! measures in Figure 6.  The closed forms this walker instantiates are
//! [`crate::bounds::expected_fetches`] (Theorem 8) and [`crate::bounds::top_k_fetches`]
//! (Corollary 9), with the walk length set by [`crate::bounds::walk_length_for_top_k`]
//! (Equation 4).
//!
//! # Cost model: a query costs its walk, not the graph
//!
//! The paper's price for a query is its walk length `s` (Equation 4) plus its
//! fetches (Theorem 8 / Corollary 9); no term grows with the node count `n`, and
//! neither does this module.  One query takes `O(s + Σ fetched out-degree)` time and
//! `O(s)` scratch: visit counts live in a sparse node table inside
//! [`PersonalizedWalkResult`] (one entry per *distinct* node visited, reset and
//! enumerated through its own entry list), the walker's fetched-node memory is
//! keyed through the same table type, and [`PersonalizedWalkResult::top_k_with`] is
//! a partial selection over the visited nodes.  Nothing `n`-long is allocated,
//! zeroed, scanned or sorted per query; only [`PersonalizedWalkResult::frequencies`]
//! materialises a dense vector, on demand.
//!
//! # The read path is shared, not exclusive
//!
//! The walker reads its two stores purely through `&self` APIs — [`WalkIndexView`]
//! for the cached segments, [`AdjacencyFetch`] for the graph — so the same query code
//! serves from a live engine *or* from an epoch-pinned generation snapshot
//! ([`ppr_store::FrozenWalks`] / [`ppr_store::FrozenGraph`]), which is how
//! `ppr-serve` answers queries concurrently with a live write stream.  Determinism
//! follows the split-stream rule of [`crate::query`]: [`PersonalizedWalker::walk_query`]
//! takes `&self` and draws from the `(query_seed, query_id)` stream, so a result is a
//! pure function of `(store generation, query_seed, query_id)` — bit-identical on any
//! thread, at any interleaving with writers or other readers.

use crate::query::query_rng;
use crate::sparse::{select_top_k, NodeTable};
use ppr_graph::{GraphView, NodeId};
use ppr_store::{AdjacencyFetch, SocialStore, WalkIndexView, WalkStore};
use ppr_telemetry::Clock;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;

/// Outcome of one stitched personalized walk.
///
/// Visit counts are held sparsely — one entry per distinct node visited — so a
/// result costs `O(walk)` to fill, reset, enumerate and rank whatever the size of
/// the graph it walked (see the [module docs](self)).  Read them through
/// [`Self::count`], [`Self::counts`], [`Self::frequency`] or the dense
/// [`Self::frequencies`].
#[derive(Debug, Clone, Default)]
pub struct PersonalizedWalkResult {
    /// Visit count per visited node (the empirical personalized distribution).
    counts: NodeTable,
    /// Node count of the store last walked: the length of [`Self::frequencies`].
    node_count: usize,
    /// Total number of visits recorded (≥ the requested length; the final appended
    /// segment may overshoot).
    pub total_visits: u64,
    /// Number of fetch operations issued against the Social Store.
    pub fetches: u64,
    /// Number of cached walk segments consumed.
    pub segments_used: u64,
    /// Number of single random steps taken from already-fetched adjacency.
    pub random_steps: u64,
    /// Number of ε-resets (and dangling-node resets) back to the seed.
    pub resets: u64,
    /// `true` when the walk stopped early because its Corollary 9 fetch budget ran
    /// out (see [`PersonalizedWalker::with_fetch_budget`]); the recorded visits are
    /// the prefix the budget paid for.
    pub budget_exhausted: bool,
    /// `true` when the walk stopped early because its deadline budget expired (see
    /// [`PersonalizedWalker::with_deadline_budget`]); like fetch exhaustion, the
    /// recorded visits are the prefix the deadline paid for.
    pub deadline_exhausted: bool,
}

impl PersonalizedWalkResult {
    /// Number of visits to `node`.
    pub fn count(&self, node: NodeId) -> u64 {
        self.counts.get(node).unwrap_or(0)
    }

    /// `(node, visit count)` for every visited node, in first-visit order.
    pub fn counts(&self) -> impl Iterator<Item = (NodeId, u64)> + '_ {
        self.counts.iter()
    }

    /// Normalised visit frequency of `node`.
    pub fn frequency(&self, node: NodeId) -> f64 {
        if self.total_visits == 0 {
            0.0
        } else {
            self.count(node) as f64 / self.total_visits as f64
        }
    }

    /// The full normalised personalized score vector, materialised densely (one
    /// entry per node of the store walked).
    pub fn frequencies(&self) -> Vec<f64> {
        let mut out = Vec::new();
        self.frequencies_into(&mut out);
        out
    }

    /// [`Self::frequencies`] into a caller-owned buffer, so a loop computing score
    /// vectors for many walks reuses one allocation instead of paying an `O(n)`
    /// `Vec` per call.
    pub fn frequencies_into(&self, out: &mut Vec<f64>) {
        out.clear();
        out.resize(self.node_count, 0.0);
        for (node, count) in self.counts() {
            out[node.index()] = count as f64 / self.total_visits as f64;
        }
    }

    /// The top-`k` nodes by visit count, skipping every node in `exclude`, as
    /// `(node, normalised frequency)` pairs in decreasing order.
    pub fn top_k(&self, k: usize, exclude: &HashSet<NodeId>) -> Vec<(NodeId, f64)> {
        self.top_k_with(k, exclude, &mut TopKScratch::default())
    }

    /// [`Self::top_k`] with a caller-owned accumulator: the `O(visited nodes)`
    /// candidate buffer lives in `scratch` and is reused across calls, so a batch
    /// of queries allocates nothing here beyond the `k`-element answer itself.
    ///
    /// Candidates are the visited nodes outside `exclude`; the `k` best under the
    /// total order *(count descending, node id ascending)* are found by partial
    /// selection and only those are sorted — the same list a full sort of every
    /// candidate would give, in `O(visited + k log k)`.
    pub fn top_k_with(
        &self,
        k: usize,
        exclude: &HashSet<NodeId>,
        scratch: &mut TopKScratch,
    ) -> Vec<(NodeId, f64)> {
        let candidates = &mut scratch.candidates;
        candidates.clear();
        candidates.extend(self.counts().filter(|(node, _)| !exclude.contains(node)));
        scratch.examined += self.counts.len() as u64;
        select_top_k(candidates, k, |a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        candidates
            .iter()
            .map(|&(node, count)| (node, count as f64 / self.total_visits.max(1) as f64))
            .collect()
    }

    /// Resets the result in place for reuse by another walk over `node_count`
    /// nodes, keeping the count table's allocation; costs `O(previous walk's
    /// distinct nodes)`.
    pub(crate) fn reset_for(&mut self, node_count: usize) {
        self.counts.clear();
        self.node_count = node_count;
        self.total_visits = 0;
        self.fetches = 0;
        self.segments_used = 0;
        self.random_steps = 0;
        self.resets = 0;
        self.budget_exhausted = false;
        self.deadline_exhausted = false;
    }

    /// Records one visit to `node`.
    #[inline]
    pub(crate) fn visit(&mut self, node: NodeId) {
        *self.counts.entry(node) += 1;
        self.total_visits += 1;
    }

    /// Count-table slots reset by reuse over this result's lifetime: the whole
    /// per-query reset cost, `O(distinct nodes)` of the walk being replaced.
    pub fn slots_reset(&self) -> u64 {
        self.counts.slots_reset()
    }

    /// Heap bytes held by the count table (capacity, not length) — bounded by the
    /// longest walk recorded, never by the graph.
    pub fn heap_bytes(&self) -> usize {
        self.counts.heap_bytes()
    }
}

/// Reusable accumulator for [`PersonalizedWalkResult::top_k_with`]: holds the
/// `O(visited nodes)` candidate buffer so selection allocates nothing in steady
/// state when one scratch serves a stream of queries.
#[derive(Debug, Default)]
pub struct TopKScratch {
    candidates: Vec<(NodeId, u64)>,
    /// Visited nodes examined as candidates over the scratch's lifetime.
    examined: u64,
}

impl TopKScratch {
    /// Visited nodes examined as candidates over the scratch's lifetime: the
    /// selection's whole input, `O(distinct nodes)` per query.
    pub fn examined(&self) -> u64 {
        self.examined
    }

    /// Heap bytes held by the candidate buffer (capacity, not length).
    pub fn heap_bytes(&self) -> usize {
        self.candidates.capacity() * std::mem::size_of::<(NodeId, u64)>()
    }
}

/// Reusable per-walk working memory for [`PersonalizedWalker::walk_query_into`]:
/// the nodes fetched so far, found through a node table, with their adjacency
/// buffers recycled from walk to walk.  One scratch serves any number of walks
/// sequentially; reuse never changes a walk's bits (the table is cleared before
/// every walk, and each fetch refills its buffer from scratch).
#[derive(Debug, Default)]
pub struct WalkScratch {
    /// Node → position in `fetched` (the first `index.len()` entries are live).
    index: NodeTable,
    /// This walk's fetched nodes in fetch order, followed by retired entries
    /// whose adjacency buffers the next fetches reuse; never longer than the
    /// largest single-walk fetch set.
    fetched: Vec<FetchedNode>,
}

impl WalkScratch {
    /// A fresh scratch (equivalent to `Default`).
    pub fn new() -> Self {
        WalkScratch::default()
    }

    /// Readies the scratch for the next walk: forgets every fetched node, keeping
    /// the buffers.
    fn begin(&mut self) {
        self.index.clear();
    }

    /// The in-memory state of `node`, if this walk already fetched it.
    #[inline]
    fn fetched_mut(&mut self, node: NodeId) -> Option<&mut FetchedNode> {
        let at = self.index.get(node)?;
        Some(&mut self.fetched[at as usize])
    }

    /// Registers `node` as fetched and hands out its (emptied, recycled)
    /// adjacency buffer to fill.
    fn admit(&mut self, node: NodeId) -> &mut Vec<NodeId> {
        let at = self.index.len();
        *self.index.entry(node) = at as u64;
        if at == self.fetched.len() {
            self.fetched.push(FetchedNode::default());
        }
        let state = &mut self.fetched[at];
        state.next_unused_segment = 0;
        state.out_neighbors.clear();
        &mut state.out_neighbors
    }

    /// Heap bytes held (capacity, not length): the node table, the fetched-node
    /// entries and their adjacency buffers.
    pub fn heap_bytes(&self) -> usize {
        self.index.heap_bytes()
            + self.fetched.capacity() * std::mem::size_of::<FetchedNode>()
            + self
                .fetched
                .iter()
                .map(|f| f.out_neighbors.capacity() * std::mem::size_of::<NodeId>())
                .sum::<usize>()
    }
}

/// Per-node state the walker keeps in main memory after fetching the node.
#[derive(Debug, Default)]
struct FetchedNode {
    out_neighbors: Vec<NodeId>,
    next_unused_segment: usize,
}

/// The stitched personalized walker of Algorithm 1.
///
/// The walker consumes the PageRank Store purely through the [`WalkIndexView`] API
/// and the graph purely through [`AdjacencyFetch`], so it runs unchanged over any
/// live store layout *or* over an epoch-pinned generation snapshot — the arena-backed
/// [`WalkStore`] + [`SocialStore`] pair being the default.
#[derive(Debug)]
pub struct PersonalizedWalker<'a, W: WalkIndexView = WalkStore, S: AdjacencyFetch = SocialStore> {
    store: &'a S,
    walks: &'a W,
    epsilon: f64,
    /// Corollary 9 budget: the walk ends early once this many fetches were spent.
    fetch_budget: Option<u64>,
    /// Deadline budget `(clock, nanos)`: each walk ends early once the clock has
    /// advanced `nanos` past the walk's start.
    deadline: Option<(&'a dyn Clock, u64)>,
    /// Stream for the stateful [`Self::walk`] path; [`Self::walk_query`] derives its
    /// own per-query stream instead.
    rng: SmallRng,
}

impl<'a, W: WalkIndexView, S: AdjacencyFetch> PersonalizedWalker<'a, W, S> {
    /// Creates a walker over the given stores with reset probability `epsilon`.
    pub fn new(store: &'a S, walks: &'a W, epsilon: f64, seed: u64) -> Self {
        assert!(
            epsilon > 0.0 && epsilon < 1.0,
            "epsilon must be in (0, 1), got {epsilon}"
        );
        assert_eq!(
            store.node_count(),
            walks.node_count(),
            "Social Store and PageRank Store must cover the same node set"
        );
        PersonalizedWalker {
            store,
            walks,
            epsilon,
            fetch_budget: None,
            deadline: None,
            rng: SmallRng::seed_from_u64(seed),
        }
    }

    /// Caps the number of fetches a walk may spend (Corollary 9 budget enforcement):
    /// the walk stops — with [`PersonalizedWalkResult::budget_exhausted`] set — at
    /// the first fetch that would exceed the cap.  The budget is part of the query,
    /// so a budgeted walk replays bit-identically.
    pub fn with_fetch_budget(mut self, budget: u64) -> Self {
        self.fetch_budget = Some(budget);
        self
    }

    /// Caps the wall-clock time a walk may spend: the Corollary 9 fetch budget
    /// extended into a *time* budget.  Each walk reads `clock` once at its start
    /// and stops — with [`PersonalizedWalkResult::deadline_exhausted`] set — at
    /// the first fetch attempted at or after `start + budget_nanos`, returning the
    /// visits recorded so far as a partial result.  The check sits on the fetch
    /// arm because fetches are the walk's only unbounded-cost step (everything
    /// else is in-memory); a walk that never fetches never expires.
    ///
    /// Determinism is per clock reading, not per wall: against an injectable
    /// [`ppr_telemetry::ManualClock`] the walk replays bit-identically, while a
    /// real monotonic clock makes the *cut point* timing-dependent by design —
    /// which is why the differential harnesses drive this with a manual clock.
    pub fn with_deadline_budget(mut self, clock: &'a dyn Clock, budget_nanos: u64) -> Self {
        self.deadline = Some((clock, budget_nanos));
        self
    }

    /// Runs Algorithm 1 from `seed` until at least `length` visits are recorded,
    /// drawing from this walker's own sequential stream (advanced by every call).
    /// Prefer [`Self::walk_query`] for served queries: it is `&self` and keyed.
    pub fn walk(&mut self, seed: NodeId, length: usize) -> PersonalizedWalkResult {
        let mut rng = std::mem::replace(&mut self.rng, SmallRng::seed_from_u64(0));
        let result = self.run(seed, length, &mut rng);
        self.rng = rng;
        result
    }

    /// Runs Algorithm 1 from `seed` on the `(query_seed, query_id)` split stream of
    /// [`crate::query::query_rng`].  Takes `&self`: the walker has no mutable state
    /// on this path, so one walker (or one pinned generation) can serve many queries
    /// from many threads, each bit-identical to its single-threaded replay.
    pub fn walk_query(
        &self,
        seed: NodeId,
        length: usize,
        query_seed: u64,
        query_id: u64,
    ) -> PersonalizedWalkResult {
        let mut rng = query_rng(query_seed, query_id);
        self.run(seed, length, &mut rng)
    }

    /// [`Self::walk_query`] into caller-owned buffers: the walk's working memory
    /// comes from `scratch` and the outcome lands in `result`, both reset before
    /// use — so a batch of queries sharing one scratch allocates nothing per walk
    /// in steady state.  Bit-identical to [`Self::walk_query`] on the same stream.
    pub fn walk_query_into(
        &self,
        seed: NodeId,
        length: usize,
        query_seed: u64,
        query_id: u64,
        scratch: &mut WalkScratch,
        result: &mut PersonalizedWalkResult,
    ) {
        let mut rng = query_rng(query_seed, query_id);
        self.run_into(seed, length, &mut rng, scratch, result);
    }

    fn run(&self, seed: NodeId, length: usize, rng: &mut SmallRng) -> PersonalizedWalkResult {
        let mut scratch = WalkScratch::default();
        let mut result = PersonalizedWalkResult::default();
        self.run_into(seed, length, rng, &mut scratch, &mut result);
        result
    }

    fn run_into(
        &self,
        seed: NodeId,
        length: usize,
        rng: &mut SmallRng,
        scratch: &mut WalkScratch,
        result: &mut PersonalizedWalkResult,
    ) {
        assert!(
            seed.index() < self.store.node_count(),
            "seed node {seed} outside the store"
        );
        assert!(length >= 1, "the walk must record at least one visit");

        let r = self.walks.r();
        result.reset_for(self.store.node_count());
        scratch.begin();
        // The deadline clock is read once per walk: every fetch compares against
        // this walk's own expiry, so each query in a batch gets the full budget.
        let expiry = self
            .deadline
            .map(|(clock, budget)| (clock, clock.now_nanos().saturating_add(budget)));

        let mut current = seed;
        result.visit(seed);

        while (result.total_visits as usize) < length {
            if rng.gen_bool(self.epsilon) {
                result.resets += 1;
                current = seed;
                result.visit(seed);
                continue;
            }

            match scratch.fetched_mut(current) {
                Some(state) if state.next_unused_segment < r => {
                    // Consume one cached segment: append its continuation, then reset.
                    let slot = state.next_unused_segment;
                    state.next_unused_segment += 1;
                    let id = ppr_store::SegmentId::new(current, slot, r);
                    result.segments_used += 1;
                    for &node in self.walks.segment_path(id).iter().skip(1) {
                        result.visit(node);
                    }
                    result.resets += 1;
                    current = seed;
                    result.visit(seed);
                }
                Some(state) => {
                    // All cached segments consumed: take a single in-memory random step.
                    if state.out_neighbors.is_empty() {
                        // Dangling node: the surfer's session ends, i.e. reset.
                        result.resets += 1;
                        current = seed;
                        result.visit(seed);
                    } else {
                        let next = state.out_neighbors[rng.gen_range(0..state.out_neighbors.len())];
                        result.random_steps += 1;
                        current = next;
                        result.visit(next);
                    }
                }
                None => {
                    // Fetch the node; the walk does not advance this round (Algorithm 1).
                    if self
                        .fetch_budget
                        .is_some_and(|budget| result.fetches >= budget)
                    {
                        result.budget_exhausted = true;
                        break;
                    }
                    if expiry.is_some_and(|(clock, at)| clock.now_nanos() >= at) {
                        result.deadline_exhausted = true;
                        break;
                    }
                    self.store.fetch_out(current, scratch.admit(current));
                    result.fetches += 1;
                }
            }
        }
    }
}

impl<'a, W: WalkIndexView> PersonalizedWalker<'a, W, SocialStore> {
    /// Convenience wrapper: runs [`Self::walk`] and returns the top-`k` nodes, excluding
    /// the seed itself and (if `exclude_friends`) its direct friends, exactly as the
    /// paper's recommender evaluation does.
    pub fn top_k(
        &mut self,
        seed: NodeId,
        k: usize,
        walk_length: usize,
        exclude_friends: bool,
    ) -> Vec<(NodeId, f64)> {
        let result = self.walk(seed, walk_length);
        let mut exclude: HashSet<NodeId> = HashSet::new();
        exclude.insert(seed);
        if exclude_friends {
            exclude.extend(self.store.graph().out_neighbors(seed).iter().copied());
        }
        result.top_k(k, &exclude)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MonteCarloConfig;
    use crate::incremental::IncrementalPageRank;
    use ppr_graph::generators::{directed_cycle, preferential_attachment};
    use ppr_graph::{DynamicGraph, Edge};
    use ppr_store::{FrozenGraph, FrozenWalks};
    use proptest::prelude::*;

    fn engine(graph: &DynamicGraph, r: usize, seed: u64) -> IncrementalPageRank {
        IncrementalPageRank::from_graph(graph, MonteCarloConfig::new(0.2, r).with_seed(seed))
    }

    /// The dense per-node visit vector of a result.
    fn visits(result: &PersonalizedWalkResult) -> Vec<u64> {
        let mut dense = vec![0; result.node_count];
        for (node, count) in result.counts() {
            dense[node.index()] = count;
        }
        dense
    }

    /// A result holding exactly the given dense visit vector.
    fn result_of(visits: &[u64]) -> PersonalizedWalkResult {
        let mut result = PersonalizedWalkResult::default();
        refill(&mut result, visits);
        result
    }

    /// Resets `result` in place and records the given dense visit vector.
    fn refill(result: &mut PersonalizedWalkResult, visits: &[u64]) {
        result.reset_for(visits.len());
        for (i, &count) in visits.iter().enumerate() {
            for _ in 0..count {
                result.visit(NodeId::from_index(i));
            }
        }
    }

    /// The selection [`PersonalizedWalkResult::top_k_with`] replaced, kept as its
    /// oracle: scan every node densely, collect the visited ones outside
    /// `exclude`, fully sort, truncate.
    fn top_k_reference(
        result: &PersonalizedWalkResult,
        k: usize,
        exclude: &HashSet<NodeId>,
    ) -> Vec<(NodeId, f64)> {
        let mut candidates: Vec<(NodeId, u64)> = visits(result)
            .iter()
            .enumerate()
            .filter(|&(i, &count)| count > 0 && !exclude.contains(&NodeId::from_index(i)))
            .map(|(i, &count)| (NodeId::from_index(i), count))
            .collect();
        candidates.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        candidates.truncate(k);
        candidates
            .iter()
            .map(|&(node, count)| (node, count as f64 / result.total_visits.max(1) as f64))
            .collect()
    }

    #[test]
    fn walk_reaches_requested_length() {
        let g = directed_cycle(10);
        let eng = engine(&g, 3, 1);
        let mut walker = PersonalizedWalker::new(eng.social_store(), eng.walk_store(), 0.2, 7);
        let result = walker.walk(NodeId(0), 500);
        assert!(result.total_visits >= 500);
        assert_eq!(visits(&result).iter().sum::<u64>(), result.total_visits);
        assert!(result.count(NodeId(0)) > 0, "the seed is always visited");
        assert!(!result.budget_exhausted);
    }

    #[test]
    fn only_reachable_nodes_are_visited() {
        // Two disjoint cycles 0-1-2 and 3-4-5; a walk from node 0 must never see 3..6.
        let mut g = DynamicGraph::with_nodes(6);
        for &(s, t) in &[(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)] {
            g.add_edge(Edge::new(s, t));
        }
        let eng = engine(&g, 4, 3);
        let mut walker = PersonalizedWalker::new(eng.social_store(), eng.walk_store(), 0.2, 11);
        let result = walker.walk(NodeId(0), 2_000);
        for node in 3..6 {
            assert_eq!(
                result.count(NodeId(node)),
                0,
                "unreachable node {node} was visited"
            );
        }
        assert!(result.frequency(NodeId(0)) > 0.2);
    }

    #[test]
    fn fetches_are_counted_and_bounded_by_touched_nodes() {
        let g = preferential_attachment(300, 4, 5);
        let eng = engine(&g, 5, 7);
        eng.social_store().reset_metrics();
        let mut walker = PersonalizedWalker::new(eng.social_store(), eng.walk_store(), 0.2, 13);
        let result = walker.walk(NodeId(10), 3_000);
        assert!(
            result.fetches > 0,
            "a non-trivial walk must fetch something"
        );
        assert_eq!(
            result.fetches,
            eng.social_store().metrics().fetches,
            "walker fetch count must agree with the store's accounting"
        );
        let touched = result.counts().count() as u64;
        assert!(
            result.fetches <= touched,
            "each fetch targets a distinct visited node ({} fetches, {touched} touched)",
            result.fetches
        );
    }

    #[test]
    fn caching_segments_reduces_fetches_versus_plain_walking() {
        // With R cached segments per node the walk needs far fewer fetches than visits.
        let g = preferential_attachment(500, 5, 9);
        let eng = engine(&g, 10, 11);
        let mut walker = PersonalizedWalker::new(eng.social_store(), eng.walk_store(), 0.2, 17);
        let result = walker.walk(NodeId(0), 5_000);
        assert!(
            (result.fetches as f64) < 0.5 * result.total_visits as f64,
            "stitching should save most per-step accesses: {} fetches for {} visits",
            result.fetches,
            result.total_visits
        );
        assert!(result.segments_used > 0);
    }

    #[test]
    fn frequencies_sum_to_one() {
        let g = directed_cycle(5);
        let eng = engine(&g, 2, 13);
        let mut walker = PersonalizedWalker::new(eng.social_store(), eng.walk_store(), 0.2, 19);
        let result = walker.walk(NodeId(2), 800);
        let sum: f64 = result.frequencies().iter().sum();
        assert!((sum - 1.0).abs() < 1e-9);
    }

    #[test]
    fn top_k_excludes_seed_and_friends() {
        let mut g = DynamicGraph::with_nodes(6);
        for &(s, t) in &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (0, 2)] {
            g.add_edge(Edge::new(s, t));
        }
        let eng = engine(&g, 5, 17);
        let mut walker = PersonalizedWalker::new(eng.social_store(), eng.walk_store(), 0.2, 23);
        let top = walker.top_k(NodeId(0), 4, 3_000, true);
        for &(node, _) in &top {
            assert_ne!(node, NodeId(0));
            assert_ne!(node, NodeId(1), "friend 1 must be excluded");
            assert_ne!(node, NodeId(2), "friend 2 must be excluded");
        }
        assert!(!top.is_empty());
        // Scores are sorted in decreasing order.
        for pair in top.windows(2) {
            assert!(pair[0].1 >= pair[1].1);
        }
    }

    #[test]
    fn personalized_distribution_favours_nearby_nodes() {
        // On a long path-with-return, nodes close to the seed get higher frequency.
        let mut g = DynamicGraph::with_nodes(20);
        for i in 0..19u32 {
            g.add_edge(Edge::new(i, i + 1));
        }
        g.add_edge(Edge::new(19, 0));
        let eng = engine(&g, 5, 19);
        let mut walker = PersonalizedWalker::new(eng.social_store(), eng.walk_store(), 0.3, 29);
        let result = walker.walk(NodeId(0), 20_000);
        assert!(result.frequency(NodeId(1)) > result.frequency(NodeId(10)));
        assert!(result.frequency(NodeId(2)) > result.frequency(NodeId(15)));
    }

    #[test]
    fn result_top_k_respects_exclusions_and_order() {
        let result = result_of(&[10, 5, 7, 0, 3]);
        assert_eq!(result.total_visits, 25);
        let exclude: HashSet<NodeId> = [NodeId(0)].into_iter().collect();
        let top = result.top_k(2, &exclude);
        assert_eq!(top.len(), 2);
        assert_eq!(top[0].0, NodeId(2));
        assert_eq!(top[1].0, NodeId(1));
        assert!((top[0].1 - 7.0 / 25.0).abs() < 1e-12);
        // The scratch-reusing variant is the same selection, and one scratch
        // serves repeated calls.
        let mut scratch = TopKScratch::default();
        assert_eq!(result.top_k_with(2, &exclude, &mut scratch), top);
        assert_eq!(result.top_k_with(2, &exclude, &mut scratch), top);
        let mut buf = vec![99.0; 1];
        result.frequencies_into(&mut buf);
        assert_eq!(buf, result.frequencies());
    }

    #[test]
    fn walk_query_is_a_pure_function_of_seed_and_id() {
        let g = preferential_attachment(200, 4, 21);
        let eng = engine(&g, 4, 23);
        let walker = PersonalizedWalker::new(eng.social_store(), eng.walk_store(), 0.2, 0);
        let a = walker.walk_query(NodeId(3), 2_000, 99, 7);
        let b = walker.walk_query(NodeId(3), 2_000, 99, 7);
        assert_eq!(visits(&a), visits(&b), "same stream, same walk");
        assert_eq!(a.fetches, b.fetches);
        let c = walker.walk_query(NodeId(3), 2_000, 99, 8);
        assert_ne!(
            visits(&a),
            visits(&c),
            "different query ids draw different walks"
        );
    }

    #[test]
    fn walk_query_matches_across_live_store_and_frozen_view() {
        // The serving contract in miniature: the same (query_seed, query_id) against
        // the live stores and against a frozen generation gives identical results.
        let g = preferential_attachment(150, 4, 31);
        let eng = engine(&g, 3, 37);
        let live = PersonalizedWalker::new(eng.social_store(), eng.walk_store(), 0.2, 0);
        let frozen_walks = FrozenWalks::from_index(eng.walk_store(), 0);
        let frozen_graph = FrozenGraph::from_graph(eng.graph());
        let pinned = PersonalizedWalker::new(&frozen_graph, &frozen_walks, 0.2, 0);
        for qid in 0..4u64 {
            let a = live.walk_query(NodeId(5), 1_500, 41, qid);
            let b = pinned.walk_query(NodeId(5), 1_500, 41, qid);
            assert_eq!(visits(&a), visits(&b), "query {qid} diverges across views");
            assert_eq!(a.fetches, b.fetches);
            assert_eq!(a.segments_used, b.segments_used);
        }
    }

    #[test]
    fn fetch_budget_stops_the_walk_deterministically() {
        let g = preferential_attachment(300, 4, 41);
        let eng = engine(&g, 2, 43);
        let unbounded = PersonalizedWalker::new(eng.social_store(), eng.walk_store(), 0.2, 0);
        let full = unbounded.walk_query(NodeId(1), 5_000, 5, 0);
        assert!(full.fetches > 4, "need a walk that actually fetches");

        let budget = full.fetches / 2;
        let bounded = PersonalizedWalker::new(eng.social_store(), eng.walk_store(), 0.2, 0)
            .with_fetch_budget(budget);
        let cut = bounded.walk_query(NodeId(1), 5_000, 5, 0);
        assert!(cut.budget_exhausted, "the cap must trip");
        assert_eq!(cut.fetches, budget, "spends exactly the budget");
        assert!(cut.total_visits < full.total_visits);
        // Replaying the budgeted query is bit-identical too.
        let again = bounded.walk_query(NodeId(1), 5_000, 5, 0);
        assert_eq!(visits(&cut), visits(&again));
        // A generous budget never trips.
        let roomy = PersonalizedWalker::new(eng.social_store(), eng.walk_store(), 0.2, 0)
            .with_fetch_budget(full.fetches);
        assert!(!roomy.walk_query(NodeId(1), 5_000, 5, 0).budget_exhausted);
    }

    #[test]
    fn walk_query_into_reuses_scratch_bit_identically() {
        let g = preferential_attachment(250, 4, 51);
        let eng = engine(&g, 3, 53);
        let walker = PersonalizedWalker::new(eng.social_store(), eng.walk_store(), 0.2, 0);
        let mut scratch = WalkScratch::new();
        let mut pooled = PersonalizedWalkResult::default();
        // Interleave different queries through the same scratch: every outcome
        // must match the allocating path bit for bit.
        for qid in 0..6u64 {
            let seed = NodeId((qid % 5) as u32);
            walker.walk_query_into(seed, 1_200, 77, qid, &mut scratch, &mut pooled);
            let fresh = walker.walk_query(seed, 1_200, 77, qid);
            assert_eq!(visits(&pooled), visits(&fresh), "query {qid} diverges");
            assert_eq!(pooled.fetches, fresh.fetches);
            assert_eq!(pooled.segments_used, fresh.segments_used);
            assert_eq!(pooled.total_visits, fresh.total_visits);
        }
    }

    #[test]
    fn deadline_budget_is_deterministic_under_a_manual_clock() {
        use ppr_telemetry::ManualClock;
        let g = preferential_attachment(300, 4, 61);
        let eng = engine(&g, 2, 63);

        // A frozen clock with a nonzero budget never expires: bit-identical to
        // the unbudgeted walk.
        let clock = ManualClock::new();
        let free = PersonalizedWalker::new(eng.social_store(), eng.walk_store(), 0.2, 0);
        let full = free.walk_query(NodeId(1), 5_000, 5, 0);
        let roomy = PersonalizedWalker::new(eng.social_store(), eng.walk_store(), 0.2, 0)
            .with_deadline_budget(&clock, 1);
        let timed = roomy.walk_query(NodeId(1), 5_000, 5, 0);
        assert_eq!(visits(&timed), visits(&full));
        assert!(!timed.deadline_exhausted);

        // A zero budget expires at the first fetch: a deterministic partial
        // result with the deadline flag set, stable under replay.
        let strict = PersonalizedWalker::new(eng.social_store(), eng.walk_store(), 0.2, 0)
            .with_deadline_budget(&clock, 0);
        let cut = strict.walk_query(NodeId(1), 5_000, 5, 0);
        assert!(
            cut.deadline_exhausted,
            "zero budget trips at the first fetch"
        );
        assert!(!cut.budget_exhausted, "the fetch budget was never involved");
        assert_eq!(cut.fetches, 0);
        assert!(cut.total_visits < full.total_visits);
        let again = strict.walk_query(NodeId(1), 5_000, 5, 0);
        assert_eq!(
            visits(&cut),
            visits(&again),
            "deadline cuts replay bit-identically"
        );

        // Advancing the clock between walks does not leak budget across walks:
        // each walk reads its own start time.
        clock.advance(1_000_000);
        let after = roomy.walk_query(NodeId(1), 5_000, 5, 0);
        assert_eq!(
            visits(&after),
            visits(&full),
            "budget is per walk, not per walker"
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Partial selection ≡ the dense scan + full sort it replaced, on count
        /// vectors with heavy ties, arbitrary exclusions, the edge values of `k`,
        /// and one result + one scratch reused across node counts that grow and
        /// shrink between walks.
        #[test]
        fn top_k_selection_equals_the_full_sort_reference(
            walks in proptest::collection::vec(
                (
                    proptest::collection::vec(0u64..4, 1..260),
                    proptest::collection::hash_set(0u32..300, 0..48),
                ),
                1..5,
            ),
        ) {
            let mut reused = PersonalizedWalkResult::default();
            let mut scratch = TopKScratch::default();
            for (counts, exclude) in &walks {
                let exclude: HashSet<NodeId> = exclude.iter().map(|&i| NodeId(i)).collect();
                refill(&mut reused, counts);
                let fresh = result_of(counts);
                prop_assert_eq!(visits(&reused), counts.clone());
                prop_assert_eq!(reused.frequencies(), fresh.frequencies());
                let candidates = counts
                    .iter()
                    .enumerate()
                    .filter(|&(i, &c)| c > 0 && !exclude.contains(&NodeId::from_index(i)))
                    .count();
                for k in [0, 1, 10, candidates, candidates + 7] {
                    let expected = top_k_reference(&fresh, k, &exclude);
                    prop_assert_eq!(expected.len(), k.min(candidates));
                    prop_assert_eq!(reused.top_k_with(k, &exclude, &mut scratch), expected.clone());
                    prop_assert_eq!(fresh.top_k(k, &exclude), expected);
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// One scratch and one result carried across graphs of different sizes
        /// (growth and shrink): every pooled walk equals the allocating walk on
        /// the same stream, so neither the fetched-node table nor the count table
        /// leaks state from a previous walk or depends on `n`.
        #[test]
        fn walk_query_into_equals_walk_query_across_graph_sizes(
            sizes in proptest::collection::vec(20usize..220, 2..5),
            query_seed in 0u64..1_000,
        ) {
            let mut scratch = WalkScratch::new();
            let mut pooled = PersonalizedWalkResult::default();
            for (g, &n) in sizes.iter().enumerate() {
                let graph = preferential_attachment(n, 3, query_seed + g as u64);
                let eng = engine(&graph, 2, 7 + g as u64);
                let walker = PersonalizedWalker::new(eng.social_store(), eng.walk_store(), 0.2, 0);
                for qid in 0..4u64 {
                    let seed = NodeId::from_index((qid as usize * 13 + g) % n);
                    walker.walk_query_into(seed, 600, query_seed, qid, &mut scratch, &mut pooled);
                    let fresh = walker.walk_query(seed, 600, query_seed, qid);
                    prop_assert_eq!(visits(&pooled), visits(&fresh));
                    for node in 0..n {
                        let node = NodeId::from_index(node);
                        prop_assert_eq!(pooled.count(node), fresh.count(node));
                    }
                    prop_assert!(pooled.counts().eq(fresh.counts()), "same first-visit order");
                    prop_assert_eq!(pooled.fetches, fresh.fetches);
                    prop_assert_eq!(pooled.segments_used, fresh.segments_used);
                    prop_assert_eq!(pooled.total_visits, fresh.total_visits);
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "seed node")]
    fn rejects_out_of_range_seed() {
        let g = directed_cycle(3);
        let eng = engine(&g, 1, 23);
        let mut walker = PersonalizedWalker::new(eng.social_store(), eng.walk_store(), 0.2, 31);
        let _ = walker.walk(NodeId(50), 10);
    }

    #[test]
    #[should_panic(expected = "must cover the same node set")]
    fn rejects_mismatched_stores() {
        let g = directed_cycle(3);
        let eng = engine(&g, 1, 29);
        let other_walks = ppr_store::WalkStore::new(10, 1);
        let _ = PersonalizedWalker::new(eng.social_store(), &other_walks, 0.2, 37);
    }
}
