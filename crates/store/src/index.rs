//! The store-API layer every engine consumes.
//!
//! [`WalkIndexView`] is the pure *query* surface of the PageRank Store: segment paths
//! and the exact `W(v)` / total-visit counters — everything a read-only consumer (the
//! personalized walker of Algorithm 1, the global estimator, the SALSA hub/authority
//! derivation, the serving layer's pinned snapshots) needs, and nothing more.  Because
//! every method takes `&self` and no method exposes maintenance machinery, a
//! `WalkIndexView` can be a live store *or* a frozen generation snapshot
//! ([`crate::view::FrozenWalks`]): queries written against it run unchanged over
//! either, which is what lets the serving layer answer queries concurrently with
//! writes.
//!
//! [`WalkIndex`] extends the view with the *maintenance* read surface — the visit
//! postings that find the segments an arriving edge can disturb, and the arena
//! counters.  The Monte Carlo engines' update paths are written against this trait,
//! so they run unchanged over the flat-arena [`WalkStore`] and over the file-backed
//! store that wraps it.
//!
//! [`WalkIndexMut`] is the matching write surface: growing the node set, rewriting or
//! clearing one segment, filling an empty store from a construction plan with one
//! bulk index build, and applying a whole [`SegmentRewrites`] plan at once.  The
//! engines compute every repair against the immutable pre-batch store, then hand the
//! finished plan to the store, which a file-backed layout uses to track the pages a
//! batch dirties.

use crate::postings::PostingsIter;
use crate::segment::SegmentId;
use crate::walks::WalkStore;
use ppr_graph::NodeId;
use std::borrow::Cow;

/// The read-only query surface of a PageRank Store: `R` walk segments per node plus
/// the exact visit counters.  Implemented both by the live stores (through
/// [`WalkIndex`]) and by frozen generation snapshots ([`crate::view::FrozenWalks`]).
pub trait WalkIndexView {
    /// Number of segments stored per node.
    fn r(&self) -> usize;

    /// Number of nodes the store addresses.
    fn node_count(&self) -> usize;

    /// The stored path of segment `id` (empty if not generated yet).
    fn segment_path(&self, id: SegmentId) -> &[NodeId];

    /// The source node of segment `id`.
    fn source_of(&self, id: SegmentId) -> NodeId;

    /// Ids of the `R` segments whose source is `node`.
    fn segment_ids_of(&self, node: NodeId) -> impl Iterator<Item = SegmentId> + '_;

    /// Number of visits in segment `id`.
    fn segment_len(&self, id: SegmentId) -> usize {
        self.segment_path(id).len()
    }

    /// `true` when segment `id` has not been generated yet.
    fn segment_is_empty(&self, id: SegmentId) -> bool {
        self.segment_len(id) == 0
    }

    /// The first visit of segment `id` (its source), if generated.
    fn segment_source(&self, id: SegmentId) -> Option<NodeId> {
        self.segment_path(id).first().copied()
    }

    /// The last visit of segment `id` (where the reset happened), if generated.
    fn segment_last(&self, id: SegmentId) -> Option<NodeId> {
        self.segment_path(id).last().copied()
    }

    /// Positions (indices into the path) at which segment `id` visits `node`, in
    /// increasing order, without allocating.
    fn positions_of(&self, id: SegmentId, node: NodeId) -> impl Iterator<Item = usize> + '_ {
        self.segment_path(id)
            .iter()
            .enumerate()
            .filter_map(move |(i, &v)| (v == node).then_some(i))
    }

    /// The first position at which segment `id` traverses the directed edge
    /// `from -> to`, if any.
    fn first_traversal(&self, id: SegmentId, from: NodeId, to: NodeId) -> Option<usize> {
        self.segment_path(id)
            .windows(2)
            .position(|w| w[0] == from && w[1] == to)
    }

    /// Whether segment `id` traverses the directed edge `from -> to` at any step.
    fn uses_edge(&self, id: SegmentId, from: NodeId, to: NodeId) -> bool {
        self.first_traversal(id, from, to).is_some()
    }

    /// Total walk-segment visits to `node` (the paper's `W(v)` / the estimator's `X_v`).
    fn visit_count(&self, node: NodeId) -> u64;

    /// The full visit-count vector, indexed by node.  Stores that keep the counters
    /// in one flat vector borrow (`Cow::Borrowed`); only stores that stripe them —
    /// per generation chunk — materialize an owned vector.
    fn visit_counts(&self) -> Cow<'_, [u64]>;

    /// Sum of all visit counts (total stored walk length).
    fn total_visits(&self) -> u64;

    /// The Section 2.2 pre-filter probability `1 - (1 - 1/d)^{W(v)}`.
    fn update_probability(&self, node: NodeId, out_degree: usize) -> f64 {
        if out_degree == 0 {
            return 0.0;
        }
        let w = self.visit_count(node);
        1.0 - (1.0 - 1.0 / out_degree as f64).powi(i32::try_from(w.min(i32::MAX as u64)).unwrap())
    }
}

/// Maintenance-side read access to a PageRank Store: the full query surface of
/// [`WalkIndexView`] plus the visit postings (which segments an update must inspect)
/// and arena observability.
pub trait WalkIndex: WalkIndexView {
    /// The segments visiting `node` with their multiplicities, in segment-id order:
    /// an iterator that is also the one cursor a detection scan seeks visit slots
    /// with ([`PostingsIter::seek`]).  Every layout keeps [`crate::VisitPostings`] per
    /// node and hands out theirs.
    fn segments_visiting(&self, node: NodeId) -> PostingsIter<'_>;

    /// Number of distinct segments visiting `node`.
    fn distinct_visitors(&self, node: NodeId) -> usize {
        self.segments_visiting(node).count()
    }

    /// Allocation- and compaction-behaviour counters of the backing step arena.
    /// Observability only — engines use the deltas to charge compaction pauses to the
    /// batch that triggered them.
    fn arena_stats(&self) -> crate::arena::ArenaStats;

    /// Emits this store's observability counters into a telemetry snapshot
    /// builder.  The default covers what every layout has — the arena stats —
    /// under the `arena` segment; layouts with more to say (pager residency,
    /// on-disk compaction) override and extend this.
    fn emit_telemetry(&self, out: &mut ppr_telemetry::SnapshotBuilder) {
        out.source("arena", &self.arena_stats());
    }
}

/// A batch of segment rewrites, stored flat: each entry replaces one segment's whole
/// path.  Built by the engines' batched reroute path and consumed by
/// [`WalkIndexMut::apply_rewrites`]; the flat layout (one id vector, one bounds vector,
/// one step buffer) keeps plan construction allocation-free in steady state.
#[derive(Debug, PartialEq, Eq)]
pub struct SegmentRewrites {
    ids: Vec<SegmentId>,
    /// `bounds[k]..bounds[k + 1]` is entry `k`'s slice of `steps`.
    bounds: Vec<usize>,
    steps: Vec<NodeId>,
}

impl Clone for SegmentRewrites {
    fn clone(&self) -> Self {
        SegmentRewrites {
            ids: self.ids.clone(),
            bounds: self.bounds.clone(),
            steps: self.steps.clone(),
        }
    }

    /// Buffer-reusing clone: recording a plan into a recycled one is
    /// allocation-free once the target's buffers have grown to steady-state size.
    fn clone_from(&mut self, source: &Self) {
        self.ids.clone_from(&source.ids);
        self.bounds.clone_from(&source.bounds);
        self.steps.clone_from(&source.steps);
    }
}

impl Default for SegmentRewrites {
    fn default() -> Self {
        Self::new()
    }
}

impl SegmentRewrites {
    /// Creates an empty plan.
    pub fn new() -> Self {
        SegmentRewrites {
            ids: Vec::new(),
            bounds: vec![0],
            steps: Vec::new(),
        }
    }

    /// Empties the plan, keeping its buffers for reuse.
    pub fn clear(&mut self) {
        self.ids.clear();
        self.bounds.truncate(1);
        self.steps.clear();
    }

    /// Appends one rewrite: segment `id`'s path becomes `path`.
    pub fn push(&mut self, id: SegmentId, path: &[NodeId]) {
        self.ids.push(id);
        self.steps.extend_from_slice(path);
        self.bounds.push(self.steps.len());
    }

    /// Number of rewrites in the plan.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// `true` when the plan is empty.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// The `k`-th rewrite as `(segment, new path)`.
    pub fn get(&self, k: usize) -> (SegmentId, &[NodeId]) {
        (self.ids[k], &self.steps[self.bounds[k]..self.bounds[k + 1]])
    }

    /// Iterates the rewrites in plan order.
    pub fn iter(&self) -> impl Iterator<Item = (SegmentId, &[NodeId])> + '_ {
        (0..self.len()).map(move |k| self.get(k))
    }
}

/// Write access to a PageRank Store.
///
/// The contract every implementation shares: after any sequence of calls, the visit
/// postings, the `W(v)` counters, and `total_visits` describe exactly the union of the
/// currently stored segment paths ([`WalkIndexMut::check_consistency`] verifies this
/// from scratch).  [`WalkIndexMut::apply_rewrites`] must be observationally equivalent
/// to calling [`WalkIndexMut::set_segment`] for each plan entry in order.
pub trait WalkIndexMut: WalkIndex {
    /// Grows the store to address at least `n` nodes (new nodes start with empty
    /// segments).
    fn ensure_nodes(&mut self, n: usize);

    /// Replaces the path of segment `id`, keeping every index consistent.
    ///
    /// # Panics
    ///
    /// Panics if the new path is non-empty and does not start at the segment's source
    /// node, or if it visits a node outside the store.
    fn set_segment(&mut self, id: SegmentId, path: &[NodeId]);

    /// Clears the segment with the given id (used before regenerating it from scratch).
    fn clear_segment(&mut self, id: SegmentId);

    /// Installs a whole plan into a store that holds no visits yet — engine
    /// construction's one write.  Must leave exactly the state the sequential
    /// [`WalkIndexMut::set_segment`] loop over the plan would (arena geometry
    /// included), but builds the visit index once, in bulk, instead of one postings
    /// update per visit.
    ///
    /// # Panics
    ///
    /// Panics if the store already holds visits, or on a path
    /// [`WalkIndexMut::set_segment`] would reject.
    fn fill(&mut self, plan: &SegmentRewrites);

    /// Recomputes the visit index from scratch and compares it against the maintained
    /// counters and postings.
    fn check_consistency(&self) -> Result<(), String>;

    /// Applies a whole rewrite plan.  Must produce exactly the state sequential
    /// [`WalkIndexMut::set_segment`] calls would; the default implementation is that
    /// sequential loop.
    fn apply_rewrites(&mut self, rewrites: &SegmentRewrites) {
        for (id, path) in rewrites.iter() {
            self.set_segment(id, path);
        }
    }
}

impl WalkIndexView for WalkStore {
    #[inline]
    fn r(&self) -> usize {
        WalkStore::r(self)
    }

    #[inline]
    fn node_count(&self) -> usize {
        WalkStore::node_count(self)
    }

    #[inline]
    fn segment_path(&self, id: SegmentId) -> &[NodeId] {
        WalkStore::segment_path(self, id)
    }

    #[inline]
    fn source_of(&self, id: SegmentId) -> NodeId {
        WalkStore::source_of(self, id)
    }

    fn segment_ids_of(&self, node: NodeId) -> impl Iterator<Item = SegmentId> + '_ {
        WalkStore::segment_ids_of(self, node)
    }

    #[inline]
    fn segment_len(&self, id: SegmentId) -> usize {
        WalkStore::segment_len(self, id)
    }

    #[inline]
    fn visit_count(&self, node: NodeId) -> u64 {
        WalkStore::visit_count(self, node)
    }

    fn visit_counts(&self) -> Cow<'_, [u64]> {
        Cow::Borrowed(WalkStore::visit_counts(self))
    }

    #[inline]
    fn total_visits(&self) -> u64 {
        WalkStore::total_visits(self)
    }

    fn update_probability(&self, node: NodeId, out_degree: usize) -> f64 {
        WalkStore::update_probability(self, node, out_degree)
    }
}

impl WalkIndex for WalkStore {
    fn segments_visiting(&self, node: NodeId) -> PostingsIter<'_> {
        WalkStore::segments_visiting(self, node)
    }

    fn arena_stats(&self) -> crate::arena::ArenaStats {
        WalkStore::arena_stats(self)
    }
}

impl WalkIndexMut for WalkStore {
    fn ensure_nodes(&mut self, n: usize) {
        WalkStore::ensure_nodes(self, n);
    }

    fn set_segment(&mut self, id: SegmentId, path: &[NodeId]) {
        WalkStore::set_segment(self, id, path);
    }

    fn clear_segment(&mut self, id: SegmentId) {
        WalkStore::clear_segment(self, id);
    }

    fn fill(&mut self, plan: &SegmentRewrites) {
        WalkStore::fill(self, plan);
    }

    fn check_consistency(&self) -> Result<(), String> {
        WalkStore::check_consistency(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A consumer written purely against the trait, as the estimator is.
    fn total_via_trait<W: WalkIndex>(index: &W) -> u64 {
        (0..index.node_count())
            .map(|v| index.visit_count(NodeId::from_index(v)))
            .sum()
    }

    #[test]
    fn walk_store_implements_the_full_surface() {
        let mut store = WalkStore::new(4, 2);
        let id = SegmentId::new(NodeId(1), 0, 2);
        store.set_segment(id, &[NodeId(1), NodeId(2), NodeId(2)]);

        assert_eq!(total_via_trait(&store), 3);
        assert_eq!(WalkIndexView::r(&store), 2);
        assert_eq!(WalkIndexView::node_count(&store), 4);
        assert_eq!(
            WalkIndexView::segment_path(&store, id),
            &[NodeId(1), NodeId(2), NodeId(2)]
        );
        assert_eq!(WalkIndexView::source_of(&store, id), NodeId(1));
        assert_eq!(WalkIndexView::segment_ids_of(&store, NodeId(1)).count(), 2);
        assert_eq!(
            WalkIndex::segments_visiting(&store, NodeId(2)).collect::<Vec<_>>(),
            vec![(id, 2)]
        );
        assert_eq!(WalkIndex::distinct_visitors(&store, NodeId(2)), 1);
        assert_eq!(WalkIndexView::visit_count(&store, NodeId(2)), 2);
        assert_eq!(WalkIndexView::visit_counts(&store), vec![0, 1, 2, 0]);
        assert_eq!(WalkIndexView::total_visits(&store), 3);
        let p = WalkIndexView::update_probability(&store, NodeId(2), 2);
        assert!((p - 0.75).abs() < 1e-12);
        assert_eq!(WalkIndexView::update_probability(&store, NodeId(2), 0), 0.0);
    }

    #[test]
    fn default_path_helpers_read_through_segment_path() {
        let mut store = WalkStore::new(4, 1);
        let id = SegmentId::new(NodeId(0), 0, 1);
        store.set_segment(id, &[NodeId(0), NodeId(1), NodeId(2), NodeId(1)]);
        assert_eq!(WalkIndexView::segment_len(&store, id), 4);
        assert!(!WalkIndexView::segment_is_empty(&store, id));
        assert_eq!(WalkIndexView::segment_source(&store, id), Some(NodeId(0)));
        assert_eq!(WalkIndexView::segment_last(&store, id), Some(NodeId(1)));
        assert_eq!(
            WalkIndexView::positions_of(&store, id, NodeId(1)).collect::<Vec<_>>(),
            [1, 3]
        );
        assert_eq!(
            WalkIndexView::first_traversal(&store, id, NodeId(2), NodeId(1)),
            Some(2)
        );
        assert!(WalkIndexView::uses_edge(&store, id, NodeId(1), NodeId(2)));
        assert!(!WalkIndexView::uses_edge(&store, id, NodeId(2), NodeId(0)));
    }

    #[test]
    fn rewrite_plan_roundtrips_and_reuses_buffers() {
        let mut plan = SegmentRewrites::new();
        assert!(plan.is_empty());
        plan.push(SegmentId(3), &[NodeId(1), NodeId(2)]);
        plan.push(SegmentId(0), &[]);
        plan.push(SegmentId(7), &[NodeId(4)]);
        assert_eq!(plan.len(), 3);
        let collected: Vec<(SegmentId, Vec<NodeId>)> =
            plan.iter().map(|(id, path)| (id, path.to_vec())).collect();
        assert_eq!(
            collected,
            vec![
                (SegmentId(3), vec![NodeId(1), NodeId(2)]),
                (SegmentId(0), vec![]),
                (SegmentId(7), vec![NodeId(4)]),
            ]
        );
        plan.clear();
        assert!(plan.is_empty());
        plan.push(SegmentId(1), &[NodeId(0)]);
        assert_eq!(plan.get(0), (SegmentId(1), &[NodeId(0)][..]));
    }

    #[test]
    fn default_apply_rewrites_equals_sequential_set_segment() {
        let mut plan = SegmentRewrites::new();
        plan.push(SegmentId::new(NodeId(0), 0, 1), &[NodeId(0), NodeId(1)]);
        plan.push(SegmentId::new(NodeId(2), 0, 1), &[NodeId(2), NodeId(1)]);
        // The same segment twice: later entries win, exactly as sequential calls would.
        plan.push(SegmentId::new(NodeId(0), 0, 1), &[NodeId(0), NodeId(2)]);

        let mut via_plan = WalkStore::new(3, 1);
        via_plan.apply_rewrites(&plan);
        let mut via_calls = WalkStore::new(3, 1);
        for (id, path) in plan.iter() {
            WalkIndexMut::set_segment(&mut via_calls, id, path);
        }
        assert_eq!(via_plan.visit_counts(), via_calls.visit_counts());
        assert_eq!(via_plan.total_visits(), via_calls.total_visits());
        assert_eq!(
            WalkIndexView::segment_path(&via_plan, SegmentId::new(NodeId(0), 0, 1)),
            &[NodeId(0), NodeId(2)]
        );
        assert!(via_plan.check_consistency().is_ok());
    }
}
