//! The PageRank Store: per-node cached walk segments with visit indexing.
//!
//! Section 2.1 of the paper stores `R` walk segments per node, "where each segment is
//! stored at every node that it passes through".  That secondary index is what makes
//! incremental maintenance cheap: when an edge `(u, v)` arrives, only the segments that
//! visit `u` can possibly need an update.  [`WalkStore`] keeps:
//!
//! * the segments themselves, in `R` consecutive slots per source node, laid out in a
//!   single flat [`StepArena`] — one shared step buffer with per-segment `(offset, len,
//!   cap)` slots, so a steady-state reroute rewrites its slot **in place with zero heap
//!   allocations** (see [`crate::arena`]);
//! * for every node, the segments visiting it and their multiplicities, as compact
//!   [`VisitPostings`] — a blocked sorted `(SegmentId, count)` run updated in
//!   O(log W(v) + block) per stored step (see [`crate::postings`]);
//! * the exact running totals: per-node visit counts (`X_v` / `W(v)` in the paper) and
//!   their sum, maintained eagerly on every write so the estimator never sums a
//!   node's postings.
//!
//! Consumers read the store through the [`crate::WalkIndex`] API (`segment_path`,
//! `positions_of`, `segments_visiting`, …); no engine touches raw segment vectors.

use crate::arena::{ArenaStats, StepArena};
use crate::postings::{PostingsIter, VisitPostings};
use crate::segment::SegmentId;
use ppr_graph::NodeId;

/// Length of the longest common prefix of two paths: the visits a rewrite from `old`
/// to `new` leaves in place, which no index has to hear about.
fn common_prefix_len(old: &[NodeId], new: &[NodeId]) -> usize {
    old.iter().zip(new).take_while(|(a, b)| a == b).count()
}

/// Takes `visits` off `counts[node]`.  A counter that would go negative means the
/// index and the stored paths have diverged: a checked failure in every build, never
/// a wrapped `W(v)`.
fn forget_visits(counts: &mut [u64], node: usize, visits: u64) {
    counts[node] = counts[node].checked_sub(visits).unwrap_or_else(|| {
        panic!(
            "cannot take {visits} visits off node {node}, which counts {}",
            counts[node]
        )
    });
}

/// The visit index of a set of segment paths, counted in bulk: the per-node
/// `(segment, visits)` runs, the `W(v)` counters and their sum.  Two sweeps over the
/// paths in segment order — one counts each node's visits and distinct visiting
/// segments, the other fills runs allocated at exactly that length — so building it
/// costs O(visits) with no sort and no postings `record` call.
struct CountedIndex {
    /// Per node, strictly increasing by segment, counts positive.
    runs: Vec<Vec<(SegmentId, u32)>>,
    visit_counts: Vec<u64>,
    total_visits: u64,
}

impl CountedIndex {
    /// Indexes the paths `sweep` yields, in increasing segment order; every visit
    /// must address one of `node_count` nodes.  `sweep` is called once per sweep and
    /// yields the same paths each time.
    fn count<'a, I: Iterator<Item = (SegmentId, &'a [NodeId])>>(
        node_count: usize,
        sweep: impl Fn() -> I,
    ) -> Self {
        /// One node's first-sweep tally, kept together so a visit touches one line.
        #[derive(Clone, Copy, Default)]
        struct Tally {
            visits: u64,
            distinct: u32,
            /// One past the last segment seen visiting the node.
            last_visitor: u32,
        }
        let mut tallies = vec![Tally::default(); node_count];
        for (id, path) in sweep() {
            let tag = id.0 + 1;
            for &v in path {
                let tally = &mut tallies[v.index()];
                tally.visits += 1;
                if tally.last_visitor != tag {
                    tally.last_visitor = tag;
                    tally.distinct += 1;
                }
            }
        }
        let mut runs: Vec<Vec<(SegmentId, u32)>> = tallies
            .iter()
            .map(|tally| Vec::with_capacity(tally.distinct as usize))
            .collect();
        let visit_counts: Vec<u64> = tallies.iter().map(|tally| tally.visits).collect();
        drop(tallies);
        for (id, path) in sweep() {
            for &v in path {
                let run = &mut runs[v.index()];
                match run.last_mut() {
                    Some((last, count)) if *last == id => *count += 1,
                    _ => run.push((id, 1)),
                }
            }
        }
        let total_visits = visit_counts.iter().sum();
        CountedIndex {
            runs,
            visit_counts,
            total_visits,
        }
    }

    /// Installs the counted index into `store`, every node's run packed into
    /// [`VisitPostings`].
    fn install(self, store: &mut WalkStore) {
        store.postings = self
            .runs
            .into_iter()
            .map(|run| {
                VisitPostings::from_sorted_run(run)
                    .expect("a counted run is strictly increasing with positive counts")
            })
            .collect();
        store.visit_counts = self.visit_counts;
        store.total_visits = self.total_visits;
    }
}

/// Checks `path` against the shape of a store of `node_count` nodes with `r`
/// segments each: the segment exists, the path starts at its source and visits
/// only the store's nodes.
pub fn check_path(
    id: SegmentId,
    path: &[NodeId],
    r: usize,
    node_count: usize,
) -> Result<(), String> {
    if id.index() >= node_count * r {
        return Err(format!("segment {id:?} outside the store"));
    }
    if path.first().is_some_and(|&first| first != id.source(r)) {
        return Err(format!("segment {id:?} does not start at its source"));
    }
    if let Some(v) = path.iter().find(|v| v.index() >= node_count) {
        return Err(format!("segment {id:?} visits node {v} outside the store"));
    }
    Ok(())
}

/// A [`WalkStore`] being loaded from storage: paths go into the step arena as they
/// are read, unindexed, and the visit index is counted once, from the final paths,
/// by [`Self::finish`] or [`Self::finish_with`].
#[derive(Debug)]
pub struct WalkLoader {
    /// The store under construction; its index stays empty until the finish.
    store: WalkStore,
}

impl WalkLoader {
    /// Stores `path` as segment `id`'s, unindexed.  Fails, storing nothing, if the
    /// path does not fit the store's shape: the segment exists, the path starts at
    /// its source and visits only the store's nodes.
    pub fn write(&mut self, id: SegmentId, path: &[NodeId]) -> Result<(), String> {
        let store = &mut self.store;
        check_path(id, path, store.r, store.node_count())?;
        store.arena.write(id.index(), path);
        Ok(())
    }

    /// Counts the visit index of every written path with the kernel of
    /// [`WalkStore::fill`] and returns the store.
    pub fn finish(self) -> WalkStore {
        let mut store = self.store;
        store.index_arena();
        store
    }

    /// Counts the visit index of the written paths together with the paths of
    /// segments held elsewhere (on disk, say), with the kernel of
    /// [`WalkStore::fill`].  `held` hands every held path, once, to the callback it
    /// is given, in any order; none of them may also be written here.  The callback
    /// checks the path as [`Self::write`] does and keeps a copy for the count, or
    /// returns why not; `held`'s own error is returned as it is.  The copies are
    /// dropped once the index is counted: the store keeps only the written paths.
    pub fn finish_with<E>(
        self,
        held: impl FnOnce(&mut dyn FnMut(SegmentId, &[NodeId]) -> Result<(), String>) -> Result<(), E>,
    ) -> Result<WalkStore, E> {
        let mut store = self.store;
        let (r, node_count) = (store.r, store.node_count());
        // Every held path, one after another, and (segment, first step, length).
        let mut steps: Vec<NodeId> = Vec::new();
        let mut entries: Vec<(SegmentId, usize, usize)> = Vec::new();
        held(&mut |id, path| {
            check_path(id, path, r, node_count)?;
            entries.push((id, steps.len(), path.len()));
            steps.extend_from_slice(path);
            Ok(())
        })?;
        entries.sort_unstable_by_key(|&(id, _, _)| id);
        assert!(
            entries.windows(2).all(|pair| pair[0].0 != pair[1].0),
            "a held segment was handed over twice"
        );
        let (arena, steps) = (&store.arena, &steps);
        let counted = CountedIndex::count(node_count, || {
            let mut held = entries.iter().peekable();
            (0..arena.slot_count()).map(move |slot| {
                let id = SegmentId(slot as u32);
                match held.next_if(|&&(held_id, _, _)| held_id == id) {
                    Some(&(_, start, len)) => (id, &steps[start..start + len]),
                    None => (id, arena.path(slot)),
                }
            })
        });
        counted.install(&mut store);
        Ok(store)
    }
}

/// Storage for `R` random-walk segments per node, indexed by visited node.
#[derive(Debug, Clone)]
pub struct WalkStore {
    r: usize,
    /// All walk steps, flat; segment `id` owns slot `id.index()`.
    arena: StepArena,
    /// For every node, which segments visit it and how many times.
    postings: Vec<VisitPostings>,
    /// Total visits per node (`X_v` / `W(v)` in the paper), maintained exactly.
    visit_counts: Vec<u64>,
    /// Sum of `visit_counts` (i.e. the total length of all stored segments).
    total_visits: u64,
}

impl WalkStore {
    /// Creates an empty store for `node_count` nodes with `r` segments per node.
    pub fn new(node_count: usize, r: usize) -> Self {
        assert!(r >= 1, "need at least one walk segment per node");
        WalkStore {
            r,
            arena: StepArena::new(node_count * r),
            postings: vec![VisitPostings::new(); node_count],
            visit_counts: vec![0; node_count],
            total_visits: 0,
        }
    }

    /// A store of `node_count` nodes with `r` segments each, to be loaded path by
    /// path and indexed once (see [`WalkLoader`]).
    ///
    /// # Panics
    ///
    /// Panics if `r` is zero.
    pub fn loader(node_count: usize, r: usize) -> WalkLoader {
        WalkLoader {
            store: WalkStore::new(node_count, r),
        }
    }

    /// Installs a whole plan into a store that holds no visits yet, observationally
    /// the sequential [`Self::set_segment`] loop over it: the arena is written in plan
    /// order (so its geometry is the loop's), then the visit index is counted in two
    /// sweeps of the stored paths, every node's postings packed by
    /// [`VisitPostings::from_sorted_run`] — no `record` call per visit, no sort.
    ///
    /// # Panics
    ///
    /// Panics if the store already holds visits, or on a path [`Self::set_segment`]
    /// would reject.
    pub fn fill(&mut self, plan: &crate::SegmentRewrites) {
        assert_eq!(
            self.total_visits, 0,
            "fill builds the index of an empty store, and this one holds visits"
        );
        let node_count = self.node_count();
        for (id, path) in plan.iter() {
            let source = self.source_of(id);
            assert!(
                path.first().is_none_or(|&first| first == source),
                "segment {id:?} must start at its source node {source}"
            );
            if let Some(v) = path.iter().find(|v| v.index() >= node_count) {
                panic!("segment visits node {v} outside the store (node_count = {node_count})");
            }
            self.arena.write(id.index(), path);
        }
        self.index_arena();
    }

    /// Counts the visit index of the paths in the arena and installs it.
    fn index_arena(&mut self) {
        let arena = &self.arena;
        let counted = CountedIndex::count(self.node_count(), || {
            (0..arena.slot_count()).map(|slot| (SegmentId(slot as u32), arena.path(slot)))
        });
        counted.install(self);
    }

    /// Installs `path` into segment `id`'s arena slot **without touching the visit
    /// index** — the postings and counters must already account for exactly this
    /// path.  This is the materialization half of demand paging: the index was
    /// counted wholesale by [`WalkLoader::finish_with`], the paths arrive one at a
    /// time as the disk store faults them.
    pub fn install_indexed_path(&mut self, id: SegmentId, path: &[NodeId]) {
        debug_assert_eq!(
            self.arena.len_of(id.index()),
            0,
            "slot already materialized"
        );
        debug_assert!(
            path.first()
                .is_none_or(|&first| first == self.source_of(id)),
            "segment {id:?} does not start at its source"
        );
        self.arena.write(id.index(), path);
    }

    /// Number of segments stored per node.
    #[inline]
    pub fn r(&self) -> usize {
        self.r
    }

    /// Number of nodes the store currently addresses.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.visit_counts.len()
    }

    /// Grows the store to address at least `n` nodes (new nodes start with empty
    /// segments).
    pub fn ensure_nodes(&mut self, n: usize) {
        if n <= self.node_count() {
            return;
        }
        self.arena.ensure_slots(n * self.r);
        self.postings.resize_with(n, VisitPostings::new);
        self.visit_counts.resize(n, 0);
    }

    /// Ids of the `R` segments whose source is `node`.
    pub fn segment_ids_of(&self, node: NodeId) -> impl Iterator<Item = SegmentId> + '_ {
        let r = self.r;
        (0..r).map(move |slot| SegmentId::new(node, slot, r))
    }

    /// The stored path of segment `id`, as a slice of the shared step arena.  Empty if
    /// the segment has not been generated yet.
    #[inline]
    pub fn segment_path(&self, id: SegmentId) -> &[NodeId] {
        self.arena.path(id.index())
    }

    /// Number of visits in segment `id`.
    #[inline]
    pub fn segment_len(&self, id: SegmentId) -> usize {
        self.arena.len_of(id.index())
    }

    /// `true` when segment `id` has not been generated yet.
    #[inline]
    pub fn segment_is_empty(&self, id: SegmentId) -> bool {
        self.segment_len(id) == 0
    }

    /// The first visit of segment `id` (its source), if generated.
    #[inline]
    pub fn segment_source(&self, id: SegmentId) -> Option<NodeId> {
        self.segment_path(id).first().copied()
    }

    /// The last visit of segment `id` (where the reset happened), if generated.
    #[inline]
    pub fn segment_last(&self, id: SegmentId) -> Option<NodeId> {
        self.segment_path(id).last().copied()
    }

    /// Positions (indices into the path) at which segment `id` visits `node`, in
    /// increasing order, without allocating.
    pub fn positions_of(&self, id: SegmentId, node: NodeId) -> impl Iterator<Item = usize> + '_ {
        self.segment_path(id)
            .iter()
            .enumerate()
            .filter_map(move |(i, &v)| (v == node).then_some(i))
    }

    /// The first position at which segment `id` traverses the directed edge
    /// `from -> to`, if any.
    pub fn first_traversal(&self, id: SegmentId, from: NodeId, to: NodeId) -> Option<usize> {
        self.segment_path(id)
            .windows(2)
            .position(|w| w[0] == from && w[1] == to)
    }

    /// Whether segment `id` traverses the directed edge `from -> to` at any step.
    pub fn uses_edge(&self, id: SegmentId, from: NodeId, to: NodeId) -> bool {
        self.first_traversal(id, from, to).is_some()
    }

    /// The source node of a segment id.
    #[inline]
    pub fn source_of(&self, id: SegmentId) -> NodeId {
        id.source(self.r)
    }

    /// Replaces the path of segment `id`, keeping every index consistent.  A rewrite
    /// that fits the segment's arena slot performs no heap allocation, and only the
    /// visits past the common prefix of the old and new path are re-indexed — a
    /// reroute keeps everything up to its pivot, so the kept visits never churn a
    /// hub's postings.
    ///
    /// # Panics
    ///
    /// Panics if the new path is non-empty and does not start at the segment's source
    /// node, or if it visits a node outside the store.
    pub fn set_segment(&mut self, id: SegmentId, path: &[NodeId]) {
        let source = self.source_of(id);
        if let Some(&first) = path.first() {
            assert_eq!(
                first, source,
                "segment {id:?} must start at its source node {source}"
            );
        }
        let old_path = self.arena.path(id.index());
        let kept = common_prefix_len(old_path, path);
        for &v in &path[kept..] {
            assert!(
                v.index() < self.visit_counts.len(),
                "segment visits node {v} outside the store (node_count = {})",
                self.visit_counts.len()
            );
        }
        for &v in &old_path[kept..] {
            self.postings[v.index()].record(id, -1);
            forget_visits(&mut self.visit_counts, v.index(), 1);
        }
        self.total_visits -= (old_path.len() - kept) as u64;
        for &v in &path[kept..] {
            self.postings[v.index()].record(id, 1);
            self.visit_counts[v.index()] += 1;
        }
        self.total_visits += (path.len() - kept) as u64;
        self.arena.write(id.index(), path);
    }

    /// Clears the segment with the given id (used before regenerating it from scratch).
    pub fn clear_segment(&mut self, id: SegmentId) {
        self.remove_from_index(id);
        self.arena.clear(id.index());
    }

    fn remove_from_index(&mut self, id: SegmentId) {
        let old_path = self.arena.path(id.index());
        for &v in old_path {
            self.postings[v.index()].record(id, -1);
            forget_visits(&mut self.visit_counts, v.index(), 1);
        }
        self.total_visits -= old_path.len() as u64;
    }

    /// The segments that currently visit `node`, with their visit multiplicities, in
    /// increasing segment-id order.
    pub fn segments_visiting(&self, node: NodeId) -> PostingsIter<'_> {
        self.postings[node.index()].iter()
    }

    /// Number of distinct segments visiting `node`.
    pub fn distinct_visitors(&self, node: NodeId) -> usize {
        self.postings[node.index()].distinct()
    }

    /// Total walk-segment visits to `node` — the paper's `W(v)` counter and the
    /// estimator's `X_v`.
    #[inline]
    pub fn visit_count(&self, node: NodeId) -> u64 {
        self.visit_counts[node.index()]
    }

    /// The full visit-count vector, indexed by node.
    pub fn visit_counts(&self) -> &[u64] {
        &self.visit_counts
    }

    /// Sum of all visit counts (total stored walk length).
    #[inline]
    pub fn total_visits(&self) -> u64 {
        self.total_visits
    }

    /// Allocation-behaviour counters of the backing step arena.
    pub fn arena_stats(&self) -> ArenaStats {
        self.arena.stats()
    }

    /// The probability `1 - (1 - 1/d)^{W(v)}` used by Section 2.2 to decide, on arrival
    /// of an edge out of `node` whose source now has out-degree `d`, whether the
    /// PageRank Store needs to be consulted at all.
    pub fn update_probability(&self, node: NodeId, out_degree: usize) -> f64 {
        if out_degree == 0 {
            return 0.0;
        }
        let w = self.visit_count(node);
        1.0 - (1.0 - 1.0 / out_degree as f64).powi(i32::try_from(w.min(i32::MAX as u64)).unwrap())
    }

    /// Debug check: recomputes the visit index from scratch and compares.
    pub fn check_consistency(&self) -> Result<(), String> {
        let mut counts = vec![0u64; self.node_count()];
        let mut total = 0u64;
        for slot in 0..self.arena.slot_count() {
            for &v in self.arena.path(slot) {
                counts[v.index()] += 1;
                total += 1;
            }
        }
        if counts != self.visit_counts {
            return Err("visit_counts out of sync with stored segments".to_string());
        }
        if total != self.total_visits {
            return Err(format!(
                "total_visits is {} but segments hold {total} visits",
                self.total_visits
            ));
        }
        for (v, postings) in self.postings.iter().enumerate() {
            let expected = postings.total();
            if expected != self.visit_counts[v] {
                return Err(format!(
                    "postings for node {v} sum to {expected}, expected {}",
                    self.visit_counts[v]
                ));
            }
            // Spot-check each posting against the arena.
            for (id, count) in postings.iter() {
                let actual = self
                    .segment_path(id)
                    .iter()
                    .filter(|&&n| n.index() == v)
                    .count() as u32;
                if actual != count {
                    return Err(format!(
                        "posting ({id:?}, {count}) at node {v} disagrees with the arena ({actual})"
                    ));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path(nodes: &[u32]) -> Vec<NodeId> {
        nodes.iter().map(|&n| NodeId(n)).collect()
    }

    #[test]
    fn set_segment_updates_indexes() {
        let mut store = WalkStore::new(4, 2);
        let id = SegmentId::new(NodeId(0), 0, 2);
        store.set_segment(id, &path(&[0, 1, 2, 1]));
        assert_eq!(store.visit_count(NodeId(1)), 2);
        assert_eq!(store.visit_count(NodeId(0)), 1);
        assert_eq!(store.total_visits(), 4);
        assert_eq!(store.distinct_visitors(NodeId(1)), 1);
        assert!(store.check_consistency().is_ok());
    }

    #[test]
    fn replacing_a_segment_removes_old_visits() {
        let mut store = WalkStore::new(4, 1);
        let id = SegmentId::new(NodeId(0), 0, 1);
        store.set_segment(id, &path(&[0, 1, 2]));
        store.set_segment(id, &path(&[0, 3]));
        assert_eq!(store.visit_count(NodeId(1)), 0);
        assert_eq!(store.visit_count(NodeId(2)), 0);
        assert_eq!(store.visit_count(NodeId(3)), 1);
        assert_eq!(store.total_visits(), 2);
        assert_eq!(store.distinct_visitors(NodeId(1)), 0);
        assert!(store.check_consistency().is_ok());
    }

    #[test]
    fn rewrites_re_index_only_past_the_common_prefix() {
        assert_eq!(
            common_prefix_len(&path(&[0, 1, 2]), &path(&[0, 1, 3, 2])),
            2
        );
        assert_eq!(common_prefix_len(&path(&[0, 1]), &path(&[0, 1])), 2);
        assert_eq!(common_prefix_len(&[], &path(&[0])), 0);

        // A hub (node 1) visited by many segments: rerouting one of them past the hub
        // must leave the hub's postings alone — no update for the kept visits.
        let mut store = WalkStore::new(40, 1);
        for n in 2..40u32 {
            store.set_segment(SegmentId::new(NodeId(n), 0, 1), &path(&[n, 1, 0]));
        }
        let records_before = store.postings[1].cost.records;
        let id = SegmentId::new(NodeId(7), 0, 1);
        for tail in [&[3u32, 3][..], &[], &[0], &[1, 0]] {
            let mut new_path = path(&[7, 1]);
            new_path.extend(path(tail));
            store.set_segment(id, &new_path);
            assert_eq!(store.segment_path(id), new_path.as_slice());
            assert!(store.check_consistency().is_ok());
        }
        // Only the last rewrite revisits the hub past the prefix; its extra visit is
        // the one update the hub's postings saw.
        assert_eq!(store.postings[1].cost.records, records_before + 1);
        assert_eq!(store.postings[1].count_of(id), 2);
        // A rewrite that diverges at the source's successor drops the hub visits.
        store.set_segment(id, &path(&[7, 2]));
        assert_eq!(store.postings[1].count_of(id), 0);
        assert_eq!(store.visit_count(NodeId(1)), 37);
        assert!(store.check_consistency().is_ok());
    }

    #[test]
    #[should_panic(expected = "cannot take 1 visits off node 2, which counts 0")]
    fn a_visit_counter_never_wraps_below_zero() {
        let mut store = WalkStore::new(3, 1);
        let id = SegmentId::new(NodeId(1), 0, 1);
        store.set_segment(id, &path(&[1, 2]));
        // Force the divergence no public call can produce.
        store.visit_counts[2] = 0;
        store.set_segment(id, &path(&[1]));
    }

    #[test]
    fn clear_segment_resets_everything_it_touched() {
        let mut store = WalkStore::new(3, 1);
        let id = SegmentId::new(NodeId(1), 0, 1);
        store.set_segment(id, &path(&[1, 2, 2]));
        store.clear_segment(id);
        assert!(store.segment_is_empty(id));
        assert_eq!(store.total_visits(), 0);
        assert_eq!(store.visit_count(NodeId(2)), 0);
        assert!(store.check_consistency().is_ok());
    }

    #[test]
    fn multiple_segments_per_node_are_independent() {
        let mut store = WalkStore::new(3, 2);
        let a = SegmentId::new(NodeId(0), 0, 2);
        let b = SegmentId::new(NodeId(0), 1, 2);
        store.set_segment(a, &path(&[0, 1]));
        store.set_segment(b, &path(&[0, 2, 1]));
        assert_eq!(store.visit_count(NodeId(1)), 2);
        assert_eq!(store.distinct_visitors(NodeId(1)), 2);
        let ids: Vec<_> = store.segment_ids_of(NodeId(0)).collect();
        assert_eq!(ids, vec![a, b]);
        assert_eq!(store.source_of(b), NodeId(0));
        assert_eq!(store.segment_path(b), path(&[0, 2, 1]).as_slice());
    }

    #[test]
    fn path_queries_read_through_the_arena() {
        let mut store = WalkStore::new(4, 1);
        let id = SegmentId::new(NodeId(0), 0, 1);
        store.set_segment(id, &path(&[0, 1, 2, 1]));
        assert_eq!(store.segment_len(id), 4);
        assert_eq!(store.segment_source(id), Some(NodeId(0)));
        assert_eq!(store.segment_last(id), Some(NodeId(1)));
        assert_eq!(
            store.positions_of(id, NodeId(1)).collect::<Vec<_>>(),
            [1, 3]
        );
        assert!(store.uses_edge(id, NodeId(1), NodeId(2)));
        assert!(!store.uses_edge(id, NodeId(2), NodeId(0)));
        assert_eq!(store.first_traversal(id, NodeId(2), NodeId(1)), Some(2));
    }

    #[test]
    #[should_panic(expected = "must start at its source node")]
    fn segment_must_start_at_source() {
        let mut store = WalkStore::new(3, 1);
        store.set_segment(SegmentId::new(NodeId(0), 0, 1), &path(&[1, 2]));
    }

    #[test]
    #[should_panic(expected = "outside the store")]
    fn segment_cannot_visit_unknown_nodes() {
        let mut store = WalkStore::new(2, 1);
        store.set_segment(SegmentId::new(NodeId(0), 0, 1), &path(&[0, 5]));
    }

    #[test]
    fn ensure_nodes_grows_storage() {
        let mut store = WalkStore::new(2, 3);
        store.ensure_nodes(5);
        assert_eq!(store.node_count(), 5);
        let id = SegmentId::new(NodeId(4), 2, 3);
        store.set_segment(id, &path(&[4, 1]));
        assert_eq!(store.visit_count(NodeId(4)), 1);
        // Shrinking is a no-op.
        store.ensure_nodes(1);
        assert_eq!(store.node_count(), 5);
    }

    #[test]
    fn update_probability_matches_formula() {
        let mut store = WalkStore::new(2, 1);
        store.set_segment(SegmentId::new(NodeId(0), 0, 1), &path(&[0, 1, 0, 1, 0]));
        // W(0) = 3 visits, d = 2  =>  1 - (1/2)^3 = 0.875
        assert!((store.update_probability(NodeId(0), 2) - 0.875).abs() < 1e-12);
        // Zero out-degree can never reroute a walk.
        assert_eq!(store.update_probability(NodeId(0), 0), 0.0);
        // W(1) = 2 visits, d = 5  =>  1 - (4/5)^2.
        assert_eq!(
            store.update_probability(NodeId(1), 5),
            1.0 - (1.0 - 0.2f64).powi(2)
        );
    }

    #[test]
    fn empty_store_is_consistent() {
        let store = WalkStore::new(10, 2);
        assert_eq!(store.total_visits(), 0);
        assert!(store.check_consistency().is_ok());
        assert_eq!(store.visit_counts().len(), 10);
    }

    #[test]
    fn steady_state_rewrites_do_not_allocate_arena_regions() {
        let mut store = WalkStore::new(4, 1);
        let id = SegmentId::new(NodeId(0), 0, 1);
        store.set_segment(id, &path(&[0, 1, 2]));
        let relocations = store.arena_stats().relocations;
        // Rewrites of comparable length reuse the slot: no relocation, no allocation.
        for round in 0..200u32 {
            let p = if round % 2 == 0 {
                path(&[0, 3, 2, 1])
            } else {
                path(&[0, 1])
            };
            store.set_segment(id, &p);
        }
        assert_eq!(
            store.arena_stats().relocations,
            relocations,
            "steady-state rewrites must be in place"
        );
        assert!(store.check_consistency().is_ok());
    }

    #[test]
    #[should_panic(expected = "at least one walk segment")]
    fn zero_r_rejected() {
        let _ = WalkStore::new(3, 0);
    }

    /// Holds `loaded`'s index to `reference`'s posting by posting, and every path
    /// it stores to the reference's.
    fn assert_same_index(loaded: &WalkStore, reference: &WalkStore) {
        assert_eq!(loaded.visit_counts(), reference.visit_counts());
        assert_eq!(loaded.total_visits(), reference.total_visits());
        for s in 0..reference.arena.slot_count() as u32 {
            let stored = loaded.segment_path(SegmentId(s));
            assert!(stored.is_empty() || stored == reference.segment_path(SegmentId(s)));
        }
        for v in 0..reference.node_count() as u32 {
            assert!(loaded
                .segments_visiting(NodeId(v))
                .eq(reference.segments_visiting(NodeId(v))));
        }
        assert!(loaded.postings.iter().all(|p| p.cost.records == 0));
        assert!(loaded.postings.iter().all(VisitPostings::is_packed));
    }

    #[test]
    fn loaded_paths_index_like_the_set_segment_loop() {
        let plan = construction_plan(60, 2);
        let mut reference = WalkStore::new(60, 2);
        for (id, p) in plan.iter() {
            reference.set_segment(id, p);
        }
        let final_paths: Vec<(SegmentId, Vec<NodeId>)> = (0..120u32)
            .map(|s| (SegmentId(s), reference.segment_path(SegmentId(s)).to_vec()))
            .filter(|(_, p)| !p.is_empty())
            .collect();

        // Everything written: the construction kernel.
        let mut loader = WalkStore::loader(60, 2);
        for (id, p) in &final_paths {
            loader.write(*id, p).unwrap();
        }
        let loaded = loader.finish();
        assert_same_index(&loaded, &reference);
        assert!(loaded.check_consistency().is_ok());

        // Every third segment written, the rest held elsewhere and handed over
        // backwards, so every run the hub's visitors make is out of order.
        let mut loader = WalkStore::loader(60, 2);
        for (id, p) in final_paths.iter().step_by(3) {
            loader.write(*id, p).unwrap();
        }
        let held: Vec<_> = final_paths
            .iter()
            .enumerate()
            .filter(|(i, _)| i % 3 != 0)
            .map(|(_, entry)| entry)
            .collect();
        let loaded = loader
            .finish_with(|count| held.iter().rev().try_for_each(|(id, p)| count(*id, p)))
            .unwrap();
        assert_same_index(&loaded, &reference);
    }

    /// A construction-shaped plan over `n` nodes: every segment visits hub node 0
    /// (so its postings span several blocks), some segments are empty, one is long
    /// enough to outgrow the minimum reservation; plus a second write of an early
    /// segment and an entry out of segment order.
    fn construction_plan(n: u32, r: usize) -> crate::SegmentRewrites {
        let mut plan = crate::SegmentRewrites::new();
        for node in 0..n {
            for slot in 0..r {
                let id = SegmentId::new(NodeId(node), slot, r);
                let len = match (node as usize + slot) % 7 {
                    0 => 0,
                    1 => 40,
                    k => k,
                };
                let mut p = vec![node];
                p.extend((1..len as u32).map(|k| if k % 2 == 1 { 0 } else { (node * 3 + k) % n }));
                plan.push(id, &path(if len == 0 { &[] } else { &p }));
            }
        }
        if n > 2 {
            plan.push(SegmentId::new(NodeId(1), 0, r), &path(&[1, 2, 0]));
            plan.push(SegmentId::new(NodeId(0), r - 1, r), &path(&[0, 0, n - 1]));
        }
        plan
    }

    #[test]
    fn fill_equals_the_set_segment_loop_without_a_single_record() {
        for (n, r) in [(300u32, 2usize), (20, 1), (0, 3)] {
            let plan = construction_plan(n, r);
            let mut filled = WalkStore::new(n as usize, r);
            filled.fill(&plan);
            let mut looped = WalkStore::new(n as usize, r);
            for (id, p) in plan.iter() {
                looped.set_segment(id, p);
            }
            assert_eq!(filled.arena.geometry(), looped.arena.geometry(), "n = {n}");
            assert_eq!(filled.arena_stats(), looped.arena_stats());
            assert_eq!(filled.visit_counts(), looped.visit_counts());
            assert_eq!(filled.total_visits(), looped.total_visits());
            for v in 0..n {
                let node = NodeId(v);
                assert_eq!(
                    filled.segments_visiting(node).collect::<Vec<_>>(),
                    looped.segments_visiting(node).collect::<Vec<_>>(),
                    "postings of node {v}"
                );
            }
            assert!(filled.check_consistency().is_ok());
            assert!(filled.postings.iter().all(|p| p.cost.records == 0));
            assert!(filled.postings.iter().all(VisitPostings::is_packed));
        }
    }

    #[test]
    #[should_panic(expected = "fill builds the index of an empty store")]
    fn fill_refuses_a_store_that_holds_visits() {
        let mut store = WalkStore::new(20, 1);
        store.set_segment(SegmentId(3), &path(&[3, 4]));
        store.fill(&construction_plan(20, 1));
    }

    #[test]
    #[should_panic(expected = "must start at its source node")]
    fn fill_rejects_what_set_segment_rejects() {
        let mut plan = crate::SegmentRewrites::new();
        plan.push(SegmentId(0), &path(&[1, 2]));
        WalkStore::new(3, 1).fill(&plan);
    }

    #[test]
    fn the_loader_refuses_paths_that_break_the_store_shape() {
        let mut loader = WalkStore::loader(3, 1);
        assert!(loader
            .write(SegmentId(3), &path(&[0]))
            .unwrap_err()
            .contains("outside"));
        assert!(loader
            .write(SegmentId(0), &path(&[1, 2]))
            .unwrap_err()
            .contains("source"));
        assert!(loader
            .write(SegmentId(0), &path(&[0, 3]))
            .unwrap_err()
            .contains("outside"));

        // A held path is checked the same way.
        for (id, bad, why) in [
            (SegmentId(1), path(&[2]), "source"),
            (SegmentId(2), path(&[2, 7]), "outside"),
            (SegmentId(3), path(&[0]), "outside"),
        ] {
            let mut loader = WalkStore::loader(3, 1);
            loader.write(SegmentId(0), &path(&[0, 1])).unwrap();
            let err = loader.finish_with(|count| count(id, &bad)).unwrap_err();
            assert!(err.contains(why), "{err}");
        }
        // The holder's own error comes back as it is.
        let loader = WalkStore::loader(3, 1);
        assert_eq!(loader.finish_with(|_| Err(7)).unwrap_err(), 7);
    }
}
