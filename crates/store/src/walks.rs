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

/// The visit index of a whole set of segment paths, counted in bulk: the per-node
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
    /// Indexes segments `0..segments`, whose paths `path_of` returns; every visit must
    /// address one of `node_count` nodes.
    fn count<'a>(
        node_count: usize,
        segments: usize,
        path_of: impl Fn(usize) -> &'a [NodeId],
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
        for segment in 0..segments {
            let tag = segment as u32 + 1;
            for &v in path_of(segment) {
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
        for segment in 0..segments {
            let id = SegmentId(segment as u32);
            for &v in path_of(segment) {
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

    /// The runs as packed [`VisitPostings`], node by node.
    fn postings(runs: Vec<Vec<(SegmentId, u32)>>) -> impl Iterator<Item = VisitPostings> {
        runs.into_iter().map(|run| {
            VisitPostings::from_sorted_run(run)
                .expect("a counted run is strictly increasing with positive counts")
        })
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

    /// Bulk-load constructor for decode paths: installs every segment path and a
    /// **pre-computed** postings index in one pass, instead of replaying one `record`
    /// call per stored step.  The supplied index is fully cross-checked against the
    /// paths — the index [`Self::fill`] would count from them, compared run by run
    /// against the postings — so a divergent index is rejected, never installed.
    pub fn bulk_load<'a>(
        node_count: usize,
        r: usize,
        segments: impl Iterator<Item = (SegmentId, &'a [NodeId])>,
        postings: Vec<VisitPostings>,
    ) -> Result<Self, String> {
        if r == 0 {
            return Err("need at least one walk segment per node".to_string());
        }
        if postings.len() != node_count {
            return Err(format!(
                "got postings for {} nodes, expected {node_count}",
                postings.len()
            ));
        }
        let mut arena = StepArena::new(node_count * r);
        for (id, path) in segments {
            if id.index() >= node_count * r {
                return Err(format!("segment {id:?} outside the store"));
            }
            if let Some(&first) = path.first() {
                if first != id.source(r) {
                    return Err(format!("segment {id:?} does not start at its source"));
                }
            }
            if let Some(v) = path.iter().find(|v| v.index() >= node_count) {
                return Err(format!("segment {id:?} visits node {v} outside the store"));
            }
            arena.write(id.index(), path);
        }
        let counted = CountedIndex::count(node_count, node_count * r, |slot| arena.path(slot));
        for (v, (run, node_postings)) in counted.runs.iter().zip(&postings).enumerate() {
            let mut expect = node_postings.iter();
            for &(segment, count) in run {
                if expect.next() != Some((segment, count)) {
                    return Err(format!(
                        "postings of node {v} disagree with the stored paths at segment {}",
                        segment.0
                    ));
                }
            }
            if expect.next().is_some() {
                return Err(format!(
                    "postings of node {v} index visits no path contains"
                ));
            }
        }
        Ok(WalkStore {
            r,
            arena,
            postings,
            visit_counts: counted.visit_counts,
            total_visits: counted.total_visits,
        })
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
        let arena = &self.arena;
        let counted = CountedIndex::count(node_count, arena.slot_count(), |slot| arena.path(slot));
        self.postings = CountedIndex::postings(counted.runs).collect();
        self.visit_counts = counted.visit_counts;
        self.total_visits = counted.total_visits;
    }

    /// Demand-paging constructor: installs a pre-parsed postings index and the visit
    /// counters it implies over an **empty** step arena.  The paths themselves stay
    /// on disk; the owner faults them in lazily and installs each one with
    /// [`Self::install_indexed_path`].  The only cross-check possible without the
    /// paths is the aggregate one — per-node totals summing to `total_visits`; path
    /// shape is validated per segment at fault time instead.
    pub fn from_postings_index(
        node_count: usize,
        r: usize,
        postings: Vec<VisitPostings>,
        total_visits: u64,
    ) -> Result<Self, String> {
        if r == 0 {
            return Err("need at least one walk segment per node".to_string());
        }
        if postings.len() != node_count {
            return Err(format!(
                "got postings for {} nodes, expected {node_count}",
                postings.len()
            ));
        }
        let mut visit_counts = vec![0u64; node_count];
        let mut sum = 0u64;
        for (v, node_postings) in postings.iter().enumerate() {
            let total = node_postings.total();
            visit_counts[v] = total;
            sum += total;
        }
        if sum != total_visits {
            return Err(format!(
                "postings sum to {sum} visits but the index claims {total_visits}"
            ));
        }
        Ok(WalkStore {
            r,
            arena: StepArena::new(node_count * r),
            postings,
            visit_counts,
            total_visits,
        })
    }

    /// Installs `path` into segment `id`'s arena slot **without touching the visit
    /// index** — the postings and counters must already account for exactly this
    /// path.  This is the materialization half of demand paging: the index was
    /// installed wholesale by [`Self::from_postings_index`], the paths arrive one at
    /// a time as the disk store faults them.
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

    #[test]
    fn bulk_load_reproduces_an_incrementally_built_store() {
        let mut reference = WalkStore::new(5, 2);
        reference.set_segment(SegmentId::new(NodeId(0), 0, 2), &path(&[0, 1, 2, 1]));
        reference.set_segment(SegmentId::new(NodeId(3), 1, 2), &path(&[3, 3]));
        reference.set_segment(SegmentId::new(NodeId(4), 0, 2), &path(&[4, 0]));

        let segments: Vec<(SegmentId, Vec<NodeId>)> = (0..10u32)
            .map(|s| (SegmentId(s), reference.segment_path(SegmentId(s)).to_vec()))
            .filter(|(_, p)| !p.is_empty())
            .collect();
        let postings: Vec<crate::VisitPostings> = (0..5)
            .map(|v| {
                crate::VisitPostings::from_sorted_run(
                    reference.segments_visiting(NodeId(v)).collect(),
                )
                .unwrap()
            })
            .collect();
        let loaded = WalkStore::bulk_load(
            5,
            2,
            segments.iter().map(|(id, p)| (*id, p.as_slice())),
            postings,
        )
        .unwrap();
        assert_eq!(loaded.visit_counts(), reference.visit_counts());
        assert_eq!(loaded.total_visits(), reference.total_visits());
        for s in 0..10u32 {
            assert_eq!(
                loaded.segment_path(SegmentId(s)),
                reference.segment_path(SegmentId(s))
            );
        }
        assert!(loaded.check_consistency().is_ok());
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
    fn bulk_load_rejects_an_index_that_disagrees_with_the_paths() {
        let segments = [(SegmentId(0), path(&[0, 1]))];
        // Postings claim a visit to node 2 that no path contains.
        let postings: Vec<crate::VisitPostings> = vec![
            crate::VisitPostings::from_sorted_run(vec![(SegmentId(0), 1)]).unwrap(),
            crate::VisitPostings::from_sorted_run(vec![(SegmentId(0), 1)]).unwrap(),
            crate::VisitPostings::from_sorted_run(vec![(SegmentId(0), 1)]).unwrap(),
        ];
        let result = WalkStore::bulk_load(
            3,
            1,
            segments.iter().map(|(id, p)| (*id, p.as_slice())),
            postings,
        );
        assert!(result.unwrap_err().contains("no path contains"));
        // Wrong count is also rejected.
        let postings: Vec<crate::VisitPostings> = vec![
            crate::VisitPostings::from_sorted_run(vec![(SegmentId(0), 2)]).unwrap(),
            crate::VisitPostings::from_sorted_run(vec![(SegmentId(0), 1)]).unwrap(),
            crate::VisitPostings::new(),
        ];
        let result = WalkStore::bulk_load(
            3,
            1,
            segments.iter().map(|(id, p)| (*id, p.as_slice())),
            postings,
        );
        assert!(result.unwrap_err().contains("disagree"));
    }
}
