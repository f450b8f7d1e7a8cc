//! The sharded PageRank Store: per-shard step arenas and visit postings with a
//! parallel rewrite path.
//!
//! [`ShardedWalkStore`] splits the flat [`StepArena`] and the [`VisitPostings`] of the
//! single-shard [`crate::WalkStore`] into `S` shards keyed by `node_id % S` (the same
//! [`crate::routing::shard_of`] rule the Social Store uses), so shard `σ` owns
//!
//! * the visit postings and `W(v)` counters of every node it owns, and
//! * the arena slots of every segment *rooted* at one of its nodes.
//!
//! Reads ([`crate::WalkIndex`]) route through the owning shard and are otherwise
//! identical to the single-shard store.  The write path is where sharding pays off:
//! [`WalkIndexMut::apply_rewrites`] partitions a whole rewrite plan across shards with
//! `std::thread::scope` — every shard walks the plan once and applies exactly the
//! postings updates of nodes it owns plus the arena writes of segments it owns, so no
//! lock, no atomic, and no cross-thread write is ever needed.  Because each counter and
//! each postings list has a unique owner applying plan entries in plan order, the
//! result is bit-identical to the sequential [`WalkIndexMut::set_segment`] loop at any
//! thread count — the differential test harness in `tests/differential_shard.rs` holds
//! the store to exactly that contract.
//!
//! Per-shard [`ShardLoad`] counters mirror the Social Store's per-shard fetch counters
//! on the write side, so experiments can verify the modulo placement spreads reroute
//! work evenly.

use crate::arena::{ArenaStats, StepArena};
use crate::index::{SegmentRewrites, WalkIndex, WalkIndexMut, WalkIndexView};
use crate::metrics::ShardLoad;
use crate::postings::{PostingsIter, VisitPostings};
use crate::routing;
use crate::segment::SegmentId;
use crate::walks::{common_prefix_len, forget_visits, CountedIndex};
use ppr_graph::NodeId;
use std::time::{Duration, Instant};

/// One shard: the postings/counters of the nodes it owns and the arena of the segments
/// rooted at them.  All indices are shard-local (see [`crate::routing::local_index`]).
#[derive(Debug, Clone)]
struct WalkShard {
    arena: StepArena,
    postings: Vec<VisitPostings>,
    visit_counts: Vec<u64>,
    total_visits: u64,
    load: ShardLoad,
}

impl WalkShard {
    fn new(local_nodes: usize, r: usize) -> Self {
        WalkShard {
            arena: StepArena::new(local_nodes * r),
            postings: vec![VisitPostings::new(); local_nodes],
            visit_counts: vec![0; local_nodes],
            total_visits: 0,
            load: ShardLoad::default(),
        }
    }

    fn record_visit(&mut self, local: usize, id: SegmentId, change: i32) {
        self.postings[local].record(id, change);
        let visits = change.unsigned_abs() as u64;
        if change >= 0 {
            self.visit_counts[local] += visits;
            self.total_visits += visits;
        } else {
            forget_visits(&mut self.visit_counts, local, visits);
            self.total_visits -= visits;
        }
        self.load.postings_updates += 1;
    }

    /// Applies one shard's share of a whole rewrite plan: postings updates for owned
    /// nodes, arena writes for owned segments.  `old` holds the staged pre-plan paths,
    /// sliced by `old_bounds` exactly like the plan's own step buffer.
    fn apply_plan(
        &mut self,
        shard: usize,
        shard_count: usize,
        r: usize,
        rewrites: &SegmentRewrites,
        old_steps: &[NodeId],
        old_bounds: &[usize],
    ) {
        for k in 0..rewrites.len() {
            let (id, new_path) = rewrites.get(k);
            let old_path = &old_steps[old_bounds[k]..old_bounds[k + 1]];
            // Only the visits past the common prefix change (see `set_segment_impl`).
            let kept = common_prefix_len(old_path, new_path);
            for &v in &old_path[kept..] {
                if v.index() % shard_count == shard {
                    self.record_visit(v.index() / shard_count, id, -1);
                }
            }
            for &v in &new_path[kept..] {
                if v.index() % shard_count == shard {
                    self.record_visit(v.index() / shard_count, id, 1);
                }
            }
            let source = id.index() / r;
            if source % shard_count == shard {
                let local_slot = (source / shard_count) * r + id.index() % r;
                self.arena.write(local_slot, new_path);
                self.load.segments_rewritten += 1;
                self.load.steps_written += new_path.len() as u64;
            }
        }
    }
}

/// Storage for `R` random-walk segments per node, split into `S` shards by
/// `node_id % S`, with a thread-parallel batched rewrite path.
#[derive(Debug, Clone)]
pub struct ShardedWalkStore {
    r: usize,
    shard_count: usize,
    node_count: usize,
    shards: Vec<WalkShard>,
    /// Reusable staging buffers for `apply_rewrites` (old paths must be captured before
    /// any arena write) and for the sequential `set_segment` path.
    stage_steps: Vec<NodeId>,
    stage_bounds: Vec<usize>,
    /// Wall time each shard spent on its pass of the most recent
    /// [`WalkIndexMut::apply_rewrites`] call; empty if that call ran none.
    last_apply_times: Vec<Duration>,
}

impl ShardedWalkStore {
    /// Creates an empty store for `node_count` nodes with `r` segments per node, split
    /// over `shard_count` shards.
    pub fn new(node_count: usize, r: usize, shard_count: usize) -> Self {
        assert!(r >= 1, "need at least one walk segment per node");
        assert!(shard_count >= 1, "need at least one shard");
        let shards = (0..shard_count)
            .map(|s| WalkShard::new(routing::shard_len(node_count, shard_count, s), r))
            .collect();
        ShardedWalkStore {
            r,
            shard_count,
            node_count,
            shards,
            stage_steps: Vec::new(),
            stage_bounds: Vec::new(),
            last_apply_times: Vec::new(),
        }
    }

    /// Number of shards the store is split into.
    #[inline]
    pub fn shard_count(&self) -> usize {
        self.shard_count
    }

    /// The shard owning `node`'s postings (and the segments rooted at `node`) — the
    /// same modulo rule as [`crate::SocialStore::shard_of`], via the shared
    /// [`crate::routing::shard_of`] helper.
    #[inline]
    pub fn shard_of(&self, node: NodeId) -> usize {
        routing::shard_of(node, self.shard_count)
    }

    /// The shard owning segment `id` (the shard of its source node).
    #[inline]
    pub fn shard_of_segment(&self, id: SegmentId) -> usize {
        (id.index() / self.r) % self.shard_count
    }

    fn local_slot(&self, id: SegmentId) -> usize {
        ((id.index() / self.r) / self.shard_count) * self.r + id.index() % self.r
    }

    /// Per-shard write-load counters since the last reset.
    pub fn shard_loads(&self) -> Vec<ShardLoad> {
        self.shards.iter().map(|s| s.load).collect()
    }

    /// Resets the per-shard write-load counters to zero.
    pub fn reset_shard_loads(&mut self) {
        for shard in &mut self.shards {
            shard.load = ShardLoad::default();
        }
    }

    /// Wall time each shard spent on its pass of the most recent
    /// [`WalkIndexMut::apply_rewrites`] call (empty when that call ran no per-shard
    /// passes: an empty plan, one shard, or a plan rewriting a segment twice).  On a
    /// machine with fewer cores than shards — or with
    /// `threads = 1` — the slowest entry is the phase's critical path: the wall time a
    /// fully parallel deployment would pay.
    pub fn last_apply_shard_times(&self) -> &[Duration] {
        &self.last_apply_times
    }

    /// Per-shard totals of stored visits (each shard counts the visits to the nodes it
    /// owns; the sum over shards is [`WalkIndexView::total_visits`]).
    pub fn shard_visit_totals(&self) -> Vec<u64> {
        self.shards.iter().map(|s| s.total_visits).collect()
    }

    /// Aggregated allocation-behaviour counters over all shard arenas.
    pub fn arena_stats(&self) -> ArenaStats {
        let mut total = ArenaStats::default();
        for shard in &self.shards {
            total.merge(&shard.arena.stats());
        }
        total
    }

    /// Sets every shard arena's compaction trigger ratio (see
    /// [`crate::arena::StepArena::set_compaction_threshold`]).
    pub fn set_compaction_threshold(&mut self, ratio: f64) {
        for shard in &mut self.shards {
            shard.arena.set_compaction_threshold(ratio);
        }
    }

    fn assert_valid_path(&self, id: SegmentId, path: &[NodeId]) {
        if let Some(&first) = path.first() {
            let source = id.source(self.r);
            assert_eq!(
                first, source,
                "segment {id:?} must start at its source node {source}"
            );
        }
        for &v in path {
            assert!(
                v.index() < self.node_count,
                "segment visits node {v} outside the store (node_count = {})",
                self.node_count
            );
        }
    }

    fn set_segment_impl(&mut self, id: SegmentId, path: &[NodeId]) {
        self.assert_valid_path(id, path);
        let owner = self.shard_of_segment(id);
        let slot = self.local_slot(id);

        // Only the visits past the common prefix of the old and new path are
        // re-indexed: a reroute keeps everything up to its pivot.  Stage the old
        // suffix: its visits live on arbitrary shards, but the slice borrows the owner
        // shard's arena, which is about to be rewritten.
        let old_path = self.shards[owner].arena.path(slot);
        let kept = common_prefix_len(old_path, path);
        let mut old = std::mem::take(&mut self.stage_steps);
        old.clear();
        old.extend_from_slice(&old_path[kept..]);
        for &v in &old {
            self.shards[v.index() % self.shard_count].record_visit(
                v.index() / self.shard_count,
                id,
                -1,
            );
        }
        self.stage_steps = old;

        for &v in &path[kept..] {
            self.shards[v.index() % self.shard_count].record_visit(
                v.index() / self.shard_count,
                id,
                1,
            );
        }
        let owner_shard = &mut self.shards[owner];
        owner_shard.arena.write(slot, path);
        owner_shard.load.segments_rewritten += 1;
        owner_shard.load.steps_written += path.len() as u64;
    }

    fn check_consistency_impl(&self) -> Result<(), String> {
        let mut counts = vec![0u64; self.node_count];
        let mut total = 0u64;
        for shard in &self.shards {
            for slot in 0..shard.arena.slot_count() {
                for &v in shard.arena.path(slot) {
                    counts[v.index()] += 1;
                    total += 1;
                }
            }
        }
        if total != self.total_visits() {
            return Err(format!(
                "total_visits is {} but segments hold {total} visits",
                self.total_visits()
            ));
        }
        for (g, &expected) in counts.iter().enumerate() {
            let node = NodeId::from_index(g);
            if self.visit_count(node) != expected {
                return Err(format!(
                    "visit count for node {g} is {}, expected {expected}",
                    self.visit_count(node)
                ));
            }
        }
        for (sid, shard) in self.shards.iter().enumerate() {
            let shard_total: u64 = shard.visit_counts.iter().sum();
            if shard_total != shard.total_visits {
                return Err(format!(
                    "shard {sid} total_visits {} disagrees with its counters ({shard_total})",
                    shard.total_visits
                ));
            }
            for (local, postings) in shard.postings.iter().enumerate() {
                let g = local * self.shard_count + sid;
                if postings.total() != shard.visit_counts[local] {
                    return Err(format!(
                        "postings for node {g} sum to {}, expected {}",
                        postings.total(),
                        shard.visit_counts[local]
                    ));
                }
                // Spot-check each posting against the owning shard's arena.
                for (id, count) in postings.iter() {
                    let actual = self
                        .segment_path(id)
                        .iter()
                        .filter(|&&n| n.index() == g)
                        .count() as u32;
                    if actual != count {
                        return Err(format!(
                            "posting ({id:?}, {count}) at node {g} disagrees with the arena \
                             ({actual})"
                        ));
                    }
                }
            }
        }
        Ok(())
    }
}

impl crate::index::WalkIndexView for ShardedWalkStore {
    #[inline]
    fn r(&self) -> usize {
        self.r
    }

    #[inline]
    fn node_count(&self) -> usize {
        self.node_count
    }

    #[inline]
    fn segment_path(&self, id: SegmentId) -> &[NodeId] {
        self.shards[self.shard_of_segment(id)]
            .arena
            .path(self.local_slot(id))
    }

    #[inline]
    fn source_of(&self, id: SegmentId) -> NodeId {
        id.source(self.r)
    }

    fn segment_ids_of(&self, node: NodeId) -> impl Iterator<Item = SegmentId> + '_ {
        let r = self.r;
        (0..r).map(move |slot| SegmentId::new(node, slot, r))
    }

    #[inline]
    fn visit_count(&self, node: NodeId) -> u64 {
        self.shards[self.shard_of(node)].visit_counts[routing::local_index(node, self.shard_count)]
    }

    fn visit_counts(&self) -> std::borrow::Cow<'_, [u64]> {
        std::borrow::Cow::Owned(
            (0..self.node_count)
                .map(|g| self.shards[g % self.shard_count].visit_counts[g / self.shard_count])
                .collect(),
        )
    }

    fn total_visits(&self) -> u64 {
        self.shards.iter().map(|s| s.total_visits).sum()
    }
}

impl WalkIndex for ShardedWalkStore {
    fn segments_visiting(&self, node: NodeId) -> PostingsIter<'_> {
        self.shards[self.shard_of(node)].postings[routing::local_index(node, self.shard_count)]
            .iter()
    }

    fn route_shards(&self) -> usize {
        self.shard_count
    }

    fn arena_stats(&self) -> ArenaStats {
        ShardedWalkStore::arena_stats(self)
    }

    fn emit_telemetry(&self, out: &mut ppr_telemetry::SnapshotBuilder) {
        out.source("arena", &ShardedWalkStore::arena_stats(self));
        out.gauge("shards", self.shard_count as f64);
        let mut merged = ShardLoad::default();
        for load in self.shard_loads() {
            merged.merge(&load);
        }
        out.source("shard_load", &merged);
    }
}

impl WalkIndexMut for ShardedWalkStore {
    fn ensure_nodes(&mut self, n: usize) {
        if n <= self.node_count {
            return;
        }
        self.node_count = n;
        for (sid, shard) in self.shards.iter_mut().enumerate() {
            let local = routing::shard_len(n, self.shard_count, sid);
            shard.arena.ensure_slots(local * self.r);
            shard.postings.resize_with(local, VisitPostings::new);
            shard.visit_counts.resize(local, 0);
        }
    }

    fn set_segment(&mut self, id: SegmentId, path: &[NodeId]) {
        self.set_segment_impl(id, path);
    }

    /// Writes every owned segment into its shard's arena in plan order, then counts
    /// the visit index once over all segments and hands each shard the postings and
    /// counters of the nodes it owns.  The shard loads read as the sequential loop's
    /// would: one postings update per stored visit.
    fn fill(&mut self, plan: &SegmentRewrites) {
        assert_eq!(
            self.total_visits(),
            0,
            "fill builds the index of an empty store, and this one holds visits"
        );
        for (id, path) in plan.iter() {
            self.assert_valid_path(id, path);
            let slot = self.local_slot(id);
            let owner = self.shard_of_segment(id);
            let shard = &mut self.shards[owner];
            shard.arena.write(slot, path);
            shard.load.segments_rewritten += 1;
            shard.load.steps_written += path.len() as u64;
        }
        let counted = CountedIndex::count(self.node_count, self.node_count * self.r, |s| {
            self.segment_path(SegmentId(s as u32))
        });
        let nodes = CountedIndex::postings(counted.runs).zip(counted.visit_counts);
        for (g, (postings, visits)) in nodes.enumerate() {
            let shard = &mut self.shards[g % self.shard_count];
            let local = g / self.shard_count;
            shard.postings[local] = postings;
            shard.visit_counts[local] = visits;
            shard.total_visits += visits;
            shard.load.postings_updates += visits;
        }
    }

    fn clear_segment(&mut self, id: SegmentId) {
        let owner = self.shard_of_segment(id);
        let slot = self.local_slot(id);
        let mut old = std::mem::take(&mut self.stage_steps);
        old.clear();
        old.extend_from_slice(self.shards[owner].arena.path(slot));
        for &v in &old {
            self.shards[v.index() % self.shard_count].record_visit(
                v.index() / self.shard_count,
                id,
                -1,
            );
        }
        self.stage_steps = old;
        self.shards[owner].arena.clear(slot);
    }

    fn check_consistency(&self) -> Result<(), String> {
        self.check_consistency_impl()
    }

    fn last_apply_shard_times(&self) -> &[Duration] {
        &self.last_apply_times
    }

    fn set_compaction_threshold(&mut self, ratio: f64) {
        ShardedWalkStore::set_compaction_threshold(self, ratio);
    }

    /// Applies the plan with up to `threads` worker threads, one pass per shard:
    /// shard `σ` applies exactly the postings updates of its nodes and the arena
    /// writes of its segments, in plan order.  Single-owner writes make the result
    /// bit-identical to the sequential loop at any thread count.
    fn apply_rewrites(&mut self, rewrites: &SegmentRewrites, threads: usize) {
        self.last_apply_times.clear();
        if rewrites.is_empty() {
            return;
        }
        // The per-shard passes stage every pre-plan path up front, which is only
        // equivalent to the sequential loop when no segment is rewritten twice (the
        // engines' reconciled plans never are); a plan with duplicates falls back.
        let mut seen: std::collections::HashSet<SegmentId> =
            std::collections::HashSet::with_capacity(rewrites.len());
        let distinct = rewrites.iter().all(|(id, _)| seen.insert(id));
        if self.shard_count == 1 || !distinct {
            for (id, path) in rewrites.iter() {
                self.set_segment_impl(id, path);
            }
            return;
        }
        for (id, path) in rewrites.iter() {
            self.assert_valid_path(id, path);
        }

        // Stage every old path before any arena write: the postings removals of a
        // rewrite read the pre-plan path, which other shards must still see after the
        // owner shard has overwritten its slot.
        let mut old_steps = std::mem::take(&mut self.stage_steps);
        let mut old_bounds = std::mem::take(&mut self.stage_bounds);
        old_steps.clear();
        old_bounds.clear();
        old_bounds.push(0);
        for (id, _) in rewrites.iter() {
            old_steps.extend_from_slice(self.segment_path(id));
            old_bounds.push(old_steps.len());
        }

        let shard_count = self.shard_count;
        let r = self.r;
        self.last_apply_times.resize(shard_count, Duration::ZERO);
        if threads <= 1 {
            // Same per-shard passes, sequentially; the recorded per-shard times make
            // the parallel critical path measurable even on a single core.
            for (sid, shard) in self.shards.iter_mut().enumerate() {
                let start = Instant::now();
                shard.apply_plan(sid, shard_count, r, rewrites, &old_steps, &old_bounds);
                self.last_apply_times[sid] = start.elapsed();
            }
        } else {
            let workers = threads.min(shard_count);
            let chunk = shard_count.div_ceil(workers);
            let old_steps = &old_steps;
            let old_bounds = &old_bounds;
            std::thread::scope(|scope| {
                for ((ci, shard_chunk), time_chunk) in self
                    .shards
                    .chunks_mut(chunk)
                    .enumerate()
                    .zip(self.last_apply_times.chunks_mut(chunk))
                {
                    scope.spawn(move || {
                        for ((off, shard), time) in
                            shard_chunk.iter_mut().enumerate().zip(time_chunk)
                        {
                            let start = Instant::now();
                            shard.apply_plan(
                                ci * chunk + off,
                                shard_count,
                                r,
                                rewrites,
                                old_steps,
                                old_bounds,
                            );
                            *time = start.elapsed();
                        }
                    });
                }
            });
        }
        self.stage_steps = old_steps;
        self.stage_bounds = old_bounds;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::walks::WalkStore;

    fn path(nodes: &[u32]) -> Vec<NodeId> {
        nodes.iter().map(|&n| NodeId(n)).collect()
    }

    /// Asserts a sharded store and a single-shard store hold identical contents.
    fn assert_matches_walk_store(sharded: &ShardedWalkStore, flat: &WalkStore) {
        assert_eq!(
            WalkIndexView::node_count(sharded),
            WalkIndexView::node_count(flat)
        );
        assert_eq!(WalkIndexView::r(sharded), WalkIndexView::r(flat));
        assert_eq!(WalkIndexView::total_visits(sharded), flat.total_visits());
        assert_eq!(WalkIndexView::visit_counts(sharded), flat.visit_counts());
        for g in 0..WalkIndexView::node_count(sharded) {
            let node = NodeId::from_index(g);
            assert_eq!(sharded.visit_count(node), flat.visit_count(node));
            let a: Vec<_> = sharded.segments_visiting(node).collect();
            let b: Vec<_> = flat.segments_visiting(node).collect();
            assert_eq!(a, b, "postings for node {g} diverge");
            for id in flat.segment_ids_of(node) {
                assert_eq!(sharded.segment_path(id), flat.segment_path(id));
            }
        }
        assert!(sharded.check_consistency().is_ok());
        assert!(flat.check_consistency().is_ok());
    }

    #[test]
    fn set_segment_routes_postings_and_arena_to_owners() {
        let mut store = ShardedWalkStore::new(6, 2, 3);
        let id = SegmentId::new(NodeId(4), 1, 2);
        store.set_segment(id, &path(&[4, 1, 2, 1]));
        assert_eq!(store.segment_path(id), path(&[4, 1, 2, 1]).as_slice());
        assert_eq!(store.visit_count(NodeId(1)), 2);
        assert_eq!(store.visit_count(NodeId(4)), 1);
        assert_eq!(store.total_visits(), 4);
        assert_eq!(store.shard_of(NodeId(4)), 1);
        assert_eq!(store.shard_of_segment(id), 1);
        // Shard 1 owns nodes {1, 4}: three of the four visits.
        assert_eq!(store.shard_visit_totals(), vec![0, 3, 1]);
        assert!(store.check_consistency().is_ok());
    }

    #[test]
    fn replacing_and_clearing_segments_stays_consistent_across_shards() {
        let mut store = ShardedWalkStore::new(8, 1, 4);
        let id = SegmentId::new(NodeId(2), 0, 1);
        store.set_segment(id, &path(&[2, 5, 6]));
        store.set_segment(id, &path(&[2, 7]));
        assert_eq!(store.visit_count(NodeId(5)), 0);
        assert_eq!(store.visit_count(NodeId(7)), 1);
        assert_eq!(store.total_visits(), 2);
        store.clear_segment(id);
        assert!(store.segment_is_empty(id));
        assert_eq!(store.total_visits(), 0);
        assert!(store.check_consistency().is_ok());
    }

    #[test]
    fn mirrors_single_shard_store_under_interleaved_writes() {
        let r = 2;
        let n = 10;
        for shard_count in [1usize, 2, 3, 4, 7] {
            let mut sharded = ShardedWalkStore::new(n, r, shard_count);
            let mut flat = WalkStore::new(n, r);
            let writes: &[(u32, usize, &[u32])] = &[
                (0, 0, &[0, 3, 4]),
                (5, 1, &[5, 5, 2, 9]),
                (0, 0, &[0, 1]),
                (9, 0, &[9]),
                (3, 1, &[3, 0, 3, 0]),
                (5, 1, &[]),
            ];
            for &(node, slot, p) in writes {
                let id = SegmentId::new(NodeId(node), slot, r);
                sharded.set_segment(id, &path(p));
                flat.set_segment(id, &path(p));
            }
            assert_matches_walk_store(&sharded, &flat);
        }
    }

    #[test]
    fn parallel_apply_rewrites_is_bit_identical_to_sequential() {
        let r = 3;
        let n = 13;
        let mut plan = SegmentRewrites::new();
        for g in 0..n as u32 {
            for slot in 0..r {
                let id = SegmentId::new(NodeId(g), slot, r);
                let p: Vec<u32> = std::iter::once(g)
                    .chain(
                        (0..(g as usize + slot) % 5)
                            .map(|i| ((g as usize + 3 * i + slot) % n) as u32),
                    )
                    .collect();
                plan.push(id, &path(&p));
            }
        }
        // A second rewrite of an early segment: plan order must be respected.
        plan.push(SegmentId::new(NodeId(0), 0, r), &path(&[0, 12, 12]));

        for shard_count in [2usize, 4, 5] {
            let mut seq = ShardedWalkStore::new(n, r, shard_count);
            let mut par = ShardedWalkStore::new(n, r, shard_count);
            seq.apply_rewrites(&plan, 1);
            for threads in [2usize, 4, 16] {
                let mut fresh = par.clone();
                fresh.apply_rewrites(&plan, threads);
                assert_eq!(fresh.visit_counts(), seq.visit_counts());
                assert_eq!(fresh.total_visits(), seq.total_visits());
                for g in 0..n as u32 {
                    for id in seq.segment_ids_of(NodeId(g)) {
                        assert_eq!(fresh.segment_path(id), seq.segment_path(id));
                    }
                    let a: Vec<_> = fresh.segments_visiting(NodeId(g)).collect();
                    let b: Vec<_> = seq.segments_visiting(NodeId(g)).collect();
                    assert_eq!(a, b);
                }
                assert!(fresh.check_consistency().is_ok());
            }
            par.apply_rewrites(&plan, 4);
            assert_eq!(par.visit_counts(), seq.visit_counts());
        }
    }

    #[test]
    fn fill_equals_the_set_segment_loop_on_every_shard() {
        let (n, r) = (90u32, 3usize);
        let mut plan = SegmentRewrites::new();
        for g in 0..n {
            for slot in 0..r {
                let len = (g as usize * 5 + slot) % 9;
                // Every other visit lands on hub node 7, which ends up with several
                // postings blocks on its shard.
                let p: Vec<u32> = (0..len as u32)
                    .map(|k| match k {
                        0 => g,
                        k if k % 2 == 1 => 7,
                        k => (g + k * 11) % n,
                    })
                    .collect();
                plan.push(SegmentId::new(NodeId(g), slot, r), &path(&p));
            }
        }
        for shard_count in [1usize, 2, 3, 4] {
            let mut filled = ShardedWalkStore::new(n as usize, r, shard_count);
            filled.fill(&plan);
            let mut looped = ShardedWalkStore::new(n as usize, r, shard_count);
            for (id, p) in plan.iter() {
                looped.set_segment(id, p);
            }
            let mut flat = WalkStore::new(n as usize, r);
            flat.fill(&plan);
            assert_matches_walk_store(&filled, &flat);
            assert_matches_walk_store(&looped, &flat);
            assert_eq!(filled.shard_loads(), looped.shard_loads());
            assert_eq!(filled.shard_visit_totals(), looped.shard_visit_totals());
            for (a, b) in filled.shards.iter().zip(&looped.shards) {
                assert_eq!(a.arena.geometry(), b.arena.geometry());
                assert_eq!(a.arena.stats(), b.arena.stats());
                assert!(a.postings.iter().all(|p| p.cost.records == 0));
                assert!(a.postings.iter().all(VisitPostings::is_packed));
            }
        }
    }

    #[test]
    #[should_panic(expected = "fill builds the index of an empty store")]
    fn fill_refuses_a_store_that_holds_visits() {
        let mut store = ShardedWalkStore::new(4, 1, 2);
        store.set_segment(SegmentId(1), &path(&[1, 2]));
        store.fill(&SegmentRewrites::new());
    }

    #[test]
    fn ensure_nodes_grows_each_shard() {
        let mut store = ShardedWalkStore::new(3, 2, 2);
        store.ensure_nodes(9);
        assert_eq!(WalkIndexView::node_count(&store), 9);
        let id = SegmentId::new(NodeId(8), 1, 2);
        store.set_segment(id, &path(&[8, 1]));
        assert_eq!(store.visit_count(NodeId(8)), 1);
        store.ensure_nodes(2); // shrinking is a no-op
        assert_eq!(WalkIndexView::node_count(&store), 9);
        assert!(store.check_consistency().is_ok());
    }

    #[test]
    fn shard_loads_split_write_work_by_owner() {
        let mut store = ShardedWalkStore::new(4, 1, 2);
        store.set_segment(SegmentId::new(NodeId(0), 0, 1), &path(&[0, 1, 2]));
        let loads = store.shard_loads();
        // Shard 0 owns the segment (source 0) and nodes {0, 2}; shard 1 owns node 1.
        assert_eq!(loads[0].segments_rewritten, 1);
        assert_eq!(loads[0].steps_written, 3);
        assert_eq!(loads[0].postings_updates, 2);
        assert_eq!(loads[1].segments_rewritten, 0);
        assert_eq!(loads[1].postings_updates, 1);
        store.reset_shard_loads();
        assert!(store
            .shard_loads()
            .iter()
            .all(|l| l == &ShardLoad::default()));
    }

    #[test]
    fn rewrites_re_index_only_past_the_common_prefix_on_both_apply_paths() {
        // One rewrite keeping `[0, 1]` and swapping a two-visit tail for one visit:
        // three postings updates, whether through `set_segment` or a planned apply.
        let id = SegmentId::new(NodeId(0), 0, 1);
        let other = SegmentId::new(NodeId(3), 0, 1);
        let mut plan = SegmentRewrites::new();
        plan.push(id, &path(&[0, 1, 2]));
        plan.push(other, &path(&[3, 1]));
        for threads in [1usize, 4] {
            let mut direct = ShardedWalkStore::new(4, 1, 2);
            direct.set_segment(id, &path(&[0, 1, 3, 3]));
            let mut planned = direct.clone();
            direct.reset_shard_loads();
            planned.reset_shard_loads();

            direct.set_segment(id, &path(&[0, 1, 2]));
            direct.set_segment(other, &path(&[3, 1]));
            planned.apply_rewrites(&plan, threads);
            for store in [&direct, &planned] {
                let updates: u64 = store.shard_loads().iter().map(|l| l.postings_updates).sum();
                assert_eq!(updates, 3 + 2, "{threads} threads");
                assert_eq!(store.segment_path(id), path(&[0, 1, 2]).as_slice());
                assert_eq!(store.visit_count(NodeId(3)), 1);
                assert!(store.check_consistency().is_ok());
            }
            assert_eq!(direct.shard_loads(), planned.shard_loads());
        }
    }

    #[test]
    fn update_probability_matches_single_shard_formula() {
        let mut store = ShardedWalkStore::new(2, 1, 2);
        store.set_segment(SegmentId::new(NodeId(0), 0, 1), &path(&[0, 1, 0, 1, 0]));
        assert!((store.update_probability(NodeId(0), 2) - 0.875).abs() < 1e-12);
        assert_eq!(store.update_probability(NodeId(0), 0), 0.0);
    }

    #[test]
    #[should_panic(expected = "must start at its source node")]
    fn segment_must_start_at_source() {
        let mut store = ShardedWalkStore::new(3, 1, 2);
        store.set_segment(SegmentId::new(NodeId(0), 0, 1), &path(&[1, 2]));
    }

    #[test]
    #[should_panic(expected = "outside the store")]
    fn segment_cannot_visit_unknown_nodes() {
        let mut store = ShardedWalkStore::new(2, 1, 2);
        store.set_segment(SegmentId::new(NodeId(0), 0, 1), &path(&[0, 5]));
    }

    #[test]
    #[should_panic(expected = "need at least one shard")]
    fn zero_shards_rejected() {
        let _ = ShardedWalkStore::new(2, 1, 0);
    }
}
