//! The one incremental Monte Carlo engine (Section 2.2: Proposition 2, Lemma 3,
//! Theorem 4, Proposition 5; Section 2.3: Theorem 6).
//!
//! [`WalkEngine`] owns the Social Store (the evolving graph) and the PageRank Store
//! (the cached walk segments of every node) and keeps the segments distributed as if
//! they had been drawn on the current graph, under edge arrivals and deletions.  It is
//! generic over two things:
//!
//! * the **walk kind** `K` ([`WalkKind`]): [`PageRank`] stores `R` forward walks per
//!   node; [`Salsa`] stores `2R` walks per node whose steps alternate between out-edges
//!   (a *hub* position stepping to an authority) and in-edges (an *authority* position
//!   stepping back to a hub), `R` starting each way.  Theorem 6 is the statement that
//!   nothing else changes, and the code takes it literally: a kind supplies the number
//!   of segments per node, the direction of each step, whether batches also form
//!   backward (target-keyed) groups, an RNG salt and a snapshot tag — every line of
//!   maintenance, durability and serving is shared;
//! * the **store layout** `W`: any [`ppr_store::WalkIndexMut`] — the flat
//!   [`WalkStore`] by default, the sharded [`ShardedWalkStore`] through
//!   [`WalkEngine::from_graph_sharded`], the file-backed `DiskWalkStore` through
//!   [`crate::durable`].
//!
//! # The reroute argument
//!
//! A step of direction `d` leaving node `p` picks uniformly among `p`'s `d`-edges
//! (out-edges when forward, in-edges when backward); a forward step is preceded by the
//! ε reset coin, a backward step is unconditional.  A segment is a valid sample on the
//! current graph iff every one of its steps is such a pick.
//!
//! **Arrivals.**  When `p` gains `k` `d`-edges on top of `d₀` existing ones, only
//! `d`-steps leaving `p` are affected, and the store's visit postings find the
//! segments holding them without scanning anything else.  Each such step would have
//! landed on a new edge with probability `k/(d₀+k)`, uniformly among the new ones —
//! exactly what `k` single-edge updates compose to (each per-edge coin `1/(d₀+i)`
//! composes by the reservoir argument to `1/(d₀+k)` per new edge).  So the segment is
//! rerouted at its first such step whose `k/(d₀+k)` coin comes up heads: the prefix up
//! to `p` stays, the step goes to a uniformly chosen new neighbour, and the rest is
//! regenerated on the post-batch graph at an expected cost of `O(1/ε)` steps.  A
//! segment that *ended* at `p` because `p` had no `d`-edge (`d₀ = 0`) continues with
//! the probability the walk itself would have: `1 − ε` if the next step is forward
//! (the reset coin precedes it), `1` if backward.  A segment that ended at a `p` with
//! `d₀ > 0` ended on a reset, which new edges do not affect.
//!
//! **Deletions.**  Detection is deterministic: a segment is invalid iff it traverses,
//! in the matching direction, an edge with no surviving parallel copy.  It is repaired
//! at its *earliest* invalidated step: the prefix up to the pivot stays, **that step
//! is re-sampled** among the pivot's remaining `d`-edges, and the rest is regenerated.
//! The reset coin of that step is *not* flipped again: the stored segment records that
//! it came up "continue", and the coin is independent of which edge the step then
//! took, so conditioning on it keeps the segment an exact sample — a second flip would
//! end an extra ε-fraction of the repaired segments at the pivot and bias their length
//! (and every score downstream of the pivot) low.  If
//! the pivot has no `d`-edge left the segment ends there, as a fresh walk would.
//!
//! Under [`RerouteStrategy::FromSource`] a hit regenerates the whole segment from its
//! source instead of keeping the prefix.
//!
//! # Batches
//!
//! [`WalkEngine::apply_arrivals`] and [`WalkEngine::apply_deletions`] run whole batches
//! through the deterministic candidate → reconcile → apply pipeline of
//! [`crate::batch`]: forward groups per source (and, for SALSA, backward groups per
//! target), one split RNG stream per `(batch, pivot, segment, direction)` repair,
//! candidates computed read-only against the pre-batch walks and the post-batch graph,
//! the smallest reroute position winning when several groups claim one segment.
//! Reading only the pre-batch path is sound: a reroute by another group only changes
//! the path *after* its own position, so coins flipped on stale suffix positions can
//! only produce candidates that lose, never a wrong winner; for deletions the minimum
//! over per-group first hits is the segment's globally earliest invalidated step, so
//! the kept prefix traverses no deleted edge.  (Under `FromSource` any winner
//! regenerates the whole segment, and a segment regenerates iff any group hits, so the
//! rule only selects which stream draws the identically distributed replacement.)  A
//! candidate that loses wastes its generated walk — rare, and never charged to
//! [`UpdateStats`]/[`WorkCounter`], which count the work the store absorbed.  Results
//! are **bit-identical for every shard count and thread count**
//! (`tests/differential_shard.rs`), which is what makes both batch kinds WAL records.
//! A single-edge [`WalkEngine::add_edge`] / [`WalkEngine::remove_edge`] is a batch of
//! one, on the same streams.
//!
//! The engine keeps a [`WorkCounter`] so experiments can compare the measured update
//! work against [`crate::bounds::total_update_work`] /
//! [`crate::bounds::per_arrival_update_work`] (Theorem 4),
//! [`crate::bounds::deletion_update_work`] (Proposition 5) and
//! [`crate::bounds::salsa_total_update_work`] (Theorem 6).

use crate::batch::{self, BatchProfile, CandidateSet, Group};
use crate::config::{MonteCarloConfig, RerouteStrategy};
use crate::walker;
use ppr_graph::{DynamicGraph, Edge, GraphView, NodeId};
use ppr_store::{
    ArenaStats, SegmentId, SegmentRewrites, ShardedWalkStore, SocialStore, WalkIndex, WalkIndexMut,
    WalkStore, WorkCounter,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;
use std::marker::PhantomData;
use std::time::Instant;

/// What Theorem 6 changes between the two walks the engine maintains — and nothing
/// else.  A reset coin precedes exactly the forward steps of either kind (every
/// PageRank step, every other SALSA step), so the direction is all a kind has to say
/// about resets.
pub trait WalkKind: std::fmt::Debug + Send + Sync + 'static {
    /// The engine tag written to (and checked against) a snapshot's META section.
    const TAG: u8;
    /// The kind's name in error messages.
    const NAME: &'static str;
    /// Added to the configured seed to seed the construction stream (the sequential
    /// RNG that draws initial segments), so the two kinds never share one.
    const SEED_SALT: u64;
    /// Whether batches also form backward groups: target-keyed, in-degree coins,
    /// disturbing the steps that follow in-edges.
    const BACKWARD_GROUPS: bool;

    /// Segments stored per node for the configured `r`.
    fn segments_per_node(r: usize) -> usize;

    /// Direction of the step leaving position `pos` of a segment stored in `slot`
    /// (`0..segments_per_node(r)`): `true` follows an out-edge, `false` an in-edge.
    fn step_forward(r: usize, slot: usize, pos: usize) -> bool;
}

/// The PageRank random surfer: `R` segments per node, every step forward.
#[derive(Debug, Clone, Copy)]
pub struct PageRank;

/// The SALSA walk: `2R` segments per node, steps alternating direction — slots `0..R`
/// start forward (even positions are hub visits), slots `R..2R` start backward.
#[derive(Debug, Clone, Copy)]
pub struct Salsa;

impl WalkKind for PageRank {
    const TAG: u8 = 1;
    const NAME: &'static str = "PageRank";
    const SEED_SALT: u64 = 0;
    const BACKWARD_GROUPS: bool = false;

    fn segments_per_node(r: usize) -> usize {
        r
    }

    fn step_forward(_r: usize, _slot: usize, _pos: usize) -> bool {
        true
    }
}

impl WalkKind for Salsa {
    const TAG: u8 = 2;
    const NAME: &'static str = "SALSA";
    const SEED_SALT: u64 = 0x5a15a;
    const BACKWARD_GROUPS: bool = true;

    fn segments_per_node(r: usize) -> usize {
        2 * r
    }

    fn step_forward(r: usize, slot: usize, pos: usize) -> bool {
        (slot < r) == (pos % 2 == 0)
    }
}

/// Work performed while processing a single edge arrival or deletion (or a whole
/// batch, when returned by [`WalkEngine::apply_arrivals`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct UpdateStats {
    /// Number of walk segments rerouted or rebuilt.
    pub segments_updated: u64,
    /// Number of random-walk steps executed to repair them.
    pub walk_steps: u64,
    /// Whether any segment was touched at all (if `false`, the arrival was absorbed by
    /// the `1 − (1 − 1/d)^{W}` filter of Section 2.2 without touching the PageRank
    /// Store).
    pub touched_walk_store: bool,
}

/// Monte Carlo PageRank or SALSA (`K`) with incrementally maintained walk segments,
/// generic over the PageRank Store layout (`W`).  See the [module docs](self).
///
/// Fields are `pub(crate)` so the durability layer ([`crate::durable`]) can snapshot
/// and reassemble engines without widening the public API.
#[derive(Debug)]
pub struct WalkEngine<K: WalkKind, W: WalkIndexMut = WalkStore> {
    pub(crate) store: SocialStore,
    pub(crate) walks: W,
    pub(crate) config: MonteCarloConfig,
    /// The construction stream: draws the initial segments of every node.
    pub(crate) rng: SmallRng,
    pub(crate) work: WorkCounter,
    pub(crate) initialization_steps: u64,
    /// Worker threads used for the batched reroute pipeline (always 1 for a
    /// single-shard store; results never depend on this).
    pub(crate) threads: usize,
    /// Index of the next batch (arrivals or deletions), mixed into every
    /// repair-stream seed.
    pub(crate) batch_index: u64,
    /// Reusable path buffer for segment generation.
    scratch: Vec<NodeId>,
    /// Reusable phase-1 outputs, one per route shard.
    candidate_sets: Vec<CandidateSet>,
    /// Reusable per-shard phase-1 timing buffer.
    phase1_times: Vec<std::time::Duration>,
    /// Reusable reconciled rewrite plan.
    rewrites: SegmentRewrites,
    /// Accumulated wall-time breakdown of the update batches (observability only).
    pub(crate) profile: BatchProfile,
    /// Attached write-ahead log; `None` for purely in-memory engines.
    pub(crate) durability: Option<crate::durable::DurableLog>,
    /// Sequence number of the next WAL record (count of batches ever logged).
    pub(crate) wal_seq: u64,
    kind: PhantomData<K>,
}

impl<K: WalkKind> WalkEngine<K> {
    /// Builds the engine over a graph or an existing Social Store, generating every
    /// node's segments in a single-shard [`WalkStore`].  Pass the graph by value to
    /// avoid copying it; `&DynamicGraph` is also accepted (and cloned) for callers that
    /// keep theirs.
    pub fn from_graph(graph: impl Into<SocialStore>, config: MonteCarloConfig) -> Self {
        let store = graph.into();
        let walks = WalkStore::new(store.node_count(), K::segments_per_node(config.r));
        Self::with_store(store, walks, config, 1)
    }

    /// Builds the engine over an empty graph with `node_count` isolated nodes.
    pub fn new_empty(node_count: usize, config: MonteCarloConfig) -> Self {
        Self::from_graph(DynamicGraph::with_nodes(node_count), config)
    }
}

impl<K: WalkKind> WalkEngine<K, ShardedWalkStore> {
    /// Builds the engine over a [`ShardedWalkStore`] split `shards` ways, repairing
    /// batches with up to `threads` worker threads.  The Social Store is re-sharded to
    /// the same shard count, so both stores place every node on the same shard (the
    /// shared [`ppr_store::routing::shard_of`] rule).
    ///
    /// Scores, segments, and postings are **bit-identical** to the single-shard
    /// engine's for every `(shards, threads)` combination; the knobs only change how
    /// the repair work is scheduled.
    pub fn from_graph_sharded(
        graph: impl Into<SocialStore>,
        config: MonteCarloConfig,
        shards: usize,
        threads: usize,
    ) -> Self {
        assert!(shards >= 1, "need at least one shard");
        assert!(threads >= 1, "need at least one worker thread");
        let store = graph.into();
        let store = if store.shard_count() == shards {
            store
        } else {
            SocialStore::from_graph(store.into_graph(), shards)
        };
        let segments = K::segments_per_node(config.r);
        let walks = ShardedWalkStore::new(store.node_count(), segments, shards);
        Self::with_store(store, walks, config, threads)
    }
}

impl<K: WalkKind, W: WalkIndexMut + Sync> WalkEngine<K, W> {
    /// Assembles an engine around existing stores without generating anything (the
    /// recovery path fills in the persisted counters afterwards).
    pub(crate) fn assemble(
        store: SocialStore,
        walks: W,
        config: MonteCarloConfig,
        rng: SmallRng,
        threads: usize,
    ) -> Self {
        WalkEngine {
            store,
            walks,
            config,
            rng,
            work: WorkCounter::new(),
            initialization_steps: 0,
            threads,
            batch_index: 0,
            scratch: Vec::new(),
            candidate_sets: Vec::new(),
            phase1_times: Vec::new(),
            rewrites: SegmentRewrites::new(),
            profile: BatchProfile::default(),
            durability: None,
            wal_seq: 0,
            kind: PhantomData,
        }
    }

    pub(crate) fn with_store(
        store: SocialStore,
        mut walks: W,
        config: MonteCarloConfig,
        threads: usize,
    ) -> Self {
        let node_count = store.node_count();
        walks.set_compaction_threshold(config.compaction_threshold);
        let rng = SmallRng::seed_from_u64(config.seed.wrapping_add(K::SEED_SALT));
        let mut engine = Self::assemble(store, walks, config, rng, threads);
        for node in 0..node_count {
            engine.generate_segments_for(NodeId::from_index(node));
        }
        engine
    }

    /// Appends one batch to the attached write-ahead log (no-op for in-memory
    /// engines).  Called **before** the batch mutates any state, so an acknowledged
    /// batch is always recoverable.
    fn log_wal(&mut self, op: ppr_persist::WalOp, edges: &[Edge]) {
        if let Some(log) = self.durability.as_mut() {
            log.append(self.wal_seq, op, edges);
            self.wal_seq += 1;
        }
    }

    /// Accumulated wall-time breakdown of every batch since construction (or the last
    /// [`Self::reset_batch_profile`]): total time plus per-shard times of the two
    /// parallelizable phases.  [`BatchProfile::critical_path`] turns it into the wall
    /// time a one-core-per-shard deployment would pay.
    pub fn batch_profile(&self) -> &BatchProfile {
        &self.profile
    }

    /// Resets the accumulated batch profile.
    pub fn reset_batch_profile(&mut self) {
        self.profile = BatchProfile::default();
    }

    /// The engine's configuration.
    pub fn config(&self) -> &MonteCarloConfig {
        &self.config
    }

    /// The Social Store (graph plus fetch accounting).
    pub fn social_store(&self) -> &SocialStore {
        &self.store
    }

    /// The underlying graph.
    pub fn graph(&self) -> &DynamicGraph {
        self.store.graph()
    }

    /// The PageRank Store holding the walk segments.
    pub fn walk_store(&self) -> &W {
        &self.walks
    }

    /// The reconciled rewrite plan of the most recent mutation (arrival batch,
    /// deletion batch, or single-edge wrapper): exactly the segment rewrites the
    /// store absorbed, in plan order.  The serving layer replays this plan into its
    /// copy-on-write generation mirror after each commit; empty when the mutation
    /// touched no segment.
    pub fn last_rewrites(&self) -> &SegmentRewrites {
        &self.rewrites
    }

    /// Number of worker threads the batched reroute pipeline may use.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Sets the worker-thread budget.  Results are bit-identical for every value; only
    /// scheduling changes.
    pub fn set_threads(&mut self, threads: usize) {
        assert!(threads >= 1, "need at least one worker thread");
        self.threads = threads;
    }

    /// Number of nodes currently known to the engine.
    pub fn node_count(&self) -> usize {
        self.store.node_count()
    }

    /// Cumulative update work performed since construction (excluding initialization).
    pub fn work(&self) -> &WorkCounter {
        &self.work
    }

    /// Walk steps spent generating initial segments (the `nR/ε` initialization cost
    /// the paper compares the update cost against).
    pub fn initialization_steps(&self) -> u64 {
        self.initialization_steps
    }

    /// Resets the cumulative work counter (initialization cost is kept).
    pub fn reset_work(&mut self) {
        self.work = WorkCounter::new();
    }

    /// Adds an isolated node and generates its walk segments; returns its id.
    pub fn add_node(&mut self) -> NodeId {
        let id = NodeId::from_index(self.node_count());
        self.ensure_nodes(id.index() + 1);
        id
    }

    /// Processes the arrival of `edge`, repairing every affected walk segment.
    ///
    /// A single arrival is exactly a batch of one: this delegates to
    /// [`Self::apply_arrivals`], so the two paths are on identical RNG streams.
    pub fn add_edge(&mut self, edge: Edge) -> UpdateStats {
        self.apply_arrivals(std::slice::from_ref(&edge))
    }

    /// Processes a whole batch of edge arrivals, grouping the coin flips and the visit
    /// index maintenance per pivot node (see the [module docs](self)).
    ///
    /// Nodes the batch names for the first time are created (and their segments
    /// generated) first; then every pivot's pre-batch degree is captured, all edges
    /// are inserted into the Social Store, and for every pivot that gained `k` edges
    /// on top of `d₀` the segments visiting it are enumerated **once**, each eligible
    /// step rerouting with probability `k/(d₀+k)` to a uniformly chosen new edge.
    /// Suffixes are regenerated on the post-batch graph.
    ///
    /// Returns the aggregate statistics over the whole batch.
    pub fn apply_arrivals(&mut self, edges: &[Edge]) -> UpdateStats {
        self.rewrites.clear();
        let Some(needed) = edges
            .iter()
            .map(|e| e.source.index().max(e.target.index()) + 1)
            .max()
        else {
            return UpdateStats::default();
        };
        self.log_wal(ppr_persist::WalOp::Arrivals, edges);
        let started = Instant::now();
        let arena_before = self.walks.arena_stats();
        self.ensure_nodes(needed);

        let mut groups = batch::group_by_pivot(edges, true, |n| self.store.out_degree(n));
        if K::BACKWARD_GROUPS {
            groups.extend(batch::group_by_pivot(edges, false, |n| {
                self.store.in_degree(n)
            }));
        }
        for &edge in edges {
            self.store.add_edge(edge);
        }
        self.repair(
            &groups,
            edges,
            started,
            &arena_before,
            arrival_candidate::<K, W>,
        )
    }

    /// Processes the deletion of `edge`, repairing every segment that traversed it.
    /// Returns `None` if the edge was not present.
    ///
    /// A single deletion is exactly a batch of one: this delegates to
    /// [`Self::apply_deletions`], so the two paths are on identical RNG streams.
    pub fn remove_edge(&mut self, edge: Edge) -> Option<UpdateStats> {
        if !self.store.graph().has_edge(edge) {
            return None;
        }
        Some(self.apply_deletions(std::slice::from_ref(&edge)))
    }

    /// Processes a whole batch of edge deletions through the same pipeline as
    /// [`Self::apply_arrivals`] (see the [module docs](self)).
    ///
    /// All present edges are removed from the Social Store first (absent ones are
    /// skipped); then, for every pivot that lost edges, the segments visiting it are
    /// enumerated **once** and each segment's *earliest* traversal of a fully deleted
    /// edge (one with no surviving parallel copy — while a copy exists, every
    /// traversal remains a legal step whose distribution the arrival-time reroutes
    /// already account for) is repaired on the post-deletion graph.
    pub fn apply_deletions(&mut self, edges: &[Edge]) -> UpdateStats {
        self.rewrites.clear();
        if edges.is_empty() {
            return UpdateStats::default();
        }
        self.log_wal(ppr_persist::WalOp::Deletions, edges);
        let started = Instant::now();
        let arena_before = self.walks.arena_stats();

        let mut removed = edges.to_vec();
        removed.retain(|&edge| self.store.remove_edge(edge));
        if removed.is_empty() {
            return UpdateStats::default();
        }

        let mut groups = batch::group_by_pivot(&removed, true, |_| 0);
        if K::BACKWARD_GROUPS {
            groups.extend(batch::group_by_pivot(&removed, false, |_| 0));
        }
        let graph = self.store.graph();
        for group in &mut groups {
            let (pivot, forward) = (group.pivot, group.forward);
            group.targets.retain(|&other| {
                let (source, target) = if forward {
                    (pivot, other)
                } else {
                    (other, pivot)
                };
                !graph.has_edge(Edge { source, target })
            });
            group.targets.sort_unstable();
            group.targets.dedup();
        }
        groups.retain(|group| !group.targets.is_empty());
        self.repair(
            &groups,
            &removed,
            started,
            &arena_before,
            deletion_candidate::<K, W>,
        )
    }

    /// Verifies that every stored segment is a valid walk of kind `K` in the *current*
    /// graph: it starts at its source node and every step follows an existing edge in
    /// the step's direction.  This is the invariant incremental maintenance must
    /// preserve.
    pub fn validate_segments(&self) -> Result<(), String> {
        let graph = self.store.graph();
        let segments = self.walks.r();
        for node in graph.nodes() {
            for id in self.walks.segment_ids_of(node) {
                let path = self.walks.segment_path(id);
                if path.first() != Some(&node) {
                    return Err(format!(
                        "segment {id:?} starts at {:?}, expected {node}",
                        path.first()
                    ));
                }
                let slot = id.slot(segments);
                for (pos, pair) in path.windows(2).enumerate() {
                    let (source, target) = if K::step_forward(self.config.r, slot, pos) {
                        (pair[0], pair[1])
                    } else {
                        (pair[1], pair[0])
                    };
                    let edge = Edge { source, target };
                    if !graph.has_edge(edge) {
                        return Err(format!(
                            "segment {id:?} traverses missing edge {edge} at position {pos}"
                        ));
                    }
                }
            }
        }
        self.walks.check_consistency()
    }

    // ----- internal helpers -------------------------------------------------------

    fn ensure_nodes(&mut self, n: usize) {
        let before = self.store.node_count();
        if n <= before {
            return;
        }
        self.store.ensure_nodes(n);
        self.walks.ensure_nodes(n);
        for node in before..n {
            self.generate_segments_for(NodeId::from_index(node));
        }
    }

    fn generate_segments_for(&mut self, node: NodeId) {
        let segments = K::segments_per_node(self.config.r);
        for slot in 0..segments {
            let steps = fresh_segment::<K>(
                self.store.graph(),
                &self.config,
                node,
                slot,
                &mut self.rng,
                &mut self.scratch,
            );
            self.initialization_steps += steps;
            self.walks
                .set_segment(SegmentId::new(node, slot, segments), &self.scratch);
        }
    }

    /// Runs one batch's repairs — `groups` formed over the batch's effective `edges`,
    /// the Social Store already at its post-batch state — through the three-phase
    /// pipeline of [`crate::batch`], with `candidate` deciding whether (and how) one
    /// group repairs one segment, and charges the work.
    fn repair(
        &mut self,
        groups: &[Group],
        edges: &[Edge],
        started: Instant,
        arena_before: &ArenaStats,
        candidate: impl Fn(&Repair<'_, W>, &Group, SegmentId, &mut Vec<NodeId>) -> Option<(usize, u64)>
            + Sync,
    ) -> UpdateStats {
        let threads = self.threads;
        let repair = Repair {
            graph: self.store.graph(),
            walks: &self.walks,
            config: &self.config,
            batch_index: self.batch_index,
        };
        self.batch_index += 1;

        // Phase 1: candidate generation, read-only against the pre-batch walk store
        // and the post-batch graph, partitioned by the shard owning each segment.
        let mut sets = std::mem::take(&mut self.candidate_sets);
        let mut phase1_times = std::mem::take(&mut self.phase1_times);
        let shards = repair.walks.route_shards();
        let segments = repair.walks.r();
        batch::fan_out_candidates(
            repair.walks,
            threads,
            &mut sets,
            &mut phase1_times,
            |sid, set| {
                let mut scratch = std::mem::take(&mut set.scratch);
                for (gi, group) in groups.iter().enumerate() {
                    for (id, _) in repair.walks.segments_visiting(group.pivot) {
                        if shards > 1 && (id.index() / segments) % shards != sid {
                            continue;
                        }
                        if let Some((pos, steps)) = candidate(&repair, group, id, &mut scratch) {
                            set.push(id, pos, gi, steps, &scratch);
                        }
                    }
                }
                set.scratch = scratch;
            },
        );

        // Phase 2: reconcile conflicting claims (smallest reroute position wins) into
        // a rewrite plan ordered by segment id.
        let mut stats = UpdateStats::default();
        let mut touched: HashSet<(NodeId, bool)> = HashSet::new();
        let mut rewrites = std::mem::take(&mut self.rewrites);
        rewrites.clear();
        for (si, ci) in batch::reconcile_candidates(&sets) {
            let cand = &sets[si].candidates[ci];
            rewrites.push(cand.seg, sets[si].path(cand));
            stats.segments_updated += 1;
            stats.walk_steps += cand.steps;
            let group = &groups[cand.group as usize];
            touched.insert((group.pivot, group.forward));
        }
        stats.touched_walk_store = stats.segments_updated > 0;

        // Phase 3: the store applies the plan (parallel per shard when it can).
        self.walks.apply_rewrites(&rewrites, threads);
        self.profile.record(
            started.elapsed(),
            &phase1_times,
            self.walks.last_apply_shard_times(),
        );
        self.profile
            .record_compactions(arena_before, &self.walks.arena_stats());
        self.candidate_sets = sets;
        self.phase1_times = phase1_times;
        self.rewrites = rewrites;

        // An edge was absorbed by the Section 2.2 filter when neither its source's
        // forward group nor its target's backward group disturbed any segment.
        self.work.arrivals_filtered += edges
            .iter()
            .filter(|e| {
                !touched.contains(&(e.source, true)) && !touched.contains(&(e.target, false))
            })
            .count() as u64;
        self.work.edges_processed += edges.len() as u64;
        self.work.segments_updated += stats.segments_updated;
        self.work.walk_steps += stats.walk_steps;
        stats
    }
}

/// What a candidate decision reads: the post-batch graph, the pre-batch walks, and
/// the coordinates of the batch's split RNG streams.
struct Repair<'a, W> {
    graph: &'a DynamicGraph,
    walks: &'a W,
    config: &'a MonteCarloConfig,
    batch_index: u64,
}

impl<W: WalkIndex> Repair<'_, W> {
    /// The repair's own split stream.
    fn rng(&self, group: &Group, id: SegmentId) -> SmallRng {
        SmallRng::seed_from_u64(batch::repair_seed(
            self.config.seed,
            self.batch_index,
            group.pivot,
            id,
            !group.forward,
        ))
    }
}

/// Generates segment `slot` of `source` from scratch into `buf`; returns its steps.
fn fresh_segment<K: WalkKind>(
    graph: &DynamicGraph,
    config: &MonteCarloConfig,
    source: NodeId,
    slot: usize,
    rng: &mut SmallRng,
    buf: &mut Vec<NodeId>,
) -> u64 {
    buf.clear();
    buf.push(source);
    extend_segment::<K>(graph, config, slot, rng, buf)
}

/// Continues the segment in `slot` whose path so far is `path` until it ends.
fn extend_segment<K: WalkKind>(
    graph: &DynamicGraph,
    config: &MonteCarloConfig,
    slot: usize,
    rng: &mut SmallRng,
    path: &mut Vec<NodeId>,
) -> u64 {
    walker::extend_walk(
        graph,
        path,
        config.epsilon,
        config.max_segment_length,
        rng,
        |pos| K::step_forward(config.r, slot, pos),
    )
}

/// Decides whether (and where) segment `id` reroutes for one arrival group, drawing
/// from the repair's own stream, and on a hit generates the full replacement path
/// into `scratch` against the post-batch graph.  Returns `(reroute position, steps)`.
fn arrival_candidate<K: WalkKind, W: WalkIndex>(
    repair: &Repair<'_, W>,
    group: &Group,
    id: SegmentId,
    scratch: &mut Vec<NodeId>,
) -> Option<(usize, u64)> {
    let path = repair.walks.segment_path(id);
    if path.is_empty() {
        return None;
    }
    let config = repair.config;
    let slot = id.slot(repair.walks.r());
    let k = group.targets.len();
    let last_index = path.len() - 1;
    let mut rng = repair.rng(group, id);

    let mut reroute_at: Option<(usize, NodeId)> = None;
    for (pos, &visit) in path.iter().enumerate() {
        if visit != group.pivot || K::step_forward(config.r, slot, pos) != group.forward {
            continue;
        }
        let hit_probability = if pos < last_index {
            // The step leaving this visit now has `d₀ + k` choices.
            k as f64 / (group.prior_degree + k) as f64
        } else if group.prior_degree == 0 {
            // The segment stopped here for want of an edge; it continues as the walk
            // itself would — past the reset coin if the step is forward.
            if group.forward {
                1.0 - config.epsilon
            } else {
                1.0
            }
        } else {
            // A final visit to a pivot that had edges ended on a reset.
            continue;
        };
        if rng.gen_bool(hit_probability) {
            reroute_at = Some((pos, walker::pick_new_target(&mut rng, &group.targets)));
            break;
        }
    }

    let (pos, target) = reroute_at?;
    let steps = match config.reroute {
        RerouteStrategy::FromUpdatePoint => {
            scratch.clear();
            scratch.extend_from_slice(&path[..=pos]);
            let mut steps = 0u64;
            if scratch.len() < config.max_segment_length {
                scratch.push(target);
                steps += 1;
            }
            steps + extend_segment::<K>(repair.graph, config, slot, &mut rng, scratch)
        }
        RerouteStrategy::FromSource => fresh_segment::<K>(
            repair.graph,
            config,
            repair.walks.source_of(id),
            slot,
            &mut rng,
            scratch,
        ),
    };
    Some((pos, steps))
}

/// Decides whether (and where) segment `id` must be repaired for one deletion group,
/// whose `targets` are the pivot's fully deleted neighbours (sorted): at its earliest
/// step leaving the pivot in the group's direction onto one of them.  On a hit,
/// generates the replacement path into `scratch` against the post-deletion graph —
/// the invalidated step re-sampled with no reset coin — and returns `(reroute
/// position, steps)`.
fn deletion_candidate<K: WalkKind, W: WalkIndex>(
    repair: &Repair<'_, W>,
    group: &Group,
    id: SegmentId,
    scratch: &mut Vec<NodeId>,
) -> Option<(usize, u64)> {
    let path = repair.walks.segment_path(id);
    let config = repair.config;
    let slot = id.slot(repair.walks.r());
    let pos = path.windows(2).enumerate().position(|(pos, step)| {
        step[0] == group.pivot
            && K::step_forward(config.r, slot, pos) == group.forward
            && group.targets.binary_search(&step[1]).is_ok()
    })?;
    let mut rng = repair.rng(group, id);
    let steps = match config.reroute {
        RerouteStrategy::FromUpdatePoint => {
            scratch.clear();
            scratch.extend_from_slice(&path[..=pos]);
            let next = if group.forward {
                repair.graph.random_out_neighbor(group.pivot, &mut rng)
            } else {
                repair.graph.random_in_neighbor(group.pivot, &mut rng)
            };
            match next {
                Some(next) => {
                    scratch.push(next);
                    1 + extend_segment::<K>(repair.graph, config, slot, &mut rng, scratch)
                }
                // The pivot lost its last edge in that direction: the segment ends.
                None => 0,
            }
        }
        RerouteStrategy::FromSource => fresh_segment::<K>(
            repair.graph,
            config,
            repair.walks.source_of(id),
            slot,
            &mut rng,
            scratch,
        ),
    };
    Some((pos, steps))
}
