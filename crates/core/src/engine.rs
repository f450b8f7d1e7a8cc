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
//!   [`WalkStore`] by default, the file-backed `DiskWalkStore` (which wraps it)
//!   through [`crate::durable`].
//!
//! # Construction
//!
//! The PageRank Store starts as `nR/ε` visits built once, so construction is priced
//! as one pass over them.  Every constructor draws each node's segments — node by
//! node, slot by slot, from the one construction stream — into a single
//! [`SegmentRewrites`] plan, and installs the plan with one
//! [`WalkIndexMut::fill`]: the store writes its arena in plan order and counts its
//! visit index once, with no postings update per visit.  A draw reads the graph
//! and never the walks, so the draws, `initialization_steps` and every path are
//! those of installing each segment as soon as it is drawn.  Nodes an arrival
//! batch creates later are drawn the same way and installed segment by segment.
//!
//! # The reroute argument
//!
//! A step of direction `d` leaving node `p` picks uniformly among `p`'s `d`-edges
//! (out-edges when forward, in-edges when backward); a forward step is preceded by the
//! ε reset coin, a backward step is unconditional.  A segment is a valid sample on the
//! current graph iff every one of its steps is such a pick.
//!
//! **Arrivals.**  When `p` gains `k` `d`-edges on top of `d₀` existing ones, only
//! `d`-steps leaving `p` are affected.  Each such step would have landed on a new edge
//! with probability `k/(d₀+k)`, uniformly among the new ones — exactly what `k`
//! single-edge updates compose to (each per-edge coin `1/(d₀+i)` composes by the
//! reservoir argument to `1/(d₀+k)` per new edge).  So the segment is rerouted at its
//! first such step whose `k/(d₀+k)` coin comes up heads: the prefix up to `p` stays,
//! the step goes to a uniformly chosen new neighbour, and the rest is regenerated on
//! the post-batch graph at an expected cost of `O(1/ε)` steps.  A segment that *ended*
//! at `p` because `p` had no `d`-edge (`d₀ = 0`) continues with the probability the
//! walk itself would have: `1 − ε` if the next step is forward (the reset coin
//! precedes it), `1` if backward.  A segment that ended at a `p` with `d₀ > 0` ended
//! on a reset, which new edges do not affect.
//!
//! **Two streams.**  Theorem 4 charges an arrival for the `W(p)/d(p)` steps it
//! reroutes, not for the `W(p)` visits it could have rerouted, so the coins are not
//! flipped visit by visit.  The group `(p, d)` has one coin probability — `k/(d₀+k)`,
//! or the continuation probability above when `d₀ = 0` — and one **coin stream**
//! (`batch::coin_seed`), from which `batch::sample_arrival_probes` draws the
//! geometric gaps between heads over *every* visit slot of `p`, walking `p`'s postings
//! without opening a path until a head falls inside one.  Only then is that segment
//! read, its heads mapped to positions, and the heads on *ineligible* visits dropped:
//! visits whose step goes the other direction, and terminal visits when `d₀ > 0` (or
//! non-terminal ones when `d₀ = 0`).  This thinning is exact: the slots' coins are
//! independent, eligibility is a property of the stored path and not of any coin, so
//! the coins on the eligible slots are still independent `Bernoulli(p)` — discarding
//! the others conditions on nothing.  The segment reroutes at its first surviving
//! head, and everything drawn from there on — the new neighbour, the regenerated
//! suffix — comes from the **repair stream** of that `(batch, pivot, segment,
//! direction)` (`batch::repair_seed`), which no coin ever touches.
//!
//! **Deletions.**  Detection is deterministic: a segment is invalid iff it traverses,
//! in the matching direction, an edge with no surviving parallel copy.  Such a segment
//! visits both endpoints, so the candidates are read off the postings of whichever
//! has fewer visits (`batch::deletion_probes`) — a hub losing the edge from one
//! young follower is found through the follower.  It is repaired
//! at its *earliest* invalidated step: the prefix up to the pivot stays, **that step
//! is re-sampled** among the pivot's remaining `d`-edges, and the rest is regenerated.
//! The reset coin of that step is *not* flipped again: the stored segment records that
//! it came up "continue", and the coin is independent of which edge the step then
//! took, so conditioning on it keeps the segment an exact sample — a second flip would
//! end an extra ε-fraction of the repaired segments at the pivot and bias their length
//! (and every score downstream of the pivot) low.  If
//! the pivot has no `d`-edge left the segment ends there, as a fresh walk would.
//!
//! # Batches
//!
//! [`WalkEngine::apply_arrivals`] and [`WalkEngine::apply_deletions`] run whole batches
//! through the deterministic detect → candidate → reconcile → apply pipeline of
//! [`crate::batch`]: forward groups per source (and, for SALSA, backward groups per
//! target), one coin stream per arrival group and one repair stream per `(batch,
//! pivot, segment, direction)`, candidates computed read-only against the pre-batch
//! walks and the post-batch graph, the smallest reroute position winning when several
//! groups claim one segment.
//! Reading only the pre-batch path is sound: a reroute by another group only changes
//! the path *after* its own position, so heads that land on stale suffix positions can
//! only produce candidates that lose, never a wrong winner; for deletions the minimum
//! over per-group first hits is the segment's globally earliest invalidated step, so
//! the kept prefix traverses no deleted edge.  A candidate that loses wastes its
//! generated walk — rare, and never charged to [`UpdateStats`]/[`WorkCounter`],
//! which count the work the store absorbed.  Results
//! depend only on the engine seed, the batch index and the batch's edges — never on
//! the order candidates are computed in.  A durable engine logs each batch's
//! reconciled plan, growth segments and cursors between phases 2 and 3, so recovery
//! installs them instead of re-running the batch ([`crate::durable`]).
//! A single-edge [`WalkEngine::add_edge`] / [`WalkEngine::remove_edge`] is a batch of
//! one, on the same streams.
//!
//! The engine keeps a [`WorkCounter`] so experiments can compare the measured update
//! work against [`crate::bounds::total_update_work`] /
//! [`crate::bounds::per_arrival_update_work`] (Theorem 4),
//! [`crate::bounds::deletion_update_work`] (Proposition 5) and
//! [`crate::bounds::salsa_total_update_work`] (Theorem 6).

use crate::batch::{self, BatchProfile, CandidateSet, Group, Probes};
use crate::config::MonteCarloConfig;
use crate::walker;
use ppr_graph::{DynamicGraph, Edge, GraphView, NodeId};
use ppr_persist::{BatchRecord, WalCursors, WalOp};
use ppr_store::{
    ArenaStats, SegmentId, SegmentRewrites, SocialStore, WalkIndex, WalkIndexMut, WalkStore,
    WorkCounter,
};
use rand::rngs::SmallRng;
use rand::SeedableRng;
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
    /// Index of the next batch (arrivals or deletions), mixed into every
    /// repair-stream seed.
    pub(crate) batch_index: u64,
    /// Reusable path buffer for segment generation.
    scratch: Vec<NodeId>,
    /// Reusable detection-scan output.
    probes: Probes,
    /// Reusable phase-1 output.
    candidates: CandidateSet,
    /// Reusable reconciled rewrite plan.
    rewrites: SegmentRewrites,
    /// Reusable plan of the segments drawn for the nodes the current batch created.
    growth: SegmentRewrites,
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
    /// node's segments in a [`WalkStore`].  Pass the graph by value to
    /// avoid copying it; `&DynamicGraph` is also accepted (and cloned) for callers that
    /// keep theirs.
    pub fn from_graph(graph: impl Into<SocialStore>, config: MonteCarloConfig) -> Self {
        let store = graph.into();
        let walks = WalkStore::new(store.node_count(), K::segments_per_node(config.r));
        Self::with_store(store, walks, config)
    }

    /// Builds the engine over an empty graph with `node_count` isolated nodes.
    pub fn new_empty(node_count: usize, config: MonteCarloConfig) -> Self {
        Self::from_graph(DynamicGraph::with_nodes(node_count), config)
    }
}

impl<K: WalkKind, W: WalkIndexMut> WalkEngine<K, W> {
    /// Assembles an engine around existing stores without generating anything (the
    /// recovery path fills in the persisted counters afterwards).
    pub(crate) fn assemble(
        store: SocialStore,
        walks: W,
        config: MonteCarloConfig,
        rng: SmallRng,
    ) -> Self {
        WalkEngine {
            store,
            walks,
            config,
            rng,
            work: WorkCounter::new(),
            initialization_steps: 0,
            batch_index: 0,
            scratch: Vec::new(),
            probes: Probes::default(),
            candidates: CandidateSet::default(),
            rewrites: SegmentRewrites::new(),
            growth: SegmentRewrites::new(),
            profile: BatchProfile::default(),
            durability: None,
            wal_seq: 0,
            kind: PhantomData,
        }
    }

    /// Builds the engine around an empty `walks`: draws every node's segments into
    /// one plan, then installs it with a single [`WalkIndexMut::fill`] (see the
    /// [module docs](self#construction)).
    pub(crate) fn with_store(store: SocialStore, walks: W, config: MonteCarloConfig) -> Self {
        let node_count = store.node_count();
        let rng = SmallRng::seed_from_u64(config.seed.wrapping_add(K::SEED_SALT));
        let mut engine = Self::assemble(store, walks, config, rng);
        let mut plan = SegmentRewrites::new();
        engine.draw_segments(0..node_count, &mut plan);
        engine.walks.fill(&plan);
        engine
    }

    /// The per-segment construction [`Self::with_store`] replaced, kept as its
    /// reference: the same draws, each installed with its own `set_segment`.
    #[cfg(test)]
    pub(crate) fn with_store_per_segment(
        store: SocialStore,
        walks: W,
        config: MonteCarloConfig,
    ) -> Self {
        let node_count = store.node_count();
        let rng = SmallRng::seed_from_u64(config.seed.wrapping_add(K::SEED_SALT));
        let mut engine = Self::assemble(store, walks, config, rng);
        for node in 0..node_count {
            engine.generate_segments_for(NodeId::from_index(node));
        }
        engine
    }

    /// Appends the batch's record to the attached write-ahead log (no-op for
    /// in-memory engines) — its edges and its effects: the growth segments in
    /// `self.growth`, the reconciled plan in `self.rewrites`, and the cursors after
    /// the batch, where `work` and `initialization_steps` are what the batch added.
    /// Called before the walk store installs `self.rewrites`, and returns only
    /// once the record is durable, so `open` can install the logged paths instead
    /// of re-running the batch.
    fn log_wal(&mut self, op: WalOp, edges: &[Edge], work: WorkCounter, initialization_steps: u64) {
        if let Some(log) = self.durability.as_mut() {
            log.append(&BatchRecord {
                seq: self.wal_seq,
                op,
                edges,
                cursors: WalCursors {
                    rng: self.rng.state(),
                    batch_index: self.batch_index,
                    work,
                    initialization_steps,
                },
                growth: &self.growth,
                rewrites: &self.rewrites,
            });
            self.wal_seq += 1;
        }
    }

    /// Accumulated wall-time breakdown of every batch since construction (or the last
    /// [`Self::reset_batch_profile`]): total time plus the time of each repair phase.
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

    /// Adds an isolated node and generates its walk segments; returns its id.  A
    /// durable engine logs the node as an arrival record with no edges.
    pub fn add_node(&mut self) -> NodeId {
        let id = NodeId::from_index(self.node_count());
        self.rewrites.clear();
        self.growth.clear();
        let initialization_before = self.initialization_steps;
        self.ensure_nodes(id.index() + 1);
        let grown = self.initialization_steps - initialization_before;
        self.log_wal(WalOp::Arrivals, &[], WorkCounter::default(), grown);
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
    /// on top of `d₀` the visits to it are skip-sampled **once**, each eligible step
    /// rerouting with probability `k/(d₀+k)` to a uniformly chosen new edge.
    /// Suffixes are regenerated on the post-batch graph.
    ///
    /// Returns the aggregate statistics over the whole batch.
    pub fn apply_arrivals(&mut self, edges: &[Edge]) -> UpdateStats {
        self.rewrites.clear();
        self.growth.clear();
        let Some(needed) = edges
            .iter()
            .map(|e| e.source.index().max(e.target.index()) + 1)
            .max()
        else {
            return UpdateStats::default();
        };
        let started = Instant::now();
        let arena_before = self.walks.arena_stats();
        let initialization_before = self.initialization_steps;
        self.ensure_nodes(needed);
        let grown = self.initialization_steps - initialization_before;

        let mut groups = batch::group_by_pivot(edges, true, |n| self.store.out_degree(n));
        if K::BACKWARD_GROUPS {
            groups.extend(batch::group_by_pivot(edges, false, |n| {
                self.store.in_degree(n)
            }));
        }
        for &edge in edges {
            self.store.add_edge(edge);
        }
        let (stats, work) = self.repair(
            &groups,
            edges,
            arrival_probes::<DynamicGraph, W>,
            arrival_candidate::<K, DynamicGraph, W>,
        );
        self.install(WalOp::Arrivals, edges, &work, grown, started, &arena_before);
        stats
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
    /// skipped); then, for every pivot that lost edges, the segments visiting the
    /// lighter endpoint — the pivot, or the neighbours it lost — are enumerated
    /// **once** and each segment's *earliest* traversal of a fully deleted
    /// edge (one with no surviving parallel copy — while a copy exists, every
    /// traversal remains a legal step whose distribution the arrival-time reroutes
    /// already account for) is repaired on the post-deletion graph.
    pub fn apply_deletions(&mut self, edges: &[Edge]) -> UpdateStats {
        self.apply_deletions_scanning(edges, |pivot_visits, target_visits| {
            target_visits < pivot_visits
        })
    }

    /// [`Self::apply_deletions`] with the endpoint rule spelled out:
    /// `scan_targets(W(pivot), Σ W(target))` picks, per group, whose postings list the
    /// candidates.  The rewrites never depend on it — the tests that say so are why it
    /// is a parameter.
    pub(crate) fn apply_deletions_scanning(
        &mut self,
        edges: &[Edge],
        scan_targets: impl Fn(u64, u64) -> bool,
    ) -> UpdateStats {
        self.rewrites.clear();
        self.growth.clear();
        if edges.is_empty() {
            return UpdateStats::default();
        }
        let started = Instant::now();
        let arena_before = self.walks.arena_stats();

        let mut removed = edges.to_vec();
        removed.retain(|&edge| self.store.remove_edge(edge));
        if removed.is_empty() {
            self.log_wal(WalOp::Deletions, edges, WorkCounter::default(), 0);
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
        let (stats, work) = self.repair(
            &groups,
            &removed,
            |repair, gi, group, probes| {
                batch::deletion_probes(
                    repair.walks,
                    gi,
                    group.pivot,
                    &group.targets,
                    &scan_targets,
                    probes,
                )
            },
            deletion_candidate::<K, DynamicGraph, W>,
        );
        self.install(WalOp::Deletions, edges, &work, 0, started, &arena_before);
        stats
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
        let mut growth = std::mem::take(&mut self.growth);
        self.draw_segments(before..n, &mut growth);
        for (id, path) in growth.iter() {
            self.walks.set_segment(id, path);
        }
        self.growth = growth;
    }

    /// Draws every segment of `nodes`, node by node and slot by slot, from the
    /// construction stream into `plan`, charging the steps to
    /// `initialization_steps`.  A draw reads the graph only, never the walks, so
    /// drawing a whole node range before installing any of it takes exactly the
    /// draws the per-segment loop did.
    fn draw_segments(&mut self, nodes: std::ops::Range<usize>, plan: &mut SegmentRewrites) {
        let segments = K::segments_per_node(self.config.r);
        for node in nodes {
            let node = NodeId::from_index(node);
            for slot in 0..segments {
                self.initialization_steps += fresh_segment::<K, _>(
                    self.store.graph(),
                    &self.config,
                    node,
                    slot,
                    &mut self.rng,
                    &mut self.scratch,
                );
                plan.push(SegmentId::new(node, slot, segments), &self.scratch);
            }
        }
    }

    #[cfg(test)]
    fn generate_segments_for(&mut self, node: NodeId) {
        let segments = K::segments_per_node(self.config.r);
        for slot in 0..segments {
            let steps = fresh_segment::<K, _>(
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

    /// Plans one batch's repairs — `groups` formed over the batch's effective `edges`,
    /// the Social Store already at its post-batch state — through phases 1 and 2 of
    /// [`crate::batch`]: `detect` names the segments each group may repair, `candidate`
    /// decides whether (and how) one group repairs one of them, and the reconciled
    /// plan lands in `self.rewrites`.  Returns the batch's stats and the work it adds,
    /// for [`Self::install`] to log and charge.
    fn repair(
        &mut self,
        groups: &[Group],
        edges: &[Edge],
        detect: impl Fn(&Repair<'_, DynamicGraph, W>, usize, &Group, &mut Probes),
        candidate: impl Fn(
            &Repair<'_, DynamicGraph, W>,
            &Group,
            SegmentId,
            &[u32],
            &mut Vec<NodeId>,
        ) -> Option<(usize, u64)>,
    ) -> (UpdateStats, WorkCounter) {
        let repair = Repair {
            graph: self.store.graph(),
            walks: &self.walks,
            config: &self.config,
            batch_index: self.batch_index,
        };
        self.batch_index += 1;

        // Phase 1a: detection — postings only, no path is read.
        let phase_started = Instant::now();
        let mut probes = std::mem::take(&mut self.probes);
        probes.clear();
        for (gi, group) in groups.iter().enumerate() {
            detect(&repair, gi, group, &mut probes);
        }
        self.profile.detect += phase_started.elapsed();

        // Phase 1b: candidate generation, read-only against the pre-batch walk store
        // and the post-batch graph.
        let phase_started = Instant::now();
        let mut set = std::mem::take(&mut self.candidates);
        set.clear();
        for probe in &probes.probes {
            let group = &groups[probe.group as usize];
            let picks = probes.picks(probe);
            if let Some((pos, steps)) =
                candidate(&repair, group, probe.seg, picks, &mut self.scratch)
            {
                set.push(probe.seg, pos, probe.group as usize, steps, &self.scratch);
            }
        }
        self.profile.candidates += phase_started.elapsed();
        self.profile.record_scan(&probes);
        self.probes = probes;

        // Phase 2: reconcile conflicting claims (smallest reroute position wins) into
        // a rewrite plan ordered by segment id.
        let mut stats = UpdateStats::default();
        let mut touched: HashSet<(NodeId, bool)> = HashSet::new();
        let mut rewrites = std::mem::take(&mut self.rewrites);
        rewrites.clear();
        for ci in batch::reconcile_candidates(&set) {
            let cand = &set.candidates[ci];
            rewrites.push(cand.seg, set.path(cand));
            stats.segments_updated += 1;
            stats.walk_steps += cand.steps;
            let group = &groups[cand.group as usize];
            touched.insert((group.pivot, group.forward));
        }
        stats.touched_walk_store = stats.segments_updated > 0;
        self.candidates = set;
        self.rewrites = rewrites;

        let work = WorkCounter {
            segments_updated: stats.segments_updated,
            walk_steps: stats.walk_steps,
            edges_processed: edges.len() as u64,
            // An edge was absorbed by the Section 2.2 filter when neither its source's
            // forward group nor its target's backward group disturbed any segment.
            arrivals_filtered: edges
                .iter()
                .filter(|e| {
                    !touched.contains(&(e.source, true)) && !touched.contains(&(e.target, false))
                })
                .count() as u64,
        };
        (stats, work)
    }

    /// Phase 3: logs the batch (see [`Self::log_wal`]), then the store installs the
    /// reconciled plan; charges the batch's time and `work`.
    fn install(
        &mut self,
        op: WalOp,
        edges: &[Edge],
        work: &WorkCounter,
        initialization_steps: u64,
        started: Instant,
        arena_before: &ArenaStats,
    ) {
        let planned = started.elapsed();
        self.log_wal(op, edges, *work, initialization_steps);
        let phase_started = Instant::now();
        self.walks.apply_rewrites(&self.rewrites);
        let applied = phase_started.elapsed();
        self.profile.apply += applied;
        // The profile times the engine, not the WAL append between its phases.
        self.profile.total += planned + applied;
        self.profile
            .record_compactions(arena_before, &self.walks.arena_stats());
        self.work.merge(work);
    }
}

/// What a candidate decision reads: the post-batch graph, the pre-batch walks, and
/// the coordinates of the batch's split RNG streams.
struct Repair<'a, G: ?Sized, W> {
    graph: &'a G,
    walks: &'a W,
    config: &'a MonteCarloConfig,
    batch_index: u64,
}

impl<G: ?Sized, W: WalkIndex> Repair<'_, G, W> {
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
fn fresh_segment<K: WalkKind, G: GraphView + ?Sized>(
    graph: &G,
    config: &MonteCarloConfig,
    source: NodeId,
    slot: usize,
    rng: &mut SmallRng,
    buf: &mut Vec<NodeId>,
) -> u64 {
    buf.clear();
    buf.push(source);
    extend_segment::<K, _>(graph, config, slot, rng, buf)
}

/// Continues the segment in `slot` whose path so far is `path` until it ends.
fn extend_segment<K: WalkKind, G: GraphView + ?Sized>(
    graph: &G,
    config: &MonteCarloConfig,
    slot: usize,
    rng: &mut SmallRng,
    path: &mut Vec<NodeId>,
) -> u64 {
    walker::extend_walk(
        graph,
        path,
        config.epsilon,
        config.max_segment_length(),
        rng,
        |pos| K::step_forward(config.r, slot, pos),
    )
}

/// The coin probability of an arrival group: `k/(d₀+k)` per step leaving the pivot,
/// or — when the pivot had no edge in the group's direction, so every eligible visit
/// is a segment that stopped there for want of one — the probability the walk itself
/// continues: past the reset coin if the step is forward, certainly if backward.
fn arrival_coin_probability(group: &Group, epsilon: f64) -> f64 {
    if group.prior_degree > 0 {
        let k = group.targets.len();
        k as f64 / (group.prior_degree + k) as f64
    } else if group.forward {
        1.0 - epsilon
    } else {
        1.0
    }
}

/// The detection scan of one arrival group: skip-samples the group's coin stream over
/// the pivot's visit slots.
fn arrival_probes<G: ?Sized, W: WalkIndex>(
    repair: &Repair<'_, G, W>,
    gi: usize,
    group: &Group,
    probes: &mut Probes,
) {
    let mut coins = SmallRng::seed_from_u64(batch::coin_seed(
        repair.config.seed,
        repair.batch_index,
        group.pivot,
        !group.forward,
    ));
    batch::sample_arrival_probes(
        repair.walks,
        gi,
        group.pivot,
        arrival_coin_probability(group, repair.config.epsilon),
        &mut coins,
        probes,
    );
}

/// Maps an arrival probe's heads — `picks`, increasing indices into `path`'s visits to
/// the pivot — to path positions and returns the first *eligible* one: a visit whose
/// step goes in the group's direction, non-terminal if the pivot had edges (a final
/// visit there ended on a reset), terminal if it had none (the segment stopped for
/// want of an edge).
fn first_eligible_pick<K: WalkKind>(
    path: &[NodeId],
    r: usize,
    slot: usize,
    group: &Group,
    picks: &[u32],
) -> Option<usize> {
    let last_index = path.len().checked_sub(1)?;
    let mut picks = picks.iter().copied();
    let mut pick = picks.next()?;
    let mut occurrence = 0u32;
    for (pos, &visit) in path.iter().enumerate() {
        if visit != group.pivot {
            continue;
        }
        if occurrence == pick {
            if K::step_forward(r, slot, pos) == group.forward
                && (pos == last_index) == (group.prior_degree == 0)
            {
                return Some(pos);
            }
            pick = picks.next()?;
        }
        occurrence += 1;
    }
    None
}

/// Decides whether (and where) segment `id` reroutes for one arrival group, given the
/// heads its coin stream drew among the segment's visits to the pivot, and on a hit
/// generates the full replacement path into `scratch` against the post-batch graph
/// from the repair's own stream.  Returns `(reroute position, steps)`.
fn arrival_candidate<K: WalkKind, G: GraphView + ?Sized, W: WalkIndex>(
    repair: &Repair<'_, G, W>,
    group: &Group,
    id: SegmentId,
    picks: &[u32],
    scratch: &mut Vec<NodeId>,
) -> Option<(usize, u64)> {
    let path = repair.walks.segment_path(id);
    let config = repair.config;
    let slot = id.slot(repair.walks.r());
    let pos = first_eligible_pick::<K>(path, config.r, slot, group, picks)?;
    let mut rng = repair.rng(group, id);
    let target = walker::pick_new_target(&mut rng, &group.targets);
    scratch.clear();
    scratch.extend_from_slice(&path[..=pos]);
    let mut steps = 0u64;
    if scratch.len() < config.max_segment_length() {
        scratch.push(target);
        steps += 1;
    }
    steps += extend_segment::<K, _>(repair.graph, config, slot, &mut rng, scratch);
    Some((pos, steps))
}

/// Decides whether (and where) segment `id` must be repaired for one deletion group,
/// whose `targets` are the pivot's fully deleted neighbours (sorted): at its earliest
/// step leaving the pivot in the group's direction onto one of them.  On a hit,
/// generates the replacement path into `scratch` against the post-deletion graph —
/// the invalidated step re-sampled with no reset coin — and returns `(reroute
/// position, steps)`.
fn deletion_candidate<K: WalkKind, G: GraphView + ?Sized, W: WalkIndex>(
    repair: &Repair<'_, G, W>,
    group: &Group,
    id: SegmentId,
    _picks: &[u32],
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
    scratch.clear();
    scratch.extend_from_slice(&path[..=pos]);
    let next = if group.forward {
        repair.graph.random_out_neighbor(group.pivot, &mut rng)
    } else {
        repair.graph.random_in_neighbor(group.pivot, &mut rng)
    };
    let steps = match next {
        Some(next) => {
            scratch.push(next);
            1 + extend_segment::<K, _>(repair.graph, config, slot, &mut rng, scratch)
        }
        // The pivot lost its last edge in that direction: the segment ends.
        None => 0,
    };
    Some((pos, steps))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::Rng;

    const PIVOT: NodeId = NodeId(0);
    const EPSILON: f64 = 0.2;

    /// The per-visit coin loop the skip sampler replaced, kept as its distributional
    /// reference: walks the path, flips one coin per eligible visit to the pivot, and
    /// returns the position of the first head.
    fn reference_first_hit<K: WalkKind>(
        path: &[NodeId],
        r: usize,
        slot: usize,
        group: &Group,
        rng: &mut SmallRng,
    ) -> Option<usize> {
        let last_index = path.len().checked_sub(1)?;
        let k = group.targets.len();
        for (pos, &visit) in path.iter().enumerate() {
            if visit != group.pivot || K::step_forward(r, slot, pos) != group.forward {
                continue;
            }
            let hit_probability = if pos < last_index {
                k as f64 / (group.prior_degree + k) as f64
            } else if group.prior_degree == 0 {
                if group.forward {
                    1.0 - EPSILON
                } else {
                    1.0
                }
            } else {
                continue;
            };
            if rng.gen_bool(hit_probability) {
                return Some(pos);
            }
        }
        None
    }

    fn store_of(segments: usize, paths: &[(u32, usize, &[u32])]) -> WalkStore {
        let mut store = WalkStore::new(9, segments);
        for node in 0..9u32 {
            for slot in 0..segments {
                store.set_segment(
                    SegmentId::new(NodeId(node), slot, segments),
                    &[NodeId(node)],
                );
            }
        }
        for &(source, slot, path) in paths {
            let path: Vec<NodeId> = path.iter().map(|&v| NodeId(v)).collect();
            store.set_segment(SegmentId::new(NodeId(source), slot, segments), &path);
        }
        store
    }

    /// A pivot that had edges both ways: segments visit it several times, at both
    /// step parities, in the middle and at the end.
    fn busy_store(segments: usize) -> WalkStore {
        store_of(
            segments,
            &[
                (1, 0, &[1, 0, 2, 0, 3, 0, 4]),
                (1, 1, &[1, 0, 2, 0, 3, 0]),
                (0, 0, &[0, 5, 0, 6, 0]),
                (0, 1, &[0, 5, 0, 6, 0, 7]),
                (2, 0, &[2, 0, 0, 0, 3]),
                (3, 0, &[3, 4]),
                (4, 1, &[4, 0]),
            ],
        )
    }

    /// A pivot with no edge in one direction: its visits whose step would go that way
    /// (the even positions of slot `dangling`'s parity, the odd ones of the other) are
    /// all terminal; the other direction is visited freely.
    fn dangling_store(dangling: usize) -> WalkStore {
        let other = 1 - dangling;
        store_of(
            2,
            &[
                (1, dangling, &[1, 0, 2, 0, 3, 0, 4]),
                (1, other, &[1, 0]),
                (0, dangling, &[0]),
                (0, other, &[0, 5, 0]),
                (2, dangling, &[2, 0, 3, 6, 0]),
                (4, other, &[4, 0]),
            ],
        )
    }

    /// Draws `DRAWS` coin streams over `store` for `group` through the sampler and, on
    /// independent streams, through the per-visit reference, and compares: the head
    /// count per draw against `Binomial(W, p)`, and — per segment — the distribution of
    /// the reroute position (or none).
    fn assert_sampler_matches_reference<K: WalkKind>(r: usize, store: &WalkStore, group: &Group) {
        const DRAWS: u64 = 4_000;
        let p = arrival_coin_probability(group, EPSILON);
        let visits = store.visit_count(PIVOT) as f64;
        let segments = store.r();
        let visitors: Vec<SegmentId> = store.segments_visiting(PIVOT).map(|(id, _)| id).collect();
        // outcome[segment][position], with `path.len()` standing for "no reroute".
        let tally = || -> Vec<Vec<u64>> {
            visitors
                .iter()
                .map(|&id| vec![0; store.segment_len(id) + 1])
                .collect()
        };
        let (mut sampled, mut reference) = (tally(), tally());
        let (mut heads_sum, mut heads_squares) = (0f64, 0f64);
        let mut probes = Probes::default();
        for draw in 0..DRAWS {
            probes.clear();
            let mut coins =
                SmallRng::seed_from_u64(batch::coin_seed(17, draw, PIVOT, !group.forward));
            batch::sample_arrival_probes(store, 0, PIVOT, p, &mut coins, &mut probes);
            let heads: usize = probes.probes.iter().map(|q| probes.picks(q).len()).sum();
            heads_sum += heads as f64;
            heads_squares += (heads * heads) as f64;
            for (vi, &id) in visitors.iter().enumerate() {
                let path = store.segment_path(id);
                let slot = id.slot(segments);
                let picks = probes
                    .probes
                    .iter()
                    .find(|q| q.seg == id)
                    .map_or(&[][..], |q| probes.picks(q));
                let hit = first_eligible_pick::<K>(path, r, slot, group, picks);
                sampled[vi][hit.unwrap_or(path.len())] += 1;
                let mut rng = SmallRng::seed_from_u64(batch::repair_seed(
                    23,
                    draw,
                    PIVOT,
                    id,
                    !group.forward,
                ));
                let hit = reference_first_hit::<K>(path, r, slot, group, &mut rng);
                reference[vi][hit.unwrap_or(path.len())] += 1;
            }
        }

        let draws = DRAWS as f64;
        let mean = heads_sum / draws;
        let variance = heads_squares / draws - mean * mean;
        let label = format!(
            "{}, d₀ = {}, k = {}, forward = {}",
            K::NAME,
            group.prior_degree,
            group.targets.len(),
            group.forward
        );
        // Binomial(W, p): mean W·p, variance W·p·q, fourth central moment
        // W·p·q·(1 + 3(W − 2)·p·q); each estimate is held to 5σ of its own error.
        let pq = p * (1.0 - p);
        let (want_mean, want_variance) = (visits * p, visits * pq);
        let fourth_moment = want_variance * (1.0 + 3.0 * (visits - 2.0) * pq);
        assert!(
            (mean - want_mean).abs() <= 5.0 * (want_variance / draws).sqrt() + 1e-9,
            "{label}: {mean} heads per draw, expected W·p = {want_mean}"
        );
        let variance_error = ((fourth_moment - want_variance * want_variance) / draws).sqrt();
        assert!(
            (variance - want_variance).abs() <= 5.0 * variance_error + 1e-9,
            "{label}: head-count variance {variance}, expected W·p·(1−p) = {want_variance}"
        );
        let mut rerouted = 0u64;
        for (vi, &id) in visitors.iter().enumerate() {
            for (pos, (&got, &want)) in sampled[vi].iter().zip(&reference[vi]).enumerate() {
                // Two independent estimates of one frequency: 5σ of their difference.
                let q = (got + want) as f64 / (2.0 * draws);
                let tolerance = 5.0 * (2.0 * q * (1.0 - q) / draws).sqrt() + 1e-9;
                assert!(
                    (got as f64 - want as f64).abs() / draws <= tolerance,
                    "{label}, segment {id:?}, position {pos}: sampler {got}, reference {want}"
                );
            }
            rerouted += DRAWS - sampled[vi].last().unwrap();
        }
        assert!(rerouted > 0, "{label}: the scenario must reroute something");
    }

    fn group(prior_degree: usize, k: usize, forward: bool) -> Group {
        Group {
            pivot: PIVOT,
            prior_degree,
            targets: (0..k).map(|i| NodeId(1 + (i % 8) as u32)).collect(),
            forward,
        }
    }

    #[test]
    fn skip_sampled_coins_match_the_per_visit_reference() {
        // SALSA, both parities (r = 1: slot 0 starts forward, slot 1 backward), and
        // the corners: one edge on top of three, k > d₀, p → 1.
        for forward in [true, false] {
            for (prior_degree, k) in [(3, 1), (1, 4), (1, 999)] {
                assert_sampler_matches_reference::<Salsa>(
                    1,
                    &busy_store(2),
                    &group(prior_degree, k, forward),
                );
            }
        }
        // d₀ = 0: forward continues past the reset coin, backward certainly; only
        // the terminal visits in the group's direction are eligible.
        assert_sampler_matches_reference::<Salsa>(1, &dangling_store(0), &group(0, 2, true));
        assert_sampler_matches_reference::<Salsa>(1, &dangling_store(1), &group(0, 2, false));
        // PageRank: every slot steps forward.
        for (prior_degree, k) in [(3, 1), (1, 4), (1, 999)] {
            assert_sampler_matches_reference::<PageRank>(
                2,
                &busy_store(2),
                &group(prior_degree, k, true),
            );
        }
        let ends_at_pivot = store_of(2, &[(1, 0, &[1, 0]), (2, 1, &[2, 3, 0]), (0, 0, &[0])]);
        assert_sampler_matches_reference::<PageRank>(2, &ends_at_pivot, &group(0, 3, true));
    }

    #[test]
    fn a_head_past_the_last_visit_touches_no_posting() {
        // The Section 2.2 filter: a first gap that overshoots W(pivot) ends the scan
        // before it starts.  At p = 1/1000 over 15 visits that is almost every draw.
        let store = busy_store(2);
        let mut probes = Probes::default();
        let mut filtered = 0;
        for draw in 0..200 {
            probes.clear();
            let mut coins = SmallRng::seed_from_u64(batch::coin_seed(5, draw, PIVOT, false));
            batch::sample_arrival_probes(&store, 0, PIVOT, 1e-3, &mut coins, &mut probes);
            if probes.probes.is_empty() {
                assert_eq!(probes.postings_scanned, 0, "draw {draw}");
                filtered += 1;
            }
        }
        assert!(filtered > 150, "only {filtered} of 200 draws were filtered");
    }

    fn rewrites_of<K: WalkKind>(engine: &WalkEngine<K>) -> Vec<(SegmentId, Vec<NodeId>)> {
        engine
            .last_rewrites()
            .iter()
            .map(|(id, path)| (id, path.to_vec()))
            .collect()
    }

    /// Builds three identical engines, deletes `doomed` from each under a different
    /// endpoint rule, and checks the rewrites agree bit for bit.
    fn assert_endpoint_never_changes_rewrites<K: WalkKind>(
        arrivals: &[Edge],
        doomed: &[Edge],
        seed: u64,
    ) {
        let build = || {
            let config = MonteCarloConfig::new(0.25, 2).with_seed(seed);
            let mut engine = WalkEngine::<K>::new_empty(12, config);
            for batch in arrivals.chunks(5) {
                engine.apply_arrivals(batch);
            }
            engine
        };
        let (mut lighter, mut pivots, mut targets) = (build(), build(), build());
        let stats = lighter.apply_deletions(doomed);
        let by_pivot = pivots.apply_deletions_scanning(doomed, |_, _| false);
        let by_targets = targets.apply_deletions_scanning(doomed, |_, _| true);
        assert_eq!(stats, by_pivot);
        assert_eq!(stats, by_targets);
        assert_eq!(rewrites_of(&lighter), rewrites_of(&pivots));
        assert_eq!(rewrites_of(&lighter), rewrites_of(&targets));
        lighter.validate_segments().unwrap();
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Deletion detection reads every candidate's path, so which endpoint's
        /// postings supplied the candidates is invisible in the result.
        #[test]
        fn deletion_rewrites_do_not_depend_on_the_scanned_endpoint(
            arrivals in proptest::collection::vec((0u32..12, 0u32..12), 10..80),
            picks in proptest::collection::vec(0usize..80, 1..12),
            seed in 0u64..1_000,
        ) {
            let arrivals: Vec<Edge> = arrivals.iter().map(|&(s, t)| Edge::new(s, t)).collect();
            // Mostly live edges, some named twice, plus one that may be absent.
            let mut doomed: Vec<Edge> = picks.iter().map(|&i| arrivals[i % arrivals.len()]).collect();
            doomed.push(Edge::new(11, 0));
            assert_endpoint_never_changes_rewrites::<PageRank>(&arrivals, &doomed, seed);
            assert_endpoint_never_changes_rewrites::<Salsa>(&arrivals, &doomed, seed);
        }
    }
}
