//! Incremental Monte Carlo SALSA (Section 2.3, Theorem 6).
//!
//! SALSA is the stationary behaviour of an alternating forward/backward random walk: a
//! *hub* position follows a random out-edge to an *authority* position, which follows a
//! random in-edge back to a hub position, and so on, with ε-resets allowed only before
//! forward steps.  To estimate hub and authority scores the engine stores `2R` segments
//! per node — `R` starting with a forward step (the node acts as a hub) and `R` starting
//! with a backward step (the node acts as an authority) — and counts visits by parity.
//!
//! Incremental maintenance mirrors the PageRank case, except that an arriving edge
//! `(u, v)` can disturb walks at two places: forward steps taken out of `u` (with
//! probability `1/outdeg(u)` per hub visit) and backward steps taken out of `v` (with
//! probability `1/indeg(v)` per authority visit).  Theorem 6 shows the total update work
//! is within a factor 16 of the PageRank bound; the closed form this engine
//! instantiates is [`crate::bounds::salsa_total_update_work`].
//!
//! Like the PageRank engine, the SALSA engine is generic over the PageRank Store layout
//! (any [`ppr_store::WalkIndexMut`]; flat [`WalkStore`] by default, sharded via
//! [`IncrementalSalsa::from_graph_sharded`]), and
//! [`IncrementalSalsa::apply_arrivals`] batches a stream of arrivals through the same
//! deterministic candidate → reconcile → apply pipeline (see [`crate::batch`]): forward
//! coin flips group per source, backward coin flips per target, every
//! `(batch, pivot, segment, direction)` repair draws from its own split RNG stream, and
//! conflicting claims resolve to the smallest reroute position — so results are
//! bit-identical at any shard count and thread count.
//!
//! Personalized SALSA scores are obtained with a direct alternating walk with resets to
//! the seed; the paper's fetch-stitching analysis (Theorem 8) is developed for PageRank
//! and the same store layout would apply, but the reproduction keeps the SALSA
//! personalization simple because no experiment in the paper measures its fetch count.

use crate::batch::{self, BatchProfile, CandidateSet};
use crate::config::{MonteCarloConfig, RerouteStrategy};
use crate::personalized::PersonalizedWalkResult;
use crate::sparse::select_top_k;
use crate::walker;
use ppr_graph::{DynamicGraph, Edge, GraphView, NodeId};
use ppr_store::{
    SegmentId, SegmentRewrites, ShardedWalkStore, SocialStore, WalkIndex, WalkIndexMut,
    WalkIndexView, WalkStore, WorkCounter,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;

use crate::incremental::UpdateStats;

/// Derives hub/authority estimates from any [`WalkIndexView`] holding `2R` SALSA
/// segments per node (slots `0..R` forward-start, `R..2R` backward-start — the
/// [`IncrementalSalsa`] layout).  Pure reads: this is the query the serving layer
/// answers from an epoch-pinned generation snapshot, and
/// [`IncrementalSalsa::estimates`] is exactly this function over the live store.
pub fn salsa_estimates_from<V: WalkIndexView>(walks: &V) -> SalsaEstimates {
    let n = walks.node_count();
    let r2 = walks.r();
    let mut hub_visits = vec![0u64; n];
    let mut auth_visits = vec![0u64; n];
    for node in 0..n {
        let node = NodeId::from_index(node);
        for id in walks.segment_ids_of(node) {
            let hub_parity = usize::from(id.slot(r2) >= r2 / 2);
            for (pos, &visited) in walks.segment_path(id).iter().enumerate() {
                if pos % 2 == hub_parity {
                    hub_visits[visited.index()] += 1;
                } else {
                    auth_visits[visited.index()] += 1;
                }
            }
        }
    }
    SalsaEstimates {
        hubs: normalize(&hub_visits),
        authorities: normalize(&auth_visits),
    }
}

/// Personalized SALSA authority scores on any [`GraphView`]: a direct alternating
/// walk of `walk_length` visits with ε-resets to `seed` before forward steps,
/// drawing from the supplied stream.  [`IncrementalSalsa::personalized_authorities`]
/// is this function over the live graph with the engine's seed derivation.
///
/// This is the dense form — an `n`-long score vector, `O(n)` to build — kept as
/// the reference the sparse [`personalized_authorities_into`] is checked against;
/// a server answering top-`k` queries uses the sparse one.
pub fn personalized_authorities_on<G: GraphView + ?Sized>(
    graph: &G,
    seed: NodeId,
    walk_length: usize,
    epsilon: f64,
    rng: &mut SmallRng,
) -> Vec<f64> {
    let n = graph.node_count();
    let mut auth_visits = vec![0u64; n];
    let mut total_auth = 0u64;
    authority_walk(graph, seed, walk_length, epsilon, rng, |node| {
        auth_visits[node.index()] += 1;
        total_auth += 1;
    });

    if total_auth == 0 {
        return vec![0.0; n];
    }
    auth_visits
        .iter()
        .map(|&v| v as f64 / total_auth as f64)
        .collect()
}

/// [`personalized_authorities_on`] into a sparse, reusable accumulator: the same
/// walk on the same stream, its authority visits recorded in `acc` (reset first;
/// `total_visits` is the number of authority visits), so the query costs
/// `O(walk_length)` whatever the graph size.  `acc.frequencies()` is exactly the
/// dense score vector, and — every score being a count over the one shared total —
/// [`PersonalizedWalkResult::top_k_with`] on `acc` is exactly [`top_k_scores`] on
/// that vector.  The serving layer answers `SalsaAuthorities` this way against a
/// pinned [`ppr_store::FrozenGraph`] with a `(query_seed, query_id)` stream.
pub fn personalized_authorities_into<G: GraphView + ?Sized>(
    graph: &G,
    seed: NodeId,
    walk_length: usize,
    epsilon: f64,
    rng: &mut SmallRng,
    acc: &mut PersonalizedWalkResult,
) {
    acc.reset_for(graph.node_count());
    authority_walk(graph, seed, walk_length, epsilon, rng, |node| {
        acc.visit(node)
    });
}

/// The alternating walk behind both personalized-authority forms: calls
/// `authority_visit` for every authority position reached.
fn authority_walk<G: GraphView + ?Sized>(
    graph: &G,
    seed: NodeId,
    walk_length: usize,
    epsilon: f64,
    rng: &mut SmallRng,
    mut authority_visit: impl FnMut(NodeId),
) {
    assert!(
        seed.index() < graph.node_count(),
        "seed node {seed} outside the graph"
    );
    let mut current = seed;
    let mut forward = true;
    let mut visits = 0usize;
    while visits < walk_length {
        visits += 1;
        if forward {
            if rng.gen_bool(epsilon) {
                current = seed;
                forward = true;
                continue;
            }
            let out = graph.out_neighbors(current);
            if out.is_empty() {
                current = seed;
                forward = true;
            } else {
                let next = out[rng.gen_range(0..out.len())];
                authority_visit(next);
                current = next;
                forward = false;
            }
        } else {
            let incoming = graph.in_neighbors(current);
            if incoming.is_empty() {
                current = seed;
            } else {
                current = incoming[rng.gen_range(0..incoming.len())];
            }
            forward = true;
        }
    }
}

/// Top-`k` of a score vector, skipping `exclude` (the seed and its friends) and
/// every non-positive score, ties broken by node id — the paper's recommender
/// post-processing, shared by the engine and the serving layer.  A NaN is not
/// positive and is skipped like a zero; the rest are ranked by
/// [`f64::total_cmp`] (no comparison can fail), and only the `k` survivors of a
/// partial selection are sorted.
pub fn top_k_scores(scores: &[f64], exclude: &HashSet<usize>, k: usize) -> Vec<(NodeId, f64)> {
    let mut candidates: Vec<(usize, f64)> = scores
        .iter()
        .enumerate()
        .filter(|&(i, &s)| s > 0.0 && !exclude.contains(&i))
        .map(|(i, &s)| (i, s))
        .collect();
    select_top_k(&mut candidates, k, |a, b| {
        b.1.total_cmp(&a.1).then(a.0.cmp(&b.0))
    });
    candidates
        .into_iter()
        .map(|(i, s)| (NodeId::from_index(i), s))
        .collect()
}

/// Hub and authority estimates derived from the stored SALSA segments.
#[derive(Debug, Clone)]
pub struct SalsaEstimates {
    /// Normalised hub scores (sum to 1 when any hub visit exists).
    pub hubs: Vec<f64>,
    /// Normalised authority scores (sum to 1 when any authority visit exists).
    pub authorities: Vec<f64>,
}

/// One pivot's share of a SALSA batch: `forward` groups key on edge sources (hub steps
/// out of the pivot changed), backward groups on edge targets (authority steps).
#[derive(Debug)]
struct SalsaGroup {
    pivot: NodeId,
    prior_degree: usize,
    targets: Vec<NodeId>,
    forward: bool,
}

/// Monte Carlo SALSA with incrementally maintained alternating walk segments, generic
/// over the PageRank Store layout (`W`).
#[derive(Debug)]
pub struct IncrementalSalsa<W: WalkIndexMut = WalkStore> {
    pub(crate) store: SocialStore,
    pub(crate) walks: W,
    pub(crate) config: MonteCarloConfig,
    pub(crate) rng: SmallRng,
    pub(crate) work: WorkCounter,
    /// Worker threads for the batched reroute pipeline (results never depend on this).
    pub(crate) threads: usize,
    /// Index of the next arrival batch, mixed into every repair-stream seed.
    pub(crate) batch_index: u64,
    /// Reusable path buffer for segment repairs (keeps deletions allocation-free).
    pub(crate) scratch: Vec<NodeId>,
    /// Reusable buffer for the ids of the segments visiting the updated node.
    pub(crate) visiting: Vec<SegmentId>,
    /// Reusable phase-1 outputs, one per route shard.
    pub(crate) candidate_sets: Vec<CandidateSet>,
    /// Reusable per-shard phase-1 timing buffer.
    pub(crate) phase1_times: Vec<std::time::Duration>,
    /// Reusable reconciled rewrite plan.
    pub(crate) rewrites: SegmentRewrites,
    /// Accumulated wall-time breakdown of the arrival batches (observability only).
    pub(crate) profile: BatchProfile,
    /// Attached write-ahead log; `None` for purely in-memory engines.
    pub(crate) durability: Option<crate::durable::DurableLog>,
    /// Sequence number of the next WAL record (count of batches ever logged).
    pub(crate) wal_seq: u64,
}

impl IncrementalSalsa {
    /// Builds the engine over a graph or an existing Social Store, storing `2R` segments
    /// per node in a single-shard [`WalkStore`].  Pass the graph by value to avoid
    /// copying it; `&DynamicGraph` is also accepted (and cloned) for callers that keep
    /// theirs.
    pub fn from_graph(graph: impl Into<SocialStore>, config: MonteCarloConfig) -> Self {
        let store = graph.into();
        let walks = WalkStore::new(store.node_count(), 2 * config.r);
        Self::with_store(store, walks, config, 1)
    }

    /// Builds the engine over an empty graph with `node_count` isolated nodes.
    pub fn new_empty(node_count: usize, config: MonteCarloConfig) -> Self {
        Self::from_graph(DynamicGraph::with_nodes(node_count), config)
    }
}

impl IncrementalSalsa<ShardedWalkStore> {
    /// Builds the engine over a [`ShardedWalkStore`] split `shards` ways, repairing
    /// arrival batches with up to `threads` worker threads.  Results are bit-identical
    /// to the single-shard engine's for every `(shards, threads)` combination.
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
        let walks = ShardedWalkStore::new(store.node_count(), 2 * config.r, shards);
        Self::with_store(store, walks, config, threads)
    }
}

impl<W: WalkIndexMut + Sync> IncrementalSalsa<W> {
    pub(crate) fn with_store(
        store: SocialStore,
        walks: W,
        config: MonteCarloConfig,
        threads: usize,
    ) -> Self {
        let node_count = store.node_count();
        let mut walks = walks;
        walks.set_compaction_threshold(config.compaction_threshold);
        let rng = SmallRng::seed_from_u64(config.seed.wrapping_add(0x5a15a));
        let mut engine = IncrementalSalsa {
            store,
            walks,
            config,
            rng,
            work: WorkCounter::new(),
            threads,
            batch_index: 0,
            scratch: Vec::new(),
            visiting: Vec::new(),
            candidate_sets: Vec::new(),
            phase1_times: Vec::new(),
            rewrites: SegmentRewrites::new(),
            profile: BatchProfile::default(),
            durability: None,
            wal_seq: 0,
        };
        for node in 0..node_count {
            engine.generate_segments_for(NodeId::from_index(node));
        }
        engine
    }

    /// Appends one batch to the attached write-ahead log (no-op for in-memory
    /// engines), before the batch mutates any state.
    pub(crate) fn log_wal(&mut self, op: ppr_persist::WalOp, edges: &[Edge]) {
        if let Some(log) = self.durability.as_mut() {
            log.append(self.wal_seq, op, edges);
            self.wal_seq += 1;
        }
    }

    /// Accumulated wall-time breakdown of every arrival batch since construction (see
    /// [`BatchProfile`]).
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

    /// The underlying graph.
    pub fn graph(&self) -> &DynamicGraph {
        self.store.graph()
    }

    /// The Social Store (adjacency + fetch accounting).
    pub fn social_store(&self) -> &SocialStore {
        &self.store
    }

    /// The store holding the `2R` SALSA segments per node.
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

    /// Sets the worker-thread budget (results are bit-identical for every value).
    pub fn set_threads(&mut self, threads: usize) {
        assert!(threads >= 1, "need at least one worker thread");
        self.threads = threads;
    }

    /// Cumulative update work since construction.
    pub fn work(&self) -> &WorkCounter {
        &self.work
    }

    /// Resets the cumulative work counter.
    pub fn reset_work(&mut self) {
        self.work = WorkCounter::new();
    }

    /// Number of nodes currently known to the engine.
    pub fn node_count(&self) -> usize {
        self.store.node_count()
    }

    /// Whether the segment in `slot` of a node starts with a forward step.
    fn slot_is_forward(&self, slot: usize) -> bool {
        slot < self.config.r
    }

    /// Parity of hub visits within a segment: forward-start segments occupy hub
    /// positions at even indices, backward-start segments at odd indices.
    fn hub_parity(&self, id: SegmentId) -> usize {
        if self.slot_is_forward(id.slot(self.walks.r())) {
            0
        } else {
            1
        }
    }

    /// Current hub/authority estimates from the stored segments — `&self`, via the
    /// shared [`salsa_estimates_from`] query over the store's [`WalkIndexView`].
    pub fn estimates(&self) -> SalsaEstimates {
        salsa_estimates_from(&self.walks)
    }

    /// Authority scores personalized on `seed`, estimated with a direct alternating walk
    /// of `walk_length` visits that resets to the seed before forward steps with
    /// probability ε.
    pub fn personalized_authorities(&self, seed: NodeId, walk_length: usize) -> Vec<f64> {
        let mut rng = SmallRng::seed_from_u64(
            self.config.seed ^ 0xa55a_0000u64 ^ (seed.0 as u64).wrapping_mul(0x9e37_79b9),
        );
        personalized_authorities_on(
            self.store.graph(),
            seed,
            walk_length,
            self.config.epsilon,
            &mut rng,
        )
    }

    /// Top-`k` friend recommendations for `seed` by personalized authority score,
    /// excluding the seed and its existing friends.
    pub fn personalized_top_k(
        &self,
        seed: NodeId,
        k: usize,
        walk_length: usize,
    ) -> Vec<(NodeId, f64)> {
        let scores = self.personalized_authorities(seed, walk_length);
        let mut exclude: HashSet<usize> = HashSet::new();
        exclude.insert(seed.index());
        exclude.extend(
            self.store
                .graph()
                .out_neighbors(seed)
                .iter()
                .map(|n| n.index()),
        );
        top_k_scores(&scores, &exclude, k)
    }

    /// Processes the arrival of `edge`, repairing affected forward and backward steps.
    ///
    /// A single arrival is exactly a batch of one: this delegates to
    /// [`Self::apply_arrivals`], so the two paths are on identical RNG streams.
    pub fn add_edge(&mut self, edge: Edge) -> UpdateStats {
        self.apply_arrivals(std::slice::from_ref(&edge))
    }

    /// Processes a whole batch of edge arrivals, grouping forward coin flips per source
    /// node and backward coin flips per target node, through the same deterministic
    /// candidate → reconcile → apply pipeline as
    /// [`crate::IncrementalPageRank::apply_arrivals`].  A forward and a backward group
    /// can claim the same segment; as always, the smallest reroute position wins (the
    /// two directions disturb positions of opposite parity, so no tie is possible).
    pub fn apply_arrivals(&mut self, edges: &[Edge]) -> UpdateStats {
        self.rewrites.clear();
        let mut stats = UpdateStats::default();
        let Some(needed) = edges
            .iter()
            .map(|e| e.source.index().max(e.target.index()) + 1)
            .max()
        else {
            return stats;
        };
        self.log_wal(ppr_persist::WalOp::Arrivals, edges);
        let batch_started = std::time::Instant::now();
        let arena_before = self.walks.arena_stats();
        self.ensure_nodes(needed);

        // Forward groups key on the source (out-degree coins), backward groups on the
        // target (in-degree coins); both capture pre-batch degrees, then all edges are
        // inserted at once.
        let forward = batch::group_arrivals(
            &self.store,
            edges,
            |e| (e.source, e.target),
            |s, n| s.out_degree(n),
        );
        let backward = batch::group_arrivals(
            &self.store,
            edges,
            |e| (e.target, e.source),
            |s, n| s.in_degree(n),
        );
        let groups: Vec<SalsaGroup> = forward
            .into_iter()
            .map(|(pivot, prior_degree, targets)| SalsaGroup {
                pivot,
                prior_degree,
                targets,
                forward: true,
            })
            .chain(
                backward
                    .into_iter()
                    .map(|(pivot, prior_degree, targets)| SalsaGroup {
                        pivot,
                        prior_degree,
                        targets,
                        forward: false,
                    }),
            )
            .collect();
        for &edge in edges {
            self.store.add_edge(edge);
        }
        let batch_index = self.batch_index;
        self.batch_index += 1;
        let threads = self.threads;

        // Phase 1: candidates, partitioned by the shard owning each segment.
        let mut sets = std::mem::take(&mut self.candidate_sets);
        let mut phase1_times = std::mem::take(&mut self.phase1_times);
        {
            let graph = self.store.graph();
            let walks = &self.walks;
            let config = &self.config;
            let groups = &groups;
            let shards = walks.route_shards();
            let r2 = walks.r();
            batch::fan_out_candidates(walks, threads, &mut sets, &mut phase1_times, |sid, set| {
                let mut scratch = std::mem::take(&mut set.scratch);
                for (gi, group) in groups.iter().enumerate() {
                    for (id, _) in walks.segments_visiting(group.pivot) {
                        if shards > 1 && (id.index() / r2) % shards != sid {
                            continue;
                        }
                        if let Some((pos, steps)) = salsa_candidate(
                            graph,
                            walks,
                            config,
                            batch_index,
                            group,
                            id,
                            &mut scratch,
                        ) {
                            set.push(id, pos, gi, steps, &scratch);
                        }
                    }
                }
                set.scratch = scratch;
            });
        }

        // Phase 2: reconcile (smallest reroute position wins) into a plan.
        let winners = batch::reconcile_candidates(&sets);
        let mut rewrites = std::mem::take(&mut self.rewrites);
        rewrites.clear();
        let mut touched = vec![false; groups.len()];
        for &(si, ci) in &winners {
            let cand = &sets[si].candidates[ci];
            rewrites.push(cand.seg, sets[si].path(cand));
            stats.record_segment(cand.steps);
            touched[cand.group as usize] = true;
        }

        // Phase 3: the store applies the plan.
        self.walks.apply_rewrites(&rewrites, threads);
        self.profile.record(
            batch_started.elapsed(),
            &phase1_times,
            self.walks.last_apply_shard_times(),
        );
        self.profile
            .record_compactions(&arena_before, &self.walks.arena_stats());
        self.candidate_sets = sets;
        self.phase1_times = phase1_times;
        self.rewrites = rewrites;

        // As in the per-edge path, an arrival counts as filtered when neither of its
        // endpoints' groups disturbed any segment.
        let mut touched_forward: HashSet<NodeId> = HashSet::new();
        let mut touched_backward: HashSet<NodeId> = HashSet::new();
        for (gi, group) in groups.iter().enumerate() {
            if touched[gi] {
                if group.forward {
                    touched_forward.insert(group.pivot);
                } else {
                    touched_backward.insert(group.pivot);
                }
            }
        }
        for &edge in edges {
            if !touched_forward.contains(&edge.source) && !touched_backward.contains(&edge.target) {
                self.work.arrivals_filtered += 1;
            }
        }
        self.work.edges_processed += edges.len() as u64;
        self.work.segments_updated += stats.segments_updated;
        self.work.walk_steps += stats.walk_steps;
        stats
    }

    /// Processes the deletion of `edge`.  Returns `None` if the edge was not present.
    pub fn remove_edge(&mut self, edge: Edge) -> Option<UpdateStats> {
        self.rewrites.clear();
        if !self.store.graph().has_edge(edge) {
            return None;
        }
        self.log_wal(ppr_persist::WalOp::Deletions, std::slice::from_ref(&edge));
        let removed = self.store.remove_edge(edge);
        debug_assert!(removed, "has_edge implies remove_edge succeeds");
        let u = edge.source;
        let v = edge.target;
        let mut stats = UpdateStats::default();

        if !self.store.graph().has_edge(edge) {
            // Forward traversals u -> v at hub positions of u.
            let mut visiting = std::mem::take(&mut self.visiting);
            self.walks.collect_visiting(u, &mut visiting);
            for &id in &visiting {
                self.reroute_deleted_traversal(id, u, v, true, &mut stats);
            }
            // Backward traversals v -> u at authority positions of v.
            self.walks.collect_visiting(v, &mut visiting);
            for &id in &visiting {
                self.reroute_deleted_traversal(id, v, u, false, &mut stats);
            }
            self.visiting = visiting;
        }

        self.work.edges_processed += 1;
        self.work.segments_updated += stats.segments_updated;
        self.work.walk_steps += stats.walk_steps;
        if !stats.touched_walk_store {
            self.work.arrivals_filtered += 1;
        }
        Some(stats)
    }

    /// Verifies that every stored segment is a valid alternating walk in the current
    /// graph: forward positions follow out-edges, backward positions follow in-edges.
    pub fn validate_segments(&self) -> Result<(), String> {
        let graph = self.store.graph();
        for node in graph.nodes() {
            for id in self.walks.segment_ids_of(node) {
                let path = self.walks.segment_path(id);
                if path.first() != Some(&node) {
                    return Err(format!("segment {id:?} does not start at {node}"));
                }
                let hub_parity = self.hub_parity(id);
                for (pos, pair) in path.windows(2).enumerate() {
                    let forward = pos % 2 == hub_parity;
                    let edge = if forward {
                        Edge {
                            source: pair[0],
                            target: pair[1],
                        }
                    } else {
                        Edge {
                            source: pair[1],
                            target: pair[0],
                        }
                    };
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
        let r2 = 2 * self.config.r;
        for slot in 0..r2 {
            let id = SegmentId::new(node, slot, r2);
            walker::salsa_segment_into(
                self.store.graph(),
                node,
                slot < self.config.r,
                self.config.epsilon,
                self.config.max_segment_length,
                &mut self.rng,
                &mut self.scratch,
            );
            self.walks.set_segment(id, &self.scratch);
        }
    }

    fn reroute_deleted_traversal(
        &mut self,
        id: SegmentId,
        from: NodeId,
        to: NodeId,
        forward: bool,
        stats: &mut UpdateStats,
    ) {
        let hub_parity = self.hub_parity(id);
        let affected_parity = if forward { hub_parity } else { 1 - hub_parity };
        let pos = self
            .walks
            .segment_path(id)
            .windows(2)
            .enumerate()
            .find_map(|(pos, pair)| {
                (pos % 2 == affected_parity && pair[0] == from && pair[1] == to).then_some(pos)
            });
        let Some(pos) = pos else {
            return;
        };
        self.rebuild_deleted_suffix(id, pos, forward, stats);
    }

    /// Rebuilds the suffix of segment `id` after position `pos`, whose outgoing step
    /// (direction `forward`) traversed a now-deleted edge and must be re-sampled.
    fn rebuild_deleted_suffix(
        &mut self,
        id: SegmentId,
        pos: usize,
        forward: bool,
        stats: &mut UpdateStats,
    ) {
        if self.config.reroute == RerouteStrategy::FromSource {
            let r2 = 2 * self.config.r;
            let source = id.source(r2);
            let steps = walker::salsa_segment_into(
                self.store.graph(),
                source,
                self.slot_is_forward(id.slot(r2)),
                self.config.epsilon,
                self.config.max_segment_length,
                &mut self.rng,
                &mut self.scratch,
            );
            self.walks.set_segment(id, &self.scratch);
            self.rewrites.push(id, &self.scratch);
            stats.record_segment(steps);
            return;
        }

        self.scratch.clear();
        self.scratch
            .extend_from_slice(&self.walks.segment_path(id)[..=pos]);
        let mut steps = 0u64;
        let mut direction_forward = forward;

        // Re-sample the step that used to traverse the deleted edge; the reset coin
        // for a forward step was already spent when the segment was first built.
        let current = *self.scratch.last().expect("prefix is non-empty");
        let next = if direction_forward {
            self.store
                .graph()
                .random_out_neighbor(current, &mut self.rng)
        } else {
            self.store
                .graph()
                .random_in_neighbor(current, &mut self.rng)
        };
        if let Some(next) = next {
            if self.scratch.len() < self.config.max_segment_length {
                self.scratch.push(next);
                steps += 1;
                direction_forward = !direction_forward;
            }
        } else {
            // The pivot lost its last edge in that direction: the segment now ends here.
            self.walks.set_segment(id, &self.scratch);
            self.rewrites.push(id, &self.scratch);
            stats.record_segment(steps);
            return;
        }

        // Continue the alternating walk until a reset / missing edge / the length cap.
        steps += walker::extend_salsa_walk(
            self.store.graph(),
            &mut self.scratch,
            direction_forward,
            self.config.epsilon,
            self.config.max_segment_length,
            &mut self.rng,
        );

        self.walks.set_segment(id, &self.scratch);
        self.rewrites.push(id, &self.scratch);
        stats.record_segment(steps);
    }
}

/// Decides whether (and where) segment `id` reroutes for one SALSA arrival group,
/// drawing from the repair's own split RNG stream, and on a hit generates the full
/// replacement path into `scratch` against the post-batch graph.  See
/// [`crate::incremental`]'s `pagerank_candidate` for why reading only the pre-batch
/// path is sound.
fn salsa_candidate<W: WalkIndex>(
    graph: &DynamicGraph,
    walks: &W,
    config: &MonteCarloConfig,
    batch_index: u64,
    group: &SalsaGroup,
    id: SegmentId,
    scratch: &mut Vec<NodeId>,
) -> Option<(usize, u64)> {
    let path = walks.segment_path(id);
    if path.is_empty() {
        return None;
    }
    let k = group.targets.len();
    let r2 = walks.r();
    let hub_parity = if id.slot(r2) < r2 / 2 { 0 } else { 1 };
    let affected_parity = if group.forward {
        hub_parity
    } else {
        1 - hub_parity
    };
    let last_index = path.len() - 1;
    let mut rng = SmallRng::seed_from_u64(batch::repair_seed(
        config.seed,
        batch_index,
        group.pivot,
        id,
        !group.forward,
    ));

    let mut reroute_at: Option<(usize, NodeId)> = None;
    for (pos, &visit) in path.iter().enumerate() {
        if visit != group.pivot || pos % 2 != affected_parity {
            continue;
        }
        if pos < last_index {
            // The step leaving this visit now has `prior_degree + k` choices; it lands
            // on a new edge with probability k/(d₀+k), uniformly among them.
            if rng.gen_bool(k as f64 / (group.prior_degree + k) as f64) {
                let target = walker::pick_new_target(&mut rng, &group.targets);
                reroute_at = Some((pos, target));
                break;
            }
        } else if group.prior_degree == 0 {
            // The segment previously stopped here because the pivot had no edge in
            // the required direction.  Forward steps are preceded by a reset coin
            // (continue with probability 1 − ε); backward steps are unconditional.
            let continue_probability = if group.forward {
                1.0 - config.epsilon
            } else {
                1.0
            };
            if rng.gen_bool(continue_probability) {
                let target = walker::pick_new_target(&mut rng, &group.targets);
                reroute_at = Some((pos, target));
                break;
            }
        }
    }

    let (pos, target) = reroute_at?;
    let steps = match config.reroute {
        RerouteStrategy::FromUpdatePoint => {
            scratch.clear();
            scratch.extend_from_slice(&path[..=pos]);
            let mut steps = 0u64;
            let mut direction_forward = group.forward;
            if scratch.len() < config.max_segment_length {
                scratch.push(target);
                steps += 1;
                direction_forward = !direction_forward;
            }
            steps += walker::extend_salsa_walk(
                graph,
                scratch,
                direction_forward,
                config.epsilon,
                config.max_segment_length,
                &mut rng,
            );
            steps
        }
        RerouteStrategy::FromSource => walker::salsa_segment_into(
            graph,
            id.source(r2),
            id.slot(r2) < r2 / 2,
            config.epsilon,
            config.max_segment_length,
            &mut rng,
            scratch,
        ),
    };
    Some((pos, steps))
}

fn normalize(counts: &[u64]) -> Vec<f64> {
    let total: u64 = counts.iter().sum();
    if total == 0 {
        return vec![0.0; counts.len()];
    }
    counts.iter().map(|&c| c as f64 / total as f64).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppr_baselines::salsa_exact::salsa_exact;
    use ppr_graph::generators::{
        directed_cycle, preferential_attachment, preferential_attachment_edges, star_inward,
        PreferentialAttachmentConfig,
    };

    fn config(r: usize, seed: u64) -> MonteCarloConfig {
        MonteCarloConfig::new(0.2, r).with_seed(seed)
    }

    #[test]
    fn initialization_stores_two_r_segments_per_node() {
        let g = directed_cycle(6);
        let engine = IncrementalSalsa::from_graph(&g, config(3, 1));
        assert_eq!(engine.walk_store().r(), 6);
        for node in g.nodes() {
            assert_eq!(engine.walk_store().segment_ids_of(node).count(), 6);
        }
        engine.validate_segments().unwrap();
    }

    #[test]
    fn authority_estimates_track_indegree_on_a_star() {
        // Global SALSA authority ≈ in-degree share (as the paper notes for ε -> 0); the
        // star concentrates every authority visit on the centre.
        let g = star_inward(8);
        let engine = IncrementalSalsa::from_graph(&g, config(20, 3));
        let est = engine.estimates();
        // The backward-start segments seed every node (including leaves) with one
        // authority visit, so the centre does not get *all* the mass, but it dominates.
        assert!(
            est.authorities[0] > 0.7,
            "centre authority {}",
            est.authorities[0]
        );
        for &leaf in &est.authorities[1..] {
            assert!(leaf < 0.06, "leaf authority {leaf} should be tiny");
        }
        let hub_sum: f64 = est.hubs.iter().sum();
        assert!((hub_sum - 1.0).abs() < 1e-9);
        assert!(
            est.hubs[0] < 0.1,
            "the centre follows nobody so it is barely a hub"
        );
    }

    #[test]
    fn authority_estimates_agree_with_exact_salsa() {
        let g = preferential_attachment(150, 4, 7);
        let engine = IncrementalSalsa::from_graph(&g, config(25, 9));
        let mc = engine.estimates();
        let exact = salsa_exact(&g, 30);
        let tvd: f64 = 0.5
            * mc.authorities
                .iter()
                .zip(&exact.authorities)
                .map(|(a, b)| (a - b).abs())
                .sum::<f64>();
        assert!(
            tvd < 0.15,
            "Monte Carlo SALSA authorities should track the exact ones, TVD = {tvd:.4}"
        );
    }

    #[test]
    fn add_edge_keeps_alternating_segments_valid() {
        let mut engine = IncrementalSalsa::new_empty(6, config(4, 11));
        let edges = [
            Edge::new(0, 1),
            Edge::new(1, 2),
            Edge::new(2, 3),
            Edge::new(3, 0),
            Edge::new(4, 0),
            Edge::new(5, 2),
            Edge::new(0, 5),
        ];
        for &edge in &edges {
            engine.add_edge(edge);
            engine.validate_segments().unwrap();
        }
        assert_eq!(engine.graph().edge_count(), edges.len());
    }

    #[test]
    fn batched_arrivals_keep_alternating_segments_valid_and_accurate() {
        let pa = PreferentialAttachmentConfig::new(120, 4, 18);
        let edges = preferential_attachment_edges(&pa);
        let mut engine = IncrementalSalsa::new_empty(120, config(15, 20));
        for chunk in edges.chunks(48) {
            engine.apply_arrivals(chunk);
            engine.validate_segments().unwrap();
        }
        assert_eq!(engine.graph().edge_count(), edges.len());
        let exact = salsa_exact(engine.graph(), 30);
        let mc = engine.estimates();
        let tvd: f64 = 0.5
            * mc.authorities
                .iter()
                .zip(&exact.authorities)
                .map(|(a, b)| (a - b).abs())
                .sum::<f64>();
        assert!(
            tvd < 0.2,
            "batched incremental SALSA should stay accurate, TVD = {tvd:.4}"
        );
        // Empty batches are a no-op.
        assert_eq!(engine.apply_arrivals(&[]), UpdateStats::default());
    }

    #[test]
    fn batched_and_sequential_single_edges_agree() {
        // add_edge is a batch of one: identical RNG streams, identical reroutes.
        let g = directed_cycle(10);
        let mut a = IncrementalSalsa::from_graph(&g, config(4, 22));
        let mut b = IncrementalSalsa::from_graph(&g, config(4, 22));
        for edge in [Edge::new(0, 5), Edge::new(3, 7), Edge::new(7, 0)] {
            let sa = a.add_edge(edge);
            let sb = b.apply_arrivals(std::slice::from_ref(&edge));
            assert_eq!(sa, sb);
        }
        let ea = a.estimates();
        let eb = b.estimates();
        assert_eq!(ea.hubs, eb.hubs);
        assert_eq!(ea.authorities, eb.authorities);
    }

    #[test]
    fn sharded_salsa_is_bit_identical_to_single_shard() {
        let pa = PreferentialAttachmentConfig::new(60, 3, 24);
        let edges = preferential_attachment_edges(&pa);
        let mut flat = IncrementalSalsa::new_empty(60, config(3, 26));
        let mut sharded =
            IncrementalSalsa::from_graph_sharded(DynamicGraph::with_nodes(60), config(3, 26), 4, 4);
        for chunk in edges.chunks(31) {
            let sa = flat.apply_arrivals(chunk);
            let sb = sharded.apply_arrivals(chunk);
            assert_eq!(sa, sb, "batch stats must match");
        }
        let ea = flat.estimates();
        let eb = sharded.estimates();
        assert_eq!(ea.hubs, eb.hubs);
        assert_eq!(ea.authorities, eb.authorities);
        assert_eq!(
            WalkIndexView::visit_counts(flat.walk_store()),
            sharded.walk_store().visit_counts()
        );
        sharded.validate_segments().unwrap();
    }

    #[test]
    fn remove_edge_repairs_both_directions() {
        let g = preferential_attachment(60, 3, 13);
        let mut engine = IncrementalSalsa::from_graph(&g, config(5, 15));
        let edges = engine.graph().collect_edges();
        for edge in edges.into_iter().step_by(7).take(10).collect::<Vec<_>>() {
            engine.remove_edge(edge);
            engine.validate_segments().unwrap();
        }
    }

    #[test]
    fn incremental_build_matches_exact_salsa() {
        let pa = PreferentialAttachmentConfig::new(120, 4, 17);
        let edges = preferential_attachment_edges(&pa);
        let mut engine = IncrementalSalsa::new_empty(120, config(15, 19));
        for &edge in &edges {
            engine.add_edge(edge);
        }
        engine.validate_segments().unwrap();
        let exact = salsa_exact(engine.graph(), 30);
        let mc = engine.estimates();
        let tvd: f64 = 0.5
            * mc.authorities
                .iter()
                .zip(&exact.authorities)
                .map(|(a, b)| (a - b).abs())
                .sum::<f64>();
        assert!(
            tvd < 0.2,
            "incremental SALSA should stay accurate, TVD = {tvd:.4}"
        );
    }

    #[test]
    fn personalized_authorities_prefer_seed_neighbourhood() {
        // Two communities bridged by one edge; personalized SALSA for a node in
        // community A should give community A most of the authority mass.
        let mut g = DynamicGraph::with_nodes(8);
        for &(s, t) in &[(0, 1), (1, 0), (1, 2), (2, 1), (0, 2), (2, 0), (3, 0)] {
            g.add_edge(Edge::new(s, t));
        }
        for &(s, t) in &[(4, 5), (5, 4), (5, 6), (6, 5), (6, 7), (7, 6)] {
            g.add_edge(Edge::new(s, t));
        }
        g.add_edge(Edge::new(2, 4));
        let engine = IncrementalSalsa::from_graph(&g, config(5, 21));
        let scores = engine.personalized_authorities(NodeId(0), 30_000);
        let mass_a: f64 = scores[..4].iter().sum();
        let mass_b: f64 = scores[4..].iter().sum();
        assert!(mass_a > mass_b, "A = {mass_a:.3}, B = {mass_b:.3}");
        let top = engine.personalized_top_k(NodeId(0), 3, 30_000);
        assert!(!top.is_empty());
        for &(node, _) in &top {
            assert_ne!(node, NodeId(0));
            assert_ne!(node, NodeId(1), "existing friends are excluded");
            assert_ne!(node, NodeId(2), "existing friends are excluded");
        }
    }

    #[test]
    fn sparse_personalized_authorities_equal_the_dense_reference() {
        use crate::query::query_rng;
        let mut acc = PersonalizedWalkResult::default();
        let mut scratch = crate::TopKScratch::default();
        // One accumulator reused across graphs of different sizes, big to small.
        for (n, graph_seed) in [(400usize, 3u64), (60, 5), (900, 7)] {
            let g = preferential_attachment(n, 4, graph_seed);
            for qid in 0..6u64 {
                let seed = NodeId::from_index((qid as usize * 17) % n);
                let dense =
                    personalized_authorities_on(&g, seed, 1_500, 0.2, &mut query_rng(11, qid));
                personalized_authorities_into(
                    &g,
                    seed,
                    1_500,
                    0.2,
                    &mut query_rng(11, qid),
                    &mut acc,
                );
                assert_eq!(acc.frequencies(), dense, "n = {n}, query {qid}");
                let friends: Vec<NodeId> = std::iter::once(seed)
                    .chain(g.out_neighbors(seed).iter().copied())
                    .collect();
                let by_index: HashSet<usize> = friends.iter().map(|f| f.index()).collect();
                let by_node: HashSet<NodeId> = friends.into_iter().collect();
                for k in [0, 1, 10, n] {
                    assert_eq!(
                        acc.top_k_with(k, &by_node, &mut scratch),
                        top_k_scores(&dense, &by_index, k),
                        "n = {n}, query {qid}, k = {k}"
                    );
                }
            }
        }
        // A seed with no out-edges records nothing: all-zero scores, empty list.
        let lonely = DynamicGraph::with_nodes(3);
        personalized_authorities_into(&lonely, NodeId(1), 50, 0.2, &mut query_rng(1, 0), &mut acc);
        assert_eq!(acc.total_visits, 0);
        assert_eq!(acc.frequencies(), vec![0.0; 3]);
        assert!(acc.top_k(5, &HashSet::new()).is_empty());
    }

    #[test]
    fn top_k_scores_ranks_ties_by_node_and_never_compares_a_nan() {
        // Heavy ties: 4 distinct positive values over 300 entries, zeros and
        // negatives mixed in; the reference is the full sort this replaced.
        let scores: Vec<f64> = (0..300usize)
            .map(|i| [0.25, 0.0, 0.5, 0.125, -1.0, 0.25, 1.0][(i * 31) % 7])
            .collect();
        let exclude: HashSet<usize> = (0..300).step_by(9).collect();
        let mut reference: Vec<(usize, f64)> = scores
            .iter()
            .copied()
            .enumerate()
            .filter(|&(i, s)| s > 0.0 && !exclude.contains(&i))
            .collect();
        reference.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));
        for k in [0, 1, 10, 120, reference.len(), 1_000] {
            let expected: Vec<(NodeId, f64)> = reference
                .iter()
                .take(k)
                .map(|&(i, s)| (NodeId::from_index(i), s))
                .collect();
            assert_eq!(top_k_scores(&scores, &exclude, k), expected, "k = {k}");
        }
        // A NaN is not a positive score: skipped, never ranked, never a panic.
        let with_nan = [0.5, f64::NAN, 0.75, f64::NAN, 0.5, f64::INFINITY];
        assert_eq!(
            top_k_scores(&with_nan, &HashSet::new(), 10),
            vec![
                (NodeId(5), f64::INFINITY),
                (NodeId(2), 0.75),
                (NodeId(0), 0.5),
                (NodeId(4), 0.5)
            ]
        );
        assert!(top_k_scores(&[f64::NAN; 4], &HashSet::new(), 2).is_empty());
    }

    #[test]
    fn update_work_counter_accumulates() {
        let mut engine = IncrementalSalsa::new_empty(10, config(2, 23));
        for i in 0..9u32 {
            engine.add_edge(Edge::new(i, i + 1));
        }
        assert_eq!(engine.work().edges_processed, 9);
        assert!(engine.work().total_work() > 0);
        engine.reset_work();
        assert_eq!(engine.work().edges_processed, 0);
    }

    #[test]
    fn removing_absent_edge_is_noop() {
        let mut engine = IncrementalSalsa::from_graph(directed_cycle(4), config(2, 25));
        assert!(engine.remove_edge(Edge::new(0, 2)).is_none());
    }

    #[test]
    #[should_panic(expected = "seed node")]
    fn personalized_rejects_bad_seed() {
        let engine = IncrementalSalsa::from_graph(directed_cycle(3), config(2, 27));
        let _ = engine.personalized_authorities(NodeId(9), 100);
    }
}
