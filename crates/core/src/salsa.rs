//! Monte Carlo SALSA (Section 2.3, Theorem 6): the [`Salsa`] kind of the shared
//! [`WalkEngine`], plus the queries only SALSA segments answer.
//!
//! SALSA is the stationary behaviour of an alternating forward/backward random walk: a
//! *hub* position follows a random out-edge to an *authority* position, which follows a
//! random in-edge back to a hub position, and so on, with ε-resets allowed only before
//! forward steps.  To estimate hub and authority scores the engine stores `2R` segments
//! per node — `R` starting with a forward step (the node acts as a hub) and `R` starting
//! with a backward step (the node acts as an authority) — and counts visits by parity.
//!
//! Maintenance is [`crate::engine`]'s, shared with PageRank: an arriving or vanishing
//! edge `(u, v)` disturbs forward steps out of `u` and backward steps out of `v`, and
//! Theorem 6 bounds the total update work within a factor 16 of the PageRank bound
//! ([`crate::bounds::salsa_total_update_work`]).  This module holds the
//! [`IncrementalSalsa`] alias and the read side.
//!
//! Personalized SALSA scores are obtained with a direct alternating walk with resets to
//! the seed; the paper's fetch-stitching analysis (Theorem 8) is developed for PageRank
//! and the same store layout would apply, but the reproduction keeps the SALSA
//! personalization simple because no experiment in the paper measures its fetch count.

use crate::engine::{Salsa, WalkEngine};
use crate::personalized::PersonalizedWalkResult;
use crate::sparse::select_top_k;
use ppr_graph::{GraphView, NodeId};
use ppr_store::{WalkIndexMut, WalkIndexView, WalkStore};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;

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
            match graph.random_out_neighbor(current, rng) {
                Some(next) => {
                    authority_visit(next);
                    current = next;
                    forward = false;
                }
                None => current = seed,
            }
        } else {
            current = graph.random_in_neighbor(current, rng).unwrap_or(seed);
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

/// Monte Carlo SALSA with incrementally maintained alternating walk segments: `2R`
/// walks per node, generic over the PageRank Store layout (`W`).
pub type IncrementalSalsa<W = WalkStore> = WalkEngine<Salsa, W>;

impl<W: WalkIndexMut> WalkEngine<Salsa, W> {
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
    use crate::config::MonteCarloConfig;
    use crate::engine::UpdateStats;
    use ppr_baselines::salsa_exact::salsa_exact;
    use ppr_graph::generators::{
        directed_cycle, preferential_attachment, preferential_attachment_edges, star_inward,
        PreferentialAttachmentConfig,
    };
    use ppr_graph::{DynamicGraph, Edge};

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
        // remove_edge is a deletion batch of one, on the same streams too.
        for edge in [Edge::new(3, 7), Edge::new(0, 1)] {
            assert_eq!(a.remove_edge(edge), Some(b.apply_deletions(&[edge])));
        }
        let ea = a.estimates();
        let eb = b.estimates();
        assert_eq!(ea.hubs, eb.hubs);
        assert_eq!(ea.authorities, eb.authorities);
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
