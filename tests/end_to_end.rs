//! Cross-crate integration tests: the full pipeline from graph generation through
//! incremental maintenance to personalized retrieval, checked against the exact
//! baselines.

use fast_ppr::prelude::*;
use ppr_analysis::ranking::{top_k_indices, top_k_overlap};
use ppr_baselines::power_iteration::PowerIterationConfig;
use ppr_graph::generators::{preferential_attachment_edges, PreferentialAttachmentConfig};
use ppr_graph::stream::random_permutation;
use ppr_graph::Edge;
use ppr_store::StoreDigest;
use std::collections::HashSet;

/// Builds the whole system incrementally from an empty graph and checks that the
/// resulting global estimates track power iteration on the final graph.
#[test]
fn incremental_build_tracks_power_iteration_end_to_end() {
    let nodes = 400;
    let generated = preferential_attachment_edges(&PreferentialAttachmentConfig::new(nodes, 5, 21));
    let arrivals = random_permutation(&generated, 23);

    let mut engine =
        IncrementalPageRank::new_empty(nodes, MonteCarloConfig::new(0.2, 20).with_seed(25));
    for &edge in &arrivals {
        engine.add_edge(edge);
    }
    engine.validate_segments().expect("segments stay valid");

    let exact = power_iteration(engine.graph(), &PowerIterationConfig::with_epsilon(0.2));
    let tvd = engine.estimates().total_variation_distance(&exact.scores);
    assert!(tvd < 0.12, "total variation distance {tvd} too large");

    // The update work stays far below a per-edge rebuild.
    let rebuild = engine.config().expected_initialization_cost(nodes);
    assert!(
        engine.work().steps_per_edge() < rebuild / 20.0,
        "per-edge work {} should be far below a rebuild ({rebuild})",
        engine.work().steps_per_edge()
    );
}

/// The personalized Monte Carlo ranking agrees with exact personalized power iteration
/// on the head of the ranking.
#[test]
fn stitched_personalized_ranking_matches_exact_ranking() {
    let graph = preferential_attachment(2_000, 25, 27);
    let engine =
        IncrementalPageRank::from_graph(&graph, MonteCarloConfig::new(0.2, 10).with_seed(29));
    let seed = NodeId(1_500);
    let exclude: HashSet<usize> = std::iter::once(seed.index())
        .chain(graph.out_neighbors(seed).iter().map(|n| n.index()))
        .collect();

    let exact =
        personalized_power_iteration(&graph, seed, &PowerIterationConfig::with_epsilon(0.2));
    let exact_top = top_k_indices(&exact.scores, 20, &exclude);

    let mc_top: Vec<usize> = engine
        .personalized_top_k(seed, 20, 30_000)
        .into_iter()
        .map(|(node, _)| node.index())
        .collect();

    let overlap = top_k_overlap(&exact_top, &mc_top, 20);
    assert!(
        overlap >= 0.5,
        "Monte Carlo and exact personalized top-20 should mostly agree, overlap = {overlap}"
    );
}

/// Edge deletions keep the system consistent and the estimates accurate.
#[test]
fn deletions_keep_estimates_consistent() {
    let graph = preferential_attachment(300, 6, 31);
    let mut engine =
        IncrementalPageRank::from_graph(&graph, MonteCarloConfig::new(0.2, 15).with_seed(33));

    let victims: Vec<Edge> = engine
        .graph()
        .collect_edges()
        .into_iter()
        .step_by(3)
        .take(200)
        .collect();
    for edge in &victims {
        engine.remove_edge(*edge).expect("victim edges exist");
    }
    engine
        .validate_segments()
        .expect("segments stay valid after deletions");

    let exact = power_iteration(engine.graph(), &PowerIterationConfig::with_epsilon(0.2));
    let tvd = engine.estimates().total_variation_distance(&exact.scores);
    assert!(
        tvd < 0.15,
        "estimates should survive deletions, TVD = {tvd}"
    );
}

/// A deletion repair re-samples the invalidated step but must not flip that step's
/// reset coin again: the stored segment already records that it came up "continue".
/// On `0→{1,2}, 1→0, 2→0`, deleting `(0,1)` repairs about half of all segments at
/// node 0, so a second coin (an extra ε chance to stop there) would cut node 0's mean
/// segment length by ~12 % and shift every score by ~11 % against a fresh build.
#[test]
fn deletion_repairs_do_not_reflip_the_reset_coin() {
    let mut graph = DynamicGraph::with_nodes(3);
    for (source, target) in [(0, 1), (0, 2), (1, 0), (2, 0)] {
        graph.add_edge(Edge::new(source, target));
    }
    let r = 50_000;
    let mut engine =
        IncrementalPageRank::from_graph(graph, MonteCarloConfig::new(0.2, r).with_seed(51));
    let stats = engine.remove_edge(Edge::new(0, 1)).expect("edge exists");
    assert!(
        stats.segments_updated as usize > r,
        "most walks crossed 0→1"
    );
    engine.validate_segments().unwrap();
    let fresh = IncrementalPageRank::from_graph(
        engine.graph(),
        MonteCarloConfig::new(0.2, r).with_seed(53),
    );

    let mean_len_at_0 = |e: &IncrementalPageRank| {
        let store = e.walk_store();
        let visits: usize = store
            .segment_ids_of(NodeId(0))
            .map(|id| store.segment_len(id))
            .sum();
        visits as f64 / r as f64
    };
    let (repaired_len, fresh_len) = (mean_len_at_0(&engine), mean_len_at_0(&fresh));
    assert!(
        (repaired_len / fresh_len - 1.0).abs() < 0.02,
        "node 0's mean segment length after the deletion is {repaired_len:.3}, \
         a fresh build's is {fresh_len:.3} (1/ε = 5)"
    );
    for (node, (repaired, fresh)) in engine.scores().iter().zip(fresh.scores()).enumerate() {
        assert!(
            (repaired / fresh - 1.0).abs() < 0.02,
            "score of node {node} after the deletion is {repaired:.4}, fresh build {fresh:.4}"
        );
    }
}

/// Deletion-then-recount invariant: after every deletion, the store's postings and
/// counters equal a from-scratch recount of the stored paths, no segment traverses a
/// fully deleted edge, and this holds equally on the flat and the disk-backed
/// layouts.  (`remove_edge` had unit tests but no end-to-end/property coverage; this
/// also seeds the ROADMAP's "batched deletions" item with a correctness oracle.)
#[test]
fn deletions_keep_stores_exactly_consistent_on_both_layouts() {
    let nodes = 120;
    let edges = preferential_attachment_edges(&PreferentialAttachmentConfig::new(nodes, 5, 47));
    let config = MonteCarloConfig::new(0.2, 6).with_seed(49);
    let mut flat = IncrementalPageRank::new_empty(nodes, config);
    let dir = ppr_persist::TempDir::new("deletions-disk");
    let mut disk = DurablePageRank::create_durable_disk(
        dir.path().join("store"),
        DynamicGraph::with_nodes(nodes),
        config,
    )
    .expect("create disk durable");
    flat.apply_arrivals(&edges);
    disk.apply_arrivals(&edges);

    let victims: Vec<Edge> = edges.iter().copied().step_by(4).take(120).collect();
    for (i, &edge) in victims.iter().enumerate() {
        let a = flat.remove_edge(edge);
        let b = disk.remove_edge(edge);
        assert_eq!(a, b, "deletion {i} stats diverge between layouts");
        if i % 20 == 0 {
            // Recount from scratch: every maintained index must match exactly.
            flat.walk_store().check_consistency().unwrap();
            WalkIndexMut::check_consistency(disk.walk_store()).unwrap();
            flat.validate_segments().unwrap();
            disk.validate_segments().unwrap();
        }
        // A fully deleted edge may no longer be traversed by any stored segment.
        if !flat.graph().has_edge(edge) {
            for node in flat.graph().nodes() {
                for id in flat.walk_store().segment_ids_of(node) {
                    assert!(
                        !flat.walk_store().uses_edge(id, edge.source, edge.target),
                        "segment {id:?} still traverses deleted edge {edge}"
                    );
                }
            }
        }
    }
    assert_eq!(flat.scores(), disk.scores());
    assert_eq!(
        WalkIndexView::visit_counts(flat.walk_store()),
        disk.walk_store().visit_counts()
    );
}

/// Sequential vs batch-replay deletion oracle: deleting a source's edges one at a time
/// from a fully built engine must leave the walk store in a state equivalent to
/// rebuilding from the smaller edge set — same validity, exact index consistency, and
/// estimates that still track power iteration on the post-deletion graph.  When
/// deletions are batched per source (ROADMAP), this test is the baseline the batched
/// path must reproduce.
#[test]
fn sequential_deletions_match_a_batch_replay_of_the_surviving_stream() {
    let nodes = 200;
    let edges = preferential_attachment_edges(&PreferentialAttachmentConfig::new(nodes, 5, 51));
    let config = MonteCarloConfig::new(0.2, 10).with_seed(53);

    // Engine A: build everything, then delete every edge of a hot source one by one.
    let victim_source = edges[0].source;
    let mut engine = IncrementalPageRank::new_empty(nodes, config);
    engine.apply_arrivals(&edges);
    let victims: Vec<Edge> = edges
        .iter()
        .copied()
        .filter(|e| e.source == victim_source)
        .collect();
    assert!(
        victims.len() > 1,
        "the victim source must lose several edges"
    );
    for &edge in &victims {
        engine.remove_edge(edge).expect("victim edges exist");
    }
    engine.validate_segments().unwrap();
    engine.walk_store().check_consistency().unwrap();

    // Engine B: replay only the surviving edges in batches.
    let survivors: Vec<Edge> = edges
        .iter()
        .copied()
        .filter(|e| e.source != victim_source)
        .collect();
    let mut replay = IncrementalPageRank::new_empty(nodes, config);
    for chunk in survivors.chunks(64) {
        replay.apply_arrivals(chunk);
    }
    replay.validate_segments().unwrap();

    // Both graphs now agree, and both estimate the same stationary distribution.
    assert_eq!(engine.graph().edge_count(), replay.graph().edge_count());
    let exact = power_iteration(engine.graph(), &PowerIterationConfig::with_epsilon(0.2));
    let tvd_deleted = engine.estimates().total_variation_distance(&exact.scores);
    let tvd_replayed = replay.estimates().total_variation_distance(&exact.scores);
    assert!(
        tvd_deleted < 0.12,
        "deletion-maintained estimates drifted, TVD = {tvd_deleted:.4}"
    );
    assert!(
        tvd_deleted < tvd_replayed * 2.0 + 0.02,
        "deletions (TVD {tvd_deleted:.4}) should match a from-scratch replay \
         (TVD {tvd_replayed:.4})"
    );
    // The deleted source is dangling now: none of its segments may leave it.
    assert_eq!(engine.graph().out_degree(victim_source), 0);
    for id in engine.walk_store().segment_ids_of(victim_source) {
        assert_eq!(engine.walk_store().segment_len(id), 1);
    }
}

/// Monte Carlo SALSA authorities agree with the exact SALSA iteration, end to end.
#[test]
fn monte_carlo_salsa_matches_exact_salsa() {
    let graph = preferential_attachment(250, 5, 35);
    let engine = IncrementalSalsa::from_graph(&graph, MonteCarloConfig::new(0.2, 20).with_seed(37));
    let exact = salsa_exact(&graph, 30);
    let estimates = engine.estimates();
    let tvd: f64 = 0.5
        * estimates
            .authorities
            .iter()
            .zip(&exact.authorities)
            .map(|(a, b)| (a - b).abs())
            .sum::<f64>();
    assert!(tvd < 0.15, "SALSA authority TVD {tvd} too large");
}

/// The full recommender comparison of Appendix A runs through the façade crate.
#[test]
fn recommenders_produce_disjoint_from_friends_rankings() {
    let graph = preferential_attachment(1_000, 20, 39);
    let seed = NodeId(700);
    let friends: HashSet<NodeId> = graph.out_neighbors(seed).iter().copied().collect();

    let engine =
        IncrementalPageRank::from_graph(&graph, MonteCarloConfig::new(0.2, 5).with_seed(41));
    for (node, _) in engine.personalized_top_k(seed, 10, 5_000) {
        assert!(!friends.contains(&node) && node != seed);
    }

    let hits = personalized_hits(&graph, seed, 0.2, 10);
    let salsa = IncrementalSalsa::from_graph(&graph, MonteCarloConfig::new(0.2, 5).with_seed(43));
    let salsa_top = salsa.personalized_top_k(seed, 10, 20_000);
    assert!(!hits.authorities.is_empty());
    for (node, _) in salsa_top {
        assert!(!friends.contains(&node) && node != seed);
    }
}

/// The arrival-only script behind the pinned digests: 40 nodes growing to 60 under
/// permuted preferential-attachment arrivals, in singleton and mixed-size batches.
fn pinned_arrival_script() -> Vec<Vec<Edge>> {
    let pa = PreferentialAttachmentConfig::new(60, 3, 457);
    let edges = random_permutation(&preferential_attachment_edges(&pa), 461);
    let mut batches = Vec::new();
    let mut rest = &edges[..];
    for &len in [1usize, 5, 1, 24, 2, 48].iter().cycle() {
        if rest.is_empty() {
            break;
        }
        let (batch, tail) = rest.split_at(len.min(rest.len()));
        batches.push(batch.to_vec());
        rest = tail;
    }
    batches
}

#[test]
fn arrival_only_histories_keep_their_pinned_digests() {
    // Arrivals (with node growth) are held to exact RNG streams.  Re-pin only in a PR
    // that states it changes arrival RNG streams — last done by the PR that moved the
    // reroute coins off the per-segment repair stream onto one skip-sampled coin
    // stream per `(batch, pivot, direction)`: this change alters arrival RNG streams
    // (and nothing about deletions).  Deletion histories are deliberately not pinned.
    const PINNED: [(u64, u64); 2] = [(920, 2357357892586109657), (2526, 8605347573499262585)];
    let script = pinned_arrival_script();
    let config = MonteCarloConfig::new(0.2, 3).with_seed(463);
    let mut pagerank = IncrementalPageRank::new_empty(40, config);
    let mut salsa = IncrementalSalsa::new_empty(40, config);
    for batch in &script {
        pagerank.apply_arrivals(batch);
        salsa.apply_arrivals(batch);
    }
    assert_eq!(
        pagerank.node_count(),
        60,
        "the script must grow the node set"
    );
    let observed: Vec<(u64, u64)> = [
        StoreDigest::of(pagerank.walk_store()),
        StoreDigest::of(salsa.walk_store()),
    ]
    .iter()
    .map(|digest| (digest.total_visits, digest.fingerprint))
    .collect();
    assert_eq!(observed, PINNED, "order: PageRank, SALSA");
}
