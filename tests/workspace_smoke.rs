//! Smoke tests for the workspace surface itself: every `fast_ppr::prelude` re-export
//! must resolve and compose, and the README/`src/lib.rs` quickstart must run end to end
//! on a 1k-node preferential-attachment graph.

use fast_ppr::prelude::*;
use std::collections::HashSet;

/// The quickstart from the façade's crate-level docs (and the README), verbatim in
/// spirit: build a graph, maintain walk segments, read global scores, query top-k.
#[test]
fn quickstart_runs_end_to_end_on_a_1k_node_graph() {
    let graph = preferential_attachment(1_000, 5, 42);
    assert_eq!(graph.node_count(), 1_000);

    let config = MonteCarloConfig::new(0.2, 4).with_seed(7);
    let mut engine = IncrementalPageRank::from_graph(&graph, config);

    let scores = engine.scores();
    assert_eq!(scores.len(), graph.node_count());
    let sum: f64 = scores.iter().sum();
    assert!((sum - 1.0).abs() < 1e-9, "scores sum to {sum}, expected 1");

    let top = engine.personalized_top_k(NodeId(0), 10, 2_000);
    assert!(top.len() <= 10);
    assert!(top
        .iter()
        .all(|&(node, score)| { node.index() < graph.node_count() && score > 0.0 }));

    // The engine stays live: an arriving edge is absorbed without invalidating state.
    engine.add_edge(Edge::new(999, 0));
    engine
        .validate_segments()
        .expect("segments stay valid after an arrival");
}

/// Every item the prelude re-exports is usable from a single `use fast_ppr::prelude::*`
/// (this is a compile-surface test as much as a runtime one).
#[test]
fn every_prelude_reexport_resolves_and_composes() {
    // ppr_graph: DynamicGraph, GraphView, NodeId, Edge, generators.  The prelude's
    // `Edge` must be the same type the `fast_ppr::graph` module re-export exposes.
    let mut dynamic = DynamicGraph::with_nodes(50);
    for i in 1..50u32 {
        let edge: fast_ppr::graph::Edge = Edge::new(i, i / 2);
        dynamic.add_edge(edge);
    }
    assert_eq!(GraphView::node_count(&dynamic), 50);

    let graph = preferential_attachment(200, 4, 11);

    // ppr_core: MonteCarloConfig, IncrementalPageRank, IncrementalSalsa,
    // PersonalizedWalker.
    let config = MonteCarloConfig::new(0.25, 3).with_seed(13);
    let engine = IncrementalPageRank::from_graph(&graph, config);
    let salsa = IncrementalSalsa::from_graph(&graph, config);
    assert_eq!(salsa.estimates().authorities.len(), 200);

    let mut walker = PersonalizedWalker::new(engine.social_store(), engine.walk_store(), 0.25, 17);
    let result = walker.walk(NodeId(0), 500);
    assert!(result.total_visits >= 500);
    assert!(result.fetches > 0);

    // ppr_store: SocialStore, WalkStore.
    let store = SocialStore::new(10);
    assert_eq!(store.node_count(), 10);
    let walks = WalkStore::new(10, 2);
    assert_eq!(walks.r(), 2);

    // ppr_baselines: power_iteration, personalized_power_iteration, hits,
    // personalized_hits, salsa_exact.
    let exact = power_iteration(
        &graph,
        &ppr_baselines::power_iteration::PowerIterationConfig::with_epsilon(0.25),
    );
    let personalized = personalized_power_iteration(
        &graph,
        NodeId(5),
        &ppr_baselines::power_iteration::PowerIterationConfig::with_epsilon(0.25),
    );
    assert_eq!(exact.scores.len(), personalized.scores.len());
    let hub_auth = hits(&graph, 20);
    let p_hits = personalized_hits(&graph, NodeId(5), 0.25, 20);
    assert_eq!(hub_auth.authorities.len(), p_hits.authorities.len());
    let exact_salsa = salsa_exact(&graph, 20);
    assert_eq!(exact_salsa.authorities.len(), 200);

    // ppr_analysis: fit_power_law, interpolated_average_precision.
    let fit = fit_power_law(&exact.scores, 1..100).expect("enough ranked scores");
    assert!(fit.exponent.is_finite());
    let relevant: HashSet<usize> = [1, 2, 3].into_iter().collect();
    let ap = interpolated_average_precision(&[1, 2, 3], &relevant);
    assert!((ap - 1.0).abs() < 1e-12);
}
