//! Incremental Monte Carlo PageRank (Section 2.2): the [`PageRank`] kind of the shared
//! [`WalkEngine`], plus the estimators only PageRank segments answer.
//!
//! Maintenance — arrivals, deletions, batching, durability — lives in
//! [`crate::engine`], shared with SALSA; this module holds the [`IncrementalPageRank`]
//! alias and the read side: the global estimator of Theorem 1 and the personalized
//! top-k of Algorithm 1 over the cached segments.

use crate::engine::{PageRank, WalkEngine};
use crate::estimator::PageRankEstimates;
use crate::personalized::PersonalizedWalker;
use ppr_graph::{GraphView, NodeId};
use ppr_store::{WalkIndexMut, WalkStore};

/// Monte Carlo PageRank with incrementally maintained walk segments: `R` forward
/// walks per node, generic over the PageRank Store layout (`W`).
pub type IncrementalPageRank<W = WalkStore> = WalkEngine<PageRank, W>;

impl<W: WalkIndexMut> WalkEngine<PageRank, W> {
    /// Current PageRank estimates.
    pub fn estimates(&self) -> PageRankEstimates {
        PageRankEstimates::from_store(&self.walks, self.config.epsilon)
    }

    /// Self-normalised PageRank scores for every node (sum to 1).
    pub fn scores(&self) -> Vec<f64> {
        self.estimates().normalized().to_vec()
    }

    /// The paper's raw estimator `X_v / (nR/ε)` for a single node.
    pub fn score(&self, node: NodeId) -> f64 {
        self.estimates().score(node)
    }

    /// Runs the personalized walk of Algorithm 1 from `seed` for `walk_length` visits
    /// and returns the top-`k` nodes by visit count, excluding `seed` itself and its
    /// direct friends (as the paper's recommender does).
    ///
    /// The walk draws from the `(query_seed, query_id)` split stream of
    /// [`crate::query`] with the engine seed as the query seed and the seed node as
    /// the query id, so the answer is a pure function of the store state — identical
    /// on any thread, at any interleaving with other queries.
    pub fn personalized_top_k(
        &self,
        seed: NodeId,
        k: usize,
        walk_length: usize,
    ) -> Vec<(NodeId, f64)> {
        let walker = PersonalizedWalker::new(&self.store, &self.walks, self.config.epsilon, 0);
        let result = walker.walk_query(seed, walk_length, self.config.seed, seed.0 as u64);
        let mut exclude: std::collections::HashSet<NodeId> = std::collections::HashSet::new();
        exclude.insert(seed);
        exclude.extend(self.store.graph().out_neighbors(seed).iter().copied());
        result.top_k(k, &exclude)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MonteCarloConfig;
    use crate::engine::UpdateStats;
    use ppr_baselines::power_iteration::{power_iteration, PowerIterationConfig};
    use ppr_graph::generators::{
        directed_cycle, example1_gadget, preferential_attachment_edges,
        PreferentialAttachmentConfig,
    };
    use ppr_graph::{DynamicGraph, Edge};

    fn config(r: usize, seed: u64) -> MonteCarloConfig {
        MonteCarloConfig::new(0.2, r).with_seed(seed)
    }

    #[test]
    fn initialization_creates_r_segments_per_node() {
        let g = directed_cycle(10);
        let engine = IncrementalPageRank::from_graph(&g, config(3, 1));
        assert_eq!(engine.node_count(), 10);
        for node in g.nodes() {
            for id in engine.walk_store().segment_ids_of(node) {
                assert_eq!(engine.walk_store().segment_source(id), Some(node));
            }
        }
        assert!(engine.validate_segments().is_ok());
        assert!(engine.initialization_steps() > 0);
        assert_eq!(engine.work().edges_processed, 0);
    }

    #[test]
    fn add_edge_keeps_segments_valid() {
        let mut engine = IncrementalPageRank::new_empty(5, config(4, 2));
        let edges = [
            Edge::new(0, 1),
            Edge::new(1, 2),
            Edge::new(2, 3),
            Edge::new(3, 4),
            Edge::new(4, 0),
            Edge::new(0, 2),
            Edge::new(2, 0),
        ];
        for &edge in &edges {
            engine.add_edge(edge);
            engine.validate_segments().unwrap();
        }
        assert_eq!(engine.graph().edge_count(), edges.len());
        assert_eq!(engine.work().edges_processed, edges.len() as u64);
    }

    #[test]
    fn add_edge_grows_the_node_set_and_generates_segments() {
        let mut engine = IncrementalPageRank::new_empty(1, config(2, 3));
        engine.add_edge(Edge::new(0, 7));
        assert_eq!(engine.node_count(), 8);
        for node in 0..8 {
            for id in engine.walk_store().segment_ids_of(NodeId(node)) {
                assert!(!engine.walk_store().segment_is_empty(id));
            }
        }
        engine.validate_segments().unwrap();
    }

    #[test]
    fn first_outgoing_edge_extends_previously_dangling_walks() {
        // Node 0 starts with no outgoing edges: all its segments are just [0].  After
        // the first edge 0 -> 1 arrives, a (1 − ε) fraction of them should continue.
        let mut engine = IncrementalPageRank::new_empty(2, config(200, 5));
        let before: usize = engine
            .walk_store()
            .segment_ids_of(NodeId(0))
            .map(|id| engine.walk_store().segment_len(id))
            .sum();
        assert_eq!(before, 200, "dangling node segments are single visits");
        let stats = engine.add_edge(Edge::new(0, 1));
        assert!(stats.segments_updated > 100, "most segments should extend");
        let extended = engine
            .walk_store()
            .segment_ids_of(NodeId(0))
            .filter(|&id| engine.walk_store().segment_len(id) > 1)
            .count();
        assert!(
            (120..=200).contains(&extended),
            "≈ (1-ε) of 200 segments should now leave node 0, got {extended}"
        );
        engine.validate_segments().unwrap();
    }

    #[test]
    fn arrival_update_probability_scales_with_out_degree() {
        // When u already has many outgoing edges, a new edge rarely disturbs walks.
        let mut dense = IncrementalPageRank::from_graph(
            ppr_graph::generators::complete_graph(50),
            config(5, 7),
        );
        let stats_dense = dense.add_edge(Edge::new(0, 1)); // parallel edge, outdeg 50
        let mut sparse = IncrementalPageRank::from_graph(directed_cycle(50), config(5, 7));
        let stats_sparse = sparse.add_edge(Edge::new(0, 25)); // outdeg becomes 2
        assert!(
            stats_sparse.segments_updated >= stats_dense.segments_updated,
            "sparse arrival should disturb at least as many segments ({} vs {})",
            stats_sparse.segments_updated,
            stats_dense.segments_updated
        );
        dense.validate_segments().unwrap();
        sparse.validate_segments().unwrap();
    }

    #[test]
    fn remove_edge_repairs_traversing_segments() {
        let g = directed_cycle(6);
        let mut engine = IncrementalPageRank::from_graph(&g, config(10, 11));
        // Add a chord so node 0 still has an out-edge after the deletion.
        engine.add_edge(Edge::new(0, 3));
        let stats = engine.remove_edge(Edge::new(0, 1)).expect("edge exists");
        assert!(stats.touched_walk_store || stats.segments_updated == 0);
        engine.validate_segments().unwrap();
        assert!(!engine.graph().has_edge(Edge::new(0, 1)));
    }

    #[test]
    fn remove_edge_that_leaves_node_dangling_truncates_walks() {
        let g = directed_cycle(4);
        let mut engine = IncrementalPageRank::from_graph(&g, config(8, 13));
        engine.remove_edge(Edge::new(2, 3)).expect("edge exists");
        engine.validate_segments().unwrap();
        // No stored segment may traverse 2 -> 3 any more.
        for node in engine.graph().nodes() {
            for id in engine.walk_store().segment_ids_of(node) {
                assert!(!engine.walk_store().uses_edge(id, NodeId(2), NodeId(3)));
            }
        }
    }

    #[test]
    fn removing_a_missing_edge_is_a_no_op() {
        let mut engine = IncrementalPageRank::from_graph(directed_cycle(4), config(2, 1));
        assert!(engine.remove_edge(Edge::new(0, 2)).is_none());
        assert_eq!(engine.work().edges_processed, 0);
    }

    #[test]
    fn estimates_track_power_iteration_after_incremental_build() {
        // Build a 300-node preferential-attachment graph edge by edge and compare the
        // Monte Carlo estimates with power iteration on the final graph.
        let pa = PreferentialAttachmentConfig::new(300, 4, 17);
        let edges = preferential_attachment_edges(&pa);
        let mut engine = IncrementalPageRank::new_empty(300, config(20, 23));
        for &edge in &edges {
            engine.add_edge(edge);
        }
        engine.validate_segments().unwrap();

        let exact = power_iteration(engine.graph(), &PowerIterationConfig::with_epsilon(0.2));
        let estimates = engine.estimates();
        let tvd = estimates.total_variation_distance(&exact.scores);
        assert!(
            tvd < 0.12,
            "incrementally maintained estimates should track power iteration, TVD = {tvd:.4}"
        );

        // The incremental estimates should be about as good as estimates built from
        // scratch on the final graph with the same parameters.
        let fresh = IncrementalPageRank::from_graph(engine.graph(), config(20, 29));
        let fresh_tvd = fresh.estimates().total_variation_distance(&exact.scores);
        assert!(
            tvd < fresh_tvd * 2.0 + 0.02,
            "incremental TVD {tvd:.4} should be comparable to fresh TVD {fresh_tvd:.4}"
        );
    }

    #[test]
    fn estimates_track_power_iteration_after_mixed_arrivals_and_deletions() {
        // The same stream as the arrival-only build above, but every fourth arrival
        // is followed by the deletion of a pseudo-randomly chosen live edge — a
        // quarter of all edges vanish again — and held to the same tolerance.
        let pa = PreferentialAttachmentConfig::new(300, 4, 17);
        let edges = preferential_attachment_edges(&pa);
        let mut engine = IncrementalPageRank::new_empty(300, config(20, 23));
        let mut live: Vec<Edge> = Vec::new();
        let mut deleted = 0usize;
        for (i, &edge) in edges.iter().enumerate() {
            engine.add_edge(edge);
            live.push(edge);
            if i % 4 == 3 {
                let victim = live.swap_remove((i * 7919) % live.len());
                engine.remove_edge(victim).expect("victim is live");
                deleted += 1;
            }
        }
        assert!(deleted * 5 >= edges.len(), "at least 20 % of edges deleted");
        assert_eq!(engine.graph().edge_count(), live.len());
        engine.validate_segments().unwrap();

        let exact = power_iteration(engine.graph(), &PowerIterationConfig::with_epsilon(0.2));
        let tvd = engine.estimates().total_variation_distance(&exact.scores);
        assert!(
            tvd < 0.12,
            "estimates must survive a mixed history as well as an arrival-only one, TVD = {tvd:.4}"
        );
    }

    #[test]
    fn batched_arrivals_match_sequential_accuracy() {
        // Replay the same preferential-attachment stream through apply_arrivals in
        // chunks; the estimates must track power iteration exactly as the per-edge
        // replay does, and every invariant must hold after every batch.
        let pa = PreferentialAttachmentConfig::new(300, 4, 19);
        let edges = preferential_attachment_edges(&pa);
        let mut engine = IncrementalPageRank::new_empty(300, config(20, 31));
        for chunk in edges.chunks(64) {
            let stats = engine.apply_arrivals(chunk);
            assert!(stats.segments_updated >= stats.touched_walk_store as u64);
            engine.validate_segments().unwrap();
        }
        assert_eq!(engine.graph().edge_count(), edges.len());
        assert_eq!(engine.work().edges_processed, edges.len() as u64);

        let exact = power_iteration(engine.graph(), &PowerIterationConfig::with_epsilon(0.2));
        let tvd = engine.estimates().total_variation_distance(&exact.scores);
        assert!(
            tvd < 0.12,
            "batched arrivals must stay as accurate as sequential ones, TVD = {tvd:.4}"
        );
    }

    #[test]
    fn batched_arrivals_group_work_per_source() {
        // A hub gaining many edges at once: one batch touches the hub's postings once,
        // and the result is a valid, accurate store.
        let mut engine = IncrementalPageRank::new_empty(40, config(5, 37));
        let spokes: Vec<Edge> = (1..40u32).map(|i| Edge::new(0, i)).collect();
        let stats = engine.apply_arrivals(&spokes);
        engine.validate_segments().unwrap();
        assert!(stats.touched_walk_store, "a dangling hub must extend walks");
        // Empty batches are a no-op.
        let empty = engine.apply_arrivals(&[]);
        assert_eq!(empty, UpdateStats::default());
    }

    #[test]
    fn batched_and_sequential_single_edges_agree() {
        // apply_arrivals over singleton slices is behaviourally identical to add_edge
        // (same RNG streams, same reroutes) — add_edge *is* a batch of one.
        let g = directed_cycle(12);
        let mut a = IncrementalPageRank::from_graph(&g, config(6, 41));
        let mut b = IncrementalPageRank::from_graph(&g, config(6, 41));
        for (i, edge) in [Edge::new(0, 5), Edge::new(3, 9), Edge::new(5, 1)]
            .into_iter()
            .enumerate()
        {
            let sa = a.add_edge(edge);
            let sb = b.apply_arrivals(std::slice::from_ref(&edge));
            assert_eq!(sa, sb, "edge {i}: stats must match");
        }
        assert_eq!(a.scores(), b.scores());
    }

    #[test]
    fn steady_state_arrivals_reuse_arena_slots() {
        // Build the graph fully (slot capacities discover their segments' length
        // range), then churn it with further arrivals: reroutes in this steady state
        // must overwhelmingly rewrite their arena slot in place — relocation is the
        // only allocating path, and it only fires when a segment outgrows every length
        // it has ever had.
        let pa = PreferentialAttachmentConfig::new(400, 5, 43);
        let edges = preferential_attachment_edges(&pa);
        let mut engine = IncrementalPageRank::new_empty(400, config(5, 47));
        engine.apply_arrivals(&edges);
        // Churn: re-deliver a third of the edges as parallel copies, three times; the
        // first two rounds let every hot slot discover its length range.
        let churn: Vec<Edge> = edges.iter().copied().step_by(3).collect();
        engine.apply_arrivals(&churn);
        engine.apply_arrivals(&churn);
        let warm = engine.walk_store().arena_stats();
        engine.apply_arrivals(&churn);
        let done = engine.walk_store().arena_stats();
        let writes = done.in_place_writes - warm.in_place_writes;
        let relocations = done.relocations - warm.relocations;
        assert!(writes > 100, "the churn phase must reroute many segments");
        assert!(
            relocations * 10 < writes,
            "steady-state reroutes must be dominated by in-place slot reuse: \
             {relocations} relocations vs {writes} in-place writes"
        );
        engine.validate_segments().unwrap();
    }

    #[test]
    fn batch_profile_charges_every_compaction_to_its_batch() {
        // Long segments (small ε) overflow their power-of-two slots under churn, so
        // relocations pile up garbage until the half-dead rule compacts the arena.
        let pa = PreferentialAttachmentConfig::new(120, 4, 83);
        let edges = preferential_attachment_edges(&pa);
        let config = MonteCarloConfig::new(0.05, 2).with_seed(89);
        let mut engine = IncrementalPageRank::new_empty(120, config);
        let built = engine.walk_store().arena_stats();
        engine.apply_arrivals(&edges);
        let churn: Vec<Edge> = edges.iter().copied().step_by(2).collect();
        for _ in 0..6 {
            engine.apply_arrivals(&churn);
        }
        engine.validate_segments().unwrap();
        let stats = engine.walk_store().arena_stats();
        assert!(stats.relocations > 0, "the churn must relocate: {stats:?}");
        assert!(stats.compactions > built.compactions, "{stats:?}");
        let profile = engine.batch_profile();
        assert_eq!(profile.compactions, stats.compactions - built.compactions);
        assert_eq!(
            profile.compaction_steps_moved,
            stats.compaction_steps_moved - built.compaction_steps_moved
        );
    }

    #[test]
    fn update_work_is_much_cheaper_than_reinitialization() {
        // Theorem 4: the marginal update cost for late edges is tiny compared with
        // rebuilding all walks (nR/ε steps).
        let pa = PreferentialAttachmentConfig::new(400, 5, 31);
        let edges = preferential_attachment_edges(&pa);
        let (prefix, suffix) = ppr_graph::stream::split_at_fraction(&edges, 0.9);
        let base = DynamicGraph::from_edges(&prefix, 400);
        let mut engine = IncrementalPageRank::from_graph(&base, config(5, 37));
        engine.reset_work();
        for &edge in &suffix {
            engine.add_edge(edge);
        }
        let per_edge_steps = engine.work().steps_per_edge();
        let reinit_cost = engine.config().expected_initialization_cost(400);
        assert!(
            per_edge_steps < reinit_cost / 50.0,
            "per-edge update cost {per_edge_steps:.1} should be far below re-initialization {reinit_cost:.0}"
        );
    }

    #[test]
    fn adversarial_example1_forces_many_updates() {
        // Example 1 of the paper: with the adversarial arrival order (every edge into
        // the hub first, the hub's own edges last), delivering u -> v1 while the hub is
        // still dangling forces Ω(n) segment updates, because a constant fraction of
        // all walks terminate on the hub and must now be extended.
        let ex = example1_gadget(50);
        let n = ex.graph.node_count();
        let prefix = ex.adversarial_prefix_graph();
        let mut engine = IncrementalPageRank::from_graph(&prefix, config(5, 41));
        engine.reset_work();
        let stats = engine.add_edge(ex.adversarial_edge);
        assert!(
            stats.segments_updated as usize > n / 2,
            "the adversarial edge should disturb Ω(n) segments, got {} (n = {n})",
            stats.segments_updated
        );
        engine.validate_segments().unwrap();

        // For contrast, the same edge arriving after the hub's other out-edges (the
        // random-permutation-friendly order) disturbs only O(R/ε) segments.
        let mut late_engine = IncrementalPageRank::from_graph(&ex.graph, config(5, 43));
        late_engine.reset_work();
        let late_stats = late_engine.add_edge(ex.adversarial_edge);
        assert!(
            late_stats.segments_updated * 4 < stats.segments_updated,
            "late arrival ({}) should be far cheaper than the adversarial one ({})",
            late_stats.segments_updated,
            stats.segments_updated
        );
    }

    #[test]
    fn scores_sum_to_one_and_add_node_works() {
        let mut engine = IncrementalPageRank::from_graph(directed_cycle(5), config(3, 53));
        let scores = engine.scores();
        assert_eq!(scores.len(), 5);
        assert!((scores.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        let new = engine.add_node();
        assert_eq!(new, NodeId(5));
        assert_eq!(engine.node_count(), 6);
        assert_eq!(engine.scores().len(), 6);
        engine.validate_segments().unwrap();
    }

    #[test]
    fn from_graph_by_value_avoids_keeping_the_original() {
        // Satellite regression: the engine can consume its graph outright, so building
        // over a large graph does not require a second copy to stay alive.
        let graph = directed_cycle(30);
        let engine = IncrementalPageRank::from_graph(graph, config(2, 61));
        assert_eq!(engine.node_count(), 30);
        engine.validate_segments().unwrap();
    }

    #[test]
    fn personalized_top_k_returns_reachable_non_friends() {
        let mut engine = IncrementalPageRank::from_graph(directed_cycle(8), config(5, 59));
        // Add chords so node 0 has friends {1, 4}.
        engine.add_edge(Edge::new(0, 4));
        let top = engine.personalized_top_k(NodeId(0), 3, 2_000);
        assert!(top.len() <= 3);
        assert!(!top.is_empty());
        for &(node, score) in &top {
            assert!(score > 0.0);
            assert_ne!(node, NodeId(0), "the seed must be excluded");
            assert_ne!(node, NodeId(1), "direct friends must be excluded");
            assert_ne!(node, NodeId(4), "direct friends must be excluded");
        }
        // The friends-of-friends (nodes 2 and 5, reached through friends 1 and 4) are
        // the strongest recommendations; they are symmetric so either may rank first.
        let top_nodes: Vec<NodeId> = top.iter().map(|&(n, _)| n).collect();
        assert!(top_nodes.contains(&NodeId(2)));
        assert!(top_nodes.contains(&NodeId(5)));
        assert!(top[0].0 == NodeId(2) || top[0].0 == NodeId(5));
    }
}
