//! Correctness checks, all outside the timed windows.  Each counts as one
//! attempted operation and, when it does not hold, one failed.

use crate::workloads::{
    ppr_query, salsa_query, Durable, Measured, EPSILON, K, QUERY_SEED, WALK_LENGTH,
};
use ppr_baselines::power_iteration::{
    personalized_power_iteration, power_iteration, PowerIterationConfig,
};
use ppr_core::salsa::{personalized_authorities_on, top_k_scores};
use ppr_core::{
    query_rng, IncrementalSalsa, PersonalizedWalkResult, PersonalizedWalker, TopKScratch,
    WalkScratch,
};
use ppr_graph::{GraphView, NodeId};
use ppr_serve::{Answer, QueryEngine};
use std::collections::HashSet;

/// Query ids of the verification queries, clear of every workload's own.
const CHECK_IDS: u64 = 1 << 41;

/// Floors for the quality gate, fixed from the first traced sets (seeds 1 and
/// 2, and the 2k-node smoke graphs): the worst values seen were an L1 error of
/// 0.025 and a precision of 0.835.
pub const MAX_PAGERANK_L1_ERROR: f64 = 0.05;
pub const MIN_PRECISION_AT_10: f64 = 0.75;

fn exclusions<G: GraphView + ?Sized>(graph: &G, seed: NodeId) -> HashSet<NodeId> {
    let mut exclude: HashSet<NodeId> = graph.out_neighbors(seed).iter().copied().collect();
    exclude.insert(seed);
    exclude
}

/// Sampled served answers equal the stitched walker run directly over the
/// engine's own store with the same `(query_seed, query_id)`.
pub fn served_equals_direct(q: &Durable, sample: &[NodeId], m: &mut Measured) {
    let engine = q.engine();
    let handle = q.handle();
    let walker = PersonalizedWalker::new(engine.social_store(), engine.walk_store(), EPSILON, 0);
    let mut scratch = WalkScratch::default();
    let mut result = PersonalizedWalkResult::default();
    let mut topk = TopKScratch::default();
    for (i, seed) in sample.iter().enumerate() {
        let qid = CHECK_IDS + i as u64;
        let served = handle.serve(qid, &ppr_query(*seed));
        walker.walk_query_into(
            *seed,
            WALK_LENGTH,
            QUERY_SEED,
            qid,
            &mut scratch,
            &mut result,
        );
        let direct = result.top_k_with(K, &exclusions(engine.graph(), *seed), &mut topk);
        let same = served.answer == Answer::Ranked(direct) && served.fetches == result.fetches;
        m.attempt(same, || {
            format!("served answer for seed {seed} (query {qid}) differs from the direct walk")
        });
    }
}

/// The SALSA counterpart: served authorities equal the direct alternating
/// walk over the engine's own graph on the same query stream.
pub fn salsa_served_equals_direct(
    q: &QueryEngine<IncrementalSalsa>,
    sample: &[NodeId],
    m: &mut Measured,
) {
    let graph = q.engine().graph();
    let handle = q.handle();
    for (i, seed) in sample.iter().enumerate() {
        let qid = CHECK_IDS + i as u64;
        let served = handle.serve(qid, &salsa_query(*seed));
        let mut rng = query_rng(QUERY_SEED, qid);
        let scores = personalized_authorities_on(graph, *seed, WALK_LENGTH, EPSILON, &mut rng);
        let exclude: HashSet<usize> = exclusions(graph, *seed).iter().map(|n| n.index()).collect();
        let direct = top_k_scores(&scores, &exclude, K);
        m.attempt(served.answer == Answer::Ranked(direct), || {
            format!(
                "served SALSA answer for seed {seed} (query {qid}) differs from the direct walk"
            )
        });
    }
}

/// The quality gate: global estimates against power iteration on the final
/// graph, and served top-10 lists against exact personalized PageRank.
pub fn quality(q: &Durable, sample: &[NodeId], m: &mut Measured) {
    let engine = q.engine();
    let graph = engine.graph();
    let config = PowerIterationConfig {
        epsilon: EPSILON,
        max_iterations: 60,
        tolerance: 1e-9,
    };
    let exact = power_iteration(graph, &config).scores;
    let l1: f64 = engine
        .scores()
        .iter()
        .zip(&exact)
        .map(|(a, b)| (a - b).abs())
        .sum();
    m.layer.insert("quality.pagerank_l1_error", l1);
    m.attempt(l1 <= MAX_PAGERANK_L1_ERROR, || {
        format!("pagerank L1 error {l1:.4} above the floor {MAX_PAGERANK_L1_ERROR}")
    });

    let handle = q.handle();
    let (mut hits, mut wanted) = (0usize, 0usize);
    for (i, seed) in sample.iter().take(20).enumerate() {
        let exclude: HashSet<usize> = exclusions(graph, *seed).iter().map(|n| n.index()).collect();
        let exact = personalized_power_iteration(graph, *seed, &config).scores;
        let truth: HashSet<NodeId> = top_k_scores(&exact, &exclude, K)
            .into_iter()
            .map(|(node, _)| node)
            .collect();
        let served = handle.serve(CHECK_IDS + (1 << 20) + i as u64, &ppr_query(*seed));
        let Answer::Ranked(rows) = served.answer else {
            continue;
        };
        wanted += truth.len();
        hits += rows.iter().filter(|(node, _)| truth.contains(node)).count();
    }
    let precision = hits as f64 / wanted.max(1) as f64;
    m.layer.insert("quality.topk_precision_at_10", precision);
    m.attempt(precision >= MIN_PRECISION_AT_10, || {
        format!("precision@10 {precision:.3} below the floor {MIN_PRECISION_AT_10}")
    });
}
