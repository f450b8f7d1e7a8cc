//! Differential harness: the sharded parallel engines are observationally identical to
//! the sequential single-shard engines.
//!
//! The contract under test is the strongest one the sharded reroute pipeline makes:
//! replaying the *same seeded stream* of arrivals (and deletions) through
//! `IncrementalPageRank`/`IncrementalSalsa` over the flat `WalkStore` and over a
//! `ShardedWalkStore` at any `(shard count, thread count)` produces **byte-identical**
//! scores, `total_visits`, per-node visit counts, visit postings, and stored segment
//! paths at every checkpoint.  Every future scaling PR inherits this harness as its
//! correctness oracle: any scheduling-dependent RNG draw, racy postings update, or
//! shard-routing inconsistency shows up as a diff here.
//!
//! Thread counts honour `PPR_TEST_THREADS` (CI runs the matrix with `1` and `4`);
//! without it both are exercised.

use fast_ppr::prelude::*;
use ppr_core::RerouteStrategy;
use ppr_graph::generators::{preferential_attachment_edges, PreferentialAttachmentConfig};
use ppr_graph::stream::random_permutation;
use ppr_graph::Edge;
use ppr_store::StoreDigest;

/// Thread counts to exercise: `PPR_TEST_THREADS` pins one (the CI matrix), default
/// covers the sequential and the parallel scheduling paths.
fn thread_counts() -> Vec<usize> {
    match std::env::var("PPR_TEST_THREADS") {
        Ok(v) => vec![v
            .trim()
            .parse()
            .expect("PPR_TEST_THREADS must be a positive integer")],
        Err(_) => vec![1, 4],
    }
}

/// Asserts two PageRank Stores hold byte-identical contents: counters, postings, and
/// every stored segment path.
fn assert_stores_identical<A: WalkIndex, B: WalkIndex>(a: &A, b: &B, context: &str) {
    assert_eq!(a.node_count(), b.node_count(), "{context}: node counts");
    assert_eq!(a.r(), b.r(), "{context}: segments per node");
    assert_eq!(
        a.total_visits(),
        b.total_visits(),
        "{context}: total_visits"
    );
    assert_eq!(
        a.visit_counts(),
        b.visit_counts(),
        "{context}: visit counts"
    );
    for g in 0..a.node_count() {
        let node = NodeId::from_index(g);
        let pa: Vec<_> = a.segments_visiting(node).collect();
        let pb: Vec<_> = b.segments_visiting(node).collect();
        assert_eq!(pa, pb, "{context}: postings of node {g}");
        for id in a.segment_ids_of(node) {
            assert_eq!(
                a.segment_path(id),
                b.segment_path(id),
                "{context}: path of segment {id:?}"
            );
        }
    }
}

/// The arrival/deletion schedule every differential test replays: preferential
/// attachment arrivals in mixed-size batches with interleaved deletions.
fn schedule(seed: u64) -> (Vec<Vec<Edge>>, Vec<Edge>) {
    let pa = PreferentialAttachmentConfig::new(150, 4, seed);
    let edges = random_permutation(&preferential_attachment_edges(&pa), seed ^ 0xfeed);
    let mut batches = Vec::new();
    let mut start = 0usize;
    // Mixed batch sizes: singletons, small bursts, one large burst.
    for &len in [1usize, 7, 64, 3, 128, 1, 33].iter().cycle() {
        if start >= edges.len() {
            break;
        }
        let end = (start + len).min(edges.len());
        batches.push(edges[start..end].to_vec());
        start = end;
    }
    let deletions: Vec<Edge> = edges.iter().copied().step_by(9).take(40).collect();
    (batches, deletions)
}

#[test]
fn sharded_pagerank_is_byte_identical_to_single_shard_at_every_checkpoint() {
    let (batches, deletions) = schedule(401);
    for threads in thread_counts() {
        for shards in [2usize, 4, 7] {
            let config = MonteCarloConfig::new(0.2, 4).with_seed(403);
            let mut flat = IncrementalPageRank::new_empty(150, config);
            let mut sharded = IncrementalPageRank::from_graph_sharded(
                DynamicGraph::with_nodes(150),
                config,
                shards,
                threads,
            );
            assert_stores_identical(
                flat.walk_store(),
                sharded.walk_store(),
                &format!("initialization, {shards} shards, {threads} threads"),
            );
            for (bi, batch) in batches.iter().enumerate() {
                let sa = flat.apply_arrivals(batch);
                let sb = sharded.apply_arrivals(batch);
                assert_eq!(
                    sa, sb,
                    "batch {bi} stats, {shards} shards, {threads} threads"
                );
                if bi % 3 == 0 {
                    let context = format!("batch {bi}, {shards} shards, {threads} threads");
                    assert_stores_identical(flat.walk_store(), sharded.walk_store(), &context);
                    assert_eq!(flat.scores(), sharded.scores(), "{context}: scores");
                }
            }
            for (di, &edge) in deletions.iter().enumerate() {
                let ra = flat.remove_edge(edge);
                let rb = sharded.remove_edge(edge);
                assert_eq!(ra, rb, "deletion {di} stats");
            }
            let context = format!("final state, {shards} shards, {threads} threads");
            assert_stores_identical(flat.walk_store(), sharded.walk_store(), &context);
            assert_eq!(flat.scores(), sharded.scores(), "{context}: scores");
            assert_eq!(flat.work(), sharded.work(), "{context}: work counters");
            flat.validate_segments().expect("flat segments stay valid");
            sharded
                .validate_segments()
                .expect("sharded segments stay valid");
        }
    }
}

#[test]
fn sharded_pagerank_is_invariant_across_shard_counts_and_mid_stream_thread_changes() {
    // Not only does each sharded engine match the flat one — all sharded engines match
    // each other, and retuning the thread budget mid-stream changes nothing.
    let (batches, _) = schedule(409);
    let config = MonteCarloConfig::new(0.25, 3).with_seed(411);
    let threads = *thread_counts().last().unwrap();
    let mut engines: Vec<_> = [1usize, 2, 4, 8]
        .iter()
        .map(|&s| {
            IncrementalPageRank::from_graph_sharded(
                DynamicGraph::with_nodes(150),
                config,
                s,
                threads,
            )
        })
        .collect();
    for (bi, batch) in batches.iter().enumerate() {
        for (ei, engine) in engines.iter_mut().enumerate() {
            engine.apply_arrivals(batch);
            if bi % 2 == ei % 2 {
                engine.set_threads(1 + (bi + ei) % 4);
            }
        }
    }
    let reference = engines[0].scores();
    for engine in &engines[1..] {
        assert_eq!(
            engine.scores(),
            reference,
            "scores diverge across shard counts"
        );
        assert_stores_identical(
            engines[0].walk_store(),
            engine.walk_store(),
            "cross-shard-count comparison",
        );
    }
}

#[test]
fn sharded_salsa_is_byte_identical_to_single_shard() {
    let (batches, deletions) = schedule(419);
    for threads in thread_counts() {
        let config = MonteCarloConfig::new(0.2, 3).with_seed(421);
        let mut flat = IncrementalSalsa::new_empty(150, config);
        let mut sharded =
            IncrementalSalsa::from_graph_sharded(DynamicGraph::with_nodes(150), config, 4, threads);
        for (bi, batch) in batches.iter().enumerate() {
            let sa = flat.apply_arrivals(batch);
            let sb = sharded.apply_arrivals(batch);
            assert_eq!(sa, sb, "batch {bi} stats ({threads} threads)");
        }
        // Deletions go through the same batched pipeline: multi-edge batches (one
        // naming an absent edge twice over), then singletons — where `remove_edge`
        // on one layout must equal a batch of one on the other.
        let (batched, single) = deletions.split_at(28);
        for (di, batch) in batched.chunks(7).enumerate() {
            let mut batch = batch.to_vec();
            batch.push(batched[0]);
            let sa = flat.apply_deletions(&batch);
            let sb = sharded.apply_deletions(&batch);
            assert_eq!(sa, sb, "deletion batch {di} stats ({threads} threads)");
            assert_stores_identical(
                flat.walk_store(),
                sharded.walk_store(),
                &format!("salsa deletion batch {di} ({threads} threads)"),
            );
        }
        for &edge in single {
            assert_eq!(
                flat.remove_edge(edge),
                Some(sharded.apply_deletions(&[edge])),
                "remove_edge is a batch of one"
            );
        }
        assert_stores_identical(
            flat.walk_store(),
            sharded.walk_store(),
            &format!("salsa final state ({threads} threads)"),
        );
        assert_eq!(flat.work(), sharded.work(), "work counters diverge");
        let ea = flat.estimates();
        let eb = sharded.estimates();
        assert_eq!(ea.hubs, eb.hubs, "hub scores diverge");
        assert_eq!(ea.authorities, eb.authorities, "authority scores diverge");
        flat.validate_segments().unwrap();
        sharded.validate_segments().unwrap();
    }
}

#[test]
fn single_edge_and_batched_replay_agree_through_the_sharded_engine() {
    // add_edge is a batch of one on both layouts; replaying singletons through the
    // sharded engine matches the flat engine edge for edge.
    let pa = PreferentialAttachmentConfig::new(100, 4, 431);
    let edges = preferential_attachment_edges(&pa);
    let config = MonteCarloConfig::new(0.2, 3).with_seed(433);
    let threads = *thread_counts().first().unwrap();
    let mut flat = IncrementalPageRank::new_empty(100, config);
    let mut sharded =
        IncrementalPageRank::from_graph_sharded(DynamicGraph::with_nodes(100), config, 4, threads);
    for (i, &edge) in edges.iter().enumerate() {
        let sa = flat.add_edge(edge);
        let sb = sharded.add_edge(edge);
        assert_eq!(sa, sb, "edge {i}");
    }
    assert_eq!(flat.scores(), sharded.scores());
    assert_stores_identical(flat.walk_store(), sharded.walk_store(), "per-edge replay");
}

#[test]
fn shard_loads_cover_all_rewrite_work_and_social_store_agrees_on_placement() {
    let (batches, _) = schedule(439);
    let config = MonteCarloConfig::new(0.2, 4).with_seed(443);
    let threads = *thread_counts().last().unwrap();
    let mut engine =
        IncrementalPageRank::from_graph_sharded(DynamicGraph::with_nodes(150), config, 4, threads);
    engine.walk_store();
    for batch in &batches {
        engine.apply_arrivals(batch);
    }
    // Every node is placed identically by the two stores (the shared routing helper).
    for g in 0..engine.node_count() {
        let node = NodeId::from_index(g);
        assert_eq!(
            engine.social_store().shard_of(node),
            engine.walk_store().shard_of(node)
        );
    }
    // The per-shard load counters account for every rewrite the engine performed:
    // initialization wrote n * R segments, and each arrival repair rewrote one more.
    let loads = engine.walk_store().shard_loads();
    let rewrites: u64 = loads.iter().map(|l| l.segments_rewritten).sum();
    let expected =
        engine.node_count() as u64 * engine.config().r as u64 + engine.work().segments_updated;
    assert_eq!(
        rewrites, expected,
        "per-shard loads must cover all rewrites"
    );
    // Modulo placement spreads the postings-update load: no shard is silent.
    assert!(
        loads.iter().all(|l| l.postings_updates > 0),
        "every shard should own part of the postings load: {loads:?}"
    );
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
    const PINNED: [(u64, u64); 4] = [
        (920, 2357357892586109657),
        (2526, 8605347573499262585),
        (343, 450252412985468504),
        (1134, 5352309793781967337),
    ];
    let script = pinned_arrival_script();
    let mut observed = Vec::new();
    for reroute in [
        RerouteStrategy::FromUpdatePoint,
        RerouteStrategy::FromSource,
    ] {
        let config = MonteCarloConfig::new(0.2, 3)
            .with_seed(463)
            .with_reroute(reroute);
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
        for digest in [
            StoreDigest::of(pagerank.walk_store()),
            StoreDigest::of(salsa.walk_store()),
        ] {
            observed.push((digest.total_visits, digest.fingerprint));
        }
    }
    assert_eq!(
        observed, PINNED,
        "order: PageRank, SALSA under FromUpdatePoint; then under FromSource"
    );
}
