//! `ppr-serve`: snapshot-isolated concurrent query serving for fast-ppr.
//!
//! The whole point of the paper's PageRank Store (Theorem 8 / Corollary 9) is cheap
//! *query serving* — stitched personalized walks answered from cached segments with
//! a handful of fetches.  This crate turns the workspace's engines into an actual
//! serving system shaped like modern storage engines: **writers commit generations,
//! readers pin a generation and proceed lock-free.**
//!
//! * [`QueryEngine`] owns one incremental engine (PageRank or SALSA, any store
//!   layout, in-memory or durable) behind a single-writer/many-readers generation
//!   handle.  Each committed batch publishes the next [`Generation`]: an immutable,
//!   epoch-stamped `FrozenWalks` + `FrozenGraph` pair advanced by copy-on-write from
//!   the engine's own reconciled rewrite plan — commit cost tracks what the batch
//!   touched, not the store size.
//! * [`ServeHandle`] / [`PinnedView`] are the reader side: pinning is one `Arc`
//!   clone, and from then on a query never takes a lock — not per step, not per
//!   score.  A reader overlapping a write batch simply keeps serving from its
//!   pinned generation; there are no torn reads by construction.
//! * Queries — personalized top-k (with Corollary 9 fetch budgets, fetching
//!   adjacency straight from the pinned `FrozenGraph`), global rank, SALSA
//!   hub/authority — draw from
//!   `(query_seed, query_id)` split RNG streams, so every answer is a pure function
//!   of `(generation, query_seed, query_id)`: bit-identical at any reader-thread
//!   count and any read/write interleaving.  `tests/concurrent_serving.rs` is the
//!   differential harness holding the crate to that contract.
//! * [`ReaderPool`] is a small fixed thread pool for fanning query batches out; the
//!   `query_serving` bench pins QPS scaling at 1/2/4/8 readers with and without a
//!   concurrent writer.
//! * [`QueryBatch`] is the batched execution path: one generation pin per batch,
//!   pooled per-query scratch, and per-query deadline budgets over an injectable
//!   clock — amortized cost, bit-identical answers (see [`batch`]).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![forbid(unsafe_code)]

pub mod batch;
pub mod engine;
pub mod generation;
pub mod pool;
pub mod telem;

pub use batch::{DeadlineBudget, QueryBatch};
pub use engine::{CommitStats, QueryEngine, ServeEngine, ServeHandle, WriteOp};
pub use generation::{Answer, EngineKind, Generation, PinnedView, Query, Served};
pub use pool::ReaderPool;

#[cfg(test)]
mod tests {
    use super::*;
    use ppr_core::{IncrementalPageRank, IncrementalSalsa, MonteCarloConfig};
    use ppr_graph::generators::{preferential_attachment_edges, PreferentialAttachmentConfig};
    use ppr_graph::{DynamicGraph, Edge, GraphView, NodeId};
    use ppr_store::{FrozenWalks, WalkIndexView};
    use std::sync::Arc;

    fn edges(n: usize, seed: u64) -> Vec<Edge> {
        preferential_attachment_edges(&PreferentialAttachmentConfig::new(n, 4, seed))
    }

    fn assert_walks_equal<W: WalkIndexView>(mirror: &FrozenWalks, store: &W, context: &str) {
        assert_eq!(mirror.node_count(), store.node_count(), "{context}: nodes");
        assert_eq!(
            mirror.total_visits(),
            store.total_visits(),
            "{context}: total visits"
        );
        assert_eq!(
            mirror.visit_counts(),
            store.visit_counts(),
            "{context}: counts"
        );
        for g in 0..store.node_count() {
            for id in store.segment_ids_of(NodeId::from_index(g)) {
                assert_eq!(
                    mirror.segment_path(id),
                    store.segment_path(id),
                    "{context}: segment {id:?}"
                );
            }
        }
    }

    /// Every out- and in-list of a graph, in node order, entries in list order.
    fn lists<G: GraphView>(graph: &G) -> Vec<(Vec<NodeId>, Vec<NodeId>)> {
        let both = |v| {
            (
                graph.out_neighbors(v).to_vec(),
                graph.in_neighbors(v).to_vec(),
            )
        };
        graph.nodes().map(both).collect()
    }

    /// Commits `batch` and applies it, edge by edge, to `reference`: a
    /// `DynamicGraph` the published graphs are held to, list order included.
    fn commit<E: ServeEngine>(
        serving: &mut QueryEngine<E>,
        reference: &mut DynamicGraph,
        arrivals: bool,
        batch: &[Edge],
    ) {
        if arrivals {
            serving.commit_arrivals(batch);
            batch.iter().for_each(|&e| reference.add_edge_growing(e));
        } else {
            serving.commit_deletions(batch);
            batch.iter().for_each(|&e| {
                reference.remove_edge(e);
            });
        }
    }

    #[test]
    fn published_generations_track_the_live_engine_exactly() {
        let stream = edges(120, 901);
        let config = MonteCarloConfig::new(0.2, 3).with_seed(903);
        let engine = IncrementalPageRank::new_empty(120, config);
        let mut serving = QueryEngine::new(engine, 1);
        for (i, chunk) in stream.chunks(50).enumerate() {
            serving.commit_arrivals(chunk);
            if i % 2 == 0 {
                let victims: Vec<Edge> = chunk.iter().copied().step_by(9).collect();
                serving.commit_deletions(&victims);
            }
            let view = serving.pin();
            assert_eq!(view.epoch(), serving.epoch());
            assert_walks_equal(
                view.walks(),
                serving.engine().walk_store(),
                &format!("epoch {}", view.epoch()),
            );
            // The graph mirror matches the live adjacency, order included.
            for node in serving.engine().graph().nodes() {
                assert_eq!(
                    view.graph().out_neighbors(node),
                    serving.engine().graph().out_neighbors(node),
                    "out-adjacency of {node}"
                );
                assert_eq!(
                    view.graph().in_neighbors(node),
                    serving.engine().graph().in_neighbors(node),
                    "in-adjacency of {node}"
                );
            }
        }
    }

    #[test]
    fn salsa_generations_mirror_arrivals_and_per_edge_deletions() {
        let stream = edges(80, 911);
        let config = MonteCarloConfig::new(0.2, 3).with_seed(913);
        let engine = IncrementalSalsa::new_empty(80, config);
        let mut serving = QueryEngine::new(engine, 3);
        for chunk in stream.chunks(40) {
            serving.commit_arrivals(chunk);
        }
        let victims: Vec<Edge> = stream.iter().copied().step_by(7).take(12).collect();
        serving.commit_deletions(&victims);
        assert_walks_equal(
            serving.pin().walks(),
            serving.engine().walk_store(),
            "salsa final",
        );

        // Hub/authority answers equal the engine's own estimates.
        let view = serving.pin();
        let served = view.answer(3, 0, &Query::HubAuthorityTopK { k: 5 });
        let estimates = serving.engine().estimates();
        match served.answer {
            Answer::HubsAuthorities { hubs, authorities } => {
                let top_auth = ppr_core::salsa::top_k_scores(
                    &estimates.authorities,
                    &std::collections::HashSet::new(),
                    5,
                );
                assert_eq!(authorities, top_auth);
                assert_eq!(hubs.len(), 5);
            }
            other => panic!("expected hub/authority lists, got {other:?}"),
        }
    }

    #[test]
    fn served_personalized_top_k_matches_the_engine_query() {
        // The serving path (frozen views, pooled scratch) answers the engine's
        // own personalized query bit-identically: same (query_seed = engine seed,
        // query_id = seed node) stream, same generation.
        let stream = edges(150, 917);
        let config = MonteCarloConfig::new(0.2, 4).with_seed(919);
        let mut engine = IncrementalPageRank::new_empty(150, config);
        engine.apply_arrivals(&stream);
        let expected = engine.personalized_top_k(NodeId(7), 5, 2_000);
        let serving = QueryEngine::new(engine, config.seed);
        let served = serving.handle().serve(
            7,
            &Query::PersonalizedTopK {
                seed: NodeId(7),
                k: 5,
                walk_length: 2_000,
                fetch_budget: None,
            },
        );
        assert_eq!(served.answer, Answer::Ranked(expected));
        assert!(served.fetches > 0);
        assert!(!served.budget_exhausted);
    }

    #[test]
    fn global_rank_orders_by_normalised_visit_counts() {
        let stream = edges(60, 921);
        let config = MonteCarloConfig::new(0.2, 3).with_seed(923);
        let mut engine = IncrementalPageRank::new_empty(60, config);
        engine.apply_arrivals(&stream);
        let scores = engine.scores();
        let serving = QueryEngine::new(engine, 5);
        let served = serving.handle().serve(0, &Query::GlobalTopK { k: 3 });
        let Answer::Ranked(top) = served.answer else {
            panic!("expected a ranked list");
        };
        assert_eq!(top.len(), 3);
        for pair in top.windows(2) {
            assert!(pair[0].1 >= pair[1].1);
        }
        for &(node, score) in &top {
            assert!((score - scores[node.index()]).abs() < 1e-12);
        }
    }

    #[test]
    fn pinned_readers_survive_later_commits() {
        let stream = edges(100, 927);
        let config = MonteCarloConfig::new(0.2, 3).with_seed(929);
        let engine = IncrementalPageRank::new_empty(100, config);
        let mut serving = QueryEngine::new(engine, 7);
        let mut reference = DynamicGraph::with_nodes(100);
        let (head, tail) = stream.split_at(300);
        commit(&mut serving, &mut reference, true, head);
        let pinned = serving.pin();
        let pinned_lists = lists(&reference);
        let query = Query::PersonalizedTopK {
            seed: NodeId(2),
            k: 4,
            walk_length: 1_500,
            fetch_budget: None,
        };
        let before = pinned.answer(7, 11, &query);
        // Keep writing: the pinned generation must not change under the reader,
        // through arrivals and through deletions, absent edges among them.
        let mut victims: Vec<Edge> = stream.iter().copied().step_by(5).collect();
        victims.extend((0..20).map(|u| Edge::new(u, 99 - u)));
        for (arrivals, batch) in [
            (true, &tail[..32]),
            (true, &tail[32..48]),
            (false, &victims),
        ] {
            commit(&mut serving, &mut reference, arrivals, batch);
            assert_eq!(lists(pinned.graph()), pinned_lists, "first pin");
        }
        // A commit while a second reader pins a later generation leaves both alone.
        let (second, second_lists) = (serving.pin(), lists(&reference));
        commit(&mut serving, &mut reference, true, &tail[48..72]);
        assert_eq!(lists(pinned.graph()), pinned_lists, "first pin, two held");
        assert_eq!(lists(second.graph()), second_lists, "second pin, two held");
        assert_eq!(
            before,
            pinned.answer(7, 11, &query),
            "a pinned generation is immutable"
        );
        assert!(serving.pin().epoch() > pinned.epoch());
        // With every reader gone the superseded generations are reclaimed; the
        // generation the next commit publishes is exact, and later commits leave
        // it alone too.
        drop((pinned, second));
        commit(&mut serving, &mut reference, true, &tail[72..]);
        let third = serving.pin();
        let third_lists = lists(&reference);
        assert_eq!(lists(third.graph()), third_lists, "after every pin dropped");
        commit(&mut serving, &mut reference, false, &tail[72..80]);
        assert_eq!(lists(third.graph()), third_lists, "third pin");
        assert_eq!(lists(serving.pin().graph()), lists(&reference), "live");
    }

    #[test]
    #[should_panic(expected = "need a PageRank generation")]
    fn personalized_queries_reject_salsa_generations() {
        let engine = IncrementalSalsa::new_empty(10, MonteCarloConfig::new(0.2, 2).with_seed(1));
        let serving = QueryEngine::new(engine, 0);
        let _ = serving.handle().serve(
            0,
            &Query::PersonalizedTopK {
                seed: NodeId(0),
                k: 3,
                walk_length: 100,
                fetch_budget: None,
            },
        );
    }

    #[test]
    #[should_panic(expected = "need a SALSA generation")]
    fn salsa_queries_reject_pagerank_generations() {
        let engine = IncrementalPageRank::new_empty(10, MonteCarloConfig::new(0.2, 2).with_seed(1));
        let serving = QueryEngine::new(engine, 0);
        let _ = serving.handle().serve(0, &Query::HubAuthorityTopK { k: 3 });
    }

    #[test]
    fn a_one_edge_commit_copies_o1_leaf_chunks() {
        // The two-level spine regression guard: on a store hundreds of chunks wide,
        // publishing a 1-edge batch re-copies only the chunks the batch touched
        // (plus the spine blocks above them), never a constant fraction of the
        // store.
        let stream = edges(4_096, 947);
        let config = MonteCarloConfig::new(0.2, 3).with_seed(949);
        let mut engine = IncrementalPageRank::new_empty(4_096, config);
        engine.apply_arrivals(&stream);
        let total_chunks = engine.walk_store().node_count() * config.r / 32;
        assert!(total_chunks >= 256, "store too small to prove anything");

        let mut serving = QueryEngine::new(engine, 13);
        let one = [Edge::new(4_000, 17)];
        let update = serving.commit_arrivals(&one);
        let stats = serving.commit_stats();
        let leaf_copies = stats.walk_chunks_copied + stats.count_chunks_copied;
        // Each rewritten segment lives in one walk chunk and credits visit counts
        // along one path; the copy bill must track the rewrite count, not the store.
        assert!(
            leaf_copies <= 4 * update.segments_updated + 8,
            "a 1-edge batch copied {leaf_copies} leaf chunks for \
             {} rewritten segments (store has {total_chunks} walk chunks)",
            update.segments_updated
        );
        assert!(
            (leaf_copies as usize) < total_chunks / 4,
            "copy bill {leaf_copies} is not O(touched) against {total_chunks} chunks"
        );
        assert!(
            stats.spine_blocks_copied <= leaf_copies + stats.graph_chunks_copied + 6,
            "spine overhead {} exceeds one block per touched chunk family",
            stats.spine_blocks_copied
        );
        assert!(stats.graph_chunks_copied <= 2, "one edge touches two nodes");
    }

    // Span/counter contents only exist when recording is compiled in; the
    // bit-identity half is re-proven feature-independently by the scenario
    // corpus determinism test.
    #[cfg(feature = "telemetry")]
    #[test]
    fn telemetry_traces_commit_and_query_lifecycles_without_changing_answers() {
        let stream = edges(90, 951);
        let config = MonteCarloConfig::new(0.2, 3).with_seed(953);
        let query = Query::PersonalizedTopK {
            seed: NodeId(4),
            k: 4,
            walk_length: 1_200,
            fetch_budget: Some(64),
        };

        // Plain session: no telemetry attached.
        let mut plain = QueryEngine::new(IncrementalPageRank::new_empty(90, config), 21);
        for chunk in stream.chunks(30) {
            plain.commit_arrivals(chunk);
        }
        let expected = plain.handle().serve(5, &query);
        assert!(plain.telemetry_snapshot().is_none(), "nothing attached yet");

        // Traced session: identical stream and seeds, telemetry attached.
        let tele = ppr_telemetry::Telemetry::new();
        let mut traced =
            QueryEngine::new(IncrementalPageRank::new_empty(90, config), 21).with_telemetry(&tele);
        for chunk in stream.chunks(30) {
            traced.commit_arrivals(chunk);
        }
        let served = traced.handle().serve(5, &query);
        assert_eq!(served, expected, "tracing never changes an answer's bits");

        let snap = traced.telemetry_snapshot().expect("registry attached");
        // Commit lifecycle: one apply/mirror/publish sample per commit.
        let commits = snap.counter("commit.commits").expect("commit counters");
        assert_eq!(commits, traced.epoch());
        for stage in ["commit.apply", "commit.mirror", "commit.publish"] {
            let hist = snap.histogram(stage).expect(stage);
            assert_eq!(hist.count, commits, "{stage} samples one span per commit");
        }
        // In-memory engine: the WAL sync stage never runs.
        assert_eq!(snap.histogram("commit.wal_sync").expect("present").count, 0);
        // Query lifecycle: pin → walk → topk under one latency span, with
        // fetch accounting.
        assert_eq!(snap.counter("query.served"), Some(1));
        for stage in ["query.pin", "query.walk", "query.topk", "query.latency"] {
            assert_eq!(snap.histogram(stage).expect(stage).count, 1, "{stage}");
        }
        assert_eq!(
            snap.histogram("query.fetches").expect("fetches").sum,
            served.fetches
        );
        // One snapshot sees the engine layers and the serving layer together.
        assert!(snap.counter("store.fetches").is_some());
        assert!(snap.counter("arena.in_place_writes").is_some());
        assert_eq!(snap.gauge("serve.epoch"), Some(traced.epoch() as f64));
    }

    #[test]
    fn batched_serving_is_bit_identical_to_sequential() {
        // The tentpole invariant at the unit level: one pin + shared stitch
        // state + pooled scratch never changes an answer.  (The integration
        // harness re-proves this across store layouts and thread counts.)
        let stream = edges(120, 961);
        let config = MonteCarloConfig::new(0.2, 4).with_seed(963);
        let mut engine = IncrementalPageRank::new_empty(120, config);
        engine.apply_arrivals(&stream);
        let serving = QueryEngine::new(engine, 17);
        let handle = serving.handle();
        let jobs: Vec<(u64, Query)> = (0..32u64)
            .map(|qid| {
                (
                    qid,
                    Query::PersonalizedTopK {
                        // Duplicate seeds on purpose: queries sharing a seed
                        // and a pooled scratch must not perturb any walk.
                        seed: NodeId((qid % 7) as u32),
                        k: 4,
                        walk_length: 900,
                        fetch_budget: Some(150),
                    },
                )
            })
            .collect();
        let sequential: Vec<Served> = jobs.iter().map(|(qid, q)| handle.serve(*qid, q)).collect();
        let batch = QueryBatch::of(&jobs);
        // Same-thread batch path, twice: the second pass reuses pooled scratch.
        for pass in 0..2 {
            assert_eq!(handle.serve_batch(&batch), sequential, "pass {pass}");
        }
        // Fanned across a pool, at widths that exercise lane remainders.
        let pool = ReaderPool::new(3);
        assert_eq!(pool.serve_batch(&handle, &batch), sequential);
        // Mixed query kinds in one batch share the same context safely.
        let mut mixed = QueryBatch::new();
        mixed.push(100, Query::GlobalTopK { k: 5 });
        mixed.push(101, jobs[3].1.clone());
        mixed.push(102, Query::GlobalTopK { k: 2 });
        let mixed_seq: Vec<Served> = mixed
            .jobs
            .iter()
            .map(|(qid, q)| handle.serve(*qid, q))
            .collect();
        assert_eq!(handle.serve_batch(&mixed), mixed_seq);
        assert_eq!(pool.serve_batch(&handle, &mixed), mixed_seq);
        // Degenerate batches hold the shape.
        assert!(handle.serve_batch(&QueryBatch::new()).is_empty());
        assert!(pool.serve_batch(&handle, &QueryBatch::new()).is_empty());
    }

    #[test]
    fn pooled_scratch_returns_to_the_pool_after_every_lane() {
        let stream = edges(120, 981);
        let config = MonteCarloConfig::new(0.2, 3).with_seed(983);
        let mut engine = IncrementalPageRank::new_empty(120, config);
        engine.apply_arrivals(&stream);
        let serving = QueryEngine::new(engine, 29);
        let query = |seed: u32| Query::PersonalizedTopK {
            seed: NodeId(seed),
            k: 4,
            walk_length: 900,
            fetch_budget: None,
        };
        let handle = serving.handle();
        let pool = ReaderPool::new(2);
        let jobs: Vec<(u64, Query)> = (0..8).map(|qid| (qid, query(qid as u32 % 5))).collect();
        assert!(handle.serve_batch(&QueryBatch::of(&jobs))[0].fetches > 0);
        pool.serve_batch(&handle, &QueryBatch::of(&jobs));
        handle.serve(9, &query(3));
        // Every lane above handed its scratch back: the single-thread lanes
        // reused one, the two-lane fan-out added a second, nothing else was made.
        let idle: Vec<_> = (0..3).map(|_| handle.scratch_pool().take()).collect();
        assert_eq!(
            idle.iter()
                .filter(|ctx| ctx.result.total_visits > 0)
                .count(),
            2,
            "the lanes above ran through pooled scratch"
        );
        idle.into_iter()
            .for_each(|ctx| handle.scratch_pool().put(ctx));
    }

    #[test]
    fn personalized_query_cost_is_independent_of_the_node_count() {
        // The same 200-query script against a 2k-node and a 64k-node graph, one
        // handle each (so one pooled context each).  Counted, not timed: what a
        // query resets and examines is its own distinct visited nodes — never a
        // function of n — and the context it leaves behind is sized by the walk.
        const WALK: usize = 2_000;
        const QUERIES: u64 = 200;
        let mut heaps = Vec::new();
        for n in [2_000usize, 64_000] {
            // Preferential attachment only points at older nodes; one extra
            // out-edge per node to anywhere lets a walk from an old seed roam
            // the whole graph, so the two sizes really are different walks.
            let mut links = edges(n, 1201);
            links.extend((0..n as u32).map(|i| Edge::new(i, (i * 7919 + 13) % n as u32)));
            let graph = DynamicGraph::from_edges(&links, n);
            let config = MonteCarloConfig::new(0.2, 2).with_seed(1203);
            let serving = QueryEngine::new(IncrementalPageRank::from_graph(&graph, config), 23);
            let handle = serving.handle();
            let (mut visits, mut distinct, mut last_distinct) = (0u64, 0u64, 0u64);
            for qid in 0..QUERIES {
                let query = Query::PersonalizedTopK {
                    seed: NodeId((qid * 37 % 2_000) as u32),
                    k: 10,
                    walk_length: WALK,
                    fetch_budget: None,
                };
                handle.serve(qid, &query);
                let ctx = handle.scratch_pool().take();
                assert!(ctx.result.total_visits >= WALK as u64);
                visits += ctx.result.total_visits;
                last_distinct = ctx.result.counts().count() as u64;
                distinct += last_distinct;
                handle.scratch_pool().put(ctx);
            }
            let ctx = handle.scratch_pool().take();
            // Exactly the visited nodes are examined, exactly the previous
            // query's are reset: O(walk) each, at either size.
            assert_eq!(ctx.topk.examined(), distinct, "n = {n}");
            assert_eq!(
                ctx.result.slots_reset(),
                distinct - last_distinct,
                "n = {n}"
            );
            assert!(
                ctx.result.slots_reset() + ctx.topk.examined() <= visits + QUERIES,
                "n = {n}: {distinct} distinct nodes over {visits} visits"
            );
            heaps.push(ctx.heap_bytes());
        }
        // A dense per-context visit array alone would be n × 8 B = 512 KB at 64k
        // nodes; the whole context (out-degrees here are ≤ 5, so the fetched
        // adjacency copies are O(walk) too) stays within a constant × the walk
        // length.
        for (heap, n) in heaps.iter().zip([2_000, 64_000]) {
            assert!(
                *heap <= 32 * WALK,
                "n = {n}: context holds {heap} B for {WALK}-visit walks"
            );
        }
    }

    #[test]
    fn deadline_budgets_cut_walks_deterministically_under_a_manual_clock() {
        use ppr_telemetry::ManualClock;
        let stream = edges(100, 971);
        let config = MonteCarloConfig::new(0.2, 3).with_seed(973);
        let mut engine = IncrementalPageRank::new_empty(100, config);
        engine.apply_arrivals(&stream);
        let serving = QueryEngine::new(engine, 19);
        let handle = serving.handle();
        let jobs: Vec<(u64, Query)> = (0..6u64)
            .map(|qid| {
                (
                    qid,
                    Query::PersonalizedTopK {
                        seed: NodeId(qid as u32),
                        k: 3,
                        walk_length: 800,
                        fetch_budget: None,
                    },
                )
            })
            .collect();
        let unbudgeted = handle.serve_batch(&QueryBatch::of(&jobs));

        // A frozen clock with a non-zero budget never expires: bit-identical.
        let frozen = Arc::new(ManualClock::new());
        let roomy = QueryBatch::of(&jobs).with_deadline(Arc::clone(&frozen) as _, 1);
        assert_eq!(handle.serve_batch(&roomy), unbudgeted);

        // Budget zero expires at the first fetch of every walk: partial answers,
        // the deadline flag set, the fetch-budget flag untouched — and the cut
        // is replayable bit-for-bit.
        let instant = QueryBatch::of(&jobs).with_deadline(Arc::clone(&frozen) as _, 0);
        let cut = handle.serve_batch(&instant);
        for served in &cut {
            assert!(served.deadline_exhausted, "query {}", served.query_id);
            assert!(!served.budget_exhausted);
            assert_eq!(served.fetches, 0, "expired before any fetch");
        }
        assert_eq!(handle.serve_batch(&instant), cut, "deterministic replay");
        let pool = ReaderPool::new(2);
        assert_eq!(pool.serve_batch(&handle, &instant), cut, "pool agrees");
    }

    #[cfg(feature = "telemetry")]
    #[test]
    fn batch_telemetry_counts_sizes_and_deadlines() {
        let stream = edges(90, 981);
        let config = MonteCarloConfig::new(0.2, 3).with_seed(983);
        let tele = ppr_telemetry::Telemetry::new();
        let mut serving =
            QueryEngine::new(IncrementalPageRank::new_empty(90, config), 23).with_telemetry(&tele);
        serving.commit_arrivals(&stream);
        let handle = serving.handle();
        // Eight walks from one seed in one batch.
        let jobs: Vec<(u64, Query)> = (0..8u64)
            .map(|qid| {
                (
                    qid,
                    Query::PersonalizedTopK {
                        seed: NodeId(1),
                        k: 3,
                        walk_length: 700,
                        fetch_budget: None,
                    },
                )
            })
            .collect();
        handle.serve_batch(&QueryBatch::of(&jobs));
        let snap = serving.telemetry_snapshot().expect("registry attached");
        let sizes = snap.histogram("query.batch_size").expect("batch sizes");
        assert_eq!(sizes.count, 1);
        assert_eq!(sizes.sum, 8);
        assert_eq!(snap.counter("query.deadline_exhausted"), Some(0));

        // An instantly-expiring deadline shows up on the exhaustion counter.
        let clock = Arc::new(ppr_telemetry::ManualClock::new());
        handle.serve_batch(&QueryBatch::of(&jobs[..2]).with_deadline(clock as _, 0));
        let snap = serving.telemetry_snapshot().expect("registry attached");
        assert_eq!(snap.counter("query.deadline_exhausted"), Some(2));
    }

    #[test]
    fn reader_pool_serves_batches_in_submission_order() {
        let stream = edges(80, 931);
        let config = MonteCarloConfig::new(0.2, 3).with_seed(933);
        let mut engine = IncrementalPageRank::new_empty(80, config);
        engine.apply_arrivals(&stream);
        let serving = QueryEngine::new(engine, 9);
        let jobs: Vec<(u64, Query)> = (0..24u64)
            .map(|qid| {
                (
                    qid,
                    Query::PersonalizedTopK {
                        seed: NodeId((qid % 13) as u32),
                        k: 3,
                        walk_length: 600,
                        fetch_budget: Some(200),
                    },
                )
            })
            .collect();
        let pool = ReaderPool::new(4);
        let served = pool.serve_all(&serving.handle(), &jobs);
        assert_eq!(served.len(), jobs.len());
        for (slot, s) in served.iter().enumerate() {
            assert_eq!(s.query_id, jobs[slot].0, "answers come back in order");
            // Single-threaded replay against the same generation is identical.
            let replay = serving.pin().answer(9, s.query_id, &jobs[slot].1);
            assert_eq!(*s, replay);
        }
    }
}
