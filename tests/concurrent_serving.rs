//! Differential harness for snapshot-isolated serving: N reader threads issue
//! queries while a writer commits arrival/deletion batches, and every observation
//! must be explainable by exactly one committed generation.
//!
//! This extends the PR 3/PR 4 differential discipline to the read path.  The oracle
//! has three prongs:
//!
//! 1. **Generation fidelity (no torn reads).**  Every generation the writer
//!    published is compared, byte for byte (segment paths, visit counters, both
//!    adjacency directions), against a from-scratch freeze of a reference engine
//!    that replayed exactly the first `epoch` batches single-threaded.  A reader
//!    pinning a generation therefore sees one committed state — never a mix of two
//!    batches, never a half-applied plan, never a chunk the writer mutated in
//!    place.
//! 2. **Replay equality.**  Every query answered *concurrently* with the write
//!    stream — whatever thread served it, whatever commit it overlapped — must
//!    equal the same `(query_seed, query_id)` query replayed against its pinned
//!    generation on a single thread after the fact.
//! 3. **Thread-count invariance.**  The same query batch served through reader
//!    pools of 1 and of `PPR_TEST_THREADS` (or 4) threads produces bit-identical
//!    answers.
//!
//! Together these are the acceptance contract: queries are `&self` on the hot path
//! and bit-identical for a fixed `(query_seed, query_id)` at any reader-thread
//! count and any read/write interleaving.

mod common;

use common::thread_counts;
use fast_ppr::prelude::*;
use fast_ppr::serve::{Answer, PinnedView, Query, QueryBatch, ServeEngine, Served, WriteOp};
use ppr_core::{WalkEngine, WalkKind};
use ppr_graph::generators::{preferential_attachment_edges, PreferentialAttachmentConfig};
use ppr_graph::stream::random_permutation;
use ppr_graph::Edge;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

const NODES: usize = 130;
const QUERY_SEED: u64 = 0xC0FFEE;

/// One write op of the committed schedule.
#[derive(Debug, Clone)]
enum Op {
    Arrive(Vec<Edge>),
    Delete(Vec<Edge>),
}

fn schedule(seed: u64) -> Vec<Op> {
    let pa = PreferentialAttachmentConfig::new(NODES, 4, seed);
    let edges = random_permutation(&preferential_attachment_edges(&pa), seed ^ 0xfeed);
    let mut ops = Vec::new();
    let mut start = 0usize;
    for &len in [9usize, 40, 1, 64, 17].iter().cycle() {
        if start >= edges.len() {
            break;
        }
        let end = (start + len).min(edges.len());
        ops.push(Op::Arrive(edges[start..end].to_vec()));
        if ops.len() % 3 == 0 {
            let victims: Vec<Edge> = edges[..end].iter().copied().step_by(11).take(6).collect();
            ops.push(Op::Delete(victims));
        }
        start = end;
    }
    ops
}

fn query_for(qid: u64) -> Query {
    match qid % 4 {
        0 => Query::PersonalizedTopK {
            seed: NodeId((qid % NODES as u64) as u32),
            k: 5,
            walk_length: 500,
            fetch_budget: None,
        },
        1 => Query::PersonalizedTopK {
            seed: NodeId(((qid * 7) % NODES as u64) as u32),
            k: 3,
            walk_length: 700,
            fetch_budget: Some(40),
        },
        2 => Query::GlobalTopK { k: 8 },
        _ => Query::PersonalizedTopK {
            seed: NodeId(((qid * 13) % NODES as u64) as u32),
            k: 10,
            walk_length: 300,
            fetch_budget: None,
        },
    }
}

/// Byte-compares one published generation against a freshly frozen reference state.
fn assert_generation_matches_reference<K: WalkKind>(
    view: &PinnedView,
    reference: &WalkEngine<K>,
    context: &str,
) {
    let ref_walks = FrozenWalks::from_index(reference.walk_store(), view.epoch());
    let walks = view.walks();
    assert_eq!(
        walks.node_count(),
        ref_walks.node_count(),
        "{context}: nodes"
    );
    assert_eq!(
        walks.total_visits(),
        ref_walks.total_visits(),
        "{context}: total visits"
    );
    assert_eq!(
        walks.visit_counts(),
        ref_walks.visit_counts(),
        "{context}: visit counts"
    );
    for g in 0..ref_walks.node_count() {
        let node = NodeId::from_index(g);
        for id in WalkIndexView::segment_ids_of(&ref_walks, node) {
            assert_eq!(
                walks.segment_path(id),
                ref_walks.segment_path(id),
                "{context}: segment {id:?}"
            );
        }
        assert_eq!(
            view.graph().out_neighbors(node),
            reference.graph().out_neighbors(node),
            "{context}: out-adjacency of {node}"
        );
        assert_eq!(
            view.graph().in_neighbors(node),
            reference.graph().in_neighbors(node),
            "{context}: in-adjacency of {node}"
        );
    }
}

#[test]
fn concurrent_queries_observe_exactly_one_committed_generation() {
    let ops = schedule(701);
    let config = MonteCarloConfig::new(0.2, 3).with_seed(703);

    for readers in thread_counts() {
        let engine = IncrementalPageRank::new_empty(NODES, config);
        let mut serving = QueryEngine::new(engine, QUERY_SEED);
        let handle = serving.handle();

        let done = AtomicBool::new(false);
        let next_query = AtomicU64::new(0);
        let recorded: Mutex<Vec<(Served, Query)>> = Mutex::new(Vec::new());

        // The writer commits the whole schedule, archiving every generation it
        // publishes; readers hammer the handle until the writer finishes.
        let (archived, _serving) = std::thread::scope(|scope| {
            let writer = scope.spawn(|| {
                let mut archived: Vec<PinnedView> = vec![serving.pin()];
                for op in &ops {
                    match op {
                        Op::Arrive(batch) => serving.commit_arrivals(batch),
                        Op::Delete(batch) => serving.commit_deletions(batch),
                    };
                    archived.push(serving.pin());
                }
                done.store(true, Ordering::Release);
                (archived, serving)
            });
            for _ in 0..readers {
                scope.spawn(|| {
                    // At least one query per reader, then run until the writer is
                    // done — so the harness never degenerates to zero observations.
                    loop {
                        let qid = next_query.fetch_add(1, Ordering::Relaxed);
                        let query = query_for(qid);
                        let served = handle.serve(qid, &query);
                        recorded.lock().unwrap().push((served, query));
                        if done.load(Ordering::Acquire) {
                            break;
                        }
                    }
                });
            }
            writer.join().expect("writer thread")
        });

        // Prong 1: every archived generation equals the single-threaded replay of
        // its epoch prefix — fresh freeze, no shared state with the serving stack.
        let mut reference = IncrementalPageRank::new_empty(NODES, config);
        for (epoch, view) in archived.iter().enumerate() {
            assert_eq!(view.epoch(), epoch as u64, "epochs are dense");
            if epoch > 0 {
                match &ops[epoch - 1] {
                    Op::Arrive(batch) => {
                        reference.apply_arrivals(batch);
                    }
                    Op::Delete(batch) => {
                        reference.apply_deletions(batch);
                    }
                }
            }
            assert_generation_matches_reference(
                view,
                &reference,
                &format!("epoch {epoch} ({readers} readers)"),
            );
        }

        // Prong 2: every concurrently served answer replays bit-identically
        // against its pinned generation, single-threaded.
        let recorded = recorded.into_inner().unwrap();
        assert!(
            !recorded.is_empty(),
            "readers must get queries in while the writer runs"
        );
        for (served, query) in &recorded {
            let view = &archived[served.epoch as usize];
            let replay = view.answer(QUERY_SEED, served.query_id, query);
            assert_eq!(
                *served, replay,
                "query {} served concurrently at epoch {} diverges from its \
                 single-threaded replay",
                served.query_id, served.epoch
            );
        }
    }
}

#[test]
fn reader_pool_width_never_changes_answers() {
    // Fix one generation, serve the same query batch through pools of different
    // widths: the answers must be bit-identical, position by position.
    let ops = schedule(709);
    let config = MonteCarloConfig::new(0.2, 3).with_seed(711);
    let engine = IncrementalPageRank::new_empty(NODES, config);
    let mut serving = QueryEngine::new(engine, QUERY_SEED);
    for op in &ops {
        match op {
            Op::Arrive(batch) => serving.commit_arrivals(batch),
            Op::Delete(batch) => serving.commit_deletions(batch),
        };
    }
    let jobs: Vec<(u64, Query)> = (0..40u64).map(|qid| (qid, query_for(qid))).collect();
    let handle = serving.handle();
    let single = ReaderPool::new(1).serve_all(&handle, &jobs);
    for &width in &[thread_counts().pop().unwrap_or(4).max(2), 8] {
        let wide = ReaderPool::new(width).serve_all(&handle, &jobs);
        assert_eq!(
            single, wide,
            "a {width}-thread pool must answer exactly like a single thread"
        );
    }
}

/// The batched-execution differential core: commits `ops` through `engine`, then
/// serves one query set sequentially (per-query pin) and through [`QueryBatch`]es
/// of widths 1, 4, and 32 — same-thread and fanned across pools — asserting every
/// batched answer is bit-identical to its sequentially served twin.
fn assert_batched_serving_matches_sequential<E: ServeEngine>(ops: &[Op], engine: E, context: &str) {
    let mut serving = QueryEngine::new(engine, QUERY_SEED);
    for op in ops {
        match op {
            Op::Arrive(batch) => serving.commit_arrivals(batch),
            Op::Delete(batch) => serving.commit_deletions(batch),
        };
    }
    // Duplicate seeds on purpose (qid % 4 repeats the query shapes): lanes reuse
    // pooled scratch across identical walks, which must not perturb anything.
    let jobs: Vec<(u64, Query)> = (0..64u64).map(|qid| (qid, query_for(qid))).collect();
    let handle = serving.handle();
    let sequential: Vec<Served> = jobs.iter().map(|(qid, q)| handle.serve(*qid, q)).collect();
    for width in [1usize, 4, 32] {
        let batches: Vec<QueryBatch> = jobs.chunks(width).map(QueryBatch::of).collect();
        let same_thread: Vec<Served> = batches.iter().flat_map(|b| handle.serve_batch(b)).collect();
        assert_eq!(
            same_thread, sequential,
            "{context}: width-{width} same-thread batches diverge"
        );
        for threads in thread_counts() {
            let pool = ReaderPool::new(threads);
            let fanned: Vec<Served> = batches
                .iter()
                .flat_map(|b| pool.serve_batch(&handle, b))
                .collect();
            assert_eq!(
                fanned, sequential,
                "{context}: width-{width} batches over {threads} readers diverge"
            );
        }
    }
}

#[test]
fn batched_serving_is_bit_identical_on_every_store_layout() {
    // The batching differential: one pin per batch and pooled scratch must be
    // invisible in the answer bits — on the flat and the disk-backed walk
    // stores alike.
    let ops = schedule(741);
    let config = MonteCarloConfig::new(0.2, 3).with_seed(743);

    assert_batched_serving_matches_sequential(
        &ops,
        IncrementalPageRank::<WalkStore>::new_empty(NODES, config),
        "flat in-memory",
    );
    let dir = ppr_persist::TempDir::new("batched-serving-disk");
    let engine = DurablePageRank::create_durable_disk(
        dir.path().join("store"),
        DynamicGraph::with_nodes(NODES),
        config,
    )
    .expect("create disk durable");
    assert_batched_serving_matches_sequential(&ops, engine, "disk durable");
}

#[test]
fn salsa_serving_is_deterministic_under_a_live_writer() {
    // The SALSA flavour of the harness: hub/authority and personalized-authority
    // queries against pinned generations while arrivals and a deletion batch
    // commit; every answer replays identically.
    let pa = PreferentialAttachmentConfig::new(80, 4, 721);
    let edges = random_permutation(&preferential_attachment_edges(&pa), 723);
    let config = MonteCarloConfig::new(0.2, 2).with_seed(727);
    let engine = IncrementalSalsa::new_empty(80, config);
    let mut serving = QueryEngine::new(engine, QUERY_SEED);
    let handle = serving.handle();
    let done = AtomicBool::new(false);
    let recorded: Mutex<Vec<(Served, Query)>> = Mutex::new(Vec::new());
    let next_query = AtomicU64::new(0);

    let archived = std::thread::scope(|scope| {
        let writer = scope.spawn(|| {
            let mut archived = vec![serving.pin()];
            for chunk in edges.chunks(32) {
                serving.commit_arrivals(chunk);
                archived.push(serving.pin());
            }
            let victims: Vec<Edge> = edges.iter().copied().step_by(9).take(10).collect();
            serving.commit_deletions(&victims);
            archived.push(serving.pin());
            done.store(true, Ordering::Release);
            archived
        });
        for _ in 0..thread_counts().pop().unwrap_or(4) {
            scope.spawn(|| loop {
                let qid = next_query.fetch_add(1, Ordering::Relaxed);
                let query = if qid % 2 == 0 {
                    Query::HubAuthorityTopK { k: 6 }
                } else {
                    Query::SalsaAuthorities {
                        seed: NodeId((qid % 80) as u32),
                        k: 4,
                        walk_length: 400,
                    }
                };
                let served = handle.serve(qid, &query);
                recorded.lock().unwrap().push((served, query));
                if done.load(Ordering::Acquire) {
                    break;
                }
            });
        }
        writer.join().expect("salsa writer")
    });

    let recorded = recorded.into_inner().unwrap();
    assert!(!recorded.is_empty());
    let by_epoch: std::collections::HashMap<u64, &PinnedView> =
        archived.iter().map(|v| (v.epoch(), v)).collect();
    for (served, query) in &recorded {
        let view = by_epoch[&served.epoch];
        let replay = view.answer(QUERY_SEED, served.query_id, query);
        assert_eq!(*served, replay, "salsa query {} diverges", served.query_id);
        if let Answer::HubsAuthorities { hubs, authorities } = &served.answer {
            assert!(hubs.len() <= 6 && authorities.len() <= 6);
        }
    }
}

#[test]
fn salsa_deletion_commit_is_one_plan_and_one_generation() {
    // A 32-edge SALSA deletion batch is one batched repair, like PageRank's: the
    // engine leaves one rewrite plan (no per-edge mirror steps) and creates no
    // node, the serving layer publishes one generation from that plan, and that
    // generation equals the single-threaded replay of the same two batches.
    let pa = PreferentialAttachmentConfig::new(80, 4, 731);
    let edges = random_permutation(&preferential_attachment_edges(&pa), 733);
    let victims: Vec<Edge> = edges.iter().copied().step_by(5).take(32).collect();
    let config = MonteCarloConfig::new(0.2, 2).with_seed(739);

    let mut reference = IncrementalSalsa::new_empty(80, config);
    reference.apply_arrivals(&edges);
    let nodes = reference.live_walks().node_count();
    let replayed = reference.apply(WriteOp::Deletions(&victims));
    assert!(
        !ServeEngine::last_rewrites(&reference).is_empty(),
        "a deletion batch leaves one non-empty rewrite plan"
    );
    assert_eq!(
        reference.live_walks().node_count(),
        nodes,
        "and grows no node"
    );

    let mut serving = QueryEngine::new(IncrementalSalsa::new_empty(80, config), QUERY_SEED);
    serving.commit_arrivals(&edges);
    let (epoch, commits) = (serving.epoch(), serving.commit_stats().commits);
    let served = serving.commit_deletions(&victims);
    assert_eq!(served, replayed, "commit stats equal the direct replay's");
    assert_eq!(serving.epoch(), epoch + 1, "one epoch per deletion commit");
    assert_eq!(serving.commit_stats().commits, commits + 1);
    let view = serving.pin();
    assert_eq!(view.epoch(), epoch + 1);
    assert_generation_matches_reference(&view, &reference, "salsa deletion commit");
}
