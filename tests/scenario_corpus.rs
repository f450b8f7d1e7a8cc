//! The scenario-corpus chaos harness: every named scenario, replayed through every
//! durable store layout at every reader count **with faults injected**, must end
//! bit-identical to its clean single-threaded in-memory replay.
//!
//! This is the composition of every differential oracle the workspace has built:
//!
//! * layout equivalence — the flat and disk layouts replay identically;
//! * restart equivalence (`tests/durability.rs`) — crash anywhere, recover,
//!   resume ≡ never crashed;
//! * serving fidelity (`tests/concurrent_serving.rs`) — answers are pure in
//!   `(generation, query_seed, query_id)` at any reader count.
//!
//! The scenario engine drives all three at once: a compiled trace replays through
//! the serving commit path while a [`ChaosPlan`] tears the WAL, corrupts snapshot
//! pages, and stalls the disk — and every served answer, final score vector, and
//! store digest must still match the reference run exactly.
//!
//! Reader counts honour `PPR_TEST_THREADS` (the CI matrix runs 1 and 4).

mod common;

use common::thread_counts;
use fast_ppr::prelude::*;
use ppr_scenario::{corpus, ChaosPlan, DurableChaos, Fault, ScenarioRunner};
use ppr_store::StoreDigest;

/// Full field-by-field store comparison — the diff-producing complement of the
/// [`StoreDigest`] fingerprint checks.
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

/// The harness core: replays `scenario` clean (single reader, in memory), then with
/// fault injection through the flat and disk durable layouts at every reader count,
/// asserting bit-identical answers, scores, and store state.
fn corpus_scenario_survives_chaos(scenario: ppr_scenario::Scenario) {
    let trace = Trace::compile(&scenario);
    assert_eq!(
        trace,
        Trace::compile(&scenario),
        "trace compilation is pure"
    );
    let config = scenario.engine_config();
    let n = scenario.nodes;

    let (reference, clean) = ScenarioRunner::new(1).replay(
        &trace,
        IncrementalPageRank::<WalkStore>::new_empty(n, config),
    );
    assert_eq!(clean.answers.len(), trace.query_count());
    let ref_digest = StoreDigest::of(reference.walk_store());
    let ref_scores = reference.scores();

    let plan = ChaosPlan::for_trace(&trace, scenario.seed ^ 0xCAFE);
    assert!(
        plan.faults().iter().any(|&(_, f)| f == Fault::CrashTornWal),
        "{}: the plan must crash somewhere",
        scenario.name
    );

    for threads in thread_counts() {
        // Flat durable layout.
        {
            let dir =
                ppr_persist::TempDir::new(&format!("corpus-{}-flat-{threads}", scenario.name));
            let root = dir.path().join("store");
            let engine = IncrementalPageRank::<WalkStore>::create_durable(
                &root,
                DynamicGraph::with_nodes(n),
                config,
            )
            .expect("create flat durable");
            let mut chaos = DurableChaos::new(&root);
            let (after, outcome) =
                ScenarioRunner::new(threads).replay_with(&trace, engine, &plan, &mut chaos);
            let context = format!("{} flat durable, {threads} threads", scenario.name);
            assert!(chaos.crashes() > 0, "{context}: faults must actually fire");
            assert_eq!(outcome.answers, clean.answers, "{context}: served answers");
            assert_eq!(outcome.checkpoints, trace.checkpoint_indices().len());
            assert_eq!(
                StoreDigest::of(after.walk_store()),
                ref_digest,
                "{context}: store digest"
            );
            assert_eq!(after.scores(), ref_scores, "{context}: scores");
            // One full field-by-field compare per configuration: digests fingerprint,
            // this produces the diff when something breaks.
            assert_stores_identical(reference.walk_store(), after.walk_store(), &context);
            after.validate_segments().expect("segments stay valid");
        }

        // Disk-backed durable layout.
        {
            let dir =
                ppr_persist::TempDir::new(&format!("corpus-{}-disk-{threads}", scenario.name));
            let root = dir.path().join("store");
            let engine =
                DurablePageRank::create_durable_disk(&root, DynamicGraph::with_nodes(n), config)
                    .expect("create disk durable");
            let mut chaos = DurableChaos::new(&root);
            let (after, outcome) =
                ScenarioRunner::new(threads).replay_with(&trace, engine, &plan, &mut chaos);
            let context = format!("{} disk durable, {threads} threads", scenario.name);
            assert!(chaos.crashes() > 0, "{context}: faults must actually fire");
            assert_eq!(outcome.answers, clean.answers, "{context}: served answers");
            assert_eq!(
                StoreDigest::of(after.walk_store()),
                ref_digest,
                "{context}: store digest"
            );
            assert_eq!(after.scores(), ref_scores, "{context}: scores");
        }
    }
}

#[test]
fn flash_crowd_survives_chaos_bit_identically() {
    corpus_scenario_survives_chaos(corpus::flash_crowd());
}

#[test]
fn celebrity_join_survives_chaos_bit_identically() {
    corpus_scenario_survives_chaos(corpus::celebrity_join());
}

#[test]
fn spam_wave_survives_chaos_bit_identically() {
    corpus_scenario_survives_chaos(corpus::spam_wave());
}

#[test]
fn query_tides_survives_chaos_bit_identically() {
    corpus_scenario_survives_chaos(corpus::query_tides());
}

#[test]
fn steady_mix_survives_chaos_bit_identically() {
    corpus_scenario_survives_chaos(corpus::steady_mix());
}

#[test]
fn steady_mix_survives_chaos_under_tiny_page_budget() {
    // The full chaos matrix again, but with every disk-backed store opened under a
    // two-page cache: demand faults, CLOCK evictions, and CRC re-verification are
    // all exercised on the recovery path, and none of it may change a bit.  The
    // thread-local override reaches every open because engines (including
    // recovery reopens) open their stores on the calling thread.
    let previous = ppr_persist::set_thread_page_budget(Some(ppr_persist::PageBudget::bounded(2)));
    corpus_scenario_survives_chaos(corpus::steady_mix());
    ppr_persist::set_thread_page_budget(previous);
}

#[test]
fn slow_disk_stalls_shift_timing_but_never_bits() {
    let scenario = corpus::steady_mix();
    let trace = Trace::compile(&scenario);
    let config = scenario.engine_config();
    let (reference, clean) = ScenarioRunner::new(1).replay(
        &trace,
        IncrementalPageRank::<WalkStore>::new_empty(scenario.nodes, config),
    );

    let plan = ChaosPlan::none().with_fault(0, Fault::SlowDisk);
    let dir = ppr_persist::TempDir::new("corpus-slow-disk");
    let root = dir.path().join("store");
    let engine = IncrementalPageRank::<WalkStore>::create_durable(
        &root,
        DynamicGraph::with_nodes(scenario.nodes),
        config,
    )
    .unwrap();
    let mut chaos = DurableChaos::new(&root);
    let (after, outcome) = ScenarioRunner::new(2).replay_with(&trace, engine, &plan, &mut chaos);

    assert!(
        chaos.slow_disk_ops() > 0,
        "the shim must observe durability I/O"
    );
    assert!(chaos.slow_disk_stalls() > 0, "stalls must actually land");
    assert_eq!(chaos.crashes(), 0, "slow disk is a timing-only fault");
    assert_eq!(outcome.answers, clean.answers, "answers under stalls");
    assert_eq!(
        StoreDigest::of(after.walk_store()),
        StoreDigest::of(reference.walk_store()),
        "stalls must never change what is written"
    );
}

#[test]
fn flash_crowd_budget_exhaustion_has_partial_result_semantics() {
    // Satellite: Corollary 9 fetch-budget semantics exercised through the scenario
    // engine (the flash-crowd query mix), not a hand-rolled loop.
    let scenario = corpus::flash_crowd();
    let budget = scenario
        .phases
        .iter()
        .find_map(|p| match p.kind {
            ppr_scenario::PhaseKind::FlashCrowd {
                fetch_budget: Some(b),
                ..
            } => Some(b),
            _ => None,
        })
        .expect("flash crowd carries a budget");
    let trace = Trace::compile(&scenario);
    let config = scenario.engine_config();
    let (_, outcome) = ScenarioRunner::new(2).replay(
        &trace,
        IncrementalPageRank::<WalkStore>::new_empty(scenario.nodes, config),
    );

    assert!(!outcome.answers.is_empty());
    assert!(
        outcome.budget_exhausted > 0,
        "a tight budget under a flash crowd must exhaust on some queries"
    );
    for answer in &outcome.answers {
        // The walker checks the budget before each fetch, so fetches never exceed
        // it, and an exhausted walk spent exactly its budget.
        assert!(
            answer.fetches <= budget,
            "query {}: {} fetches > budget {budget}",
            answer.query_id,
            answer.fetches
        );
        if answer.budget_exhausted {
            assert_eq!(
                answer.fetches, budget,
                "query {}: exhausted before spending the whole budget",
                answer.query_id
            );
        }
        // Partial results are still well-formed ranked lists.
        match &answer.answer {
            ppr_serve::Answer::Ranked(list) => {
                for pair in list.windows(2) {
                    assert!(pair[0].1 >= pair[1].1, "ranked list out of order");
                }
            }
            other => panic!("flash crowd only serves ranked answers, got {other:?}"),
        }
    }
    // Budgeted partial answers replay bit-identically (purity under exhaustion).
    let (_, again) = ScenarioRunner::new(4).replay(
        &trace,
        IncrementalPageRank::<WalkStore>::new_empty(scenario.nodes, config),
    );
    assert_eq!(outcome.answers, again.answers);
    assert_eq!(outcome.budget_exhausted, again.budget_exhausted);
}

#[test]
fn telemetry_sampling_never_changes_any_corpus_outcome() {
    // The observability satellite's determinism oracle: every corpus scenario
    // replayed with telemetry attached and per-phase JSONL sampling on must end
    // bit-identical — answers, scores, store digest — to its uninstrumented
    // replay, and the export must be non-empty, schema-valid JSONL carrying the
    // commit-stage and query-latency distributions.
    for scenario in corpus::corpus() {
        let trace = Trace::compile(&scenario);
        let config = scenario.engine_config();
        let n = scenario.nodes;
        let make = || IncrementalPageRank::<WalkStore>::new_empty(n, config);

        let (plain_engine, plain) = ScenarioRunner::new(2).replay(&trace, make());
        let tele = ppr_telemetry::Telemetry::new();
        let mut out = ppr_telemetry::JsonlAppender::new(Vec::new());
        let mut sampler = ppr_scenario::TelemetrySampler::new(&tele, &mut out);
        let (sampled_engine, sampled) = ScenarioRunner::new(2)
            .replay_sampled(&trace, make(), &mut sampler)
            .expect("in-memory sink never fails");

        let context = &scenario.name;
        assert_eq!(plain.answers, sampled.answers, "{context}: answers");
        assert_eq!(
            StoreDigest::of(plain_engine.walk_store()),
            StoreDigest::of(sampled_engine.walk_store()),
            "{context}: store digest with telemetry on vs off"
        );
        assert_eq!(plain_engine.scores(), sampled_engine.scores(), "{context}");

        // The JSONL export: non-empty, one valid object per line.
        assert!(out.lines() > 0, "{context}: export must be non-empty");
        let exported = out.into_inner().expect("flushing a Vec cannot fail");
        let exported = String::from_utf8(exported).expect("JSONL is UTF-8");
        for line in exported.lines() {
            ppr_telemetry::json::validate(line).unwrap_or_else(|(at, what)| {
                panic!("{context}: invalid JSONL at byte {at}: {what}")
            });
        }
        assert!(exported.contains("commit.mirror"), "{context}");
        assert!(exported.contains("query.latency"), "{context}");

        // The same run's registry renders Prometheus text with the query
        // percentiles and commit-stage timings the catalogue promises.
        let prom = ppr_telemetry::render_prometheus(&tele.collect());
        for needle in [
            "ppr_query_latency_p50",
            "ppr_query_latency_p99",
            "ppr_commit_mirror_p99",
            "ppr_commit_apply_count",
        ] {
            assert!(prom.contains(needle), "{context}: missing {needle}");
        }
    }
}

#[test]
fn batched_query_tides_change_no_digest_or_answer() {
    // The batched-serving invariance oracle at corpus scale: replaying the
    // query-tides scenario with its query tides chunked into batches of any
    // width (the `PPR_BATCH_WIDTH` CI knob drives `ScenarioRunner::new`'s
    // default through the same path) must change neither one served answer nor
    // the final store digest, at one reader and at the matrix thread count.
    let scenario = corpus::query_tides();
    let trace = Trace::compile(&scenario);
    let config = scenario.engine_config();
    let run = |readers: usize, width: usize| {
        ScenarioRunner::new(readers).with_batch_width(width).replay(
            &trace,
            IncrementalPageRank::<WalkStore>::new_empty(scenario.nodes, config),
        )
    };
    let (e0, o0) = run(1, 0);
    for readers in thread_counts() {
        for width in [0usize, 1, 4, 32] {
            let (e, o) = run(readers, width);
            let context = format!("width {width}, {readers} readers");
            assert_eq!(o.answers, o0.answers, "{context}: answers");
            assert_eq!(
                StoreDigest::of(e.walk_store()),
                StoreDigest::of(e0.walk_store()),
                "{context}: store digest"
            );
        }
    }
}

#[test]
fn reader_pool_width_never_changes_a_scenario_outcome() {
    let scenario = corpus::query_tides();
    let trace = Trace::compile(&scenario);
    let config = scenario.engine_config();
    let run = |readers: usize| {
        ScenarioRunner::new(readers).replay(
            &trace,
            IncrementalPageRank::<WalkStore>::new_empty(scenario.nodes, config),
        )
    };
    let (e1, o1) = run(1);
    for readers in [2usize, 4, 8] {
        let (e, o) = run(readers);
        assert_eq!(o.answers, o1.answers, "{readers} readers: answers");
        assert_eq!(
            StoreDigest::of(e.walk_store()),
            StoreDigest::of(e1.walk_store()),
            "{readers} readers: store digest"
        );
    }
}
