//! Workspace-level telemetry tests: histogram quantile properties under
//! arbitrary sample sets, cross-thread shard merging, and the "one `collect()`
//! sees every layer" contract against a durable disk-backed serving session.

use fast_ppr::prelude::*;
use ppr_graph::generators::{preferential_attachment_edges, PreferentialAttachmentConfig};
use ppr_persist::TempDir;
use ppr_telemetry::Histogram;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The log₂-bucketed histogram brackets every nearest-rank percentile
    /// within one bucket's relative error: the exact sample percentile lies in
    /// `[low, high]`, and `high < 2 × exact` (equal for zero).  Samples span
    /// the full magnitude range via a random right shift.
    #[test]
    fn bucketed_quantiles_bracket_exact_percentiles(
        samples in proptest::collection::vec(
            (0u64..64, 0u64..u64::MAX).prop_map(|(shift, raw)| raw >> shift),
            1..400,
        ),
    ) {
        let hist = Histogram::standalone();
        for &s in &samples {
            hist.record(s);
        }
        let snap = hist.snapshot();
        prop_assert_eq!(snap.count, samples.len() as u64);
        let mut sorted = samples.clone();
        sorted.sort_unstable();
        for &q in &[0.5, 0.9, 0.99, 0.999] {
            let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
            let exact = sorted[rank - 1];
            let (low, high) = snap.quantile_bounds(q);
            prop_assert!(
                low <= exact && exact <= high,
                "q={}: exact {} outside [{}, {}]", q, exact, low, high
            );
            // One bucket's relative error: `high <= 2·exact − 1`, except the
            // top bucket (exact ≥ 2^63) where the bound saturates to u64::MAX.
            let relative_bound = exact
                .checked_mul(2)
                .map_or(u64::MAX, |d| d.saturating_sub(1))
                .max(exact);
            prop_assert!(
                high <= relative_bound,
                "q={}: upper bound {} exceeds one bucket's relative error of exact {}",
                q, high, exact
            );
            prop_assert_eq!(snap.quantile(q), high, "quantile() reports the upper bound");
        }
    }
}

#[test]
fn concurrent_recording_merges_every_thread_shard() {
    // 8 threads hammer one histogram handle; the snapshot must account for
    // every sample exactly once across the per-thread shards.
    let hist = Histogram::standalone();
    let threads = 8u64;
    let per_thread = 5_000u64;
    std::thread::scope(|scope| {
        for t in 0..threads {
            let hist = &hist;
            scope.spawn(move || {
                for i in 0..per_thread {
                    hist.record(t * per_thread + i);
                }
            });
        }
    });
    let snap = hist.snapshot();
    let n = threads * per_thread;
    assert_eq!(snap.count, n);
    assert_eq!(snap.sum, n * (n - 1) / 2);
    assert_eq!(snap.max, n - 1);
    assert_eq!(snap.buckets.iter().sum::<u64>(), n);
}

#[test]
fn an_inline_durable_commit_books_its_fsync_under_wal_sync() {
    // Commits fsync the WAL inside the engine's apply.  With a registry
    // attached that wait is timed by the WAL writer and recorded as
    // `commit.wal_sync` — one sample per commit — and carved out of
    // `commit.apply`; a checkpoint's WAL rotation keeps it so.
    let edges = preferential_attachment_edges(&PreferentialAttachmentConfig::new(96, 4, 0xF00D));
    let config = MonteCarloConfig::new(0.2, 3).with_seed(0xD15C);
    let dir = TempDir::new("telemetry-inline-sync");
    let engine = DurablePageRank::create_durable_disk(
        dir.path().join("store"),
        DynamicGraph::with_nodes(96),
        config,
    )
    .expect("create disk durable");

    let tele = Telemetry::new();
    let mut serving = QueryEngine::new(engine, 17).with_telemetry(&tele);
    let chunks: Vec<_> = edges.chunks(48).collect();
    let (first, rest) = chunks.split_at(chunks.len() / 2);
    for chunk in first {
        serving.commit_arrivals(chunk);
    }
    serving.engine_mut().checkpoint().expect("checkpoint");
    for chunk in rest {
        serving.commit_arrivals(chunk);
    }

    let snap = serving.telemetry_snapshot().expect("registry attached");
    let commits = serving.epoch();
    assert_eq!(snap.counter("wal.fsyncs"), Some(rest.len() as u64));
    for stage in ["commit.apply", "commit.wal_sync", "commit.publish"] {
        let hist = snap.histogram(stage).expect(stage);
        assert_eq!(hist.count, commits, "{stage}: one sample per commit");
    }
    #[cfg(feature = "telemetry")]
    assert!(snap.histogram("commit.wal_sync").unwrap().sum > 0);
    serving.into_engine();
}

#[test]
fn one_collect_sees_every_layer_of_a_durable_disk_session() {
    // The tentpole acceptance: a single `telemetry_snapshot()` of a durable,
    // disk-backed serving session must cover the Social Store, the
    // walk arena, the pager, the WAL, the commit path, and the query path in
    // one sorted view.
    let edges = preferential_attachment_edges(&PreferentialAttachmentConfig::new(96, 4, 0xF00D));
    let config = MonteCarloConfig::new(0.2, 3).with_seed(0xD15C);
    let dir = TempDir::new("telemetry-one-collect");
    let root = dir.path().join("store");
    let engine = DurablePageRank::create_durable_disk(&root, DynamicGraph::with_nodes(96), config)
        .expect("create disk durable");

    let tele = Telemetry::new();
    let mut serving = QueryEngine::new(engine, 17).with_telemetry(&tele);
    for chunk in edges.chunks(48) {
        serving.commit_arrivals(chunk);
    }
    let handle = serving.handle();
    for qid in 0..6u64 {
        handle.serve(
            qid,
            &ppr_serve::Query::PersonalizedTopK {
                seed: NodeId((qid % 9) as u32),
                k: 4,
                walk_length: 800,
                fetch_budget: Some(200),
            },
        );
    }

    let snap = serving.telemetry_snapshot().expect("registry attached");
    for counter in [
        "store.fetches",         // Social Store access accounting
        "arena.in_place_writes", // walk-arena layer
        "disk.pages_rewritten",  // on-disk store layer
        "pager.hits",            // page-cache layer
        "wal.appended",          // write-ahead log layer
        "commit.commits",        // serve commit path
        "query.served",          // query path
    ] {
        assert!(
            snap.counter(counter).is_some(),
            "one collect() must see {counter}; got names: {:?}",
            snap.names().collect::<Vec<_>>()
        );
    }
    assert_eq!(snap.counter("query.served"), Some(6));
    for hist in [
        "commit.apply",
        "commit.mirror",
        "commit.wal_sync",
        "commit.publish",
    ] {
        let h = snap.histogram(hist).expect(hist);
        assert_eq!(h.count, serving.epoch(), "{hist}: one span per commit");
    }
    assert_eq!(
        snap.histogram("query.latency").expect("latency").count,
        6,
        "every served query records a latency sample"
    );
    assert!(
        snap.gauge("pager.hit_rate").expect("hit rate present") >= 0.0,
        "ratios are guarded, never NaN"
    );
    // One sync per commit through the serving path: each batch's own record.
    assert_eq!(snap.counter("wal.fsyncs"), Some(serving.epoch()));

    drop(handle);
    serving.into_engine();
}

#[test]
fn a_global_rank_query_times_under_its_own_span() {
    // A global-rank query scans every visit count; it books that scan as
    // `query.global_topk`, so `query.topk` times only the walking queries' top-k.
    let edges = preferential_attachment_edges(&PreferentialAttachmentConfig::new(64, 3, 0xB0B));
    let config = MonteCarloConfig::new(0.2, 2).with_seed(0xB0C);
    let mut engine = IncrementalPageRank::new_empty(64, config);
    engine.apply_arrivals(&edges);
    let tele = Telemetry::new();
    let serving = QueryEngine::new(engine, 23).with_telemetry(&tele);
    let handle = serving.handle();
    let count = |name: &str| {
        let snap = serving.telemetry_snapshot().expect("registry attached");
        snap.histogram(name).map_or(0, |h| h.count)
    };
    handle.serve(
        0,
        &ppr_serve::Query::PersonalizedTopK {
            seed: NodeId(3),
            k: 4,
            walk_length: 400,
            fetch_budget: None,
        },
    );
    let topk = count("query.topk");
    handle.serve(1, &ppr_serve::Query::GlobalTopK { k: 5 });
    assert_eq!(
        count("query.topk"),
        topk,
        "a global-rank query must not time under query.topk"
    );
    #[cfg(feature = "telemetry")]
    {
        assert_eq!(topk, 1);
        assert_eq!(count("query.global_topk"), 1);
    }
}

#[test]
fn a_hub_authority_query_times_under_the_global_span() {
    // A hub/authority query scores every node from every stored segment; it books
    // that scan as `query.global_topk`, so `query.topk` times only the personalized
    // SALSA query's top-k.
    let edges = preferential_attachment_edges(&PreferentialAttachmentConfig::new(64, 3, 0xB0D));
    let config = MonteCarloConfig::new(0.2, 2).with_seed(0xB0E);
    let mut engine = IncrementalSalsa::new_empty(64, config);
    engine.apply_arrivals(&edges);
    let tele = Telemetry::new();
    let serving = QueryEngine::new(engine, 29).with_telemetry(&tele);
    let handle = serving.handle();
    let count = |name: &str| {
        let snap = serving.telemetry_snapshot().expect("registry attached");
        snap.histogram(name).map_or(0, |h| h.count)
    };
    handle.serve(
        0,
        &ppr_serve::Query::SalsaAuthorities {
            seed: NodeId(3),
            k: 4,
            walk_length: 400,
        },
    );
    let topk = count("query.topk");
    handle.serve(1, &ppr_serve::Query::HubAuthorityTopK { k: 5 });
    assert_eq!(
        count("query.topk"),
        topk,
        "a hub/authority query must not time under query.topk"
    );
    #[cfg(feature = "telemetry")]
    {
        assert_eq!(topk, 1);
        assert_eq!(count("query.global_topk"), 1);
    }
}
