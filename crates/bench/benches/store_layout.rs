//! Criterion benches for the PageRank Store's memory layout: edge-arrival reroute
//! throughput (per-edge vs batched, against the flat step arena + blocked visit postings)
//! and estimator refresh, on a preferential-attachment graph.
//!
//! This is the perf trail for the arena/postings refactor: the reroute hot path used to
//! pay a heap `Vec` per rerouted segment and a `HashMap` probe per visited node; now it
//! rewrites arena slots in place and streams sorted postings runs.  Run with
//! `cargo bench --bench store_layout`.

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion, Throughput};
use ppr_bench::workloads::twitter_like;
use ppr_core::{IncrementalPageRank, MonteCarloConfig};
use ppr_graph::stream::split_at_fraction;
use ppr_graph::DynamicGraph;
use std::hint::black_box;

const NODES: usize = 3_000;
const OUT_DEGREE: usize = 8;
const R: usize = 4;

fn warm_engine() -> (IncrementalPageRank, Vec<ppr_graph::Edge>) {
    let workload = twitter_like(NODES, OUT_DEGREE, 11);
    let (prefix, suffix) = split_at_fraction(&workload.arrivals, 0.9);
    let base = DynamicGraph::from_edges(&prefix, NODES);
    let config = MonteCarloConfig::new(0.2, R).with_seed(13);
    (IncrementalPageRank::from_graph(base, config), suffix)
}

/// Arrival reroute throughput: replay the last 10% of a preferential-attachment
/// stream, per-edge and in batches of increasing size.  Batches amortise the visit
/// postings scan per source node, so throughput should rise with the batch size.
fn bench_arrival_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("store_layout_arrivals");
    let (_, suffix) = warm_engine();
    group.throughput(Throughput::Elements(suffix.len() as u64));

    group.bench_function(BenchmarkId::from_parameter("per_edge"), |b| {
        b.iter_batched(
            warm_engine,
            |(mut engine, suffix)| {
                for &edge in &suffix {
                    engine.add_edge(edge);
                }
                black_box(engine.work().walk_steps)
            },
            BatchSize::LargeInput,
        )
    });
    for &batch in &[16usize, 256] {
        group.bench_function(BenchmarkId::new("batched", batch), |b| {
            b.iter_batched(
                warm_engine,
                |(mut engine, suffix)| {
                    for chunk in suffix.chunks(batch) {
                        engine.apply_arrivals(chunk);
                    }
                    black_box(engine.work().walk_steps)
                },
                BatchSize::LargeInput,
            )
        });
    }
    group.finish();
}

/// Per-source grouping: a hub gaining many follows at once (the bursty pattern of a
/// celebrity account).  The batched path scans the hub's visit postings once for the
/// whole burst instead of once per edge, so this is where `apply_arrivals` pulls ahead
/// of the per-edge loop.
fn bench_hub_burst(c: &mut Criterion) {
    const BURST: usize = 64;
    let mut group = c.benchmark_group("store_layout_hub_burst");
    group.throughput(Throughput::Elements(BURST as u64));
    let burst: Vec<ppr_graph::Edge> = (0..BURST)
        .map(|i| ppr_graph::Edge::new(0, (1 + i % (NODES - 1)) as u32))
        .collect();

    group.bench_function(BenchmarkId::from_parameter("per_edge"), |b| {
        b.iter_batched(
            || warm_engine().0,
            |mut engine| {
                for &edge in &burst {
                    engine.add_edge(edge);
                }
                black_box(engine.work().walk_steps)
            },
            BatchSize::LargeInput,
        )
    });
    group.bench_function(BenchmarkId::from_parameter("batched"), |b| {
        b.iter_batched(
            || warm_engine().0,
            |mut engine| {
                engine.apply_arrivals(&burst);
                black_box(engine.work().walk_steps)
            },
            BatchSize::LargeInput,
        )
    });
    group.finish();
}

/// Estimator refresh: reading all `W(v)` counters out of the store into normalised
/// score vectors.  The counters are kept eagerly exact, so this measures a pure dense
/// scan that never touches a node's postings.
fn bench_estimator_refresh(c: &mut Criterion) {
    let mut group = c.benchmark_group("store_layout_estimator");
    let (engine, _) = warm_engine();
    group.throughput(Throughput::Elements(NODES as u64));
    group.bench_function(BenchmarkId::from_parameter("refresh"), |b| {
        b.iter(|| black_box(engine.estimates().normalized().to_vec()))
    });
    group.finish();
}

/// Steady-state slot reuse: fraction of segment rewrites that relocated (allocated
/// arena space) rather than writing in place, over a churn replay.  Reported through
/// the walk store's own counters so the bench doubles as a regression check.
fn bench_slot_reuse(c: &mut Criterion) {
    let mut group = c.benchmark_group("store_layout_slot_reuse");
    group.bench_function(BenchmarkId::from_parameter("churn"), |b| {
        b.iter_batched(
            || {
                let (mut engine, suffix) = warm_engine();
                engine.apply_arrivals(&suffix);
                (engine, suffix)
            },
            |(mut engine, suffix)| {
                let warm = engine.walk_store().arena_stats();
                engine.apply_arrivals(&suffix); // parallel copies: pure churn
                let done = engine.walk_store().arena_stats();
                let writes = done.in_place_writes - warm.in_place_writes;
                let relocations = done.relocations - warm.relocations;
                black_box((writes, relocations))
            },
            BatchSize::LargeInput,
        )
    });
    group.finish();
}

criterion_group!(
    store_layout,
    bench_arrival_throughput,
    bench_hub_burst,
    bench_estimator_refresh,
    bench_slot_reuse
);
criterion_main!(store_layout);
