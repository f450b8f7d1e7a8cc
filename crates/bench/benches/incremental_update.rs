//! Criterion benches for experiment E9 (Theorem 4): per-arrival update cost of the
//! incremental engine, which reroutes each invalidated segment from its update
//! point, plus the ε and R sweeps.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use ppr_bench::workloads::twitter_like;
use ppr_core::{IncrementalPageRank, MonteCarloConfig};
use ppr_graph::stream::split_at_fraction;
use ppr_graph::DynamicGraph;
use std::hint::black_box;

const NODES: usize = 3_000;
const OUT_DEGREE: usize = 8;

fn replay_suffix(config: MonteCarloConfig) -> u64 {
    let workload = twitter_like(NODES, OUT_DEGREE, 7);
    let (prefix, suffix) = split_at_fraction(&workload.arrivals, 0.9);
    let base = DynamicGraph::from_edges(&prefix, NODES);
    let mut engine = IncrementalPageRank::from_graph(&base, config);
    engine.reset_work();
    for &edge in &suffix {
        engine.add_edge(edge);
    }
    engine.work().walk_steps
}

/// Replaying the last 10 % of the arrivals one edge at a time.
fn bench_reroute(c: &mut Criterion) {
    let mut group = c.benchmark_group("incremental_update_strategy");
    let suffix_len = (NODES * OUT_DEGREE / 10) as u64;
    group.throughput(Throughput::Elements(suffix_len));
    group.bench_function(BenchmarkId::from_parameter("from_update_point"), |b| {
        b.iter(|| {
            let config = MonteCarloConfig::new(0.2, 4).with_seed(3);
            black_box(replay_suffix(config))
        })
    });
    group.finish();
}

/// Ablation: the reset probability ε drives the stored segment length (1/ε) and the
/// update cost (1/ε² in the bounds).
fn bench_epsilon_sweep(c: &mut Criterion) {
    let mut group = c.benchmark_group("incremental_update_epsilon");
    for &epsilon in &[0.1f64, 0.2, 0.4] {
        group.bench_with_input(
            BenchmarkId::from_parameter(epsilon),
            &epsilon,
            |b, &epsilon| {
                b.iter(|| {
                    let config = MonteCarloConfig::new(epsilon, 4).with_seed(5);
                    black_box(replay_suffix(config))
                })
            },
        );
    }
    group.finish();
}

/// R sweep: update cost scales linearly with the number of stored segments.
fn bench_r_sweep(c: &mut Criterion) {
    let mut group = c.benchmark_group("incremental_update_r");
    for &r in &[1usize, 5, 10] {
        group.bench_with_input(BenchmarkId::from_parameter(r), &r, |b, &r| {
            b.iter(|| {
                let config = MonteCarloConfig::new(0.2, r).with_seed(9);
                black_box(replay_suffix(config))
            })
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_reroute, bench_epsilon_sweep, bench_r_sweep
}
criterion_main!(benches);
