//! Criterion benches for the durability layer (`ppr-persist` + `ppr_core::durable`):
//! snapshot-write throughput of the flat and the disk engine, WAL append and
//! recovery-replay rates, and the cold-open-vs-rebuild speedup that is the whole
//! point of persisting walk segments.
//!
//! Run with `cargo bench --bench persistence`.  Numbers to quote in PR descriptions:
//! `snapshot/full_checkpoint` (MB/s), `wal/recovery_replay` (edges/s), and the ratio
//! `cold_open_vs_rebuild/rebuild_from_graph` ÷ `cold_open_vs_rebuild/cold_open`.

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion, Throughput};
use ppr_core::{DurablePageRank, IncrementalPageRank, MonteCarloConfig};
use ppr_graph::generators::{preferential_attachment_edges, PreferentialAttachmentConfig};
use ppr_graph::{DynamicGraph, Edge, GraphView};
use ppr_persist::TempDir;
use std::hint::black_box;

const NODES: usize = 2_000;
const R: usize = 4;

fn config() -> MonteCarloConfig {
    MonteCarloConfig::new(0.2, R).with_seed(17)
}

fn workload() -> Vec<Edge> {
    preferential_attachment_edges(&PreferentialAttachmentConfig::new(NODES, 6, 19))
}

/// Size of one snapshot generation on disk, for MB/s throughput annotation.
fn snapshot_bytes(root: &std::path::Path, gen: u64) -> u64 {
    std::fs::metadata(root.join(format!("snap-{gen:06}.ppr")))
        .map(|m| m.len())
        .unwrap_or(0)
}

/// Checkpoint of the flat engine, and of the disk-backed engine after a small
/// update.
fn bench_snapshot_write(c: &mut Criterion) {
    let edges = workload();
    let mut group = c.benchmark_group("snapshot");

    // Measure against the snapshot size so the report reads in MB/s.
    let probe = TempDir::new("bench-snap-probe");
    let mut engine = IncrementalPageRank::create_durable(
        probe.path().join("s"),
        DynamicGraph::with_nodes(NODES),
        config(),
    )
    .unwrap();
    engine.apply_arrivals(&edges);
    let gen = engine.checkpoint().unwrap();
    group.throughput(Throughput::Bytes(snapshot_bytes(
        &probe.path().join("s"),
        gen,
    )));

    group.bench_function(BenchmarkId::from_parameter("full_checkpoint"), |b| {
        b.iter(|| black_box(engine.checkpoint().unwrap()))
    });

    // Disk engine: the same store, checkpointed after a one-edge update — the
    // rewritten segments come from memory, every other path's bytes from the
    // previous generation's heap.
    let tmp = TempDir::new("bench-snap-disk");
    let mut disk = DurablePageRank::create_durable_disk(
        tmp.path().join("s"),
        DynamicGraph::with_nodes(NODES),
        config(),
    )
    .unwrap();
    disk.apply_arrivals(&edges);
    disk.checkpoint().unwrap();
    let mut hot = 0u32;
    group.bench_function(BenchmarkId::from_parameter("disk_checkpoint"), |b| {
        b.iter(|| {
            hot = (hot + 1) % NODES as u32;
            disk.apply_arrivals(&[Edge::new(hot, (hot + 7) % NODES as u32)]);
            black_box(disk.checkpoint().unwrap())
        })
    });
    group.finish();
}

/// WAL append (each record fsynced) of the records an engine writes — each batch's edges
/// with the rewrites it reconciled — and the recovery replay rate over a logged
/// stream.
fn bench_wal(c: &mut Criterion) {
    let edges = workload();
    let (head, tail) = edges.split_at(edges.len() - 512);
    let mut engine =
        IncrementalPageRank::from_graph(DynamicGraph::from_edges(head, NODES), config());
    let plans: Vec<_> = tail
        .chunks(32)
        .map(|chunk| {
            engine.apply_arrivals(chunk);
            engine.last_rewrites().clone()
        })
        .collect();
    let no_growth = ppr_store::SegmentRewrites::new();
    let mut group = c.benchmark_group("wal");
    group.throughput(Throughput::Elements(tail.len() as u64));

    group.bench_function(BenchmarkId::from_parameter("append_fsync"), |b| {
        b.iter_batched(
            || {
                let tmp = TempDir::new("bench-wal");
                let path = tmp.path().join("wal.log");
                let writer = ppr_persist::WalWriter::create(&path).unwrap();
                (tmp, writer)
            },
            |(tmp, mut writer)| {
                for (seq, (edges, rewrites)) in tail.chunks(32).zip(&plans).enumerate() {
                    let record = ppr_persist::BatchRecord {
                        seq: seq as u64,
                        op: ppr_persist::WalOp::Arrivals,
                        edges,
                        cursors: ppr_persist::WalCursors::default(),
                        growth: &no_growth,
                        rewrites,
                    };
                    writer.append_batch(&record).unwrap();
                }
                drop(writer);
                tmp
            },
            BatchSize::LargeInput,
        )
    });

    // Recovery replay: open() = snapshot load + the WAL tail's logged effects
    // installed as one collapsed plan.
    let replay_edges = 2_048usize;
    let tmp = TempDir::new("bench-wal-replay");
    let root = tmp.path().join("s");
    let mut engine =
        IncrementalPageRank::create_durable(&root, DynamicGraph::with_nodes(NODES), config())
            .unwrap();
    let (prefix, suffix) = edges.split_at(edges.len() - replay_edges);
    engine.apply_arrivals(prefix);
    engine.checkpoint().unwrap();
    for chunk in suffix.chunks(64) {
        engine.apply_arrivals(chunk);
    }
    drop(engine);
    let wal_bytes = std::fs::metadata(root.join("wal-000001.log"))
        .unwrap()
        .len();
    println!(
        "[persistence] WAL record bytes per edge: {:.1}",
        wal_bytes as f64 / replay_edges as f64
    );
    group.throughput(Throughput::Elements(replay_edges as u64));
    group.bench_function(BenchmarkId::from_parameter("recovery_replay"), |b| {
        b.iter(|| black_box(IncrementalPageRank::<ppr_store::WalkStore>::open(&root).unwrap()))
    });
    group.finish();
}

/// The headline numbers: opening a persisted store vs the two in-memory
/// alternatives.  `rebuild_from_graph` regenerates all `nR` walk segments from an
/// already-materialised graph — cheap in-process, but it *resamples* every walk
/// (estimates jump; the incremental contract restarts from scratch) and assumes the
/// graph survived, which is the thing that doesn't.  `replay_full_history` is the
/// real alternative a restart faces without checkpoints: re-ingest the entire edge
/// stream through the maintenance pipeline.  Cold open replaces the latter.
fn bench_cold_open_vs_rebuild(c: &mut Criterion) {
    let edges = workload();
    let graph = DynamicGraph::from_edges(&edges, NODES);
    let tmp = TempDir::new("bench-cold");
    let root = tmp.path().join("s");
    let mut engine = IncrementalPageRank::create_durable(&root, graph.clone(), config()).unwrap();
    engine.checkpoint().unwrap();
    drop(engine);

    let mut group = c.benchmark_group("cold_open_vs_rebuild");
    group.sample_size(10);
    group.bench_function(BenchmarkId::from_parameter("cold_open"), |b| {
        b.iter(|| black_box(IncrementalPageRank::<ppr_store::WalkStore>::open(&root).unwrap()))
    });
    group.bench_function(BenchmarkId::from_parameter("rebuild_from_graph"), |b| {
        b.iter(|| black_box(IncrementalPageRank::from_graph(&graph, config())))
    });
    group.bench_function(BenchmarkId::from_parameter("replay_full_history"), |b| {
        b.iter(|| {
            let mut engine = IncrementalPageRank::new_empty(NODES, config());
            for chunk in edges.chunks(256) {
                engine.apply_arrivals(chunk);
            }
            black_box(engine.graph().edge_count())
        })
    });
    group.finish();
}

/// Per-scenario durability regimes: each corpus workload's exact write schedule
/// (`Trace::write_batches`) applied to a durable flat store with a checkpoint
/// mid-stream, reporting ingest rate, on-disk snapshot footprint, and the recovery
/// cost (snapshot load + WAL-tail replay) that workload leaves behind.  The spam
/// wave is the interesting one: its mass-unfollow deletions land *after* the
/// checkpoint, so recovery installs the reversal's rewrites, not just arrivals'.
fn report_scenario_durability(_c: &mut Criterion) {
    for scenario in [
        ppr_scenario::corpus::flash_crowd().scaled(2),
        ppr_scenario::corpus::spam_wave().scaled(2),
    ] {
        let trace = ppr_scenario::Trace::compile(&scenario);
        let batches = trace.write_batches();
        let checkpoint_after = (batches.len() / 2).max(1);
        let tmp = TempDir::new(&format!("bench-scenario-{}", scenario.name));
        let root = tmp.path().join("s");
        let mut engine = IncrementalPageRank::create_durable(
            &root,
            DynamicGraph::with_nodes(scenario.nodes),
            scenario.engine_config(),
        )
        .unwrap();
        let mut total = 0usize;
        let mut replayed = 0usize;
        let mut generation = 0u64;
        let t0 = std::time::Instant::now();
        for (i, (op, batch)) in batches.iter().enumerate() {
            match op {
                ppr_persist::WalOp::Arrivals => {
                    engine.apply_arrivals(batch);
                }
                ppr_persist::WalOp::Deletions => {
                    engine.apply_deletions(batch);
                }
            }
            total += batch.len();
            if i + 1 > checkpoint_after {
                replayed += batch.len();
            }
            if i + 1 == checkpoint_after {
                generation = engine.checkpoint().unwrap();
            }
        }
        let ingest = t0.elapsed();
        drop(engine);

        let snap_kib = snapshot_bytes(&root, generation) / 1024;
        let mut best = f64::INFINITY;
        for _ in 0..3 {
            let t0 = std::time::Instant::now();
            black_box(IncrementalPageRank::<ppr_store::WalkStore>::open(&root).unwrap());
            best = best.min(t0.elapsed().as_secs_f64());
        }
        println!(
            "report persistence_scenario {}: {} batches / {total} edges ingested in \
             {ingest:.2?}, snapshot {snap_kib} KiB at batch {checkpoint_after}, recovery \
             (snapshot + {replayed} WAL edges) {:.2?}",
            scenario.name,
            batches.len(),
            std::time::Duration::from_secs_f64(best),
        );
    }
}

/// The demand-paging regime: cold-open latency, first-query latency, and
/// steady-state residency of the disk engine as the store grows 8×, at several
/// page-cache budgets.  Open reads the heap once, to check its pages and count
/// the visit index, and keeps no path: a bounded cache admits nothing then, the
/// first query pays a handful of page faults, and steady-state resident bytes
/// are capped by the budget and the index instead of the store size.
fn report_cold_start_residency(_c: &mut Criterion) {
    use ppr_persist::{set_thread_page_budget, PageBudget};
    use ppr_store::{SegmentId, WalkIndexView};

    for scale in [1usize, 2, 4, 8] {
        let nodes = 1_000 * scale;
        let edges = preferential_attachment_edges(&PreferentialAttachmentConfig::new(nodes, 6, 19));
        let tmp = TempDir::new("bench-cold-start");
        let root = tmp.path().join("s");
        let mut engine = DurablePageRank::create_durable_disk(
            &root,
            DynamicGraph::from_edges(&edges, nodes),
            config(),
        )
        .unwrap();
        let generation = engine.checkpoint().unwrap();
        drop(engine);
        let snap_kib = snapshot_bytes(&root, generation) / 1024;

        for (label, budget) in [
            ("unbounded", PageBudget::unbounded()),
            ("64pages", PageBudget::bounded(64)),
            ("8pages", PageBudget::bounded(8)),
        ] {
            let previous = set_thread_page_budget(Some(budget));
            let t0 = std::time::Instant::now();
            let engine = DurablePageRank::open(&root).unwrap();
            let open = t0.elapsed();

            // First query: demand-fault one node's R segments in.
            let probe = ppr_graph::NodeId((nodes / 2) as u32);
            let t1 = std::time::Instant::now();
            let mut steps = 0usize;
            for slot in 0..R {
                steps += WalkIndexView::segment_path(
                    engine.walk_store(),
                    SegmentId::new(probe, slot, R),
                )
                .len();
            }
            let first_query = t1.elapsed();
            black_box(steps);

            // Steady state: sweep a spread of 256 nodes, then report what stayed
            // resident under the budget.
            for i in 0..256usize {
                let node = ppr_graph::NodeId((i * nodes / 256) as u32);
                for slot in 0..R {
                    black_box(
                        WalkIndexView::segment_path(
                            engine.walk_store(),
                            SegmentId::new(node, slot, R),
                        )
                        .len(),
                    );
                }
            }
            let residency = engine.walk_store().residency();
            let pager = engine.walk_store().pager_stats();
            set_thread_page_budget(previous);
            println!(
                "report cold_start scale=x{scale} ({nodes} nodes, snapshot {snap_kib} KiB) \
                 budget={label}: open {open:.2?}, first_query {first_query:.2?}, \
                 steady resident {} pages / {} KiB, {} evictions, {} refaults",
                residency.resident_pages,
                residency.resident_page_bytes / 1024,
                pager.evictions,
                pager.refaults,
            );
        }
    }
}

criterion_group!(
    benches,
    bench_snapshot_write,
    bench_wal,
    bench_cold_open_vs_rebuild,
    report_scenario_durability,
    report_cold_start_residency
);
criterion_main!(benches);
