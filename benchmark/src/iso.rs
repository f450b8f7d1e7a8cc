//! Isolated passes: the same inputs replayed straight into one layer at a
//! time — `graph`, `core`, `persist` — so a layer's own cost stands beside the
//! end-to-end cost it is part of.  Traced runs only, outside every timed
//! window, each under its own `iso.*` span.

use crate::inputs::WriteOp;
use crate::spans::Recorder;
use crate::workloads::{engine_config, Measured, EPSILON, K, QUERY_SEED, R, WALK_LENGTH};
use ppr_core::bounds::{expected_fetches, per_arrival_update_work};
use ppr_core::{
    DurablePageRank, IncrementalPageRank, IncrementalSalsa, PersonalizedWalkResult,
    PersonalizedWalker, TopKScratch, WalkScratch,
};
use ppr_graph::{DynamicGraph, Edge, GraphView, NodeId};
use ppr_persist::{WalOp, WalWriter};
use std::collections::HashSet;
use std::hint::black_box;
use std::path::Path;

/// Power-law exponent the Equation 4 / Theorem 8 model is evaluated at (the
/// paper's measured Twitter exponent).
const MODEL_ALPHA: f64 = 0.76;

/// Runs `f` under a span and returns its result with the elapsed nanoseconds.
fn timed<T>(rec: &mut Recorder, name: &'static str, op_id: u64, f: impl FnOnce() -> T) -> (T, u64) {
    let start = rec.now_ns();
    let value = f();
    let end = rec.now_ns();
    rec.record(name, op_id, start, end);
    (value, end - start)
}

fn per(total: u64, count: u64) -> f64 {
    total as f64 / count.max(1) as f64
}

/// Time the serving engine spent inside `commit_arrivals` on the first
/// `batches` arrival batches of the pass.
fn served_ns(m: &Measured, batches: usize) -> u64 {
    m.writes
        .iter()
        .filter(|w| w.arrival)
        .take(batches)
        .map(|w| w.call_ns)
        .sum()
}

/// `graph`: the batches applied to a bare `DynamicGraph`.
fn graph_pass(
    stream: &[Edge],
    initial: usize,
    n: usize,
    sample: &[WriteOp],
    m: &mut Measured,
    rec: &mut Recorder,
) {
    let mut graph = DynamicGraph::from_edges(&stream[..initial], n);
    let (mut ns, mut edges) = (0, 0);
    for (i, op) in sample.iter().enumerate() {
        let batch = op.edges(stream);
        let ((), dt) = timed(rec, "iso.graph.apply", i as u64, || match op {
            WriteOp::Arrive(_) => batch.iter().for_each(|e| graph.add_edge(*e)),
            WriteOp::Delete(_) => batch.iter().for_each(|e| {
                black_box(graph.remove_edge(*e));
            }),
        });
        ns += dt;
        edges += batch.len() as u64;
    }
    black_box(graph.edge_count());
    m.layer.insert("graph.apply_ns_per_edge", per(ns, edges));
}

/// `persist` WAL: the arrival batches appended to a scratch log, fsync on.
fn wal_pass(
    stream: &[Edge],
    sample: &[WriteOp],
    scratch: &Path,
    m: &mut Measured,
    rec: &mut Recorder,
) {
    let _ = std::fs::create_dir_all(scratch);
    let path = scratch.join(format!("iso-{}.wal", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let Ok(mut wal) = WalWriter::create(&path) else {
        m.attempt(false, || format!("cannot create {}", path.display()));
        return;
    };
    let (mut ns, mut batches, mut edges) = (0, 0, 0);
    for (i, op) in sample.iter().enumerate() {
        let WriteOp::Arrive(_) = op else { continue };
        let batch = op.edges(stream);
        let (result, dt) = timed(rec, "iso.persist.wal_append", i as u64, || {
            wal.append(i as u64, WalOp::Arrivals, batch)
        });
        m.attempt(result.is_ok(), || format!("WAL append failed: {result:?}"));
        ns += dt;
        batches += 1;
        edges += batch.len() as u64;
    }
    drop(wal);
    let bytes = std::fs::metadata(&path).map_or(0, |meta| meta.len());
    let _ = std::fs::remove_file(&path);
    m.layer
        .insert("persist.wal_append_us_per_batch", per(ns, batches) / 1e3);
    m.layer
        .insert("persist.wal_bytes_per_edge", per(bytes, edges));
}

/// The write path of a PageRank workload, layer by layer, on the first fifth
/// of its script: `graph`, bare `core` (with the exact reroute counts and the
/// Theorem 4 model beside them), and the WAL.
pub fn write_path(
    stream: &[Edge],
    initial: usize,
    n: usize,
    ops: &[WriteOp],
    scratch: &Path,
    m: &mut Measured,
    rec: &mut Recorder,
) {
    let sample = &ops[..ops.len().div_ceil(5)];
    graph_pass(stream, initial, n, sample, m, rec);
    wal_pass(stream, sample, scratch, m, rec);

    let (mut engine, init_ns) = timed(rec, "core.init_walks", 0, || {
        IncrementalPageRank::from_graph(
            DynamicGraph::from_edges(&stream[..initial], n),
            engine_config(),
        )
    });
    m.layer.insert("core.init_walks_s", init_ns as f64 / 1e9);
    let work_before = *engine.work();
    let (mut apply_ns, mut arrivals, mut arrival_batches) = (0, 0, 0);
    let (mut delete_ns, mut deletions) = (0, 0);
    let (mut steps, mut segments) = (0, 0);
    let mut model = 0.0;
    let mut t = initial;
    for (i, op) in sample.iter().enumerate() {
        let batch = op.edges(stream);
        match op {
            WriteOp::Arrive(_) => {
                let (stats, dt) = timed(rec, "iso.core.apply", i as u64, || {
                    engine.apply_arrivals(batch)
                });
                apply_ns += dt;
                arrivals += batch.len() as u64;
                arrival_batches += 1;
                steps += stats.walk_steps;
                segments += stats.segments_updated;
                for _ in batch {
                    t += 1;
                    model += per_arrival_update_work(n, R, t, EPSILON);
                }
            }
            WriteOp::Delete(_) => {
                let (stats, dt) = timed(rec, "iso.core.delete", i as u64, || {
                    engine.apply_deletions(batch)
                });
                black_box(stats);
                delete_ns += dt;
                deletions += batch.len() as u64;
                t -= batch.len();
            }
        }
    }
    let work = *engine.work();
    let processed = work.edges_processed - work_before.edges_processed;
    let filtered = work.arrivals_filtered - work_before.arrivals_filtered;
    m.layer
        .insert("core.apply_ns_per_edge", per(apply_ns, arrivals));
    m.layer
        .insert("core.delete_ns_per_edge", per(delete_ns, deletions));
    m.layer
        .insert("core.reroute_steps_per_arrival", per(steps, arrivals));
    m.layer
        .insert("core.segments_per_arrival", per(segments, arrivals));
    m.layer
        .insert("core.arrivals_filtered_share", per(filtered, processed));
    let model = model / arrivals.max(1) as f64;
    m.layer.insert("model.thm4_steps_per_arrival", model);
    m.layer
        .insert("model.reroute_vs_thm4", per(steps, arrivals) / model);
    // What the serving engine spent on the same batches, over the bare engine.
    m.layer.insert(
        "serve.commit_overhead_ratio",
        served_ns(m, arrival_batches) as f64 / apply_ns.max(1) as f64,
    );
}

/// The write path of the SALSA workload on the first fifth of its script.
pub fn salsa_write_path(
    stream: &[Edge],
    initial: usize,
    n: usize,
    ops: &[WriteOp],
    m: &mut Measured,
    rec: &mut Recorder,
) {
    let sample = &ops[..ops.len().div_ceil(5)];
    graph_pass(stream, initial, n, sample, m, rec);
    let (mut engine, init_ns) = timed(rec, "core.init_walks", 0, || {
        IncrementalSalsa::from_graph(
            DynamicGraph::from_edges(&stream[..initial], n),
            engine_config(),
        )
    });
    m.layer.insert("core.init_walks_s", init_ns as f64 / 1e9);
    let (mut apply_ns, mut arrivals, mut arrival_batches, mut steps) = (0, 0, 0, 0);
    let (mut delete_ns, mut deletions) = (0, 0);
    for (i, op) in sample.iter().enumerate() {
        let batch = op.edges(stream);
        match op {
            WriteOp::Arrive(_) => {
                let (stats, dt) = timed(rec, "iso.core.salsa_apply", i as u64, || {
                    engine.apply_arrivals(batch)
                });
                apply_ns += dt;
                arrivals += batch.len() as u64;
                arrival_batches += 1;
                steps += stats.walk_steps;
            }
            WriteOp::Delete(_) => {
                let ((), dt) = timed(rec, "iso.core.salsa_delete", i as u64, || {
                    for e in batch {
                        black_box(engine.remove_edge(*e));
                    }
                });
                delete_ns += dt;
                deletions += batch.len() as u64;
            }
        }
    }
    m.layer
        .insert("core.salsa_apply_ns_per_edge", per(apply_ns, arrivals));
    m.layer
        .insert("core.salsa_delete_ns_per_edge", per(delete_ns, deletions));
    m.layer
        .insert("core.salsa_steps_per_arrival", per(steps, arrivals));
    m.layer.insert(
        "serve.commit_overhead_ratio",
        served_ns(m, arrival_batches) as f64 / apply_ns.max(1) as f64,
    );
}

/// `core` read path: the stitched walker and the top-k over the engine's own
/// store and graph, on a sample of the workload's query seeds.
pub fn read_path(
    engine: &DurablePageRank,
    sample: &[NodeId],
    m: &mut Measured,
    rec: &mut Recorder,
) {
    let walker = PersonalizedWalker::new(engine.social_store(), engine.walk_store(), EPSILON, 0);
    let mut scratch = WalkScratch::default();
    let mut result = PersonalizedWalkResult::default();
    let mut topk = TopKScratch::default();
    let mut exclude: HashSet<NodeId> = HashSet::new();
    let (mut walk_ns, mut topk_ns, mut visits, mut fetches) = (0, 0, 0, 0);
    for (i, seed) in sample.iter().enumerate() {
        let qid = i as u64;
        let ((), dt) = timed(rec, "iso.core.walk", qid, || {
            walker.walk_query_into(
                *seed,
                WALK_LENGTH,
                QUERY_SEED,
                qid,
                &mut scratch,
                &mut result,
            )
        });
        walk_ns += dt;
        visits += result.total_visits;
        fetches += result.fetches;
        let (top, dt) = timed(rec, "iso.core.topk", qid, || {
            exclude.clear();
            exclude.insert(*seed);
            exclude.extend(engine.graph().out_neighbors(*seed).iter().copied());
            result.top_k_with(K, &exclude, &mut topk)
        });
        black_box(top);
        topk_ns += dt;
    }
    let queries = sample.len() as u64;
    m.layer
        .insert("core.walk_ns_per_visit", per(walk_ns, visits));
    m.layer.insert("core.topk_us", per(topk_ns, queries) / 1e3);
    m.layer
        .insert("core.visits_per_query", per(visits, queries));
    m.layer
        .insert("_iso_query_us", per(walk_ns + topk_ns, queries) / 1e3);
    let model = expected_fetches(
        WALK_LENGTH as f64,
        engine.graph().node_count(),
        R,
        MODEL_ALPHA,
    );
    m.layer.insert("model.eq4_fetches_per_query", model);
    m.layer
        .insert("model.fetches_vs_eq4", per(fetches, queries) / model);
}
