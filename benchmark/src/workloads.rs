//! The five workloads.  Each is one life-cycle of a serving engine — set-up,
//! a timed window, a crash, a restart — driven through public functions only;
//! what differs is where the time goes.
//!
//! All sizes are *per second of `--seconds`*, tuned on the 2-core reference
//! box so the timed window lasts about `--seconds` at the commit that defined
//! the benchmark.  The work is fixed by the arguments, never by the clock, so
//! two runs of one seed do exactly the same operations and every count repeats.

use crate::checks;
use crate::inputs::{
    arrival_order, digest, open_loop_sample, query_seeds, write_script, Rng, ScriptShape, WriteOp,
};
use crate::iso;
use crate::procfs;
use crate::spans::Recorder;
use ppr_core::{DurablePageRank, IncrementalSalsa, MonteCarloConfig};
use ppr_graph::{DynamicGraph, Edge, GraphView, NodeId};
use ppr_persist::{set_thread_page_budget, PageBudget};
use ppr_serve::{Query, QueryBatch, QueryEngine, ServeEngine, ServeHandle, Served};
use ppr_store::StoreDigest;
use ppr_telemetry::{Telemetry, TelemetrySnapshot};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// The paper's §4 settings, the engine seed and the serving session's query
/// seed: fixed, so `--seed` changes only the generated inputs.
pub const EPSILON: f64 = 0.2;
pub const R: usize = 10;
pub const ENGINE_SEED: u64 = 0x00c0_ffee;
pub const QUERY_SEED: u64 = 4242;
pub const K: usize = 10;
pub const WALK_LENGTH: usize = 2_000;
const OUT_DEGREE: usize = 10;

pub type Durable = QueryEngine<DurablePageRank>;

pub fn engine_config() -> MonteCarloConfig {
    MonteCarloConfig::new(EPSILON, R).with_seed(ENGINE_SEED)
}

pub fn ppr_query(seed: NodeId) -> Query {
    Query::PersonalizedTopK {
        seed,
        k: K,
        walk_length: WALK_LENGTH,
        fetch_budget: None,
    }
}

pub fn salsa_query(seed: NodeId) -> Query {
    Query::SalsaAuthorities {
        seed,
        k: K,
        walk_length: WALK_LENGTH,
    }
}

#[derive(Debug, Clone)]
pub struct RunConfig {
    pub workload: &'static str,
    pub seed: u64,
    pub seconds: f64,
    /// Parent of this run's store directory.
    pub dir: PathBuf,
    /// Shrinks every graph to 2k nodes (1k for SALSA) for a quick self-check.
    pub smoke: bool,
}

impl RunConfig {
    fn nodes(&self) -> usize {
        match (self.workload, self.smoke) {
            ("salsa_churn", false) => 10_000,
            ("salsa_churn", true) => 1_000,
            (_, false) => 30_000,
            (_, true) => 2_000,
        }
    }

    /// `per_second · --seconds` operations, at least one.
    fn count(&self, per_second: f64) -> usize {
        ((per_second * self.seconds).round() as usize).max(1)
    }

    fn store_dir(&self) -> PathBuf {
        self.dir
            .join(format!("{}-{}", self.workload, std::process::id()))
    }

    /// Where the set-up repetitions that are not kept build their store.
    fn spare_dir(&self) -> PathBuf {
        self.dir
            .join(format!("{}-{}-spare", self.workload, std::process::id()))
    }
}

#[derive(Debug, Clone, Copy)]
pub struct PassMode {
    /// Attach the telemetry registry, record spans, run the isolated passes.
    pub traced: bool,
    pub setup_reps: usize,
    pub recovery_reps: usize,
}

/// One committed batch, in commit order.
#[derive(Debug, Clone, Copy)]
pub struct Write {
    pub edges: u32,
    pub arrival: bool,
    /// Time inside the commit call.
    pub call_ns: u64,
    /// What the client waited: the call, or due time → returned in the open loop.
    pub client_ns: u64,
}

/// Everything one pass over a workload measured.
#[derive(Debug, Default)]
pub struct Measured {
    pub nodes: usize,
    pub input_digest: u64,
    pub gen_build_s: f64,
    pub setup_s: Vec<f64>,
    pub writes: Vec<Write>,
    /// One sample per `serve` / `serve_batch` call, in call order.
    pub query_call_ns: Vec<u64>,
    /// Queries answered per call (1, or the batch width).
    pub query_width: u64,
    pub queries: u64,
    pub fetches: u64,
    /// `GlobalTopK` / `HubAuthorityTopK` calls (traced passes only).
    pub global_ns: Vec<u64>,
    pub lateness_ns: Vec<u64>,
    pub checkpoint_s: Vec<f64>,
    pub checkpoint_bytes: Vec<u64>,
    pub recovery_s: Vec<f64>,
    pub replay_edges: u64,
    /// Timed windows on the recorder's clock.
    pub windows: Vec<(u64, u64)>,
    pub peak_resident_bytes: u64,
    pub peak_was_reset: bool,
    pub cpu_user_s: f64,
    pub cpu_sys_s: f64,
    pub window_bytes_written: u64,
    pub disk_bytes: u64,
    pub disk_live_edges: u64,
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
    /// Per-layer values gathered during a traced pass.
    pub layer: BTreeMap<&'static str, f64>,
}

impl Measured {
    /// Counts one operation or check; a failure is kept with its description.
    pub fn attempt(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.notes.len() < 20 {
                self.notes.push(what());
            }
        }
    }

    pub fn arrival_commits(&self) -> impl Iterator<Item = &Write> {
        self.writes.iter().filter(|w| w.arrival)
    }

    pub fn window_ns(&self) -> u64 {
        self.windows.iter().map(|(from, to)| to - from).sum()
    }

    fn note_answer(&mut self, served: &Served) {
        self.fetches += served.fetches;
        // No workload sets a budget, so a cut-short walk is a failure.
        self.attempt(
            !served.budget_exhausted && !served.deadline_exhausted,
            || format!("query {} came back cut short", served.query_id),
        );
    }
}

/// Runs one set-up and keeps its duration as a `setup_s` sample.
fn timed_setup<T>(m: &mut Measured, setup: impl FnOnce() -> T) -> T {
    let started = Instant::now();
    let value = setup();
    m.setup_s.push(started.elapsed().as_secs_f64());
    value
}

fn reset_dir(dir: &Path) {
    if dir.exists() {
        std::fs::remove_dir_all(dir).expect("cannot clear the store directory");
    }
    if let Some(parent) = dir.parent() {
        std::fs::create_dir_all(parent).expect("cannot create the store parent directory");
    }
}

fn with_telemetry<E: ServeEngine>(q: QueryEngine<E>, tele: Option<&Telemetry>) -> QueryEngine<E> {
    match tele {
        Some(tele) => q.with_telemetry(tele),
        None => q,
    }
}

/// Edge list → durable engine on disk → first checkpoint → serving engine.
fn build_durable(
    dir: &Path,
    initial: &[Edge],
    nodes: usize,
    tele: Option<&Telemetry>,
    rec: &mut Recorder,
) -> Durable {
    reset_dir(dir);
    let create = rec.begin("persist.create", 0);
    let graph = DynamicGraph::from_edges(initial, nodes);
    let mut engine = DurablePageRank::create_durable_disk(dir, graph, engine_config())
        .expect("cannot create the durable store");
    rec.end(create);
    let checkpoint = rec.begin("persist.checkpoint", 0);
    engine.checkpoint().expect("first checkpoint failed");
    rec.end(checkpoint);
    let seed = rec.begin("serve.mirror_seed", 0);
    let q = with_telemetry(QueryEngine::new(engine, QUERY_SEED), tele);
    rec.end(seed);
    q
}

/// Marks the start of a timed window: restarts the peak-RSS watermark and
/// notes the CPU and write counters.
struct WindowStart {
    at_ns: u64,
    cpu: (f64, f64),
    written: u64,
}

fn open_window(m: &mut Measured, rec: &Recorder) -> WindowStart {
    m.peak_was_reset = procfs::reset_peak_resident();
    WindowStart {
        cpu: procfs::cpu_seconds(),
        written: procfs::bytes_written(),
        at_ns: rec.now_ns(),
    }
}

fn close_window(start: WindowStart, m: &mut Measured, rec: &Recorder) {
    m.windows.push((start.at_ns, rec.now_ns()));
    m.peak_resident_bytes = procfs::peak_resident_bytes();
    let cpu = procfs::cpu_seconds();
    m.cpu_user_s += cpu.0 - start.cpu.0;
    m.cpu_sys_s += cpu.1 - start.cpu.1;
    m.window_bytes_written += procfs::bytes_written() - start.written;
}

/// One writer-and-client thread's view of a serving engine: every call into
/// the stack goes through here, is timed, and (in a traced pass) gets a span.
struct Session<'a, E: ServeEngine> {
    q: QueryEngine<E>,
    handle: ServeHandle,
    stream: &'a [Edge],
    m: &'a mut Measured,
    rec: &'a mut Recorder,
    writes: u64,
}

impl<'a, E: ServeEngine> Session<'a, E> {
    fn new(
        q: QueryEngine<E>,
        stream: &'a [Edge],
        m: &'a mut Measured,
        rec: &'a mut Recorder,
    ) -> Self {
        let handle = q.handle();
        Session {
            q,
            handle,
            stream,
            m,
            rec,
            writes: 0,
        }
    }

    /// Commits one batch.  `due_ns` is the open-loop due time; a closed loop
    /// passes `None` and the batch is timed from the call.
    fn write(&mut self, op: &WriteOp, due_ns: Option<u64>) {
        let edges = op.edges(self.stream);
        let start = self.rec.now_ns();
        let name = match op {
            WriteOp::Arrive(_) => {
                black_box(self.q.commit_arrivals(edges));
                "serve.commit"
            }
            WriteOp::Delete(_) => {
                black_box(self.q.commit_deletions(edges));
                "serve.delete"
            }
        };
        let end = self.rec.now_ns();
        self.rec.record(name, self.writes, start, end);
        self.writes += 1;
        self.m.attempted += 1;
        let client_ns = match due_ns {
            Some(due) => {
                let sample = open_loop_sample(due, start, end);
                self.m.lateness_ns.push(sample.lateness_ns);
                sample.lag_ns
            }
            None => end - start,
        };
        self.m.writes.push(Write {
            edges: edges.len() as u32,
            arrival: matches!(op, WriteOp::Arrive(_)),
            call_ns: end - start,
            client_ns,
        });
    }

    /// One timed `serve` call under a span called `name`.
    fn timed_serve(&mut self, name: &'static str, query_id: u64, query: &Query) -> u64 {
        let start = self.rec.now_ns();
        let served = self.handle.serve(query_id, query);
        let end = self.rec.now_ns();
        self.rec.record(name, query_id, start, end);
        self.m.note_answer(&served);
        black_box(served);
        end - start
    }

    fn serve(&mut self, query_id: u64, query: &Query) {
        let ns = self.timed_serve("serve.query", query_id, query);
        self.m.query_call_ns.push(ns);
        self.m.queries += 1;
    }

    /// One `serve_batch` call: a query is answered when its batch returns.
    fn serve_batch(&mut self, batch_id: u64, batch: &QueryBatch) {
        let start = self.rec.now_ns();
        let answers = self.handle.serve_batch(batch);
        let end = self.rec.now_ns();
        self.rec.record("serve.query_batch", batch_id, start, end);
        self.m.query_call_ns.push(end - start);
        self.m.queries += answers.len() as u64;
        for served in &answers {
            self.m.note_answer(served);
        }
        black_box(answers);
    }

    /// Whole-rank queries (`GlobalTopK`, `HubAuthorityTopK`): per-layer only.
    fn serve_global(&mut self, query_id: u64, query: &Query) {
        let ns = self.timed_serve("serve.query_global", query_id, query);
        self.m.global_ns.push(ns);
    }
}

impl Session<'_, DurablePageRank> {
    /// `checkpoint()` through the serving engine: writes are blocked for its
    /// duration, so the stall is what a client would see.
    fn checkpoint(&mut self) {
        let written = procfs::bytes_written();
        let start = self.rec.now_ns();
        let result = self.q.engine_mut().checkpoint();
        let end = self.rec.now_ns();
        self.rec
            .record("persist.checkpoint", self.writes, start, end);
        self.m.checkpoint_s.push((end - start) as f64 / 1e9);
        self.m
            .checkpoint_bytes
            .push(procfs::bytes_written() - written);
        self.m
            .attempt(result.is_ok(), || format!("checkpoint failed: {result:?}"));
    }

    fn note_disk_use(&mut self, dir: &Path) {
        self.m.disk_bytes = procfs::dir_bytes(dir);
        self.m.disk_live_edges = self.q.engine().graph().edge_count() as u64;
    }
}

/// Drops the engine without a checkpoint and restarts from its directory.
///
/// One untimed restart first checks durability — the recovered store's digest
/// and edge count equal the values before the drop, so every acknowledged
/// batch survived — then `reps` timed restarts each measure `open` (snapshot
/// load + WAL replay) → `QueryEngine::new` → first answer.  Returns the last
/// restarted engine.
#[allow(clippy::too_many_arguments)]
fn crash_and_recover(
    q: Durable,
    dir: &Path,
    reps: usize,
    wal_tail_edges: u64,
    first: (u64, &Query),
    tele: Option<&Telemetry>,
    m: &mut Measured,
    rec: &mut Recorder,
) -> Option<Durable> {
    let engine = q.into_engine();
    let before = (
        StoreDigest::of(engine.walk_store()),
        engine.graph().edge_count(),
    );
    drop(engine);

    match DurablePageRank::open(dir) {
        Ok(engine) => {
            m.attempted += 1;
            let after = (
                StoreDigest::of(engine.walk_store()),
                engine.graph().edge_count(),
            );
            m.attempt(before == after, || {
                format!("recovered store differs: before {before:?}, after {after:?}")
            });
        }
        Err(e) => m.attempt(false, || format!("open failed: {e}")),
    }

    let mut last: Option<Durable> = None;
    for rep in 0..reps {
        drop(last.take());
        let start = rec.now_ns();
        let restart = rec.begin("restart", rep as u64);
        let open = rec.begin("persist.open", rep as u64);
        let engine = DurablePageRank::open(dir);
        rec.end(open);
        let engine = match engine {
            Ok(engine) => engine,
            Err(e) => {
                rec.end(restart);
                m.attempt(false, || format!("open failed: {e}"));
                return None;
            }
        };
        m.attempted += 1;
        let seed = rec.begin("serve.mirror_seed", rep as u64);
        let q = with_telemetry(QueryEngine::new(engine, QUERY_SEED), tele);
        rec.end(seed);
        let answer = rec.begin("serve.query", first.0);
        let served = q.handle().serve(first.0, first.1);
        rec.end(answer);
        rec.end(restart);
        let end = rec.now_ns();
        m.note_answer(&served);
        m.recovery_s.push((end - start) as f64 / 1e9);
        m.replay_edges = wal_tail_edges;
        last = Some(q);
    }
    last
}

/// Reads the engine-side per-layer numbers out of one telemetry snapshot.
fn layer_from_snapshot(snap: &TelemetrySnapshot, m: &mut Measured) {
    let counter = |name: &str| snap.counter(name).unwrap_or(0) as f64;
    let gauge = |name: &str| snap.gauge(name).unwrap_or(0.0);
    let sum_ms = |name: &str| snap.histogram(name).map_or(0.0, |h| h.sum as f64 / 1e6);
    let layer = &mut m.layer;
    layer.insert("store.arena_compactions", counter("arena.compactions"));
    layer.insert(
        "store.arena_compaction_ms",
        counter("arena.compaction_nanos") / 1e6,
    );
    layer.insert("store.arena_relocations", counter("arena.relocations"));
    layer.insert("store.arena_dead_fraction", gauge("arena.dead_fraction"));
    layer.insert("persist.pages_rewritten", counter("disk.pages_rewritten"));
    layer.insert("persist.pages_reused", counter("disk.pages_reused"));
    layer.insert("persist.pager_loads", counter("pager.loads"));
    layer.insert("persist.pager_hits", counter("pager.hits"));
    layer.insert("persist.pager_hit_rate", gauge("pager.hit_rate"));
    layer.insert("persist.pager_evictions", counter("pager.evictions"));
    layer.insert("persist.pager_refaults", counter("pager.refaults"));
    layer.insert("persist.pager_bytes_read", counter("pager.bytes_read"));
    layer.insert(
        "persist.resident_page_bytes",
        gauge("residency.resident_page_bytes"),
    );
    layer.insert("serve.commit_apply_ms", sum_ms("commit.apply"));
    layer.insert("serve.commit_mirror_ms", sum_ms("commit.mirror"));
    layer.insert("serve.commit_wal_sync_ms", sum_ms("commit.wal_sync"));
    layer.insert("serve.commit_publish_ms", sum_ms("commit.publish"));
    let commits = counter("commit.commits").max(1.0);
    let chunks = counter("commit.walk_chunks_copied")
        + counter("commit.count_chunks_copied")
        + counter("commit.graph_chunks_copied");
    layer.insert("serve.chunks_copied_per_commit", chunks / commits);
}

/// Reads the query-lifecycle histograms (traced passes; a no-op otherwise).
/// They live in the registry, so the last snapshot of a pass covers every
/// engine the pass attached to it.
fn finish_traced<E: ServeEngine>(q: &QueryEngine<E>, m: &mut Measured) {
    let Some(snap) = q.telemetry_snapshot() else {
        return;
    };
    let mean = |name: &str| snap.histogram(name).map_or(0.0, |h| h.mean());
    m.layer.insert("serve.query_pin_ns", mean("query.pin"));
    m.layer
        .insert("serve.query_walk_us", mean("query.walk") / 1e3);
    m.layer
        .insert("serve.query_topk_us", mean("query.topk") / 1e3);
    let served = snap.counter("query.served").unwrap_or(0).max(1) as f64;
    let saved = snap.counter("query.batch_fetch_saved").unwrap_or(0) as f64;
    m.layer
        .insert("serve.batch_fetch_saved_per_query", saved / served);
    // The generation this engine serves now; on a writing workload that is
    // only the queries since the last commit.
    let hit_rate = snap.gauge("cache.hit_rate").unwrap_or(0.0);
    m.layer.insert("serve.fetch_cache_hit_rate", hit_rate);
}

/// Checks and isolated passes that need the live engine, run between the
/// timed window and the crash.
fn after_window(q: &Durable, seeds: &[NodeId], traced: bool, m: &mut Measured, rec: &mut Recorder) {
    if traced {
        if let Some(snap) = q.telemetry_snapshot() {
            layer_from_snapshot(&snap, m);
        }
        iso::read_path(q.engine(), &seeds[..seeds.len().min(2_000)], m, rec);
        checks::quality(q, seeds, m);
    }
    checks::served_equals_direct(q, &seeds[..seeds.len().min(200)], m);
    let valid = q.engine().validate_segments();
    m.attempt(valid.is_ok(), || format!("validate_segments: {valid:?}"));
}

/// Edges of the arrival batches of a script.
fn arrival_edges(ops: &[WriteOp]) -> u64 {
    ops.iter()
        .map(|op| match op {
            WriteOp::Arrive(range) => range.len() as u64,
            WriteOp::Delete(_) => 0,
        })
        .sum()
}

/// The `i`-th of `parts` contiguous slices of `items`.
fn part<T>(items: &[T], i: usize, parts: usize) -> &[T] {
    &items[i * items.len() / parts..(i + 1) * items.len() / parts]
}

pub fn run_pass(cfg: &RunConfig, mode: PassMode, rec: &mut Recorder) -> Measured {
    let mut m = Measured {
        nodes: cfg.nodes(),
        query_width: 1,
        ..Measured::default()
    };
    match cfg.workload {
        "ingest_stream" => ingest_stream(cfg, mode, &mut m, rec),
        "query_flood" => query_flood(cfg, mode, &mut m, rec),
        "mixed_tides" => mixed_tides(cfg, mode, &mut m, rec),
        "paged_restart" => paged_restart(cfg, mode, &mut m, rec),
        "salsa_churn" => salsa_churn(cfg, mode, &mut m, rec),
        other => unreachable!("unknown workload {other}"),
    }
    for dir in [cfg.store_dir(), cfg.spare_dir()] {
        if dir.exists() {
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
    m
}

/// The set-up repetitions beyond the first: the same build into a spare
/// directory, dropped at once.  They run after the timed window, apart from
/// each other, so a disturbance of a second or two does not hit most of them.
fn spare_setup(cfg: &RunConfig, initial: &[Edge], m: &mut Measured, rec: &mut Recorder) {
    let spare = cfg.spare_dir();
    drop(timed_setup(m, || {
        build_durable(&spare, initial, cfg.nodes(), None, rec)
    }));
}

/// Write path, heap resident.  Four quarters, each the arrival stream in
/// batches of 64 with a 21-edge deletion batch after every 20th, then a
/// checkpoint and a short query probe on the generation just committed; then
/// an uncheckpointed tail, a crash, the restarts, and one more probe on the
/// restarted engine.
fn ingest_stream(cfg: &RunConfig, mode: PassMode, m: &mut Measured, rec: &mut Recorder) {
    const QUARTERS: usize = 4;
    let n = cfg.nodes();
    let generated = Instant::now();
    let stream = arrival_order(n, OUT_DEGREE, cfg.seed);
    let mut rng = Rng::new(cfg.seed ^ 0x001a_9e57);
    let initial = stream.len() * 6 / 10;
    let checkpointed = cfg.count(125.0);
    let shape = ScriptShape {
        initial,
        batch: 64,
        batches: checkpointed + cfg.count(12.0),
        delete_every: 20,
        delete_size: 21,
    };
    let (ops, _) = write_script(&stream, shape, &mut rng);
    // The script may end early on a small graph; the tail is what follows the
    // last checkpoint.
    let arrivals = ops
        .iter()
        .filter(|op| matches!(op, WriteOp::Arrive(_)))
        .count();
    let checkpointed = checkpointed.min(arrivals);
    let probe = query_seeds(n, cfg.count(310.0), true, &mut rng);
    m.input_digest = digest(&stream, &ops, &probe);
    m.gen_build_s = generated.elapsed().as_secs_f64();

    let tele = mode.traced.then(Telemetry::new);
    let dir = cfg.store_dir();
    let q = timed_setup(m, || {
        build_durable(&dir, &stream[..initial], n, tele.as_ref(), rec)
    });

    let window = open_window(m, rec);
    let mut s = Session::new(q, &stream, m, rec);
    let (mut arrived, mut quarter, mut tail_edges) = (0, 0, 0u64);
    for op in &ops {
        s.write(op, None);
        if quarter == QUARTERS {
            tail_edges += op.edges(&stream).len() as u64;
        }
        arrived += matches!(op, WriteOp::Arrive(_)) as usize;
        if quarter < QUARTERS && arrived == checkpointed * (quarter + 1) / QUARTERS {
            s.checkpoint();
            let from = quarter * probe.len() / (QUARTERS + 1);
            for (i, seed) in part(&probe, quarter, QUARTERS + 1).iter().enumerate() {
                s.serve((from + i) as u64, &ppr_query(*seed));
            }
            quarter += 1;
            if quarter == QUARTERS {
                s.note_disk_use(&dir);
            }
        }
    }
    let Session { q, m, rec, .. } = s;
    close_window(window, m, rec);
    if mode.setup_reps > 1 {
        spare_setup(cfg, &stream[..initial], m, rec);
    }

    after_window(&q, &probe, mode.traced, m, rec);
    let first = ppr_query(probe[0]);
    let restarted = crash_and_recover(
        q,
        &dir,
        mode.recovery_reps,
        tail_edges,
        (u64::MAX, &first),
        tele.as_ref(),
        m,
        rec,
    );
    let Some(q) = restarted else { return };

    let from = rec.now_ns();
    let mut s = Session::new(q, &stream, m, rec);
    let offset = QUARTERS * probe.len() / (QUARTERS + 1);
    for (i, seed) in part(&probe, QUARTERS, QUARTERS + 1).iter().enumerate() {
        s.serve((offset + i) as u64, &ppr_query(*seed));
    }
    if mode.traced {
        for qid in 0..cfg.count(6.0) as u64 {
            s.serve_global(1 << 40 | qid, &Query::GlobalTopK { k: K });
        }
    }
    let Session { q, m, rec, .. } = s;
    m.windows.push((from, rec.now_ns()));
    finish_traced(&q, m);
    drop(q);
    if mode.setup_reps > 2 {
        spare_setup(cfg, &stream[..initial], m, rec);
    }
    if mode.traced {
        iso::write_path(&stream, initial, n, &ops, &cfg.dir, m, rec);
    }
}

/// Read path on warm generations.  Four phases, each a short top-up (a
/// quarter of the last 10 % of the graph, in batches of 64) and then a flood of
/// Zipf-seeded queries with no write in between: one generation per flood, so
/// the fetch cache warms in its first few hundred queries and stays warm.
fn query_flood(cfg: &RunConfig, mode: PassMode, m: &mut Measured, rec: &mut Recorder) {
    const PHASES: usize = 4;
    let n = cfg.nodes();
    let generated = Instant::now();
    let stream = arrival_order(n, OUT_DEGREE, cfg.seed);
    let mut rng = Rng::new(cfg.seed ^ 0x000f_100d);
    let initial = stream.len() * 9 / 10;
    let shape = ScriptShape {
        initial,
        batch: 64,
        batches: usize::MAX,
        delete_every: 0,
        delete_size: 0,
    };
    let (ops, _) = write_script(&stream, shape, &mut rng);
    let seeds = query_seeds(n, cfg.count(5_500.0), true, &mut rng);
    m.input_digest = digest(&stream, &ops, &seeds);
    m.gen_build_s = generated.elapsed().as_secs_f64();

    let tele = mode.traced.then(Telemetry::new);
    let dir = cfg.store_dir();
    let q = timed_setup(m, || {
        build_durable(&dir, &stream[..initial], n, tele.as_ref(), rec)
    });

    let window = open_window(m, rec);
    let mut s = Session::new(q, &stream, m, rec);
    for phase in 0..PHASES {
        for op in part(&ops, phase, PHASES) {
            s.write(op, None);
        }
        let from = phase * seeds.len() / PHASES;
        for (i, seed) in part(&seeds, phase, PHASES).iter().enumerate() {
            s.serve((from + i) as u64, &ppr_query(*seed));
        }
    }
    if mode.traced {
        for qid in 0..cfg.count(40.0) as u64 {
            s.serve_global(1 << 40 | qid, &Query::GlobalTopK { k: K });
        }
    }
    let Session { q, m, rec, .. } = s;
    close_window(window, m, rec);
    finish_traced(&q, m);
    if mode.setup_reps > 1 {
        spare_setup(cfg, &stream[..initial], m, rec);
    }

    after_window(&q, &seeds, mode.traced, m, rec);
    let first = ppr_query(seeds[0]);
    drop(crash_and_recover(
        q,
        &dir,
        mode.recovery_reps,
        arrival_edges(&ops),
        (u64::MAX, &first),
        tele.as_ref(),
        m,
        rec,
    ));
    if mode.setup_reps > 2 {
        spare_setup(cfg, &stream[..initial], m, rec);
    }
    if mode.traced {
        iso::write_path(&stream, initial, n, &ops, &cfg.dir, m, rec);
    }
}

/// Open-loop writer interleaved with a closed-loop batch reader on one thread.
/// A 32-edge commit is due every 8 ms (4 000 edges/s, about a quarter of the
/// closed-loop capacity) and is timed **from its due time**; between commits
/// the client serves batches of 16, and a commit that falls due waits for the
/// batch in flight.  Every commit publishes a generation, so the read caches
/// restart cold 125 times a second.
///
/// One thread, not two: the reference box's two CPUs are at times hyperthread
/// siblings, and then a reader beside a writer reads p90 2 800 µs and 7 600
/// queries/s instead of 1 850 µs and 9 100, for ten minutes and more at a time.
fn mixed_tides(cfg: &RunConfig, mode: PassMode, m: &mut Measured, rec: &mut Recorder) {
    const PERIOD_NS: u64 = 8_000_000;
    const WIDTH: usize = 16;
    let n = cfg.nodes();
    let generated = Instant::now();
    let stream = arrival_order(n, OUT_DEGREE, cfg.seed);
    let mut rng = Rng::new(cfg.seed ^ 0x0007_1de5);
    let initial = stream.len() * 85 / 100;
    let shape = ScriptShape {
        initial,
        batch: 32,
        batches: cfg.count(125.0),
        delete_every: 0,
        delete_size: 0,
    };
    let (ops, _) = write_script(&stream, shape, &mut rng);
    // More batches than fit between the commits; the run ends with the schedule.
    let seeds = query_seeds(n, cfg.count(1_000.0) * WIDTH, true, &mut rng);
    m.input_digest = digest(&stream, &ops, &seeds);
    let batches: Vec<QueryBatch> = seeds
        .chunks(WIDTH)
        .enumerate()
        .map(|(b, chunk)| {
            let jobs: Vec<(u64, Query)> = chunk
                .iter()
                .enumerate()
                .map(|(slot, seed)| ((b * WIDTH + slot) as u64, ppr_query(*seed)))
                .collect();
            QueryBatch::of(&jobs)
        })
        .collect();
    m.query_width = WIDTH as u64;
    m.gen_build_s = generated.elapsed().as_secs_f64();

    let tele = mode.traced.then(Telemetry::new);
    let dir = cfg.store_dir();
    let q = timed_setup(m, || {
        build_durable(&dir, &stream[..initial], n, tele.as_ref(), rec)
    });

    let window = open_window(m, rec);
    let mut s = Session::new(q, &stream, m, rec);
    let base = s.rec.now_ns();
    let mut pending = batches.iter().enumerate();
    for (i, op) in ops.iter().enumerate() {
        let due = base + i as u64 * PERIOD_NS;
        while s.rec.now_ns() < due {
            match pending.next() {
                Some((b, batch)) => s.serve_batch(b as u64, batch),
                None => std::thread::sleep(Duration::from_nanos(due - s.rec.now_ns().min(due))),
            }
        }
        s.write(op, Some(due));
    }
    let Session { q, m, rec, .. } = s;
    close_window(window, m, rec);
    finish_traced(&q, m);
    if mode.setup_reps > 1 {
        spare_setup(cfg, &stream[..initial], m, rec);
    }

    after_window(&q, &seeds, mode.traced, m, rec);
    let first = ppr_query(seeds[0]);
    drop(crash_and_recover(
        q,
        &dir,
        mode.recovery_reps,
        arrival_edges(&ops),
        (u64::MAX, &first),
        tele.as_ref(),
        m,
        rec,
    ));
    if mode.setup_reps > 2 {
        spare_setup(cfg, &stream[..initial], m, rec);
    }
    if mode.traced {
        iso::write_path(&stream, initial, n, &ops, &cfg.dir, m, rec);
    }
}

/// The store larger than the page budget.  Set-up builds and checkpoints 70 %
/// of the graph with the heap resident and leaves a WAL tail; the timed part
/// restarts under a budget of a tenth of the heap pages, then runs rounds of
/// one 64-edge commit and eight uniform-seed queries, with two checkpoints.
fn paged_restart(cfg: &RunConfig, mode: PassMode, m: &mut Measured, rec: &mut Recorder) {
    let n = cfg.nodes();
    let generated = Instant::now();
    let stream = arrival_order(n, OUT_DEGREE, cfg.seed);
    let mut rng = Rng::new(cfg.seed ^ 0x0009_a6ed);
    let built = stream.len() * 7 / 10;
    let tail_edges = n / 5;
    let initial = built + tail_edges;
    let shape = ScriptShape {
        initial,
        batch: 64,
        batches: cfg.count(100.0),
        delete_every: 0,
        delete_size: 0,
    };
    let (ops, _) = write_script(&stream, shape, &mut rng);
    let seeds = query_seeds(n, ops.len() * 8, false, &mut rng);
    m.input_digest = digest(&stream, &ops, &seeds);
    m.gen_build_s = generated.elapsed().as_secs_f64();

    let tele = mode.traced.then(Telemetry::new);
    let dir = cfg.store_dir();
    // Set-up is the build, the first checkpoint, the mirror and the WAL tail,
    // all with the heap resident.
    let setup = |dir: &Path, tele: Option<&Telemetry>, rec: &mut Recorder| {
        let mut q = build_durable(dir, &stream[..built], n, tele, rec);
        for batch in stream[built..initial].chunks(64) {
            q.commit_arrivals(batch);
        }
        q
    };
    set_thread_page_budget(Some(PageBudget::unbounded()));
    let q = timed_setup(m, || setup(&dir, tele.as_ref(), rec));
    let heap_pages = q.engine().walk_store().heap_geometry().0 / 1024;
    let budget = PageBudget::bounded((heap_pages as usize / 10).max(16));

    set_thread_page_budget(Some(budget));
    let first = ppr_query(seeds[0]);
    let restarted = crash_and_recover(
        q,
        &dir,
        mode.recovery_reps.max(1),
        tail_edges as u64,
        (u64::MAX, &first),
        tele.as_ref(),
        m,
        rec,
    );
    let Some(q) = restarted else {
        set_thread_page_budget(None);
        return;
    };
    let window = open_window(m, rec);
    let mut s = Session::new(q, &stream, m, rec);
    for (round, op) in ops.iter().enumerate() {
        s.write(op, None);
        for slot in 0..8 {
            let qid = round * 8 + slot;
            s.serve(qid as u64, &ppr_query(seeds[qid]));
        }
        if round + 1 == ops.len() / 3 || round + 1 == ops.len() * 2 / 3 {
            s.checkpoint();
        }
    }
    s.note_disk_use(&dir);
    let Session { q, m, rec, .. } = s;
    close_window(window, m, rec);
    finish_traced(&q, m);
    let spare_setup = |m: &mut Measured, rec: &mut Recorder| {
        set_thread_page_budget(Some(PageBudget::unbounded()));
        drop(timed_setup(m, || setup(&cfg.spare_dir(), None, rec)));
        set_thread_page_budget(Some(budget));
    };
    if mode.setup_reps > 1 {
        spare_setup(m, rec);
    }

    after_window(&q, &seeds, mode.traced, m, rec);
    // Durability of the paged path: check-only restart, nothing timed.
    crash_and_recover(q, &dir, 0, 0, (u64::MAX, &first), None, m, rec);
    if mode.setup_reps > 2 {
        spare_setup(m, rec);
    }
    set_thread_page_budget(None);
    if mode.traced {
        iso::write_path(&stream, initial, n, &ops, &cfg.dir, m, rec);
    }
}

/// SALSA in memory.  Four phases, each arrival batches of 32 with a 32-edge
/// deletion batch after every 8th, then personalized authority queries.  A
/// restart of an in-memory engine is a rebuild from the live edge list, and
/// is timed as such.
fn salsa_churn(cfg: &RunConfig, mode: PassMode, m: &mut Measured, rec: &mut Recorder) {
    const PHASES: usize = 4;
    let n = cfg.nodes();
    let generated = Instant::now();
    let stream = arrival_order(n, OUT_DEGREE, cfg.seed);
    let mut rng = Rng::new(cfg.seed ^ 0x0005_a15a);
    let initial = stream.len() * 8 / 10;
    let shape = ScriptShape {
        initial,
        batch: 32,
        batches: cfg.count(38.0),
        delete_every: 8,
        delete_size: 32,
    };
    let (ops, live) = write_script(&stream, shape, &mut rng);
    let seeds = query_seeds(n, cfg.count(600.0), true, &mut rng);
    m.input_digest = digest(&stream, &ops, &seeds);
    m.gen_build_s = generated.elapsed().as_secs_f64();

    let tele = mode.traced.then(Telemetry::new);
    let build = |edges: &[Edge], tele: Option<&Telemetry>, rec: &mut Recorder| {
        let init = rec.begin("core.init_walks", 0);
        let engine =
            IncrementalSalsa::from_graph(DynamicGraph::from_edges(edges, n), engine_config());
        rec.end(init);
        let seed = rec.begin("serve.mirror_seed", 0);
        let q = with_telemetry(QueryEngine::new(engine, QUERY_SEED), tele);
        rec.end(seed);
        q
    };
    let q = timed_setup(m, || build(&stream[..initial], tele.as_ref(), rec));

    let window = open_window(m, rec);
    let mut s = Session::new(q, &stream, m, rec);
    for phase in 0..PHASES {
        for op in part(&ops, phase, PHASES) {
            s.write(op, None);
        }
        let from = phase * seeds.len() / PHASES;
        for (i, seed) in part(&seeds, phase, PHASES).iter().enumerate() {
            s.serve((from + i) as u64, &salsa_query(*seed));
        }
    }
    if mode.traced {
        for qid in 0..cfg.count(6.0) as u64 {
            s.serve_global(1 << 40 | qid, &Query::HubAuthorityTopK { k: K });
        }
    }
    let Session { q, m, rec, .. } = s;
    close_window(window, m, rec);
    if let Some(snap) = q.telemetry_snapshot() {
        layer_from_snapshot(&snap, m);
    }
    finish_traced(&q, m);
    if mode.setup_reps > 1 {
        drop(timed_setup(m, || build(&stream[..initial], None, rec)));
    }

    checks::salsa_served_equals_direct(&q, &seeds[..seeds.len().min(200)], m);
    let valid = q.engine().validate_segments();
    m.attempt(valid.is_ok(), || format!("validate_segments: {valid:?}"));
    let edges = q.engine().graph().edge_count();
    m.attempt(edges == live.len(), || {
        format!("engine holds {edges} edges, the script left {}", live.len())
    });
    drop(q);

    let first = salsa_query(seeds[0]);
    for rep in 0..mode.recovery_reps {
        let start = rec.now_ns();
        let restart = rec.begin("restart", rep as u64);
        let q = build(&live, tele.as_ref(), rec);
        let answer = rec.begin("serve.query", u64::MAX);
        let served = q.handle().serve(u64::MAX, &first);
        rec.end(answer);
        rec.end(restart);
        m.recovery_s.push((rec.now_ns() - start) as f64 / 1e9);
        m.note_answer(&served);
    }
    if mode.setup_reps > 2 {
        drop(timed_setup(m, || build(&stream[..initial], None, rec)));
    }
    if mode.traced {
        iso::salsa_write_path(&stream, initial, n, &ops, m, rec);
    }
}
