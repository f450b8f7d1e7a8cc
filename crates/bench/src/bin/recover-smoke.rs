//! Crash-kill recovery smoke test: write, SIGKILL mid-WAL, reopen, verify.
//!
//! The binary runs itself twice.  The **parent** spawns a **child** (`--child`)
//! that builds a durable engine, checkpoints once, and then applies WAL-logged
//! batches, pausing [`BATCH_GAP`] after each one past the checkpoint.  The parent
//! waits for the checkpoint to publish and for two post-checkpoint records to be
//! framed, then kills the child with SIGKILL at once — no destructors, no
//! flushes, exactly the crash the WAL is for — while it still has batches to
//! log, and checks that some of them are indeed missing from the log.  It then
//! scars the log tail with garbage bytes (a torn half-frame), recovers, and
//! asserts the recovered engine is **byte-identical** to an in-memory oracle
//! that applied exactly the surviving batches — scores, visit counts, postings,
//! paths, and work counters.  Recovery installs the logged effects of the
//! surviving records (growth segments and rewrites), so the oracle, which re-runs
//! their batches, is an independent check.
//! The store is then recovered a second time into the file-backed layout, which
//! demand-faults every path the replay rewrites through the page cache
//! `PPR_PAGE_BUDGET` bounds, and held to the same oracle by digest.
//!
//! By default the batch schedule is a synthetic preferential-attachment stream
//! with interleaved deletions.  Pass `--scenario <name>` to crash-test a member
//! of the `ppr-scenario` corpus instead: the write schedule becomes that
//! scenario's compiled trace (`Trace::write_batches`), so the kill lands inside
//! a flash crowd's growth, a spam wave's mass-unfollow reversal, etc.
//!
//! Run with `cargo run --release --bin recover-smoke [-- --scenario <name>]`;
//! exits non-zero on any divergence.  CI runs this after the test suites, once
//! per corpus scenario it pins.

use ppr_core::{DurablePageRank, IncrementalPageRank, MonteCarloConfig};
use ppr_graph::generators::{preferential_attachment_edges, PreferentialAttachmentConfig};
use ppr_graph::stream::random_permutation;
use ppr_graph::{DynamicGraph, Edge, GraphView, NodeId};
use ppr_persist::wal::read_records;
use ppr_persist::{TempDir, WalOp};
use ppr_store::{StoreDigest, WalkIndexView, WalkStore};
use std::io::Write as _;
use std::process::Command;
use std::time::{Duration, Instant};

const DIR_ENV: &str = "PPR_SMOKE_DIR";

/// The child's pause after each post-checkpoint batch: long enough that the
/// parent's kill, issued once two records are framed, lands before the schedule
/// runs out (the shortest pinned schedule logs 10 batches past its checkpoint).
const BATCH_GAP: Duration = Duration::from_millis(50);

/// Post-checkpoint records the parent waits to see framed before it kills.
const KILL_AFTER: usize = 2;

/// A crash-test workload: the deterministic batch schedule both processes compute
/// identically, plus the engine shape it runs against.  Engines start with no
/// nodes, and [`number_by_first_mention`] renumbers the schedule so each batch
/// creates the nodes it names first: the log records growth segments on both
/// sides of the checkpoint.
struct Workload {
    name: String,
    config: MonteCarloConfig,
    /// Batches applied before the child publishes its one checkpoint.
    checkpoint_after: usize,
    ops: Vec<(WalOp, Vec<Edge>)>,
}

/// The default synthetic schedule: arrival batches with every fifth batch a
/// deletion batch of earlier edges.
fn builtin_workload() -> Workload {
    const NODES: usize = 400;
    let pa = PreferentialAttachmentConfig::new(NODES, 5, 77);
    let edges = random_permutation(&preferential_attachment_edges(&pa), 79);
    let mut ops = Vec::new();
    let mut start = 0usize;
    while start < edges.len() {
        let end = (start + 13).min(edges.len());
        ops.push((WalOp::Arrivals, edges[start..end].to_vec()));
        if ops.len() % 5 == 0 {
            let victims: Vec<Edge> = edges[..end].iter().copied().step_by(11).take(4).collect();
            ops.push((WalOp::Deletions, victims));
        }
        start = end;
    }
    Workload {
        name: "builtin".into(),
        config: MonteCarloConfig::new(0.2, 4).with_seed(4242),
        checkpoint_after: 20,
        ops,
    }
}

/// Renumbers the nodes of `ops` in the order the schedule first names them, so
/// node ids grow batch by batch instead of the first batch creating them all.
/// The graph the schedule builds is the same up to that renumbering.
fn number_by_first_mention(ops: &mut [(WalOp, Vec<Edge>)]) {
    let mut ids = std::collections::HashMap::new();
    for (_, batch) in ops.iter_mut() {
        for edge in batch.iter_mut() {
            for node in [&mut edge.source, &mut edge.target] {
                let next = NodeId::from_index(ids.len());
                *node = *ids.entry(*node).or_insert(next);
            }
        }
    }
}

/// Resolves `--scenario <name>` against the corpus, falling back to the builtin
/// schedule when no scenario was requested.
fn workload(scenario: Option<&str>) -> Workload {
    let mut work = named_workload(scenario);
    number_by_first_mention(&mut work.ops);
    work
}

fn named_workload(scenario: Option<&str>) -> Workload {
    let Some(name) = scenario else {
        return builtin_workload();
    };
    let Some(scenario) = ppr_scenario::corpus::by_name(name) else {
        eprintln!("[recover-smoke] unknown scenario {name:?}; the corpus is:");
        for member in ppr_scenario::corpus::corpus() {
            eprintln!("[recover-smoke]   {}", member.name);
        }
        std::process::exit(2);
    };
    let trace = ppr_scenario::Trace::compile(&scenario);
    let ops = trace.write_batches();
    Workload {
        name: scenario.name.clone(),
        config: scenario.engine_config(),
        // One checkpoint a third of the way in: most of the schedule (including
        // any mass-unfollow reversal) replays from the WAL after the crash.
        checkpoint_after: (ops.len() / 3).max(1),
        ops,
    }
}

fn apply(engine: &mut IncrementalPageRank, op: &(WalOp, Vec<Edge>)) {
    match op.0 {
        WalOp::Arrivals => {
            engine.apply_arrivals(&op.1);
        }
        WalOp::Deletions => {
            engine.apply_deletions(&op.1);
        }
    }
}

/// Child: build, checkpoint, then log batches, pausing after each, until killed.
fn run_child(work: &Workload) -> ! {
    let root = std::env::var(DIR_ENV).expect("child needs the store dir");
    let mut engine =
        IncrementalPageRank::create_durable(&root, DynamicGraph::with_nodes(0), work.config)
            .expect("create_durable");
    for op in &work.ops[..work.checkpoint_after] {
        apply(&mut engine, op);
    }
    engine.checkpoint().expect("checkpoint");
    for op in &work.ops[work.checkpoint_after..] {
        apply(&mut engine, op);
        std::thread::sleep(BATCH_GAP);
    }
    // Ran out of schedule before the parent killed us; park, and the parent's
    // check that the kill cut the schedule short fails the run.
    loop {
        std::thread::sleep(BATCH_GAP);
    }
}

fn run_parent(work: &Workload, scenario: Option<&str>) {
    let tmp = TempDir::new("recover-smoke");
    let root = tmp.path().join("store");
    let exe = std::env::current_exe().expect("own path");
    let mut cmd = Command::new(exe);
    cmd.arg("--child");
    if let Some(name) = scenario {
        cmd.args(["--scenario", name]);
    }
    let mut child = cmd.env(DIR_ENV, &root).spawn().expect("spawn child");

    // Wait for the child to publish generation 1 and then — so the kill lands
    // mid-stream rather than mid-startup on a slow runner — for `KILL_AFTER`
    // post-checkpoint batches to be durably framed in its WAL; kill at once.
    let deadline = Instant::now() + Duration::from_secs(60);
    let wal_path = root.join("wal-000001.log");
    loop {
        let checkpointed = std::fs::read_to_string(root.join("CURRENT"))
            .map(|s| s.trim() == "1")
            .unwrap_or(false);
        if checkpointed
            && read_records(&wal_path)
                .map(|s| s.records.len() >= KILL_AFTER)
                .unwrap_or(false)
        {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "child never checkpointed and logged {KILL_AFTER} batches"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    child.kill().expect("SIGKILL the child");
    child.wait().expect("reap the child");

    // What survived?  Scan the log the crash left behind (pre-truncation) to learn
    // how many batches were fully synced.
    let scan = read_records(&wal_path).expect("scan crashed WAL");
    let survivors = scan.records.len();
    let scheduled = work.ops.len() - work.checkpoint_after;
    println!(
        "[recover-smoke] workload {}: child killed; {survivors} of \
         {scheduled} post-checkpoint batches in the WAL (torn tail: {})",
        work.name, scan.torn_tail
    );
    assert!(
        survivors >= KILL_AFTER,
        "the child should have logged batches past its checkpoint"
    );
    assert!(
        survivors < scheduled,
        "the kill landed after the child had logged all {scheduled} batches"
    );

    // Scar the tail further: garbage bytes where a frame was being written.
    {
        let mut file = std::fs::OpenOptions::new()
            .append(true)
            .open(&wal_path)
            .expect("open WAL for scarring");
        file.write_all(&[0xEE; 9]).expect("append garbage");
    }

    // Recover, and hold the result to the in-memory oracle.
    let recovered = IncrementalPageRank::<WalkStore>::open(&root).expect("recovery");
    let mut oracle = IncrementalPageRank::new_empty(0, work.config);
    for op in &work.ops[..work.checkpoint_after] {
        apply(&mut oracle, op);
    }
    let checkpointed_nodes = oracle.node_count();
    for op in &work.ops[work.checkpoint_after..work.checkpoint_after + survivors] {
        apply(&mut oracle, op);
    }

    assert_eq!(recovered.scores(), oracle.scores(), "scores diverge");
    assert_eq!(recovered.work(), oracle.work(), "work counters diverge");
    let (a, b) = (recovered.walk_store(), oracle.walk_store());
    assert_eq!(a.total_visits(), b.total_visits(), "total_visits diverge");
    assert_eq!(
        WalkIndexView::visit_counts(a),
        WalkIndexView::visit_counts(b),
        "visit counts diverge"
    );
    assert_eq!(
        recovered.node_count(),
        oracle.node_count(),
        "node counts diverge"
    );
    for g in 0..oracle.node_count() {
        let node = NodeId::from_index(g);
        let pa: Vec<_> = a.segments_visiting(node).collect();
        let pb: Vec<_> = b.segments_visiting(node).collect();
        assert_eq!(pa, pb, "postings of node {g} diverge");
        for id in a.segment_ids_of(node) {
            assert_eq!(
                a.segment_path(id),
                b.segment_path(id),
                "path {id:?} diverges"
            );
        }
    }
    recovered
        .validate_segments()
        .expect("recovered segments valid");
    let edges = recovered.graph().edge_count();
    drop(recovered);

    let paged = DurablePageRank::open(&root).expect("recovery into the disk layout");
    assert_eq!(
        StoreDigest::of(paged.walk_store()),
        StoreDigest::of(oracle.walk_store()),
        "the disk layout's recovery diverges"
    );
    assert_eq!(
        paged.work(),
        oracle.work(),
        "disk layout: work counters diverge"
    );
    paged
        .validate_segments()
        .expect("disk layout: recovered segments valid");

    println!(
        "[recover-smoke] PASS ({}): recovered bit-identically to the oracle at \
         {} batches ({} edges in the graph, {} of its {} nodes created after the \
         checkpoint)",
        work.name,
        work.checkpoint_after + survivors,
        edges,
        oracle.node_count() - checkpointed_nodes,
        oracle.node_count()
    );
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let scenario = args.iter().position(|a| a == "--scenario").map(|i| {
        args.get(i + 1)
            .unwrap_or_else(|| {
                eprintln!("[recover-smoke] --scenario needs a corpus name");
                std::process::exit(2);
            })
            .as_str()
    });
    let work = workload(scenario);
    if args.iter().any(|a| a == "--child") {
        run_child(&work);
    }
    run_parent(&work, scenario);
}
