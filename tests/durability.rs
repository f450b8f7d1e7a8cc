//! Restart-equivalence differential harness: crash anywhere, recover, resume —
//! and the result is byte-identical to an engine that never crashed.
//!
//! The oracle: for a seeded stream of mixed arrival/deletion batches,
//!
//! ```text
//! (full in-memory run)
//!   ≡ (run k batches, checkpoint, run to c, CRASH discarding all memory,
//!      recover from snapshot + WAL, resume c..N)
//! ```
//!
//! with **byte-identical** scores, visit counts, postings, stored paths, and work
//! counters — at the flat and disk-backed store layouts, for checkpoint positions
//! k ∈ {0, mid, N}.  The snapshot files are held to the same standard: the two
//! layouts fed one history write the same bytes, and a recovered engine's next
//! checkpoint writes the file an engine that never crashed writes.  The corruption half: a flipped byte in the current snapshot falls back to the
//! previous generation (replaying both WALs), and a torn WAL tail recovers cleanly
//! to the last fully synced batch.

use fast_ppr::prelude::*;
use ppr_core::durable::DurablePageRank;
use ppr_core::{PageRank, Salsa, WalkEngine, WalkKind};
use ppr_graph::generators::{preferential_attachment_edges, PreferentialAttachmentConfig};
use ppr_graph::stream::random_permutation;
use ppr_graph::Edge;
use ppr_persist::dir::StoreDir;
use ppr_persist::layout::{PagedWalks, PersistentWalkStore, WALKS_PAGE_SIZE};
use ppr_persist::snapshot::{SnapshotFile, SnapshotWriter, SECTION_GRAPH, SECTION_WALKS};
use ppr_persist::TempDir;
use ppr_persist::{set_thread_page_budget, DiskWalkStore, PageBudget};
use ppr_store::StoreDigest;
use std::collections::BTreeSet;
use std::path::Path;

const NODES: usize = 120;

/// One durable operation: an arrival batch or a deletion batch.
#[derive(Debug, Clone)]
enum Op {
    Arrive(Vec<Edge>),
    Delete(Vec<Edge>),
}

/// A seeded stream of mixed-size arrival batches with interleaved deletion batches
/// (every third op deletes a slice of the edges already delivered).
fn schedule(seed: u64) -> Vec<Op> {
    let pa = PreferentialAttachmentConfig::new(NODES, 4, seed);
    let edges = random_permutation(&preferential_attachment_edges(&pa), seed ^ 0xfeed);
    let mut ops = Vec::new();
    let mut start = 0usize;
    for &len in [5usize, 33, 1, 64, 9, 17].iter().cycle() {
        if start >= edges.len() {
            break;
        }
        let end = (start + len).min(edges.len());
        ops.push(Op::Arrive(edges[start..end].to_vec()));
        if ops.len() % 3 == 0 {
            let victims: Vec<Edge> = edges[..end].iter().copied().step_by(7).take(8).collect();
            ops.push(Op::Delete(victims));
        }
        start = end;
    }
    ops
}

fn apply_op<K: WalkKind, W: WalkIndexMut>(engine: &mut WalkEngine<K, W>, op: &Op) {
    match op {
        Op::Arrive(batch) => {
            engine.apply_arrivals(batch);
        }
        Op::Delete(batch) => {
            engine.apply_deletions(batch);
        }
    }
}

/// Asserts two PageRank Stores hold byte-identical contents.
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

/// The crash/recover/resume half of one equivalence case, generic over the store
/// layout: the durable engine has already applied `ops[..k]` and checkpointed; this
/// applies `ops[k..c]` (into the WAL), crashes, reopens, resumes `ops[c..]`, and
/// hands the recovered engine back.
fn crash_recover_resume<W>(
    mut engine: IncrementalPageRank<W>,
    root: &std::path::Path,
    ops: &[Op],
    k: usize,
    context: &str,
) -> IncrementalPageRank<W>
where
    W: WalkIndexMut + PersistentWalkStore,
{
    let gen = engine
        .checkpoint()
        .unwrap_or_else(|e| panic!("{context}: checkpoint failed: {e}"));
    assert!(engine.is_durable());
    let crash_at = k + (ops.len() - k) / 2;
    for op in &ops[k..crash_at] {
        apply_op(&mut engine, op);
    }
    drop(engine); // the crash: every in-memory structure is gone

    let mut recovered = IncrementalPageRank::<W>::open(root)
        .unwrap_or_else(|e| panic!("{context}: recovery from generation {gen} failed: {e}"));
    for op in &ops[crash_at..] {
        apply_op(&mut recovered, op);
    }
    recovered
}

/// The bytes of generation `gen`'s snapshot under `root`.
fn snapshot_file(root: &Path, gen: u64) -> Vec<u8> {
    std::fs::read(
        StoreDir::open(root.to_path_buf())
            .unwrap()
            .snapshot_path(gen),
    )
    .unwrap()
}

/// Holds the snapshots of an engine `crash_recover_resume` recovered at `root` to
/// `twin`, a durable engine of the other layout fed the same schedule without a
/// crash: at the checkpoint after `ops[..k]` the two wrote byte-identical files,
/// and the recovered engine's next checkpoint, after the whole schedule, writes the
/// file the twin writes after it — walks section, META and graph alike.
fn assert_snapshots_match_an_uninterrupted_twin<W, T>(
    recovered: &mut IncrementalPageRank<W>,
    root: &Path,
    mut twin: IncrementalPageRank<T>,
    twin_root: &Path,
    ops: &[Op],
    k: usize,
    context: &str,
) where
    W: WalkIndexMut + PersistentWalkStore,
    T: WalkIndexMut + PersistentWalkStore,
{
    for op in &ops[..k] {
        apply_op(&mut twin, op);
    }
    assert_eq!(twin.checkpoint().unwrap(), 1);
    assert!(
        snapshot_file(root, 1) == snapshot_file(twin_root, 1),
        "{context}: the layouts wrote different snapshots of one history"
    );
    for op in &ops[k..] {
        apply_op(&mut twin, op);
    }
    assert_eq!(twin.checkpoint().unwrap(), 2);
    assert_eq!(recovered.checkpoint().unwrap(), 2);
    assert!(
        snapshot_file(root, 2) == snapshot_file(twin_root, 2),
        "{context}: the recovered engine's next snapshot differs from the \
         uninterrupted twin's"
    );
}

#[test]
fn restart_equivalence_flat_layout() {
    let ops = schedule(601);
    let config = MonteCarloConfig::new(0.2, 4).with_seed(603);
    let mut reference = IncrementalPageRank::new_empty(NODES, config);
    for op in &ops {
        apply_op(&mut reference, op);
    }
    reference.validate_segments().unwrap();

    for k in [0, ops.len() / 2, ops.len()] {
        let tmp = TempDir::new("flat-restart");
        let root = tmp.path().join("store");
        let mut engine =
            IncrementalPageRank::create_durable(&root, DynamicGraph::with_nodes(NODES), config)
                .expect("create_durable");
        for op in &ops[..k] {
            apply_op(&mut engine, op);
        }
        let context = format!("flat, checkpoint at {k}/{}", ops.len());
        let mut recovered = crash_recover_resume(engine, &root, &ops, k, &context);
        assert_eq!(recovered.scores(), reference.scores(), "{context}: scores");
        assert_eq!(
            recovered.work(),
            reference.work(),
            "{context}: work counters"
        );
        assert_stores_identical(recovered.walk_store(), reference.walk_store(), &context);
        recovered.validate_segments().unwrap();
        let twin_root = tmp.path().join("disk-twin");
        let twin = DurablePageRank::create_durable_disk(
            &twin_root,
            DynamicGraph::with_nodes(NODES),
            config,
        )
        .expect("create_durable_disk");
        assert_snapshots_match_an_uninterrupted_twin(
            &mut recovered,
            &root,
            twin,
            &twin_root,
            &ops,
            k,
            &context,
        );
    }
}

#[test]
fn restart_equivalence_disk_layout() {
    let ops = schedule(613);
    let config = MonteCarloConfig::new(0.2, 3).with_seed(617);
    let mut reference = IncrementalPageRank::new_empty(NODES, config);
    for op in &ops {
        apply_op(&mut reference, op);
    }

    for k in [0, ops.len() / 2, ops.len()] {
        let tmp = TempDir::new("disk-restart");
        let root = tmp.path().join("store");
        let mut engine =
            DurablePageRank::create_durable_disk(&root, DynamicGraph::with_nodes(NODES), config)
                .expect("create_durable_disk");
        for op in &ops[..k] {
            apply_op(&mut engine, op);
        }
        let context = format!("disk, checkpoint at {k}/{}", ops.len());
        let mut recovered = crash_recover_resume(engine, &root, &ops, k, &context);
        assert_eq!(recovered.scores(), reference.scores(), "{context}: scores");
        assert_stores_identical(recovered.walk_store(), reference.walk_store(), &context);
        recovered.validate_segments().unwrap();
        // The recovered store cold-opened through the page cache.
        assert!(
            recovered.walk_store().pager_stats().loads > 0,
            "{context}: cold open must fault pages in"
        );
        // Its next checkpoint copies the segments the resumed schedule left alone
        // out of the recovered generation's heap.
        let twin_root = tmp.path().join("flat-twin");
        let twin = IncrementalPageRank::create_durable(
            &twin_root,
            DynamicGraph::with_nodes(NODES),
            config,
        )
        .expect("create_durable");
        assert_snapshots_match_an_uninterrupted_twin(
            &mut recovered,
            &root,
            twin,
            &twin_root,
            &ops,
            k,
            &context,
        );
    }
}

/// The heap pages of generation `gen`'s snapshot under `root` that hold a segment
/// the generation's WAL rewrites.
fn pages_the_tail_rewrites(root: &Path, gen: u64) -> BTreeSet<u64> {
    let dir = StoreDir::open(root.to_path_buf()).unwrap();
    let walks = PagedWalks::open(&dir.snapshot_path(gen)).unwrap();
    let records = ppr_persist::wal::read_records(&dir.wal_path(gen))
        .unwrap()
        .records;
    let steps_per_page = (WALKS_PAGE_SIZE / 4) as u64;
    records
        .iter()
        .flat_map(|record| record.effects.as_ref().unwrap().rewrites.iter())
        .filter(|(id, _)| id.index() < walks.dir().slots())
        .map(|(id, _)| walks.dir().region(id.index()))
        .filter(|&(_, len)| len > 0)
        .flat_map(|(offset, len)| {
            let first = offset / steps_per_page;
            let last = (offset + len as u64 - 1) / steps_per_page;
            first..=last
        })
        .collect()
}

/// Runs the schedule into a durable engine `create` builds at `root`, checkpoints a
/// third of the way in, crashes, and recovers under a two-page cache: the tail
/// rewrites segments on more heap pages than the cache holds, and the recovered
/// store must equal the uninterrupted run's by digest and pass its own checks.
fn assert_bounded_recovery_equals_the_uninterrupted_run<K, W>(
    create: &dyn Fn(&Path) -> WalkEngine<K, W>,
    what: &str,
) where
    K: WalkKind,
    W: WalkIndexMut + PersistentWalkStore,
{
    let ops = schedule(661);
    let tmp = TempDir::new("bounded-recovery");
    let root = tmp.path().join("store");
    let mut engine = create(&root);
    let third = ops.len() / 3;
    for op in &ops[..third] {
        apply_op(&mut engine, op);
    }
    let gen = engine.checkpoint().unwrap();
    for op in &ops[third..] {
        apply_op(&mut engine, op);
    }
    let uninterrupted = StoreDigest::of(engine.walk_store());
    drop(engine);

    let pages = pages_the_tail_rewrites(&root, gen).len();
    assert!(
        pages > 2,
        "{what}: the tail rewrites segments on {pages} heap pages"
    );
    let previous = set_thread_page_budget(Some(PageBudget::bounded(2)));
    let recovered = WalkEngine::<K, W>::open(&root);
    set_thread_page_budget(previous);
    let recovered = recovered.unwrap_or_else(|e| panic!("{what}: recovery failed: {e}"));
    assert_eq!(
        StoreDigest::of(recovered.walk_store()),
        uninterrupted,
        "{what}"
    );
    recovered
        .validate_segments()
        .unwrap_or_else(|e| panic!("{what}: {e}"));
}

#[test]
fn bounded_budget_recovery_equals_the_uninterrupted_run() {
    let config = MonteCarloConfig::new(0.2, 8).with_seed(663);
    let graph = || DynamicGraph::with_nodes(NODES);
    assert_bounded_recovery_equals_the_uninterrupted_run::<PageRank, WalkStore>(
        &|root| WalkEngine::create_durable(root, graph(), config).unwrap(),
        "PageRank, flat",
    );
    assert_bounded_recovery_equals_the_uninterrupted_run::<PageRank, DiskWalkStore>(
        &|root| WalkEngine::create_durable_disk(root, graph(), config).unwrap(),
        "PageRank, disk",
    );
    assert_bounded_recovery_equals_the_uninterrupted_run::<Salsa, WalkStore>(
        &|root| WalkEngine::create_durable(root, graph(), config).unwrap(),
        "SALSA, flat",
    );
    assert_bounded_recovery_equals_the_uninterrupted_run::<Salsa, DiskWalkStore>(
        &|root| WalkEngine::create_durable_disk(root, graph(), config).unwrap(),
        "SALSA, disk",
    );
}

/// The per-segment mirror seed `FrozenWalks::from_index` replaced, kept as its
/// reference: an empty view advanced by one `set_segment` per segment.
fn per_segment_seed<W: WalkIndexView>(store: &W, epoch: u64) -> FrozenWalks {
    let mut frozen = FrozenWalks::empty(store.r(), store.node_count(), epoch);
    for node in 0..store.node_count() {
        for id in store.segment_ids_of(NodeId::from_index(node)) {
            frozen.set_segment(id, store.segment_path(id));
        }
    }
    frozen
}

/// Seeds a mirror of `store` in bulk — first, so on a just-opened demand-paged
/// store the bulk seed is the one that faults — and holds it to the reference.
fn assert_seed_matches_reference<W: WalkIndex>(store: &W, context: &str) {
    let bulk = FrozenWalks::from_index(store, 5);
    let reference = per_segment_seed(store, 5);
    assert_eq!(bulk.epoch(), reference.epoch(), "{context}: epoch");
    assert_stores_view_equal(
        &bulk,
        &reference,
        &format!("{context}, against the reference"),
    );
    assert_stores_view_equal(&bulk, store, &format!("{context}, against the store"));
}

/// The query surface of two stores (or views), visit counts and paths.
fn assert_stores_view_equal<A: WalkIndexView, B: WalkIndexView>(a: &A, b: &B, context: &str) {
    assert_eq!(
        (a.node_count(), a.r(), a.total_visits()),
        (b.node_count(), b.r(), b.total_visits()),
        "{context}: shape"
    );
    assert_eq!(
        a.visit_counts(),
        b.visit_counts(),
        "{context}: visit counts"
    );
    for g in 0..a.node_count() {
        for id in a.segment_ids_of(NodeId::from_index(g)) {
            assert_eq!(a.segment_path(id), b.segment_path(id), "{context}: {id:?}");
        }
    }
}

/// One layout's life for the seed oracle: fresh, after growth and deletions, and
/// reopened from its checkpoint under a two-page cache.
fn assert_seeds_match_through_a_life<W>(
    root: &std::path::Path,
    create: impl FnOnce(&std::path::Path) -> IncrementalPageRank<W>,
    ops: &[Op],
    layout: &str,
) where
    W: WalkIndexMut + PersistentWalkStore,
{
    let mut engine = create(root);
    let born_with = engine.node_count();
    assert_seed_matches_reference(engine.walk_store(), &format!("{layout}, fresh"));
    for op in ops {
        apply_op(&mut engine, op);
    }
    assert!(
        engine.node_count() > born_with,
        "{layout}: the schedule grows the graph"
    );
    let context = format!("{layout}, after growth and deletions");
    assert_seed_matches_reference(engine.walk_store(), &context);
    engine.checkpoint().unwrap();
    drop(engine);
    let old = ppr_persist::set_thread_page_budget(Some(ppr_persist::PageBudget::bounded(2)));
    let reopened = IncrementalPageRank::<W>::open(root);
    ppr_persist::set_thread_page_budget(old);
    let reopened = reopened.unwrap();
    let context = format!("{layout}, reopened under a 2-page cache");
    assert_seed_matches_reference(reopened.walk_store(), &context);
}

#[test]
fn mirror_seed_equals_the_per_segment_reference_on_every_layout() {
    let ops = schedule(631);
    let config = MonteCarloConfig::new(0.2, 3).with_seed(633);
    let born = || DynamicGraph::with_nodes(NODES / 4);
    let tmp = TempDir::new("mirror-seed");
    assert_seeds_match_through_a_life(
        &tmp.path().join("flat"),
        |root| IncrementalPageRank::create_durable(root, born(), config).unwrap(),
        &ops,
        "flat",
    );
    assert_seeds_match_through_a_life(
        &tmp.path().join("disk"),
        |root| DurablePageRank::create_durable_disk(root, born(), config).unwrap(),
        &ops,
        "disk",
    );
}

#[test]
fn corrupt_current_snapshot_falls_back_to_the_previous_generation() {
    let ops = schedule(619);
    let config = MonteCarloConfig::new(0.2, 3).with_seed(621);
    let third = ops.len() / 3;
    let mut reference = IncrementalPageRank::new_empty(NODES, config);
    for op in &ops {
        apply_op(&mut reference, op);
    }

    let tmp = TempDir::new("fallback");
    let root = tmp.path().join("store");
    let mut engine =
        IncrementalPageRank::create_durable(&root, DynamicGraph::with_nodes(NODES), config)
            .unwrap();
    for op in &ops[..third] {
        apply_op(&mut engine, op);
    }
    let gen1 = engine.checkpoint().unwrap();
    for op in &ops[third..2 * third] {
        apply_op(&mut engine, op);
    }
    let gen2 = engine.checkpoint().unwrap();
    assert_eq!((gen1, gen2), (1, 2));
    for op in &ops[2 * third..] {
        apply_op(&mut engine, op);
    }
    drop(engine);

    // Bit rot in the CURRENT snapshot: flip one byte in the middle of snap-2.
    let snap2 = root.join("snap-000002.ppr");
    let mut bytes = std::fs::read(&snap2).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x20;
    std::fs::write(&snap2, &bytes).unwrap();

    // Recovery falls back to generation 1 and replays BOTH logs; the result is
    // still byte-identical to the never-crashed reference.
    let mut recovered = IncrementalPageRank::<WalkStore>::open(&root).expect("fallback recovery");
    assert_eq!(recovered.scores(), reference.scores());
    assert_stores_identical(recovered.walk_store(), reference.walk_store(), "fallback");

    // A checkpoint after a fallback recovery must keep the known-good base (gen 1)
    // instead of leaving the corrupt gen 2 as the only fallback: corrupt the new
    // snapshot too, and recovery must still succeed by scanning down past it.
    assert_eq!(recovered.checkpoint().unwrap(), 3);
    drop(recovered);
    assert!(
        root.join("snap-000001.ppr").exists(),
        "the known-good base must survive the post-fallback checkpoint"
    );
    let snap3 = root.join("snap-000003.ppr");
    let mut bytes = std::fs::read(&snap3).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x20;
    std::fs::write(&snap3, &bytes).unwrap();
    let recovered = IncrementalPageRank::<WalkStore>::open(&root).expect("double-fault recovery");
    assert_eq!(recovered.scores(), reference.scores());
    assert_stores_identical(
        recovered.walk_store(),
        reference.walk_store(),
        "double fault",
    );

    // With no older generation to fall back to, corruption is a hard error.
    let tmp2 = TempDir::new("no-fallback");
    let root2 = tmp2.path().join("store");
    let engine =
        IncrementalPageRank::create_durable(&root2, DynamicGraph::with_nodes(8), config).unwrap();
    drop(engine);
    let snap0 = root2.join("snap-000000.ppr");
    let mut bytes = std::fs::read(&snap0).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x20;
    std::fs::write(&snap0, &bytes).unwrap();
    assert!(IncrementalPageRank::<WalkStore>::open(&root2).is_err());
}

#[test]
fn torn_wal_tail_recovers_to_the_last_full_record() {
    let ops = schedule(631);
    let config = MonteCarloConfig::new(0.2, 3).with_seed(633);
    let half = ops.len() / 2;

    let tmp = TempDir::new("torn-tail");
    let root = tmp.path().join("store");
    let mut engine =
        IncrementalPageRank::create_durable(&root, DynamicGraph::with_nodes(NODES), config)
            .unwrap();
    for op in &ops[..half] {
        apply_op(&mut engine, op);
    }
    drop(engine);

    // Simulate a crash mid-append: garbage half-frame at the WAL tail.
    let wal = root.join("wal-000000.log");
    let intact_len = std::fs::metadata(&wal).unwrap().len();
    let mut bytes = std::fs::read(&wal).unwrap();
    bytes.extend_from_slice(&[0xAB; 11]);
    std::fs::write(&wal, &bytes).unwrap();

    // Recovery truncates the torn tail and lands exactly on the synced prefix.
    let mut reference = IncrementalPageRank::new_empty(NODES, config);
    for op in &ops[..half] {
        apply_op(&mut reference, op);
    }
    let mut recovered = IncrementalPageRank::<WalkStore>::open(&root).expect("torn-tail recovery");
    assert_eq!(std::fs::metadata(&wal).unwrap().len(), intact_len);
    assert_eq!(recovered.scores(), reference.scores());
    assert_stores_identical(recovered.walk_store(), reference.walk_store(), "torn tail");

    // And the truncated log accepts new appends: keep going, crash again, recover.
    for op in &ops[half..] {
        apply_op(&mut recovered, op);
        apply_op(&mut reference, op);
    }
    drop(recovered);
    let reopened = IncrementalPageRank::<WalkStore>::open(&root).unwrap();
    assert_eq!(reopened.scores(), reference.scores());
    assert_stores_identical(reopened.walk_store(), reference.walk_store(), "resumed log");
}

#[test]
fn salsa_engine_survives_crash_recovery() {
    let pa = PreferentialAttachmentConfig::new(80, 4, 641);
    let edges = random_permutation(&preferential_attachment_edges(&pa), 643);
    let config = MonteCarloConfig::new(0.2, 3).with_seed(647);
    let half = edges.len() / 2;

    let mut reference = IncrementalSalsa::new_empty(80, config);
    for chunk in edges.chunks(40) {
        reference.apply_arrivals(chunk);
    }
    // Deletions before the crash: one multi-edge batch, then singletons; after it,
    // one more batch.
    let victims: Vec<Edge> = edges.iter().copied().step_by(9).take(20).collect();
    let (logged, resumed) = victims.split_at(12);
    reference.apply_deletions(&logged[..8]);
    for &edge in &logged[8..] {
        reference.remove_edge(edge);
    }
    reference.apply_deletions(resumed);

    let tmp = TempDir::new("salsa-restart");
    let root = tmp.path().join("store");
    let mut engine =
        IncrementalSalsa::create_durable(&root, DynamicGraph::with_nodes(80), config).unwrap();
    let chunks: Vec<&[Edge]> = edges.chunks(40).collect();
    let checkpoint_after = chunks.len() * half / edges.len();
    for chunk in &chunks[..checkpoint_after] {
        engine.apply_arrivals(chunk);
    }
    engine.checkpoint().unwrap();
    for chunk in &chunks[checkpoint_after..] {
        engine.apply_arrivals(chunk);
    }
    // Crash mid-deletion-stream: every `WalOp::Deletions` record — the 8-edge batch
    // and the singletons alike — replays through `apply_deletions` as the batch it
    // was logged as, on the same split RNG streams.
    engine.apply_deletions(&logged[..8]);
    for &edge in &logged[8..] {
        engine.remove_edge(edge);
    }
    drop(engine);

    let mut recovered = IncrementalSalsa::<WalkStore>::open(&root).expect("salsa recovery");
    recovered.apply_deletions(resumed);
    assert_stores_identical(recovered.walk_store(), reference.walk_store(), "salsa");
    let ea = recovered.estimates();
    let eb = reference.estimates();
    assert_eq!(ea.hubs, eb.hubs, "hub scores diverge after recovery");
    assert_eq!(ea.authorities, eb.authorities, "authority scores diverge");
    recovered.validate_segments().unwrap();
}

#[test]
fn store_directories_reject_misuse() {
    let tmp = TempDir::new("misuse");
    let root = tmp.path().join("store");
    let config = MonteCarloConfig::new(0.2, 2).with_seed(653);
    let engine =
        IncrementalPageRank::create_durable(&root, DynamicGraph::with_nodes(10), config).unwrap();
    drop(engine);

    // Re-creating over an existing store must fail, not clobber.
    assert!(
        IncrementalPageRank::create_durable(&root, DynamicGraph::with_nodes(10), config).is_err()
    );
    // Opening with the wrong engine kind must fail.
    assert!(IncrementalSalsa::<WalkStore>::open(&root).is_err());
    // Opening a directory that is not a store must fail.
    assert!(IncrementalPageRank::<WalkStore>::open(tmp.path().join("nope")).is_err());
    // An in-memory engine cannot checkpoint.
    let mut plain = IncrementalPageRank::new_empty(4, config);
    assert!(plain.checkpoint().is_err());

    // The happy path still works after all the failed attempts.
    let reopened = IncrementalPageRank::<WalkStore>::open(&root).unwrap();
    assert_eq!(reopened.node_count(), 10);
    reopened.validate_segments().unwrap();
}

/// Rewrites the generation-0 snapshot under `root` with the graph section's and the
/// walks header's shard-count fields set to `graph_shards` and `walks_shards`.  Every
/// section goes back through the snapshot writer, so every CRC in the file is valid.
fn rewrite_shard_counts(root: &std::path::Path, graph_shards: u32, walks_shards: u32) {
    let path = StoreDir::open(root).unwrap().snapshot_path(0);
    let mut snap = SnapshotFile::open(&path).unwrap();
    let tags: Vec<u32> = snap.sections().iter().map(|section| section.tag).collect();
    let mut writer = SnapshotWriter::new(std::io::Cursor::new(Vec::new())).unwrap();
    for tag in tags {
        let mut payload = snap.read_section(tag).unwrap();
        match tag {
            SECTION_GRAPH => payload[..4].copy_from_slice(&graph_shards.to_le_bytes()),
            // The walks header opens with `r u32 | shard_count u32`.
            SECTION_WALKS => payload[4..8].copy_from_slice(&walks_shards.to_le_bytes()),
            _ => {}
        }
        writer.begin_section(tag).unwrap();
        writer.write(&payload).unwrap();
        writer.end_section().unwrap();
    }
    drop(snap);
    std::fs::write(&path, writer.finish().unwrap().into_inner()).unwrap();
    SnapshotFile::verify_all(&path).expect("the rewritten snapshot checksums clean");
}

#[test]
fn a_multi_shard_snapshot_is_refused_with_a_typed_error() {
    // A snapshot that claims a store split three ways — in its graph section, in its
    // walks header, or in both — is well-formed bytes this build cannot load: `open`
    // must return a Format error on the flat and the disk layout alike, never panic
    // and never build a store.  The (1, 1) rewrite is the control: the same rewrite
    // with the true shard count opens.
    let tmp = TempDir::new("multi-shard");
    let config = MonteCarloConfig::new(0.2, 2).with_seed(657);
    for (graph_shards, walks_shards) in [(1, 1), (3, 3), (3, 1), (1, 3)] {
        let root = tmp
            .path()
            .join(format!("store-{graph_shards}-{walks_shards}"));
        let engine =
            IncrementalPageRank::create_durable(&root, preferential_attachment(30, 2, 659), config)
                .unwrap();
        drop(engine);
        rewrite_shard_counts(&root, graph_shards, walks_shards);
        let context = format!("graph claims {graph_shards}, walks claim {walks_shards}");
        let results = [
            IncrementalPageRank::<WalkStore>::open(&root).map(drop),
            DurablePageRank::open(&root).map(drop),
        ];
        for result in results {
            if (graph_shards, walks_shards) == (1, 1) {
                result.unwrap_or_else(|e| panic!("{context}: {e}"));
            } else {
                assert!(
                    matches!(result, Err(ppr_core::PersistError::Format(_))),
                    "{context}: {result:?}"
                );
            }
        }
    }
}

/// Rewrites the generation-0 WAL under `root` the way a version-1 build wrote it:
/// a version-1 header (with its valid CRC) over edges-only frames of `batches`.
fn write_version_1_log(root: &std::path::Path, batches: &[Vec<Edge>]) {
    let wal = root.join("wal-000000.log");
    let staged = root.join("v1.log");
    let mut writer = ppr_persist::WalWriter::create(&staged).unwrap();
    for (seq, batch) in batches.iter().enumerate() {
        writer
            .append(seq as u64, ppr_persist::WalOp::Arrivals, batch)
            .unwrap();
    }
    drop(writer);
    let mut bytes = std::fs::read(&staged).unwrap();
    bytes[8..12].copy_from_slice(&1u32.to_le_bytes());
    let crc = ppr_persist::crc32(&bytes[..12]);
    bytes[12..16].copy_from_slice(&crc.to_le_bytes());
    std::fs::write(&wal, &bytes).unwrap();
    std::fs::remove_file(&staged).unwrap();
}

#[test]
fn a_version_1_log_is_refused_with_a_typed_error() {
    // A version-1 log holds edge batches and no effects: this build cannot replay
    // it, so `open` must return a Format error on the flat and the disk layout
    // alike, never panic and never build a store.  The control: the same store
    // with the log its engine wrote opens.
    let tmp = TempDir::new("wal-v1");
    let config = MonteCarloConfig::new(0.2, 2).with_seed(663);
    let batches = vec![
        vec![Edge::new(0, 1), Edge::new(1, 2)],
        vec![Edge::new(2, 0), Edge::new(3, 1)],
    ];
    for version in [2, 1] {
        let root = tmp.path().join(format!("store-v{version}"));
        let mut engine =
            IncrementalPageRank::create_durable(&root, DynamicGraph::with_nodes(8), config)
                .unwrap();
        for batch in &batches {
            engine.apply_arrivals(batch);
        }
        drop(engine);
        if version == 1 {
            write_version_1_log(&root, &batches);
        }
        let results = [
            IncrementalPageRank::<WalkStore>::open(&root).map(drop),
            DurablePageRank::open(&root).map(drop),
        ];
        for result in results {
            if version == 2 {
                result.unwrap_or_else(|e| panic!("the control must open: {e}"));
            } else {
                assert!(
                    matches!(result, Err(ppr_core::PersistError::Format(_))),
                    "version-1 log: {result:?}"
                );
            }
        }
    }
}

#[test]
fn checkpoint_retries_after_a_crash_between_wal_create_and_publish() {
    // A checkpoint that died after creating wal-<gen+1> but before flipping CURRENT
    // leaves an orphan log; the next checkpoint must clear it and succeed instead of
    // failing with AlreadyExists forever.
    let tmp = TempDir::new("stale-wal");
    let root = tmp.path().join("store");
    let config = MonteCarloConfig::new(0.2, 2).with_seed(661);
    let mut engine =
        IncrementalPageRank::create_durable(&root, DynamicGraph::with_nodes(20), config).unwrap();
    engine.apply_arrivals(&[Edge::new(0, 1)]);
    drop(engine);

    // Simulate the half-finished attempt: snap-1 and wal-1 exist, CURRENT still 0.
    std::fs::copy(root.join("snap-000000.ppr"), root.join("snap-000001.ppr")).unwrap();
    std::fs::copy(root.join("wal-000000.log"), root.join("wal-000001.log")).unwrap();

    let mut recovered = IncrementalPageRank::<WalkStore>::open(&root).unwrap();
    recovered.apply_arrivals(&[Edge::new(1, 2)]);
    assert_eq!(recovered.checkpoint().unwrap(), 1, "retry must succeed");
    drop(recovered);
    let reopened = IncrementalPageRank::<WalkStore>::open(&root).unwrap();
    assert_eq!(reopened.graph().edge_count(), 2);
    reopened.validate_segments().unwrap();
}

#[test]
fn a_checkpoint_that_fails_mid_stream_leaves_no_debris_and_retries() {
    // Under a two-page cache a checkpoint copies the paths nothing rewrote out of
    // the previous generation's *file*; a rotted page is met mid-stream, long after
    // the temp file of the new generation was started.
    let tmp = TempDir::new("failed-checkpoint");
    let root = tmp.path().join("store");
    let budget = ppr_persist::PageBudget::bounded(2);
    let previous = ppr_persist::set_thread_page_budget(Some(budget));
    let pa = PreferentialAttachmentConfig::new(400, 4, 673);
    let graph = DynamicGraph::from_edges(&preferential_attachment_edges(&pa), 400);
    let config = MonteCarloConfig::new(0.2, 4).with_seed(673);
    let mut engine = DurablePageRank::create_durable_disk(&root, graph, config).unwrap();
    // One arrival out of a cold node: a few segments rewritten, the rest of the
    // heap to be copied from the previous generation.
    engine.apply_arrivals(&[Edge::new(399, 398)]);
    let logged = ppr_persist::wal::read_records(&root.join("wal-000000.log"))
        .unwrap()
        .records;
    let rewritten = logged[0].effects.as_ref().unwrap().rewrites.iter().count();
    assert!(rewritten < 16, "{rewritten} segments rewritten");
    let listing = || {
        let mut names: Vec<String> = std::fs::read_dir(&root)
            .unwrap()
            .map(|entry| entry.unwrap().file_name().into_string().unwrap())
            .collect();
        names.sort();
        names
    };
    let before = listing();

    let snap0 = root.join("snap-000000.ppr");
    let clean = std::fs::read(&snap0).unwrap();
    let mut rotted = clean.clone();
    // One flipped byte in every heap page (whichever of them the copy reads past
    // the two the cache holds).
    let walks = PagedWalks::open(&snap0).unwrap();
    let heap = walks.heap_file_offset() as usize;
    for page in 0..walks.header().page_count() as usize {
        rotted[heap + page * WALKS_PAGE_SIZE + 100] ^= 0x10;
    }
    drop(walks);
    std::fs::write(&snap0, &rotted).unwrap();
    let error = engine.checkpoint().unwrap_err();
    assert!(
        matches!(error, ppr_core::PersistError::Corrupt(_)),
        "{error}"
    );
    assert_eq!(listing(), before, "the failed attempt left files behind");
    assert_eq!(
        std::fs::read_to_string(root.join("CURRENT"))
            .unwrap()
            .trim(),
        "0"
    );
    assert!(std::fs::read(&snap0).unwrap() == rotted);

    // The engine stayed durable on generation 0; once the disk is healthy again the
    // same call goes through.
    std::fs::write(&snap0, &clean).unwrap();
    engine.apply_arrivals(&[Edge::new(1, 2)]);
    assert_eq!(engine.checkpoint().unwrap(), 1, "retry must succeed");
    let edges = engine.graph().edge_count();
    drop(engine);
    let reopened = DurablePageRank::open(&root).unwrap();
    ppr_persist::set_thread_page_budget(previous);
    assert_eq!(reopened.graph().edge_count(), edges);
    reopened.validate_segments().unwrap();
}

#[test]
fn checkpoint_generations_rotate_and_prune() {
    let tmp = TempDir::new("rotation");
    let root = tmp.path().join("store");
    let config = MonteCarloConfig::new(0.2, 2).with_seed(659);
    let mut engine =
        IncrementalPageRank::create_durable(&root, DynamicGraph::with_nodes(20), config).unwrap();
    for gen in 1..=4u64 {
        engine.apply_arrivals(&[Edge::new(gen as u32, gen as u32 + 1)]);
        assert_eq!(engine.checkpoint().unwrap(), gen);
    }
    // CURRENT names generation 4; generation 3 is kept as fallback, older pruned.
    assert!(root.join("snap-000004.ppr").exists());
    assert!(root.join("wal-000004.log").exists());
    assert!(root.join("snap-000003.ppr").exists());
    assert!(!root.join("snap-000002.ppr").exists());
    assert!(!root.join("wal-000001.log").exists());
    let expected = engine.scores();
    drop(engine); // release the store lock before reopening
    let reopened = IncrementalPageRank::<WalkStore>::open(&root).unwrap();
    assert_eq!(reopened.scores(), expected);
}

#[test]
fn store_lock_rejects_a_second_live_writer_and_releases_on_drop() {
    let tmp = TempDir::new("lock-engine");
    let root = tmp.path().join("store");
    let config = MonteCarloConfig::new(0.2, 2).with_seed(667);
    let engine =
        IncrementalPageRank::create_durable(&root, DynamicGraph::with_nodes(10), config).unwrap();
    // A second writer in this (live) process must fail fast with a clear error.
    match IncrementalPageRank::<WalkStore>::open(&root) {
        Err(ppr_core::PersistError::Locked(msg)) => {
            assert!(
                msg.contains(&format!("pid {}", std::process::id())),
                "lock error names the holder: {msg}"
            );
        }
        other => panic!("expected Locked, got {other:?}"),
    }
    drop(engine);
    // After release the same directory opens normally...
    let reopened = IncrementalPageRank::<WalkStore>::open(&root).unwrap();
    drop(reopened);
    // ...and a stale lock from a crashed (dead) process is stolen, not fatal.
    if std::path::Path::new("/proc").is_dir() {
        std::fs::write(root.join("LOCK"), "4194304999\n").unwrap();
        let recovered = IncrementalPageRank::<WalkStore>::open(&root)
            .expect("stale lock of a dead process must be stolen");
        assert!(recovered.is_durable());
    }
}

/// A store directory whose current snapshot (generation 1) has a WAL tail behind
/// it and generation 0 below it; returns the directory and the digest of the
/// engine that crashed.
fn two_generations(root: &Path, disk: bool) -> StoreDigest {
    let ops = schedule(671);
    let config = MonteCarloConfig::new(0.2, 2).with_seed(673);
    let graph = DynamicGraph::with_nodes(NODES);
    fn run<W: WalkIndexMut + PersistentWalkStore>(
        mut engine: IncrementalPageRank<W>,
        ops: &[Op],
    ) -> StoreDigest {
        let third = ops.len() / 3;
        for op in &ops[..third] {
            apply_op(&mut engine, op);
        }
        assert_eq!(engine.checkpoint().unwrap(), 1);
        for op in &ops[third..] {
            apply_op(&mut engine, op);
        }
        StoreDigest::of(engine.walk_store())
    }
    if disk {
        run(
            DurablePageRank::create_durable_disk(root, graph, config).unwrap(),
            &ops,
        )
    } else {
        run(
            IncrementalPageRank::create_durable(root, graph, config).unwrap(),
            &ops,
        )
    }
}

/// Where the walks section of the snapshot at `path` keeps its parts: the
/// header's file offset, the directory's, the page-CRC table's and the heap's.
fn walks_parts(path: &Path) -> (usize, usize, usize, usize) {
    let section = SnapshotFile::open(path)
        .unwrap()
        .section(SECTION_WALKS)
        .unwrap();
    let walks = PagedWalks::open(path).unwrap();
    let heap = walks.heap_file_offset() as usize;
    let table = heap - walks.header().page_count() as usize * 4;
    let dir = table - walks.header().slot_count as usize * 4;
    assert_eq!(dir, section.offset as usize + 40, "a 40-byte walks header");
    (section.offset as usize, dir, table, heap)
}

/// Sets heap step `step` of the snapshot at `path` to `word` and re-frames every
/// checksum over it — the page's table entry, the header's `meta_crc` and the
/// section's CRC — so only the path checks can catch it.
fn reframe_heap_word(path: &Path, step: u64, word: u32) {
    let (header, dir, table, heap) = walks_parts(path);
    let section = SnapshotFile::open(path)
        .unwrap()
        .section(SECTION_WALKS)
        .unwrap();
    let mut bytes = std::fs::read(path).unwrap();
    let at = heap + step as usize * 4;
    bytes[at..at + 4].copy_from_slice(&word.to_le_bytes());
    let page = step as usize / (WALKS_PAGE_SIZE / 4);
    let page_at = heap + page * WALKS_PAGE_SIZE;
    let crc = ppr_persist::crc32(&bytes[page_at..page_at + WALKS_PAGE_SIZE]);
    bytes[table + page * 4..table + page * 4 + 4].copy_from_slice(&crc.to_le_bytes());
    let meta_crc = ppr_persist::crc32(&bytes[dir..heap]);
    bytes[header + 36..header + 40].copy_from_slice(&meta_crc.to_le_bytes());
    let end = header + section.len as usize;
    let section_crc = ppr_persist::crc32(&bytes[header..end]);
    bytes[header - 4..header].copy_from_slice(&section_crc.to_le_bytes());
    std::fs::write(path, &bytes).unwrap();
}

proptest::proptest! {
    #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(48))]

    /// A walks section is disk bytes: flipped or cut anywhere in its directory,
    /// page-CRC table or heap — or re-framed around a heap path that names a node
    /// past the store or leaves its source — `open` must refuse the snapshot and
    /// recover from the generation below it, or return a typed error; it never
    /// panics and never serves another store.
    #[test]
    fn a_mutated_walks_section_is_refused_never_served(
        kind in 0u32..6,
        position in 0.0f64..1.0,
        bit in 0u32..8,
        disk in 0u32..2,
    ) {
        let tmp = TempDir::new("walks-mutation");
        let root = tmp.path().join("store");
        let crashed = two_generations(&root, disk == 1);
        let snap = root.join("snap-000001.ppr");
        let (_, dir, table, heap) = walks_parts(&snap);
        let file_len = std::fs::metadata(&snap).unwrap().len() as usize;
        let within = |from: usize, to: usize| from + ((to - from - 1) as f64 * position) as usize;
        let walks = PagedWalks::open(&snap).unwrap();
        // Every non-empty slot's region, its offset the sum of the lengths before it.
        let slots: Vec<(usize, u64, u32)> = walks
            .dir()
            .lens()
            .iter()
            .scan(0u64, |offset, &len| {
                let at = *offset;
                *offset += len as u64;
                Some((at, len))
            })
            .enumerate()
            .filter(|&(_, (_, len))| len > 0)
            .map(|(slot, (offset, len))| (slot, offset, len))
            .collect();
        let (slot, offset, len) = slots[within(0, slots.len())];
        let node_count = walks.header().node_count as u32;
        drop(walks);
        match kind {
            0..=2 => {
                let at = [within(dir, table), within(table, heap), within(heap, file_len)];
                let mut bytes = std::fs::read(&snap).unwrap();
                bytes[at[kind as usize]] ^= 1 << bit;
                std::fs::write(&snap, &bytes).unwrap();
            }
            3 => {
                let bytes = std::fs::read(&snap).unwrap();
                std::fs::write(&snap, &bytes[..within(dir, file_len)]).unwrap();
            }
            4 => {
                let step = offset + (position * len as f64) as u64 % len as u64;
                reframe_heap_word(&snap, step, node_count + bit);
            }
            _ => {
                let source = slot as u32 / 2;
                reframe_heap_word(&snap, offset, (source + 1 + bit) % node_count);
            }
        }
        let opened = if disk == 1 {
            DurablePageRank::open(&root).map(|e| (StoreDigest::of(e.walk_store()), e.validate_segments()))
        } else {
            IncrementalPageRank::<WalkStore>::open(&root)
                .map(|e| (StoreDigest::of(e.walk_store()), e.validate_segments()))
        };
        if let Ok((digest, valid)) = opened {
            proptest::prop_assert_eq!(digest, crashed);
            proptest::prop_assert!(valid.is_ok());
        }
    }
}
