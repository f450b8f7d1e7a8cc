//! Differential tests for the demand-paged, budget-bounded `DiskWalkStore`.
//!
//! The eviction policy is allowed to change *when* a heap page is read from disk —
//! never *what* any read returns.  These tests drive identical operation sequences
//! (segment writes, clears, demand reads, checkpoints, and reopens) against one
//! store under a randomly chosen `max_resident_pages ∈ {1..}` budget and one with
//! the cache unbounded, and require every observed path, every visit counter, and
//! the final [`StoreDigest`] to be bit-identical.  A second property pins down the
//! integrity half of the contract: after a page has been evicted, a single flipped
//! byte in the snapshot file is caught by the per-page CRC on re-fault instead of
//! being served as a silently corrupt walk.

use ppr_graph::NodeId;
use ppr_persist::layout::{PagedWalks, PersistentWalkStore, WALKS_PAGE_SIZE};
use ppr_persist::snapshot::SnapshotWriter;
use ppr_persist::{set_thread_page_budget, DiskWalkStore, PageBudget, TempDir};
use ppr_store::{SegmentId, SegmentRewrites, StoreDigest, WalkIndexMut, WalkIndexView};
use proptest::prelude::*;
use std::io::{Cursor, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Opens the walks section of the snapshot at `snap` as a disk store under the
/// thread's page budget, with no WAL tail to install.
fn reopen(snap: &Path) -> DiskWalkStore {
    let walks = PagedWalks::open(snap).expect("open");
    let nodes = walks.header().node_count as usize;
    DiskWalkStore::open_walks(walks, nodes, &SegmentRewrites::new()).expect("open_walks")
}

const N: u32 = 48;
const R: usize = 2;

/// One step of the differential driver.  `Read` observes a path (the observation is
/// part of the compared output *and* the trigger for demand faults and evictions);
/// `Reopen` discards un-checkpointed state and decodes the latest snapshot under
/// the run's budget — both runs do the same, so logical states stay comparable.
#[derive(Debug, Clone)]
enum PagedOp {
    Set {
        node: u32,
        slot: usize,
        path_seed: u64,
    },
    Clear {
        node: u32,
        slot: usize,
    },
    Read {
        slot_seed: u64,
    },
    Checkpoint,
    Reopen,
}

fn arb_paged_op(n: u32, r: usize) -> impl Strategy<Value = PagedOp> {
    prop_oneof![
        4 => (0..n, 0..r, 0u64..u64::MAX).prop_map(|(node, slot, path_seed)| PagedOp::Set {
            node,
            slot,
            path_seed,
        }),
        1 => (0..n, 0..r).prop_map(|(node, slot)| PagedOp::Clear { node, slot }),
        4 => (0u64..u64::MAX).prop_map(|slot_seed| PagedOp::Read { slot_seed }),
        1 => Just(PagedOp::Checkpoint),
        1 => Just(PagedOp::Reopen),
    ]
}

/// Expands a seed into a pseudo-random path of 0..=12 extra visits within `n`
/// nodes, starting at `node` (the store only requires the first visit to be the
/// source).  Same LCG as `tests/proptest_invariants.rs`.
fn expand_path(node: u32, n: u32, mut seed: u64) -> Vec<NodeId> {
    let len = (seed % 13) as usize;
    let mut path = Vec::with_capacity(len + 1);
    path.push(NodeId(node));
    for _ in 0..len {
        seed = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        path.push(NodeId((seed >> 33) as u32 % n));
    }
    path
}

fn checkpoint_to(store: &mut DiskWalkStore, path: &Path) {
    let mut w = SnapshotWriter::new(Cursor::new(Vec::new())).expect("start snapshot");
    store.encode_walks(&mut w).expect("encode_walks");
    let file = w.finish().expect("finish snapshot").into_inner();
    std::fs::write(path, file).expect("write snapshot");
    store.after_checkpoint(path).expect("after_checkpoint");
}

/// Everything a run can externally observe: the path returned by each `Read`, the
/// final per-node visit counters, and the final whole-store digest.
#[derive(Debug, PartialEq)]
struct Observed {
    reads: Vec<(u32, Vec<NodeId>)>,
    counts: Vec<u64>,
    digest: StoreDigest,
}

/// Replays `ops` against a fresh store under `budget`, checkpointing into `dir`.
/// The thread-budget override covers the whole run so every `Reopen` decodes under
/// the same policy.
fn run_ops(ops: &[PagedOp], budget: PageBudget, dir: &Path) -> Observed {
    let previous = set_thread_page_budget(Some(budget));
    let mut store = DiskWalkStore::new(N as usize, R);
    let mut generation = 0u64;
    let mut last_snap: Option<PathBuf> = None;
    let mut reads = Vec::new();
    for op in ops {
        match op {
            PagedOp::Set {
                node,
                slot,
                path_seed,
            } => {
                let id = SegmentId::new(NodeId(*node), *slot, R);
                store.set_segment(id, &expand_path(*node, N, *path_seed));
            }
            PagedOp::Clear { node, slot } => {
                store.clear_segment(SegmentId::new(NodeId(*node), *slot, R));
            }
            PagedOp::Read { slot_seed } => {
                let slot = (slot_seed % (N as u64 * R as u64)) as u32;
                let path = WalkIndexView::segment_path(&store, SegmentId(slot)).to_vec();
                reads.push((slot, path));
            }
            PagedOp::Checkpoint => {
                let snap = dir.join(format!("snap-{generation}.ppr"));
                generation += 1;
                checkpoint_to(&mut store, &snap);
                last_snap = Some(snap);
            }
            PagedOp::Reopen => {
                if let Some(snap) = &last_snap {
                    store = reopen(snap);
                }
            }
        }
        if let Some(max) = budget.max_resident_pages {
            assert!(
                store.residency().resident_pages <= max.max(1),
                "resident pages exceeded the budget of {max}"
            );
        }
    }
    store.check_consistency().expect("consistency");
    let observed = Observed {
        reads,
        counts: WalkIndexView::visit_counts(&store).into_owned(),
        digest: StoreDigest::of(&store),
    };
    set_thread_page_budget(previous);
    observed
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any interleaving of writes, clears, demand reads, checkpoints, and reopens
    /// under a random page budget observes exactly what the unbounded cache does.
    #[test]
    fn bounded_cache_is_bit_identical_to_unbounded(
        ops in proptest::collection::vec(arb_paged_op(N, R), 1..48),
        pages in 1usize..6,
    ) {
        let tmp = TempDir::new("demand-paging-prop");
        let bounded_dir = tmp.path().join("bounded");
        let unbounded_dir = tmp.path().join("unbounded");
        std::fs::create_dir_all(&bounded_dir).unwrap();
        std::fs::create_dir_all(&unbounded_dir).unwrap();
        let bounded = run_ops(&ops, PageBudget::bounded(pages), &bounded_dir);
        let unbounded = run_ops(&ops, PageBudget::unbounded(), &unbounded_dir);
        prop_assert_eq!(&bounded.reads, &unbounded.reads, "observed paths diverged");
        prop_assert_eq!(&bounded.counts, &unbounded.counts, "visit counters diverged");
        prop_assert_eq!(bounded.digest, unbounded.digest, "store digests diverged");
    }
}

/// The ISSUE's acceptance matrix in one deterministic test: a checkpointed store
/// reopened at budgets {1 page, tiny, unbounded} serves identical paths and
/// digests identically, and the bounded opens stay within their budgets.
#[test]
fn reopen_at_one_page_tiny_and_unbounded_digest_identically() {
    let tmp = TempDir::new("demand-paging-budgets");
    let snap = tmp.path().join("snap-0.ppr");
    let n = 512usize;
    let mut store = DiskWalkStore::new(n, 1);
    for node in 0..n as u32 {
        let id = SegmentId::new(NodeId(node), 0, 1);
        store.set_segment(id, &expand_path(node, n as u32, node as u64 * 977 + 13));
    }
    checkpoint_to(&mut store, &snap);
    let reference = StoreDigest::of(&store);

    for budget in [
        PageBudget::bounded(1),
        PageBudget::bounded(3),
        PageBudget::unbounded(),
    ] {
        let previous = set_thread_page_budget(Some(budget));
        let reopened = reopen(&snap);
        // Read back-to-front so a bounded cache must thrash.
        for slot in (0..n as u32).rev() {
            assert_eq!(
                WalkIndexView::segment_path(&reopened, SegmentId(slot)),
                WalkIndexView::segment_path(&store, SegmentId(slot)),
                "slot {slot} diverged under {budget:?}"
            );
        }
        assert_eq!(
            StoreDigest::of(&reopened),
            reference,
            "digest under {budget:?}"
        );
        if let Some(max) = budget.max_resident_pages {
            let residency = reopened.residency();
            assert!(
                residency.resident_pages <= max,
                "{} resident pages under a budget of {max}",
                residency.resident_pages
            );
        }
        set_thread_page_budget(previous);
    }
}

/// A byte flipped on an *evicted* page is caught by the per-page CRC when the page
/// is demand-faulted back in — eviction never opens an integrity hole.
#[test]
fn byte_flip_on_evicted_page_is_caught_on_refault() {
    let tmp = TempDir::new("demand-paging-flip");
    let snap = tmp.path().join("snap-0.ppr");
    let n = 600usize;
    let mut store = DiskWalkStore::new(n, 1);
    for node in 0..n as u32 {
        let id = SegmentId::new(NodeId(node), 0, 1);
        // 8 steps each, packed: slot k lives at step offset 8k, so slots 0 and 500
        // sit ~16 KiB apart, far beyond one 4 KiB page.
        let path: Vec<NodeId> = (0..8).map(|i| NodeId((node + i) % n as u32)).collect();
        store.set_segment(id, &path);
    }
    checkpoint_to(&mut store, &snap);

    // Locate slot 0's bytes in the snapshot file before reopening.
    let layout = PagedWalks::open(&snap).unwrap();
    let (offset0, len0) = layout.dir().region(0);
    assert!(len0 > 0, "slot 0 must hold a path");
    let victim_byte = layout.heap_file_offset() + offset0 * 4 + 2;
    let far_slot = (0..n)
        .find(|&slot| layout.dir().region(slot).0 * 4 >= 2 * WALKS_PAGE_SIZE as u64)
        .expect("a slot at least two pages past slot 0") as u32;
    drop(layout);

    let previous = set_thread_page_budget(Some(PageBudget::bounded(1)));
    let mut reopened = reopen(&snap);
    set_thread_page_budget(previous);

    // Fault slot 0 in (clean CRC), then evict its page by faulting a slot two or
    // more pages away under the one-page budget.
    reopened
        .try_fault_segment(SegmentId(0))
        .expect("clean fault");
    reopened
        .try_fault_segment(SegmentId(far_slot))
        .expect("fault of a far slot");
    assert_eq!(
        reopened.residency().resident_pages,
        1,
        "the one-page budget must have evicted slot 0's page"
    );
    assert!(
        reopened.pager_stats().evictions > 0,
        "eviction counter must record the displacement"
    );

    // Corrupt one byte of slot 0's (now evicted) page on disk, drop the decoded
    // paths, and re-fault: the page re-read must fail its CRC.
    reopened.release_path_cache();
    let mut file = std::fs::OpenOptions::new().write(true).open(&snap).unwrap();
    file.seek(SeekFrom::Start(victim_byte)).unwrap();
    file.write_all(&[0xA5]).unwrap();
    file.sync_all().unwrap();
    let err = reopened
        .try_fault_segment(SegmentId(0))
        .expect_err("re-fault of a flipped page must fail");
    let message = err.to_string();
    assert!(
        message.contains("checksum"),
        "error should blame the page CRC, got: {message}"
    );
}
