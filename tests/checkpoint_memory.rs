//! Cost oracle: a checkpoint *streams* its generation.
//!
//! A snapshot is written section by section through bounded scratch — the heap one
//! page at a time, in page buffers moved (not copied) from the previous
//! generation's cache on into the next one's — so what `checkpoint()` adds to the
//! live heap while it runs is a small fraction of the file it writes.  The
//! assemble-then-write path this replaced held the heap twice plus the whole walks
//! payload: more than two file sizes.
//!
//! The binary counts allocations itself, so it holds this one test only.

use fast_ppr::prelude::*;
use ppr_core::durable::DurablePageRank;
use ppr_graph::generators::{preferential_attachment_edges, PreferentialAttachmentConfig};
use ppr_graph::stream::random_permutation;
use ppr_persist::TempDir;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// The system allocator, with live bytes and their high-water mark counted.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(by: usize) {
    let live = LIVE.fetch_add(by, Ordering::Relaxed) + by;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counters beside it touch no allocator state and
// never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's obligations are exactly `System.alloc`'s.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `alloc`/`realloc` above, i.e. from `System`, with
        // this layout.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: as for `dealloc`; `new_size` is the caller's to vouch for.
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        if !new.is_null() {
            LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
            grew(new_size);
        }
        new
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

#[test]
fn a_checkpoint_raises_the_live_heap_by_a_fraction_of_the_file_it_writes() {
    const NODES: usize = 15_000;
    let tmp = TempDir::new("checkpoint-memory");
    let root = tmp.path().join("store");
    let pa = PreferentialAttachmentConfig::new(NODES, 5, 29);
    let edges = random_permutation(&preferential_attachment_edges(&pa), 31);
    let (initial, stream) = edges.split_at(edges.len() * 9 / 10);
    let graph = DynamicGraph::from_edges(initial, NODES);
    let config = MonteCarloConfig::new(0.2, 10).with_seed(37);
    let mut engine = DurablePageRank::create_durable_disk(&root, graph, config).unwrap();
    // Rewritten segments among untouched ones for the generation about to be
    // written.
    for batch in stream.chunks(64).take(12) {
        engine.apply_arrivals(batch);
    }

    let before = LIVE.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    let generation = engine.checkpoint().unwrap();
    let raised = PEAK.load(Ordering::Relaxed).saturating_sub(before);

    assert_eq!(generation, 1);
    let file = std::fs::metadata(root.join("snap-000001.ppr"))
        .unwrap()
        .len() as usize;
    assert!(
        file > 4 << 20,
        "a {file}-byte snapshot is too small to tell"
    );
    assert!(
        raised * 4 <= file,
        "checkpoint() raised the live heap by {raised} bytes to write a {file}-byte snapshot"
    );
    engine.validate_segments().unwrap();
}
