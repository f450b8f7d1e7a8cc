//! [`DiskWalkStore`]: a file-backed PageRank Store with demand paging and
//! page-granular write-back.
//!
//! The store implements the full `WalkIndex`/`WalkIndexMut` surface, so every engine
//! adopts it without change.  A store opened from a snapshot is **demand-paged**:
//! [`PersistentWalkStore::open_walks`] installs the slot directory and the WAL tail's
//! final paths, and counts the visit index in the one pass that checks every heap
//! page against its CRC — streamed through a page of scratch under a bounded
//! budget — while every other walk path stays on disk.  A path is faulted in on
//! first touch — the read pulls its heap pages through the bounded
//! [`crate::pager::PageCache`] (CRC-verified on every fault and re-fault), validates
//! the path's shape (starts at its source, visits only known nodes), and caches the
//! decoded steps until trimmed.  The resident set is therefore governed by the
//! configured [`PageBudget`] and the index, not the heap size.
//!
//! Writes keep the incremental checkpoint machinery of the previous design:
//!
//! * every segment owns a capacity-reserved slot of the on-disk heap (the same
//!   power-of-two rule as the in-memory arena), and the store tracks exactly which
//!   heap *pages* its writes have touched since the last checkpoint (a bitmap: one
//!   bit set per page per write);
//! * [`PersistentWalkStore::encode_walks`] streams the next generation through a
//!   [`WalksStream`] one page at a time: a dirty page is rendered into a page-sized
//!   buffer and checksummed; a clean page is carried **byte-for-byte from the
//!   previous generation** — its cached frame if it has one, else read from the
//!   file without being admitted — together with its already-validated CRC-table
//!   entry, so it is not checksummed at all.  The heap is never assembled in
//!   memory and write-back never faults the whole store resident;
//! * the next generation's [`PagedWalks`] is put together from the parts in hand
//!   while they are written (frozen directory, CRC table, and every page just
//!   written offered to its cache under the usual admission policy — frames move
//!   from the old cache to the new one, they are not copied), so
//!   [`PersistentWalkStore::after_checkpoint`] only opens the published file;
//! * a segment that outgrows its reservation relocates to the heap tail, leaving
//!   garbage that a half-dead-rule **file compaction** repacks (counted, timed, and
//!   reported like the in-memory compactions).
//!
//! Determinism contract: the cache budget bounds *cost*, never answers.  Any budget
//! ≥ 1 page yields bit-identical query results, digests, and snapshots to the
//! unbounded cache — `tests/demand_paging.rs` proves it property-style, and the CI
//! matrix re-runs the durability oracles at `PPR_PAGE_BUDGET=2`.
//!
//! Crash safety is inherited from the snapshot container: generations are immutable
//! and published atomically, so a crash mid-checkpoint leaves the previous
//! generation untouched and the WAL replays over it.

use crate::io::{corrupt, format_err, PersistResult};
use crate::layout::{
    file_reservation, render_steps, FileSlot, PagedWalks, PersistentWalkStore, WalksHeader,
    WalksStream, FILLER_WORD, STEPS_PER_PAGE, WALKS_PAGE_SIZE,
};
use crate::pager::PagerStats;
use crate::snapshot::SnapshotWriter;
use ppr_graph::NodeId;
use ppr_store::arena::ArenaStats;
use ppr_store::walks::check_path;
use ppr_store::{SegmentId, SegmentRewrites, WalkIndex, WalkIndexMut, WalkStore};
use std::borrow::Cow;
use std::cell::Cell;
use std::collections::BTreeMap;
use std::fs::File;
use std::io::{Seek, Write};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicPtr, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Residency policy of a demand-paged [`DiskWalkStore`], fixed when the store is
/// opened.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PageBudget {
    /// Maximum heap pages resident in the page cache (`None` = unbounded).  The
    /// decoded-path cache is trimmed to the same step-equivalent budget.
    pub max_resident_pages: Option<usize>,
}

thread_local! {
    /// See [`set_thread_page_budget`].
    static THREAD_PAGE_BUDGET: Cell<Option<PageBudget>> = const { Cell::new(None) };
}

/// Overrides [`PageBudget::from_env`] for the current thread, returning the previous
/// override.  Tests use this instead of `std::env::set_var` so parallel tests with
/// different budgets cannot race; engines open their stores on the calling thread,
/// so the override reaches them.
pub fn set_thread_page_budget(budget: Option<PageBudget>) -> Option<PageBudget> {
    THREAD_PAGE_BUDGET.with(|cell| cell.replace(budget))
}

impl PageBudget {
    /// No residency bound (the pre-demand-paging behavior).
    pub fn unbounded() -> Self {
        PageBudget::default()
    }

    /// At most `pages` heap pages resident (clamped to ≥ 1 by the cache).
    pub fn bounded(pages: usize) -> Self {
        PageBudget {
            max_resident_pages: Some(pages),
        }
    }

    /// Reads the budget for this open: the current thread's
    /// [`set_thread_page_budget`] override if set, else the `PPR_PAGE_BUDGET`
    /// environment variable (pages; 0 or unset = unbounded).
    pub fn from_env() -> Self {
        if let Some(budget) = THREAD_PAGE_BUDGET.with(|cell| cell.get()) {
            return budget;
        }
        let max_resident_pages = std::env::var("PPR_PAGE_BUDGET")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&pages| pages > 0);
        PageBudget { max_resident_pages }
    }

    fn budget_steps(&self) -> Option<u64> {
        self.max_resident_pages
            .map(|pages| pages.max(1) as u64 * STEPS_PER_PAGE)
    }
}

/// Write-back and maintenance counters of a [`DiskWalkStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DiskStoreStats {
    /// Heap pages re-rendered from memory across all checkpoints.
    pub pages_rewritten: u64,
    /// Heap pages carried byte-for-byte from the previous generation.
    pub pages_reused: u64,
    /// Segments whose on-disk slot was relocated to the heap tail.
    pub relocations: u64,
    /// Whole-heap file compaction passes.
    pub file_compactions: u64,
    /// Live steps repacked by file compactions.
    pub compaction_steps_moved: u64,
    /// Wall time spent in file compactions, in nanoseconds.
    pub compaction_nanos: u64,
}

/// Point-in-time residency of a demand-paged [`DiskWalkStore`] — the numbers the
/// persistence bench reports per cache budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ResidencyStats {
    /// Heap pages resident in the page cache.
    pub resident_pages: usize,
    /// Bytes of heap pages resident in the page cache.
    pub resident_page_bytes: u64,
    /// Steps held by demand-faulted decoded paths (not yet materialized into the
    /// in-memory arena, trimmed against the budget).
    pub cached_path_steps: u64,
    /// Steps materialized into the in-memory arena by writes.
    pub arena_steps: usize,
}

/// One demand-faultable slot: a lazily decoded path published through an atomic
/// pointer, plus a CLOCK-style reference bit for trimming.
///
/// The pointer goes null → non-null only inside [`DiskWalkStore::fault_slot`] (under
/// the store's page-cache mutex, with a Release store), and non-null → null only in
/// `&mut self` methods — so a shared-reference reader that observes a non-null
/// pointer can dereference it for the rest of its borrow of the store.
#[derive(Debug)]
struct FaultCell {
    path: AtomicPtr<Vec<NodeId>>,
    /// Touched-since-last-trim bit (second chance against trimming).
    hot: AtomicBool,
}

impl FaultCell {
    fn new() -> Self {
        FaultCell {
            path: AtomicPtr::new(std::ptr::null_mut()),
            hot: AtomicBool::new(false),
        }
    }

    /// Takes the cached path out of the cell (exclusive access).
    fn take(&mut self) -> Option<Vec<NodeId>> {
        let ptr = std::mem::replace(self.path.get_mut(), std::ptr::null_mut());
        // SAFETY: non-null cell pointers are exclusively owned Box::into_raw results;
        // we just detached this one, so reconstituting the box is sound.
        (!ptr.is_null()).then(|| *unsafe { Box::from_raw(ptr) })
    }
}

impl Drop for FaultCell {
    fn drop(&mut self) {
        self.take();
    }
}

/// Demand-paging state of a store opened from a snapshot.
#[derive(Debug)]
struct FaultState {
    /// One cell per slot; a null pointer means not yet decoded (or trimmed).
    cells: Vec<FaultCell>,
    /// The slot layout of the generation faults read from — the one frozen
    /// allocation its [`PagedWalks`] holds, so live-directory relocations and
    /// compactions never redirect a fault at a region the previous generation's
    /// file doesn't have.  Slots past its end were created since and live in the
    /// arena.
    prev_dir: Arc<Vec<FileSlot>>,
    /// Steps currently held by cached decoded paths.
    resident_steps: AtomicU64,
    /// Trim threshold for `resident_steps` (the page budget in step equivalents).
    budget_steps: Option<u64>,
}

/// A file-backed PageRank Store: demand-paged reads under a bounded cache,
/// dirty-page-tracked writes, and checkpoints that only re-encode what changed.
#[derive(Debug)]
pub struct DiskWalkStore {
    resident: WalkStore,
    /// On-disk slot layout, indexed by segment id (offsets/caps in steps).  A
    /// checkpoint freezes it for the generation it writes by sharing it; the first
    /// write after copies it ([`Self::dir_mut`]), once the previous generation's
    /// copy is gone.
    dir: Arc<Vec<FileSlot>>,
    /// Slots with reserved heap space, keyed by their heap offset (regions are
    /// disjoint, so the predecessor lookup per page is unambiguous).
    by_offset: BTreeMap<u64, u32>,
    /// Heap length in steps (live + reserved + garbage).
    heap_len: u64,
    /// Live steps stored on disk (sum of slot lengths).
    live: u64,
    /// Garbage capacity abandoned by relocations.
    dead: u64,
    /// Heap pages whose bytes changed since the last checkpoint: bit `p % 64` of
    /// word `p / 64`, grown with the heap.
    dirty: Vec<u64>,
    /// Set when no previous generation can serve clean pages (fresh store, or a file
    /// compaction moved everything).
    all_dirty: bool,
    /// `in_arena[slot]`: the slot's path lives in the resident arena (written this
    /// process, or empty).  `false` means the path is on disk, faultable through
    /// `fault`.
    in_arena: Vec<bool>,
    /// Demand-paging state; `None` for stores built fresh in memory (everything is
    /// in the arena then).
    fault: Option<FaultState>,
    /// Residency policy applied to the page cache and the decoded-path cache.
    budget: PageBudget,
    /// The previous generation's walks section — the fault source and clean-page
    /// source.  Behind a mutex because faults happen under `&self` from concurrent
    /// query threads.
    prev: Option<Mutex<PagedWalks>>,
    /// The generation the most recent encode streamed, waiting for
    /// [`after_checkpoint`] to say where it was published.
    ///
    /// [`after_checkpoint`]: PersistentWalkStore::after_checkpoint
    next: Option<StreamedGeneration>,
    stats: DiskStoreStats,
}

/// What an encode leaves for [`PersistentWalkStore::after_checkpoint`]: the next
/// generation's reader — directory frozen, cache policy applied, the pages just
/// written admitted — and what it still lacks, a file.
#[derive(Debug)]
struct StreamedGeneration {
    walks: PagedWalks,
    page_crcs: Vec<u32>,
    /// Absolute offset of heap page 0 in the snapshot file.
    heap_at: u64,
}

impl DiskWalkStore {
    /// Creates an empty file-backed store for `node_count` nodes with `r` segments
    /// per node.  Until the first checkpoint there is no previous generation, so the
    /// first encode renders every page.
    pub fn new(node_count: usize, r: usize) -> Self {
        DiskWalkStore {
            resident: WalkStore::new(node_count, r),
            dir: Arc::new(vec![FileSlot::default(); node_count * r]),
            by_offset: BTreeMap::new(),
            heap_len: 0,
            live: 0,
            dead: 0,
            dirty: Vec::new(),
            all_dirty: true,
            in_arena: vec![true; node_count * r],
            fault: None,
            budget: PageBudget::from_env(),
            prev: None,
            next: None,
            stats: DiskStoreStats::default(),
        }
    }

    /// Write-back and maintenance counters.
    pub fn stats(&self) -> DiskStoreStats {
        self.stats
    }

    /// Page-cache counters of the generation the store was opened from (zero for a
    /// store that was never opened from disk).
    pub fn pager_stats(&self) -> PagerStats {
        self.prev
            .as_ref()
            .map(|p| p.lock().expect("page-cache mutex poisoned").pager_stats())
            .unwrap_or_default()
    }

    /// Current residency of the page cache and the decoded-path cache.
    pub fn residency(&self) -> ResidencyStats {
        let (resident_pages, resident_page_bytes) = self
            .prev
            .as_ref()
            .map(|p| {
                let prev = p.lock().expect("page-cache mutex poisoned");
                (prev.resident_pages(), prev.resident_bytes())
            })
            .unwrap_or((0, 0));
        ResidencyStats {
            resident_pages,
            resident_page_bytes,
            cached_path_steps: self
                .fault
                .as_ref()
                .map(|f| f.resident_steps.load(Ordering::Relaxed))
                .unwrap_or(0),
            arena_steps: self.resident.arena_stats().live_steps,
        }
    }

    /// Current heap geometry as `(heap_len_steps, live_steps, garbage_steps)`.
    pub fn heap_geometry(&self) -> (u64, u64, u64) {
        (self.heap_len, self.live, self.dead)
    }

    /// Heap pages currently marked dirty (all pages when no generation exists yet).
    pub fn dirty_pages(&self) -> usize {
        if self.all_dirty {
            self.page_count() as usize
        } else {
            self.dirty.iter().map(|w| w.count_ones() as usize).sum()
        }
    }

    fn is_dirty(&self, page: u32) -> bool {
        self.dirty
            .get(page as usize / 64)
            .is_some_and(|word| word >> (page % 64) & 1 == 1)
    }

    fn page_count(&self) -> u32 {
        (self.heap_len * 4).div_ceil(WALKS_PAGE_SIZE as u64) as u32
    }

    fn mark_dirty_region(&mut self, offset: u64, cap: u32) {
        if cap == 0 {
            return;
        }
        let words = (self.page_count() as usize).div_ceil(64);
        if self.dirty.len() < words {
            self.dirty.resize(words, 0);
        }
        let first = (offset / STEPS_PER_PAGE) as usize;
        let last = ((offset + cap as u64 - 1) / STEPS_PER_PAGE) as usize;
        for page in first..=last {
            self.dirty[page / 64] |= 1 << (page % 64);
        }
    }

    /// The live directory, to write: copied first if a generation still shares it.
    fn dir_mut(&mut self) -> &mut Vec<FileSlot> {
        Arc::make_mut(&mut self.dir)
    }

    fn update_file_slot(&mut self, slot: usize, new_len: usize) {
        let s = self.dir[slot];
        self.live = self.live - s.len as u64 + new_len as u64;
        if (new_len as u64) <= s.cap as u64 {
            self.dir_mut()[slot].len = new_len as u32;
            if new_len > 0 {
                self.mark_dirty_region(s.offset, s.cap);
            }
            return;
        }
        if s.cap > 0 {
            self.by_offset.remove(&s.offset);
            self.dead += s.cap as u64;
        }
        // Mirror the arena's growth rule: first fills get a tight reservation,
        // regrowth doubles, so hot slots relocate O(1) times over their lifetime.
        let cap = if s.cap == 0 {
            file_reservation(new_len)
        } else {
            file_reservation(new_len * 2)
        };
        let offset = self.heap_len;
        self.heap_len += cap as u64;
        self.dir_mut()[slot] = FileSlot {
            offset,
            len: new_len as u32,
            cap,
        };
        self.by_offset.insert(offset, slot as u32);
        self.mark_dirty_region(offset, cap);
        self.stats.relocations += 1;
        self.maybe_compact_file();
    }

    /// Half-dead rule on the file heap, mirroring the in-memory arena: when garbage
    /// capacity exceeds the live data, repack every slot tight.  All pages become
    /// dirty — the cost the counters make visible.  Faults are unaffected: they read
    /// the previous generation's frozen layout, not the live directory.
    fn maybe_compact_file(&mut self) {
        if self.dead <= self.live.max(8 * self.dir.len() as u64) {
            return;
        }
        let started = std::time::Instant::now();
        self.by_offset.clear();
        let mut offset = 0u64;
        for (slot, s) in Arc::make_mut(&mut self.dir).iter_mut().enumerate() {
            let cap = file_reservation(s.len as usize);
            s.cap = cap;
            if cap == 0 {
                s.offset = 0;
                continue;
            }
            s.offset = offset;
            self.by_offset.insert(offset, slot as u32);
            offset += cap as u64;
        }
        self.heap_len = offset;
        self.dead = 0;
        self.dirty.clear();
        self.all_dirty = true;
        self.stats.file_compactions += 1;
        self.stats.compaction_steps_moved += self.live;
        self.stats.compaction_nanos += started.elapsed().as_nanos() as u64;
    }

    /// The path of `slot`, faulting it from disk if it is not in the arena.
    fn path_of(&self, slot: u32) -> PersistResult<&[NodeId]> {
        if self.in_arena[slot as usize] {
            Ok(self.resident.segment_path(SegmentId(slot)))
        } else {
            self.fault_slot(slot as usize)
        }
    }

    /// Demand-faults the path of an on-disk slot and caches the decoded steps.
    /// Thread-safe under `&self`: concurrent faulters race through a double-checked
    /// atomic cell, with the page-cache mutex serializing the actual decode.
    fn fault_slot(&self, slot: usize) -> PersistResult<&[NodeId]> {
        let fault = self
            .fault
            .as_ref()
            .expect("slots outside the arena imply demand-paging state");
        let cell = &fault.cells[slot];
        let ptr = cell.path.load(Ordering::Acquire);
        if !ptr.is_null() {
            cell.hot.store(true, Ordering::Relaxed);
            // SAFETY: a non-null pointer was published with Release by fault_slot
            // under the mutex and is only ever cleared by `&mut self` methods, which
            // cannot run while this shared borrow is live.  The pointee is never
            // mutated after publication.
            return Ok(unsafe { (*ptr).as_slice() });
        }
        let s = fault.prev_dir[slot];
        if s.len == 0 {
            return Ok(&[]);
        }
        let prev = self
            .prev
            .as_ref()
            .expect("demand-paged store keeps its source generation open");
        let mut walks = prev.lock().expect("page-cache mutex poisoned");
        // Double check: another thread may have decoded the slot while we waited.
        let ptr = cell.path.load(Ordering::Acquire);
        if !ptr.is_null() {
            drop(walks);
            cell.hot.store(true, Ordering::Relaxed);
            // SAFETY: as above.
            return Ok(unsafe { (*ptr).as_slice() });
        }
        let mut path = Vec::with_capacity(s.len as usize);
        walks.read_steps(s.offset, s.len, &mut path)?;
        check_path(
            SegmentId(slot as u32),
            &path,
            self.resident.r(),
            self.resident.node_count(),
        )
        .map_err(corrupt)?;
        let raw = Box::into_raw(Box::new(path));
        cell.path.store(raw, Ordering::Release);
        drop(walks);
        cell.hot.store(true, Ordering::Relaxed);
        fault
            .resident_steps
            .fetch_add(s.len as u64, Ordering::Relaxed);
        // SAFETY: `raw` came from Box::into_raw above; ownership now rests with the
        // cell, which outlives this borrow.
        Ok(unsafe { (*raw).as_slice() })
    }

    /// Faults segment `id` in (if it is on disk), surfacing any I/O or corruption
    /// error instead of panicking — the probing entry point corruption tests use.
    pub fn try_fault_segment(&self, id: SegmentId) -> PersistResult<()> {
        if self.in_arena.get(id.index()).copied().unwrap_or(true) {
            return Ok(());
        }
        self.fault_slot(id.index()).map(|_| ())
    }

    /// Drops every cached decoded path (they re-fault on next touch).  Pages already
    /// resident in the page cache stay subject to its own budget.
    pub fn release_path_cache(&mut self) {
        let Some(fault) = &mut self.fault else {
            return;
        };
        for cell in &mut fault.cells {
            cell.take();
        }
        *fault.resident_steps.get_mut() = 0;
    }

    /// Moves an on-disk slot's path into the resident arena so the flat store's
    /// write path (which reads the *old* path to unindex it) sees it.  No index
    /// update: the postings already account for the stored path.
    fn materialize_for_write(&mut self, slot: usize) {
        if self.in_arena[slot] {
            return;
        }
        let id = SegmentId(slot as u32);
        let fault = self
            .fault
            .as_mut()
            .expect("slots outside the arena imply demand-paging state");
        if let Some(path) = fault.cells[slot].take() {
            let steps = fault.resident_steps.get_mut();
            *steps = steps.saturating_sub(path.len() as u64);
            self.resident.install_indexed_path(id, &path);
        } else {
            let s = fault.prev_dir[slot];
            if s.len > 0 {
                let mut path = Vec::with_capacity(s.len as usize);
                let prev = self
                    .prev
                    .as_ref()
                    .expect("demand-paged store keeps its source generation open");
                let mut walks = prev.lock().expect("page-cache mutex poisoned");
                walks
                    .read_steps(s.offset, s.len, &mut path)
                    .unwrap_or_else(|e| {
                        panic!("materializing segment {slot} for write failed: {e}")
                    });
                drop(walks);
                check_path(id, &path, self.resident.r(), self.resident.node_count())
                    .unwrap_or_else(|e| panic!("segment {slot} corrupt on disk: {e}"));
                self.resident.install_indexed_path(id, &path);
            }
        }
        self.in_arena[slot] = true;
    }

    /// Trims the decoded-path cache back under the step budget with a second-chance
    /// sweep: hot cells are demoted on the first pass and dropped (if still over)
    /// on the second.  Runs after batch application and checkpoints.
    fn trim_fault_cells(&mut self) {
        let Some(fault) = &mut self.fault else {
            return;
        };
        let Some(limit) = fault.budget_steps else {
            return;
        };
        let mut resident = *fault.resident_steps.get_mut();
        for _pass in 0..2 {
            if resident <= limit {
                break;
            }
            for cell in &mut fault.cells {
                if resident <= limit {
                    break;
                }
                if cell.path.get_mut().is_null() {
                    continue;
                }
                if *cell.hot.get_mut() {
                    *cell.hot.get_mut() = false;
                    continue;
                }
                let path = cell.take().expect("checked non-null");
                resident = resident.saturating_sub(path.len() as u64);
            }
        }
        *fault.resident_steps.get_mut() = resident;
    }

    /// Renders the bytes of heap page `page`: every slot region intersecting the
    /// page contributes its path bytes (faulted in if needed), everything else is
    /// the filler word.
    fn render_page(&self, page: u32, out: &mut [u8]) -> PersistResult<()> {
        debug_assert_eq!(out.len(), WALKS_PAGE_SIZE);
        out.fill(0xFF);
        debug_assert_eq!(FILLER_WORD, u32::MAX);
        let start_step = page as u64 * STEPS_PER_PAGE;
        let end_step = start_step + STEPS_PER_PAGE;
        // Slot regions are disjoint, so at most one region starting before the page
        // can reach into it; the rest start within the page.
        let before = self
            .by_offset
            .range(..start_step)
            .next_back()
            .map(|(_, &slot)| slot);
        let within = self.by_offset.range(start_step..end_step).map(|(_, &s)| s);
        for slot in before.into_iter().chain(within) {
            let s = self.dir[slot as usize];
            if s.len == 0 || s.offset + (s.len as u64) <= start_step || s.offset >= end_step {
                continue;
            }
            render_steps(out, page, s.offset, self.path_of(slot)?);
        }
        Ok(())
    }

    /// Length of `slot` as the read surface sees it (arena for materialized slots,
    /// directory for on-disk ones — no fault needed).
    fn tracked_len(&self, slot: u32) -> usize {
        if self.in_arena[slot as usize] {
            self.resident.segment_len(SegmentId(slot))
        } else {
            self.dir[slot as usize].len as usize
        }
    }

    fn check_file_layout(&self) -> Result<(), String> {
        for (slot, s) in self.dir.iter().enumerate() {
            let tracked = self.tracked_len(slot as u32) as u32;
            if s.len != tracked {
                return Err(format!(
                    "slot {slot} stores {} steps on disk but {tracked} in memory",
                    s.len
                ));
            }
        }
        check_heap_layout(
            &self.dir,
            &self.by_offset,
            self.live,
            self.dead,
            self.heap_len,
        )
    }

    /// Full-store consistency for a demand-paged store: faults every segment and
    /// recomputes counters and postings from the actual paths.
    fn check_demand_paths(&self) -> Result<(), String> {
        let node_count = self.resident.node_count();
        let mut counts = vec![0u64; node_count];
        let mut keys: Vec<u64> = Vec::new();
        for slot in 0..self.dir.len() {
            let id = SegmentId(slot as u32);
            let path = self.path_of(slot as u32).map_err(|e| e.to_string())?;
            if path.len() != self.tracked_len(slot as u32) {
                return Err(format!(
                    "segment {slot} length disagrees with the directory"
                ));
            }
            if let Some(&first) = path.first() {
                if first != id.source(self.resident.r()) {
                    return Err(format!("segment {slot} does not start at its source"));
                }
            }
            for &v in path {
                if v.index() >= node_count {
                    return Err(format!("segment {slot} visits node {v} outside the store"));
                }
                counts[v.index()] += 1;
                keys.push(((v.0 as u64) << 32) | slot as u64);
            }
        }
        if counts != self.resident.visit_counts() {
            return Err("visit counters out of sync with the stored segments".to_string());
        }
        if keys.len() as u64 != self.resident.total_visits() {
            return Err(format!(
                "total_visits {} disagrees with the stored segments ({})",
                self.resident.total_visits(),
                keys.len()
            ));
        }
        keys.sort_unstable();
        let mut i = 0usize;
        for v in 0..node_count {
            let mut expect = self.resident.segments_visiting(NodeId::from_index(v));
            while i < keys.len() && (keys[i] >> 32) as usize == v {
                let seg = keys[i] as u32;
                let mut count = 0u32;
                while i < keys.len() && (keys[i] >> 32) as usize == v && keys[i] as u32 == seg {
                    count += 1;
                    i += 1;
                }
                if expect.next() != Some((SegmentId(seg), count)) {
                    return Err(format!(
                        "postings of node {v} disagree with the stored paths at segment {seg}"
                    ));
                }
            }
            if expect.next().is_some() {
                return Err(format!(
                    "postings of node {v} index visits no path contains"
                ));
            }
        }
        Ok(())
    }
}

/// The directory's own invariants: a slot with data has a reservation, `live` and
/// `dead` account for every step of the heap, and the reserved regions, in offset
/// order (`by_offset`), are disjoint and inside the heap.
fn check_heap_layout(
    dir: &[FileSlot],
    by_offset: &BTreeMap<u64, u32>,
    live: u64,
    dead: u64,
    heap_len: u64,
) -> Result<(), String> {
    let mut expected_live = 0u64;
    let mut reserved = 0u64;
    for (slot, s) in dir.iter().enumerate() {
        if s.cap == 0 && s.len != 0 {
            return Err(format!("slot {slot} has data but no reservation"));
        }
        expected_live += s.len as u64;
        reserved += s.cap as u64;
    }
    if expected_live != live {
        return Err(format!(
            "live counter {live} disagrees with the directory ({expected_live})"
        ));
    }
    if reserved + dead != heap_len {
        return Err(format!(
            "heap accounting off: {reserved} reserved + {dead} dead != {heap_len} total"
        ));
    }
    let mut prev_end = 0u64;
    for (&offset, &slot) in by_offset {
        if offset < prev_end {
            return Err(format!("slot {slot} overlaps its predecessor"));
        }
        // Checked: a crafted directory entry must be rejected, not overflow.
        prev_end = offset
            .checked_add(dir[slot as usize].cap as u64)
            .ok_or_else(|| format!("slot {slot} region overflows the address space"))?;
    }
    if prev_end > heap_len {
        return Err("slot regions exceed the heap".to_string());
    }
    Ok(())
}

impl ppr_store::WalkIndexView for DiskWalkStore {
    #[inline]
    fn r(&self) -> usize {
        self.resident.r()
    }

    #[inline]
    fn node_count(&self) -> usize {
        self.resident.node_count()
    }

    /// Demand-faults the segment from disk on first touch.  Faults panic on I/O or
    /// corruption errors (the trait's infallible read surface — same policy as WAL
    /// append failures); [`DiskWalkStore::try_fault_segment`] surfaces the error.
    #[inline]
    fn segment_path(&self, id: SegmentId) -> &[NodeId] {
        if self.in_arena[id.index()] {
            return self.resident.segment_path(id);
        }
        self.fault_slot(id.index())
            .unwrap_or_else(|e| panic!("demand fault of segment {} failed: {e}", id.0))
    }

    #[inline]
    fn source_of(&self, id: SegmentId) -> NodeId {
        self.resident.source_of(id)
    }

    fn segment_ids_of(&self, node: NodeId) -> impl Iterator<Item = SegmentId> + '_ {
        self.resident.segment_ids_of(node)
    }

    #[inline]
    fn segment_len(&self, id: SegmentId) -> usize {
        self.tracked_len(id.0)
    }

    #[inline]
    fn visit_count(&self, node: NodeId) -> u64 {
        self.resident.visit_count(node)
    }

    fn visit_counts(&self) -> Cow<'_, [u64]> {
        Cow::Borrowed(self.resident.visit_counts())
    }

    #[inline]
    fn total_visits(&self) -> u64 {
        self.resident.total_visits()
    }
}

impl WalkIndex for DiskWalkStore {
    fn segments_visiting(&self, node: NodeId) -> ppr_store::postings::PostingsIter<'_> {
        self.resident.segments_visiting(node)
    }

    fn arena_stats(&self) -> ArenaStats {
        self.resident.arena_stats()
    }

    fn emit_telemetry(&self, out: &mut ppr_telemetry::SnapshotBuilder) {
        out.source("arena", &self.arena_stats());
        out.source("disk", &self.stats());
        out.source("pager", &self.pager_stats());
        out.source("residency", &self.residency());
    }
}

impl WalkIndexMut for DiskWalkStore {
    fn ensure_nodes(&mut self, n: usize) {
        self.resident.ensure_nodes(n);
        let slots = self.resident.node_count() * self.resident.r();
        if slots > self.dir.len() {
            self.dir_mut().resize(slots, FileSlot::default());
            self.in_arena.resize(slots, true);
            if let Some(fault) = &mut self.fault {
                fault.cells.resize_with(slots, FaultCell::new);
            }
        }
    }

    fn set_segment(&mut self, id: SegmentId, path: &[NodeId]) {
        self.materialize_for_write(id.index());
        self.resident.set_segment(id, path);
        self.update_file_slot(id.index(), path.len());
    }

    fn clear_segment(&mut self, id: SegmentId) {
        self.materialize_for_write(id.index());
        self.resident.clear_segment(id);
        self.update_file_slot(id.index(), 0);
    }

    /// Fills the resident store in bulk, then reserves the file slots in plan order
    /// (slot order, for a construction plan) — the heap layout, and so every
    /// snapshot byte, is the sequential loop's.  An empty store has nothing on
    /// disk to materialize first.
    fn fill(&mut self, plan: &SegmentRewrites) {
        self.resident.fill(plan);
        for (id, path) in plan.iter() {
            self.update_file_slot(id.index(), path.len());
        }
    }

    fn apply_rewrites(&mut self, rewrites: &SegmentRewrites) {
        for (id, path) in rewrites.iter() {
            self.set_segment(id, path);
        }
        // Batch boundary: shed cold decoded paths accumulated by the batch's reads.
        self.trim_fault_cells();
    }

    fn check_consistency(&self) -> Result<(), String> {
        if self.fault.is_some() {
            self.check_demand_paths()?;
        } else {
            self.resident.check_consistency()?;
        }
        self.check_file_layout()
    }
}

impl PersistentWalkStore for DiskWalkStore {
    /// Page-granular write-back, streamed: dirty pages are rendered from the
    /// resident image (faulting any untouched slots that share them) and
    /// checksummed; clean pages are carried byte-for-byte from the previous
    /// generation — moved out of its cache, or read from its file **without** being
    /// admitted — under the CRC its table already holds.  A checkpoint never
    /// assembles the heap and never faults the store resident.
    fn encode_walks<S: Write + Seek>(&mut self, out: &mut SnapshotWriter<S>) -> PersistResult<()> {
        // A generation streamed earlier but never published holds page frames.
        self.next = None;
        let header = WalksHeader {
            r: self.resident.r() as u32,
            node_count: self.resident.node_count() as u64,
            slot_count: self.dir.len() as u64,
            heap_len: self.heap_len,
            page_size: WALKS_PAGE_SIZE as u32,
        };
        let mut next = PagedWalks::unwritten(header, Arc::clone(&self.dir));
        next.configure_cache(self.budget.max_resident_pages);
        // The previous generation's frames: a clean page's moves on to `next`, a
        // dirty page's is the buffer its new image is rendered into.  (Its emptied
        // cache stays valid — render_page may fault through it below.)
        let mut carried = match &self.prev {
            Some(prev) => prev
                .lock()
                .expect("page-cache mutex poisoned")
                .take_frames(),
            None => Vec::new(),
        };
        let prev_pages = carried.len() as u32;

        let mut stream = WalksStream::begin(out, header, &self.dir)?;
        let (mut rewritten, mut reused) = (0u64, 0u64);
        let mut spare: Option<Box<[u8]>> = None;
        for page in 0..header.page_count() {
            let cached = carried.get_mut(page as usize).and_then(Option::take);
            let was_cached = cached.is_some();
            let mut image = cached
                .or_else(|| spare.take())
                .unwrap_or_else(|| vec![0u8; WALKS_PAGE_SIZE].into_boxed_slice());
            let clean = !self.all_dirty && !self.is_dirty(page) && page < prev_pages;
            let crc = if clean {
                let prev = self.prev.as_ref().expect("prev_pages > 0 implies a source");
                // Tight lock scope: render_page below may fault, which takes this
                // same mutex.
                let mut prev = prev.lock().expect("page-cache mutex poisoned");
                if !was_cached {
                    prev.stream_page(page, &mut image)?;
                }
                reused += 1;
                Some(prev.page_crc(page)?)
            } else {
                self.render_page(page, &mut image)?;
                rewritten += 1;
                None
            };
            stream.page(&image, crc)?;
            // Keep the page we just wrote warm while the budget has room: the next
            // write-back's clean pages then
            // move on from memory instead of being re-read (and re-validated).
            if let Some(idle) = next.preload(page, image)? {
                spare = Some(idle);
            }
        }
        let (page_crcs, heap_at) = stream.finish()?;
        self.next = Some(StreamedGeneration {
            walks: next,
            page_crcs,
            heap_at,
        });
        self.stats.pages_rewritten += rewritten;
        self.stats.pages_reused += reused;
        // Rendering dirty pages may have faulted slot paths in; shed the cold ones.
        self.trim_fault_cells();
        Ok(())
    }

    /// Demand-paged open.  The plan's paths go into the resident arena, paths
    /// only, and the visit index is counted from them and from every other heap
    /// path, which the one pass that checks each heap page against its CRC hands
    /// over (an unbounded cache keeps what it checks, a bounded one streams it
    /// through a page of scratch).  No heap path is kept past the count: each
    /// faults in on first touch.  Then the plan's segments take their file slots,
    /// in plan order, as a write would.
    fn open_walks(
        mut walks: PagedWalks,
        node_count: usize,
        plan: &SegmentRewrites,
    ) -> PersistResult<Self> {
        let header = *walks.header();
        let r = header.r as usize;
        let prev_dir = walks.frozen_dir();
        let mut live = 0u64;
        let mut reserved = 0u64;
        let mut regions: Vec<(u64, u32)> = Vec::new();
        for (slot, s) in prev_dir.iter().enumerate() {
            live += s.len as u64;
            reserved += s.cap as u64;
            if s.cap > 0 {
                regions.push((s.offset, slot as u32));
            }
        }
        // Sorted first, the map is built in bulk instead of by one insert per slot.
        regions.sort_unstable();
        if let Some(pair) = regions.windows(2).find(|pair| pair[0].0 == pair[1].0) {
            return Err(corrupt(format!(
                "two slots share heap offset {}",
                pair[0].0
            )));
        }
        let by_offset: BTreeMap<u64, u32> = regions.into_iter().collect();
        let dead = header
            .heap_len
            .checked_sub(reserved)
            .ok_or_else(|| corrupt("slot reservations exceed the heap"))?;
        check_heap_layout(&prev_dir, &by_offset, live, dead, header.heap_len).map_err(corrupt)?;

        let budget = PageBudget::from_env();
        walks.configure_cache(budget.max_resident_pages);
        let mut loader = WalkStore::loader(node_count, r);
        for (id, path) in plan.iter() {
            loader.write(id, path).map_err(corrupt)?;
        }
        let resident = loader.finish_with(|count| {
            walks.scan_paths(plan, |id, path| count(id, path).map_err(corrupt))
        })?;

        let slots = node_count * r;
        let mut dir = Arc::clone(&prev_dir);
        if slots > dir.len() {
            Arc::make_mut(&mut dir).resize(slots, FileSlot::default());
        }
        let in_arena: Vec<bool> = (0..slots)
            .map(|slot| prev_dir.get(slot).is_none_or(|s| s.len == 0))
            .collect();
        let fault = FaultState {
            cells: (0..slots).map(|_| FaultCell::new()).collect(),
            prev_dir,
            resident_steps: AtomicU64::new(0),
            budget_steps: budget.budget_steps(),
        };
        let mut store = DiskWalkStore {
            resident,
            dir,
            by_offset,
            heap_len: header.heap_len,
            live,
            dead,
            dirty: Vec::new(),
            all_dirty: false,
            in_arena,
            fault: Some(fault),
            budget,
            prev: Some(Mutex::new(walks)),
            next: None,
            stats: DiskStoreStats::default(),
        };
        for (id, path) in plan.iter() {
            store.in_arena[id.index()] = true;
            store.update_file_slot(id.index(), path.len());
        }
        Ok(store)
    }

    /// Completes the reader the encode put together — it only lacked the published
    /// file — and makes it the fault and clean-page source.  Nothing is re-read and
    /// nothing is checksummed.
    fn after_checkpoint(&mut self, snap_path: &Path) -> PersistResult<()> {
        let StreamedGeneration {
            mut walks,
            page_crcs,
            heap_at,
        } = self.next.take().ok_or_else(|| {
            format_err("after_checkpoint without a generation streamed by encode_walks")
        })?;
        walks.written_to(File::open(snap_path)?, page_crcs, heap_at);
        if let Some(fault) = &mut self.fault {
            fault.prev_dir = walks.frozen_dir();
        }
        self.prev = Some(Mutex::new(walks));
        self.dirty.clear();
        self.all_dirty = false;
        self.trim_fault_cells();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::reference::assemble_walks_payload;
    use crate::layout::tests::{open_walks, write_snapshot};
    use crate::snapshot::tests::{reference_file, FailAfter};
    use crate::snapshot::{AtomicFile, SnapshotFile, SECTION_GRAPH, SECTION_META, SECTION_WALKS};
    use crate::tempdir::TempDir;
    use ppr_store::WalkIndexView;

    #[test]
    fn snapshot_view_freezes_the_resident_image() {
        let mut store = DiskWalkStore::new(6, 2);
        store.set_segment(SegmentId::new(NodeId(2), 1, 2), &path_of(&[2, 5, 0]));
        let view = ppr_store::FrozenWalks::from_index(&store, 7);
        assert_eq!(view.epoch(), 7);
        assert_eq!(view.node_count(), 6);
        assert_eq!(view.total_visits(), store.total_visits());
        assert_eq!(
            view.segment_path(SegmentId::new(NodeId(2), 1, 2)),
            store.segment_path(SegmentId::new(NodeId(2), 1, 2))
        );
    }

    fn path_of(nodes: &[u32]) -> Vec<NodeId> {
        nodes.iter().map(|&n| NodeId(n)).collect()
    }

    fn checkpoint_to(store: &mut DiskWalkStore, path: &Path) {
        write_snapshot(path, store);
        store.after_checkpoint(path).unwrap();
    }

    /// The walks payload as the assemble-in-memory encoder this store used to have
    /// produced it: the whole heap in one buffer (clean pages copied out of the
    /// previous generation, the rest rendered), every page checksummed from it.
    fn reference_payload(store: &DiskWalkStore) -> Vec<u8> {
        let page_count = store.page_count();
        let mut heap = vec![0xFFu8; page_count as usize * WALKS_PAGE_SIZE];
        let prev_pages = store
            .prev
            .as_ref()
            .map(|p| p.lock().unwrap().header().page_count())
            .unwrap_or(0);
        for page in 0..page_count {
            let range = page as usize * WALKS_PAGE_SIZE..(page as usize + 1) * WALKS_PAGE_SIZE;
            if !store.all_dirty && !store.is_dirty(page) && page < prev_pages {
                let prev = store.prev.as_ref().unwrap();
                prev.lock()
                    .unwrap()
                    .stream_page(page, &mut heap[range])
                    .unwrap();
            } else {
                store.render_page(page, &mut heap[range]).unwrap();
            }
        }
        let header = WalksHeader {
            r: store.resident.r() as u32,
            node_count: store.resident.node_count() as u64,
            slot_count: store.dir.len() as u64,
            heap_len: store.heap_len,
            page_size: WALKS_PAGE_SIZE as u32,
        };
        assemble_walks_payload(&header, &store.dir, &heap)
    }

    /// Checkpoints `store` to `path` and holds the file to the reference encoder.
    fn checkpoint_and_compare(store: &mut DiskWalkStore, path: &Path, what: &str) {
        let expected = reference_file(&[(SECTION_WALKS, reference_payload(store))]);
        checkpoint_to(store, path);
        assert!(std::fs::read(path).unwrap() == expected, "{what}");
        SnapshotFile::verify_all(path).unwrap();
    }

    /// `n` single-segment nodes whose paths span several heap pages.
    fn many_pages(n: usize) -> DiskWalkStore {
        let mut store = DiskWalkStore::new(n, 1);
        for node in 0..n as u32 {
            let len = 3 + (node as usize * 7) % 37;
            let mut p = vec![NodeId(node)];
            p.extend((1..len as u32).map(|k| NodeId((node + k * 5) % n as u32)));
            store.set_segment(SegmentId::new(NodeId(node), 0, 1), &p);
        }
        store
    }

    fn grown_path(node: u32, len: usize, n: u32) -> Vec<NodeId> {
        let mut p = vec![NodeId(node)];
        p.extend((1..len as u32).map(|k| NodeId((node * 3 + k) % n)));
        p
    }

    #[test]
    fn streamed_generations_equal_the_assembled_reference_byte_for_byte() {
        let tmp = TempDir::new("disk-identity");
        let n = 600usize;
        let mut store = many_pages(n);
        assert!(store.page_count() > 10);
        checkpoint_and_compare(&mut store, &tmp.path().join("snap-0.ppr"), "fresh");
        // Nothing dirty: every page is carried, out of the cache.
        checkpoint_and_compare(&mut store, &tmp.path().join("snap-1.ppr"), "all clean");
        assert_eq!(store.stats().pages_reused, store.page_count() as u64);

        // Clean, dirty and relocated pages in one generation: an in-place rewrite,
        // a shrink, a clear, and two slots outgrowing their reservations (their old
        // regions stay behind as garbage on pages that remain clean).
        store.set_segment(SegmentId(7), &grown_path(7, 4, n as u32));
        store.set_segment(SegmentId(300), &grown_path(300, 2, n as u32));
        store.clear_segment(SegmentId(450));
        store.set_segment(SegmentId(20), &grown_path(20, 90, n as u32));
        store.set_segment(SegmentId(599), &grown_path(599, 1500, n as u32));
        assert!(store.stats().relocations >= 2);
        let dirty = store.dirty_pages();
        assert!(dirty > 2 && dirty < store.page_count() as usize);
        checkpoint_and_compare(&mut store, &tmp.path().join("snap-2.ppr"), "mixed");

        // Reopened under a two-page cache: clean pages now come from the file.
        let old = set_thread_page_budget(Some(PageBudget::bounded(2)));
        let reopened = open_walks::<DiskWalkStore>(&tmp.path().join("snap-2.ppr"));
        set_thread_page_budget(old);
        let mut reopened = reopened.unwrap();
        reopened.set_segment(SegmentId(8), &grown_path(8, 5, n as u32));
        reopened.set_segment(SegmentId(21), &grown_path(21, 200, n as u32));
        checkpoint_and_compare(&mut reopened, &tmp.path().join("snap-3.ppr"), "bounded");
        assert!(reopened.residency().resident_pages <= 2);
        checkpoint_and_compare(
            &mut reopened,
            &tmp.path().join("snap-4.ppr"),
            "bounded, clean",
        );

        // Regrowth until the half-dead rule repacks the file: everything moves.
        let mut store = DiskWalkStore::new(8, 1);
        for node in 0..8u32 {
            store.set_segment(SegmentId(node), &grown_path(node, 5, 8));
        }
        checkpoint_and_compare(&mut store, &tmp.path().join("snap-5.ppr"), "small");
        for len in [9usize, 17, 65, 257, 1025] {
            for node in 0..8u32 {
                store.set_segment(SegmentId(node), &grown_path(node, len, 8));
            }
        }
        assert!(store.stats().file_compactions > 0);
        assert_eq!(store.dirty_pages(), store.page_count() as usize);
        checkpoint_and_compare(&mut store, &tmp.path().join("snap-6.ppr"), "compacted");
        checkpoint_and_compare(
            &mut store,
            &tmp.path().join("snap-7.ppr"),
            "after compaction",
        );
    }

    #[test]
    fn a_checkpoint_checksums_dirty_pages_only_and_publishing_checksums_nothing() {
        let tmp = TempDir::new("disk-crc-cost");
        let mut store = many_pages(600);
        checkpoint_to(&mut store, &tmp.path().join("snap-0.ppr"));
        store.set_segment(SegmentId(7), &grown_path(7, 4, 600));
        assert_eq!(store.dirty_pages(), 1);

        let before = crate::crc::checksummed_bytes();
        let path = tmp.path().join("snap-1.ppr");
        write_snapshot(&path, &mut store);
        let encoded = crate::crc::checksummed_bytes() - before;
        store.after_checkpoint(&path).unwrap();
        assert_eq!(
            crate::crc::checksummed_bytes() - before,
            encoded,
            "after_checkpoint re-read or re-checksummed something"
        );
        // Header, directory and page-CRC table once — and of the heap, the one dirty
        // page.
        let file_len = std::fs::metadata(&path).unwrap().len();
        let pages = store.page_count() as u64;
        let ahead_of_heap = file_len - 32 - pages * WALKS_PAGE_SIZE as u64;
        assert_eq!(encoded, ahead_of_heap + WALKS_PAGE_SIZE as u64);

        // The published generation was put together from the parts in hand: nothing
        // was loaded and every page is warm.
        assert_eq!(store.pager_stats(), PagerStats::default());
        assert_eq!(store.residency().resident_pages, pages as usize);
        let reopened = open_walks::<DiskWalkStore>(&path).unwrap();
        assert!(WalkIndexMut::check_consistency(&reopened).is_ok());
    }

    #[test]
    fn verification_keeps_its_pages_only_where_that_cannot_evict() {
        let tmp = TempDir::new("disk-verify");
        let snap = tmp.path().join("snap-0.ppr");
        let mut store = many_pages(600);
        checkpoint_to(&mut store, &snap);
        let pages = store.page_count() as u64;

        // Unbounded: the open's pass is the one read and the one checksum a page
        // gets — touching every path afterwards reads nothing more.
        let unbounded = open_walks::<DiskWalkStore>(&snap).unwrap();
        let verified = unbounded.pager_stats();
        assert_eq!((verified.loads, verified.streamed), (pages, 0));
        assert_eq!(unbounded.residency().resident_pages, pages as usize);
        assert!(WalkIndexMut::check_consistency(&unbounded).is_ok());
        assert_eq!(unbounded.pager_stats().bytes_read, verified.bytes_read);

        // Bounded: streamed through scratch, nothing admitted, nothing evicted.
        let old = set_thread_page_budget(Some(PageBudget::bounded(2)));
        let bounded = open_walks::<DiskWalkStore>(&snap);
        set_thread_page_budget(old);
        let verified = bounded.unwrap().pager_stats();
        assert_eq!((verified.loads, verified.streamed), (0, pages));
        assert_eq!(verified.evictions, 0);
    }

    #[test]
    fn the_pager_and_the_fault_state_share_one_frozen_directory() {
        let tmp = TempDir::new("disk-one-dir");
        let mut store = many_pages(64);
        let snap = tmp.path().join("snap-0.ppr");
        checkpoint_to(&mut store, &snap);
        let mut reopened = open_walks::<DiskWalkStore>(&snap).unwrap();
        let shared = |store: &DiskWalkStore| {
            let pager = store.prev.as_ref().unwrap().lock().unwrap().frozen_dir();
            Arc::ptr_eq(&pager, &store.fault.as_ref().unwrap().prev_dir)
        };
        assert!(shared(&reopened));
        // Growth past the frozen layout leaves it alone: new slots live in the arena.
        reopened.ensure_nodes(70);
        reopened.set_segment(SegmentId(69), &grown_path(69, 3, 70));
        assert!(shared(&reopened));
        checkpoint_to(&mut reopened, &tmp.path().join("snap-1.ppr"));
        assert!(shared(&reopened));
        assert_eq!(reopened.fault.as_ref().unwrap().prev_dir.len(), 70);
        assert!(WalkIndexMut::check_consistency(&reopened).is_ok());
    }

    /// A whole generation file the way the engine lays it out: META, GRAPH, WALKS.
    fn stream_generation<S: Write + Seek>(sink: S, store: &mut DiskWalkStore) -> PersistResult<S> {
        let mut graph = ppr_graph::DynamicGraph::with_nodes(store.node_count());
        for node in 0..store.node_count() as u32 {
            graph.add_edge(ppr_graph::Edge::new(
                node,
                (node * 7 + 1) % store.node_count() as u32,
            ));
        }
        let mut snap = SnapshotWriter::new(sink)?;
        snap.begin_section(SECTION_META)?;
        snap.write(&[0xA5; 97])?;
        snap.end_section()?;
        snap.begin_section(SECTION_GRAPH)?;
        crate::graph::encode_graph(&graph, |chunk| snap.write(chunk))?;
        snap.end_section()?;
        store.encode_walks(&mut snap)?;
        snap.finish()
    }

    #[test]
    fn a_checkpoint_that_runs_out_of_disk_leaves_no_debris() {
        let tmp = TempDir::new("disk-enospc");
        let dir = crate::dir::StoreDir::init(tmp.path().join("store")).unwrap();
        let mut store = many_pages(600);
        let gen0 = dir.snapshot_path(0);
        stream_generation(AtomicFile::create(&gen0).unwrap(), &mut store)
            .unwrap()
            .publish()
            .unwrap();
        store.after_checkpoint(&gen0).unwrap();
        dir.publish_gen(0).unwrap();
        let gen0_bytes = std::fs::read(&gen0).unwrap();
        let listing = |dir: &crate::dir::StoreDir| {
            let mut names: Vec<_> = std::fs::read_dir(dir.root())
                .unwrap()
                .map(|e| e.unwrap().file_name().into_string().unwrap())
                .collect();
            names.sort();
            names
        };
        let before = listing(&dir);
        store.set_segment(SegmentId(7), &grown_path(7, 4, 600));
        store.set_segment(SegmentId(20), &grown_path(20, 90, 600));

        // The layout of the generation about to be written, from an unfailing run.
        let whole = stream_generation(std::io::Cursor::new(Vec::new()), &mut store)
            .unwrap()
            .into_inner();
        let probe = tmp.path().join("probe.ppr");
        std::fs::write(&probe, &whole).unwrap();
        let snap = SnapshotFile::open(&probe).unwrap();
        let mut budgets = vec![0, 1, 15, 16, 17, whole.len() as u64 - 1, whole.len() as u64];
        for info in snap.sections() {
            // Head, first and last payload byte of every section.
            for edge in [info.offset - 16, info.offset, info.offset + info.len] {
                budgets.extend([edge.saturating_sub(1), edge, edge + 1]);
            }
        }
        let walks = PagedWalks::open(&probe).unwrap();
        let heap_at = walks.heap_file_offset();
        let pages = walks.header().page_count() as u64;
        budgets.extend([heap_at - 1, heap_at, heap_at + 1]);
        budgets.push(heap_at + WALKS_PAGE_SIZE as u64 / 2);
        budgets.push(heap_at + (pages / 2) * WALKS_PAGE_SIZE as u64 + 1234);
        drop((snap, walks));

        let gen1 = dir.snapshot_path(1);
        for budget in budgets {
            let sink = FailAfter {
                inner: AtomicFile::create(&gen1).unwrap(),
                budget,
            };
            match stream_generation(sink, &mut store) {
                Err(crate::io::PersistError::Io(_)) => {}
                Err(other) => panic!("budget {budget}: unexpected error {other}"),
                Ok(_) => panic!("budget {budget} is short of the patched heads"),
            }
            assert_eq!(listing(&dir), before, "budget {budget} left debris");
            assert_eq!(dir.current_gen().unwrap(), 0);
        }
        assert!(std::fs::read(&gen0).unwrap() == gen0_bytes);
        // The store went through every failed attempt unharmed: the retry writes
        // the very bytes the unfailing run produced.
        let sink = FailAfter {
            inner: AtomicFile::create(&gen1).unwrap(),
            budget: u64::MAX,
        };
        stream_generation(sink, &mut store)
            .unwrap()
            .inner
            .publish()
            .unwrap();
        store.after_checkpoint(&gen1).unwrap();
        assert!(std::fs::read(&gen1).unwrap() == whole);
        assert!(!gen1.with_extension("tmp").exists());
        assert!(WalkIndexMut::check_consistency(&store).is_ok());
    }

    #[test]
    fn fill_lays_out_the_heap_like_the_set_segment_loop() {
        let tmp = TempDir::new("disk-fill");
        let mut looped = many_pages(600);
        let mut plan = SegmentRewrites::new();
        for slot in 0..600u32 {
            plan.push(SegmentId(slot), looped.segment_path(SegmentId(slot)));
        }
        let mut filled = DiskWalkStore::new(600, 1);
        filled.fill(&plan);
        assert_eq!(filled.dir, looped.dir);
        assert_eq!(filled.by_offset, looped.by_offset);
        assert_eq!(filled.heap_geometry(), looped.heap_geometry());
        assert_eq!(filled.stats(), looped.stats());
        assert_eq!(filled.arena_stats(), looped.arena_stats());
        assert!(WalkIndexMut::check_consistency(&filled).is_ok());
        let (a, b) = (tmp.path().join("filled.ppr"), tmp.path().join("looped.ppr"));
        checkpoint_to(&mut filled, &a);
        checkpoint_to(&mut looped, &b);
        assert!(std::fs::read(&a).unwrap() == std::fs::read(&b).unwrap());
    }

    #[test]
    fn behaves_exactly_like_the_flat_store() {
        let mut disk = DiskWalkStore::new(6, 2);
        let mut flat = WalkStore::new(6, 2);
        let writes: &[(u32, usize, &[u32])] = &[
            (0, 0, &[0, 3, 4]),
            (5, 1, &[5, 5, 2]),
            (0, 0, &[0, 1]),
            (3, 1, &[3, 0, 3, 0]),
            (5, 1, &[]),
        ];
        for &(node, slot, p) in writes {
            let id = SegmentId::new(NodeId(node), slot, 2);
            disk.set_segment(id, &path_of(p));
            flat.set_segment(id, &path_of(p));
        }
        assert_eq!(disk.visit_counts(), WalkIndexView::visit_counts(&flat));
        assert_eq!(WalkIndexView::total_visits(&disk), flat.total_visits());
        for slot in 0..12u32 {
            assert_eq!(
                WalkIndexView::segment_path(&disk, SegmentId(slot)),
                flat.segment_path(SegmentId(slot))
            );
        }
        assert!(WalkIndexMut::check_consistency(&disk).is_ok());
    }

    #[test]
    fn checkpoint_round_trips_through_the_snapshot() {
        let tmp = TempDir::new("disk-roundtrip");
        let snap = tmp.path().join("snap-0.ppr");
        let mut store = DiskWalkStore::new(5, 1);
        for node in 0..5u32 {
            let id = SegmentId::new(NodeId(node), 0, 1);
            store.set_segment(id, &path_of(&[node, (node + 1) % 5]));
        }
        checkpoint_to(&mut store, &snap);

        let reopened = open_walks::<DiskWalkStore>(&snap).unwrap();
        assert_eq!(reopened.visit_counts(), store.visit_counts());
        assert_eq!(reopened.heap_geometry(), store.heap_geometry());
        // The open read the heap once to count the index, and kept no path.
        assert_eq!(reopened.pager_stats().loads, 1);
        assert_eq!(reopened.residency().cached_path_steps, 0);
        for slot in 0..5u32 {
            assert_eq!(
                WalkIndexView::segment_path(&reopened, SegmentId(slot)),
                WalkIndexView::segment_path(&store, SegmentId(slot))
            );
        }
        assert!(WalkIndexMut::check_consistency(&reopened).is_ok());
        // The reads above demand-faulted every path in from the cached page.
        assert_eq!(reopened.pager_stats().loads, 1);
        assert_eq!(reopened.residency().cached_path_steps, 10);
    }

    #[test]
    fn second_checkpoint_reuses_clean_pages() {
        let tmp = TempDir::new("disk-reuse");
        // 2048 slots with ~3 steps each spread over many pages.
        let n = 2048usize;
        let mut store = DiskWalkStore::new(n, 1);
        for node in 0..n as u32 {
            let id = SegmentId::new(NodeId(node), 0, 1);
            store.set_segment(id, &path_of(&[node, (node + 1) % n as u32, node]));
        }
        let snap0 = tmp.path().join("snap-0.ppr");
        checkpoint_to(&mut store, &snap0);
        let after_first = store.stats();
        assert!(
            after_first.pages_rewritten > 4,
            "first checkpoint renders all"
        );
        assert_eq!(after_first.pages_reused, 0);

        // Touch one segment; the next checkpoint only re-renders its page(s).
        store.set_segment(SegmentId(7), &path_of(&[7, 8]));
        assert_eq!(store.dirty_pages(), 1);
        let snap1 = tmp.path().join("snap-1.ppr");
        checkpoint_to(&mut store, &snap1);
        let after_second = store.stats();
        let rewritten = after_second.pages_rewritten - after_first.pages_rewritten;
        assert_eq!(rewritten, 1, "only the touched page is re-rendered");
        assert!(after_second.pages_reused >= 4);

        // And the reused-page snapshot still decodes to the exact store.
        let reopened = open_walks::<DiskWalkStore>(&snap1).unwrap();
        assert_eq!(reopened.visit_counts(), store.visit_counts());
        assert_eq!(
            WalkIndexView::segment_path(&reopened, SegmentId(7)),
            path_of(&[7, 8]).as_slice()
        );
        assert!(WalkIndexMut::check_consistency(&reopened).is_ok());
    }

    #[test]
    fn outgrown_slots_relocate_and_eventually_compact_the_file() {
        let mut store = DiskWalkStore::new(4, 1);
        // Lengths crossing successive power-of-two boundaries force relocations whose
        // abandoned reservations pile up past the live data (same shape as the
        // in-memory arena's compaction test).
        for &len in &[9usize, 17, 65, 257] {
            for node in 0..4u32 {
                let mut p = vec![NodeId(node)];
                p.extend(std::iter::repeat_n(NodeId((node + 1) % 4), len - 1));
                store.set_segment(SegmentId::new(NodeId(node), 0, 1), &p);
            }
        }
        let stats = store.stats();
        assert!(stats.relocations > 0, "growth must relocate");
        assert!(
            stats.file_compactions > 0,
            "half-dead rule must fire: {stats:?}"
        );
        assert!(stats.compaction_steps_moved > 0);
        assert!(WalkIndexMut::check_consistency(&store).is_ok());
        let (heap, live, dead) = store.heap_geometry();
        assert!(dead <= live.max(8 * 4), "compaction keeps garbage bounded");
        assert!(heap >= live);
    }

    #[test]
    fn ensure_nodes_grows_the_directory() {
        let mut store = DiskWalkStore::new(2, 2);
        store.ensure_nodes(5);
        assert_eq!(WalkIndexView::node_count(&store), 5);
        let id = SegmentId::new(NodeId(4), 1, 2);
        store.set_segment(id, &path_of(&[4, 0]));
        assert_eq!(WalkIndexView::visit_count(&store, NodeId(4)), 1);
        assert!(WalkIndexMut::check_consistency(&store).is_ok());
    }

    #[test]
    fn bounded_reopen_matches_unbounded_and_stays_bounded() {
        let tmp = TempDir::new("disk-bounded");
        let snap = tmp.path().join("snap-0.ppr");
        let n = 512usize;
        let mut store = DiskWalkStore::new(n, 1);
        for node in 0..n as u32 {
            let id = SegmentId::new(NodeId(node), 0, 1);
            // ~40 steps per slot: dozens of heap pages.
            let mut p = vec![NodeId(node)];
            p.extend((0..39).map(|k| NodeId((node + k) % n as u32)));
            store.set_segment(id, &p);
        }
        checkpoint_to(&mut store, &snap);

        let unbounded = open_walks::<DiskWalkStore>(&snap).unwrap();
        let old = set_thread_page_budget(Some(PageBudget::bounded(2)));
        let bounded = open_walks::<DiskWalkStore>(&snap).unwrap();
        set_thread_page_budget(old);

        for slot in (0..n as u32).rev() {
            assert_eq!(
                WalkIndexView::segment_path(&bounded, SegmentId(slot)),
                WalkIndexView::segment_path(&unbounded, SegmentId(slot)),
            );
        }
        let residency = bounded.residency();
        assert!(
            residency.resident_pages <= 2,
            "budget of 2 pages respected, got {residency:?}"
        );
        assert!(bounded.pager_stats().evictions > 0, "tiny budget thrashed");
        assert!(WalkIndexMut::check_consistency(&bounded).is_ok());
    }

    #[test]
    fn writes_to_unfaulted_slots_preserve_the_index() {
        let tmp = TempDir::new("disk-write-unfaulted");
        let snap = tmp.path().join("snap-0.ppr");
        let mut store = DiskWalkStore::new(8, 1);
        for node in 0..8u32 {
            let id = SegmentId::new(NodeId(node), 0, 1);
            store.set_segment(id, &path_of(&[node, (node + 1) % 8, (node + 2) % 8]));
        }
        checkpoint_to(&mut store, &snap);
        let mut reopened = open_walks::<DiskWalkStore>(&snap).unwrap();
        // Overwrite a slot that was never read: the write path must unindex the old
        // on-disk path (materializing it first), not corrupt the counters.
        reopened.set_segment(SegmentId(3), &path_of(&[3, 3]));
        reopened.clear_segment(SegmentId(5));
        assert!(WalkIndexMut::check_consistency(&reopened).is_ok());
        // And a follow-up checkpoint round-trips the mixed arena/disk state.
        let snap1 = tmp.path().join("snap-1.ppr");
        checkpoint_to(&mut reopened, &snap1);
        let again = open_walks::<DiskWalkStore>(&snap1).unwrap();
        assert_eq!(
            WalkIndexView::segment_path(&again, SegmentId(3)),
            path_of(&[3, 3]).as_slice()
        );
        assert!(WalkIndexView::segment_path(&again, SegmentId(5)).is_empty());
        assert!(WalkIndexMut::check_consistency(&again).is_ok());
    }

    #[test]
    fn concurrent_faults_decode_each_slot_once() {
        let tmp = TempDir::new("disk-concurrent");
        let snap = tmp.path().join("snap-0.ppr");
        let n = 64usize;
        let mut store = DiskWalkStore::new(n, 1);
        for node in 0..n as u32 {
            let id = SegmentId::new(NodeId(node), 0, 1);
            store.set_segment(id, &path_of(&[node, (node + 1) % n as u32]));
        }
        checkpoint_to(&mut store, &snap);
        let reopened = open_walks::<DiskWalkStore>(&snap).unwrap();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for slot in 0..n as u32 {
                        let path = WalkIndexView::segment_path(&reopened, SegmentId(slot));
                        assert_eq!(path[0], NodeId(slot));
                    }
                });
            }
        });
        assert_eq!(
            reopened.residency().cached_path_steps,
            2 * n as u64,
            "each slot decoded exactly once despite racing readers"
        );
    }
}
