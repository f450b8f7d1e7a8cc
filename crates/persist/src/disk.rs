//! [`DiskWalkStore`]: a file-backed PageRank Store with demand paging and packed
//! checkpoints.
//!
//! The store implements the full `WalkIndex`/`WalkIndexMut` surface, so every engine
//! adopts it without change.  A store opened from a snapshot is **demand-paged**:
//! [`PersistentWalkStore::open_walks`] installs the WAL tail's final paths, and
//! counts the visit index in the one pass that checks every heap page against its
//! CRC — streamed through a page of scratch under a bounded budget — while every
//! other walk path stays on disk.  A path is faulted in on first touch — the read
//! pulls its heap pages through the bounded [`crate::pager::PageCache`]
//! (CRC-verified on every fault and re-fault), validates the path's shape (starts
//! at its source, visits only known nodes), and caches the decoded steps until
//! trimmed.  The resident set is therefore governed by the configured
//! [`PageBudget`] and the index, not the heap size.
//!
//! Writes go to the resident arena, and every checkpoint writes the whole next
//! generation, packed ([`crate::layout`]):
//!
//! * the store keeps one flag per slot: written since the generation it last wrote
//!   or opened;
//! * [`PersistentWalkStore::encode_walks`] streams the next generation through the
//!   [`WalksStream`] every layout writes with, slot by slot in id order: a written
//!   slot's path comes from the arena, and every other slot's bytes are copied from
//!   the previous generation's heap, read in one forward pass that checks each page
//!   it reads against its CRC — a page the cache holds is moved out of it, the rest
//!   stream from the file through scratch without being admitted, and each is
//!   recycled as an output buffer once passed.  The snapshot therefore depends on
//!   the paths alone; the heap is never assembled in memory, and write-back never
//!   faults the store resident;
//! * the next generation's [`PagedWalks`] is put together while it is written
//!   (every page just written is offered to its cache under the usual admission
//!   policy), so [`PersistentWalkStore::after_checkpoint`] only opens the published
//!   file and brings the directory up to date in place.
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
    Directory, PagedWalks, PersistentWalkStore, WalksHeader, WalksStream, STEPS_PER_PAGE,
};
use crate::pager::PagerStats;
use crate::snapshot::SnapshotWriter;
use ppr_graph::NodeId;
use ppr_store::arena::ArenaStats;
use ppr_store::walks::check_path;
use ppr_store::{SegmentId, SegmentRewrites, WalkIndex, WalkIndexMut, WalkStore};
use std::borrow::Cow;
use std::cell::Cell;
use std::fs::File;
use std::io::{Seek, Write};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

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

/// Write-back counters of a [`DiskWalkStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DiskStoreStats {
    /// Heap pages written across all checkpoints.
    pub pages_rewritten: u64,
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

/// One demand-faultable slot: a lazily decoded path, plus a CLOCK-style reference
/// bit for trimming.  The path is set only by [`DiskWalkStore::fault_slot`], under
/// the store's page-cache mutex, and taken only by `&mut self` methods.
#[derive(Debug)]
struct FaultCell {
    path: OnceLock<Box<[NodeId]>>,
    /// Touched-since-last-trim bit (second chance against trimming).
    hot: AtomicBool,
}

impl FaultCell {
    fn new() -> Self {
        FaultCell {
            path: OnceLock::new(),
            hot: AtomicBool::new(false),
        }
    }
}

/// Demand-paging state of a store opened from a snapshot.
#[derive(Debug)]
struct FaultState {
    /// One cell per slot; an empty cell means not yet decoded (or trimmed).
    cells: Vec<FaultCell>,
    /// Steps currently held by cached decoded paths.
    resident_steps: AtomicU64,
    /// Trim threshold for `resident_steps` (the page budget in step equivalents).
    budget_steps: Option<u64>,
}

/// A file-backed PageRank Store: demand-paged reads under a bounded cache, writes
/// to the resident arena, and checkpoints that write every path once, packed.
#[derive(Debug)]
pub struct DiskWalkStore {
    resident: WalkStore,
    /// The directory of the generation `prev` reads (empty before the first):
    /// where faults and write-back find a slot's bytes in it.  Shared with `prev`.
    dir: Arc<Directory>,
    /// `rewritten[slot]`: the slot was written (or created) since that generation,
    /// so its path is the arena's, not the heap's.
    rewritten: Vec<bool>,
    /// `in_arena[slot]`: the slot's path lives in the resident arena (written this
    /// process, or empty).  `false` means the path is on disk, faultable through
    /// `fault`.
    in_arena: Vec<bool>,
    /// Demand-paging state; `None` for stores built fresh in memory (everything is
    /// in the arena then).
    fault: Option<FaultState>,
    /// Residency policy applied to the page cache and the decoded-path cache.
    budget: PageBudget,
    /// The previous generation's walks section — what faults and the next
    /// write-back read.  Behind a mutex because faults happen under `&self` from
    /// concurrent query threads.
    prev: Option<Mutex<PagedWalks>>,
    /// The generation the most recent encode streamed, waiting for
    /// [`after_checkpoint`] to say where it was published.
    ///
    /// [`after_checkpoint`]: PersistentWalkStore::after_checkpoint
    next: Option<StreamedGeneration>,
    stats: DiskStoreStats,
}

/// What an encode leaves for [`PersistentWalkStore::after_checkpoint`]: the next
/// generation's reader — cache policy applied, the pages just written admitted —
/// and what it still lacks, a file.
#[derive(Debug)]
struct StreamedGeneration {
    walks: PagedWalks,
    page_crcs: Vec<u32>,
    /// Absolute offset of heap page 0 in the snapshot file.
    heap_at: u64,
}

/// The previous generation's heap, read forward once by a checkpoint: each page it
/// reaches is moved out of the cache's frames or streamed from the file — checked
/// against its CRC either way — and handed to the stream as a spare buffer once
/// passed.
struct PrevHeap<'a> {
    walks: Option<&'a mut PagedWalks>,
    frames: Vec<Option<Box<[u8]>>>,
    /// The first page not yet passed; `image` holds the one before it.
    unpassed: u32,
    image: Option<Box<[u8]>>,
}

impl PrevHeap<'_> {
    fn new(mut walks: Option<&mut PagedWalks>) -> PrevHeap<'_> {
        let frames = walks.as_mut().map(|w| w.take_frames()).unwrap_or_default();
        PrevHeap {
            walks,
            frames,
            unpassed: 0,
            image: None,
        }
    }

    /// Appends the `len` steps at heap offset `offset` to `stream`.
    fn copy<S: Write + Seek>(
        &mut self,
        offset: u64,
        len: u32,
        stream: &mut WalksStream<'_, S>,
    ) -> PersistResult<()> {
        let (mut step, end) = (offset, offset + len as u64);
        while step < end {
            let within = step % STEPS_PER_PAGE;
            let take = (end - step).min(STEPS_PER_PAGE - within);
            let image = self.load((step / STEPS_PER_PAGE) as u32, stream)?;
            stream.put_words(&image[within as usize * 4..(within + take) as usize * 4])?;
            step += take;
        }
        Ok(())
    }

    fn load<S: Write + Seek>(
        &mut self,
        page: u32,
        stream: &mut WalksStream<'_, S>,
    ) -> PersistResult<&[u8]> {
        debug_assert!(page + 1 >= self.unpassed, "the heap is read forward");
        if page >= self.unpassed {
            if let Some(done) = self.image.take() {
                stream.recycle(done);
            }
            for skipped in self.unpassed..page {
                if let Some(frame) = self.frames.get_mut(skipped as usize).and_then(Option::take) {
                    stream.recycle(frame);
                }
            }
            let image = match self.frames.get_mut(page as usize).and_then(Option::take) {
                Some(frame) => frame,
                None => {
                    let walks = self
                        .walks
                        .as_mut()
                        .expect("bytes to copy imply a previous generation");
                    let mut image = stream.spare_page();
                    walks.stream_page(page, &mut image)?;
                    image
                }
            };
            self.image = Some(image);
            self.unpassed = page + 1;
        }
        Ok(self.image.as_deref().expect("loaded above"))
    }
}

impl DiskWalkStore {
    /// Creates an empty file-backed store for `node_count` nodes with `r` segments
    /// per node.  Until the first checkpoint there is no previous generation, so the
    /// first encode writes every path from the arena.
    pub fn new(node_count: usize, r: usize) -> Self {
        DiskWalkStore {
            resident: WalkStore::new(node_count, r),
            dir: Arc::default(),
            rewritten: vec![true; node_count * r],
            in_arena: vec![true; node_count * r],
            fault: None,
            budget: PageBudget::from_env(),
            prev: None,
            next: None,
            stats: DiskStoreStats::default(),
        }
    }

    /// Write-back counters.
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

    /// The last generation's heap as `(steps, pages)` (zero before the first).
    pub fn heap_geometry(&self) -> (u64, u64) {
        let steps = self.dir.heap_len();
        (steps, steps.div_ceil(STEPS_PER_PAGE))
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
    /// cell, with the page-cache mutex serializing the actual decode.
    fn fault_slot(&self, slot: usize) -> PersistResult<&[NodeId]> {
        let fault = self
            .fault
            .as_ref()
            .expect("slots outside the arena imply demand-paging state");
        let cell = &fault.cells[slot];
        if let Some(path) = cell.path.get() {
            cell.hot.store(true, Ordering::Relaxed);
            return Ok(path);
        }
        let (offset, len) = self.dir.region(slot);
        let prev = self
            .prev
            .as_ref()
            .expect("demand-paged store keeps its source generation open");
        let mut walks = prev.lock().expect("page-cache mutex poisoned");
        // Double check: another thread may have decoded the slot while we waited.
        if let Some(path) = cell.path.get() {
            drop(walks);
            cell.hot.store(true, Ordering::Relaxed);
            return Ok(path);
        }
        let mut path = Vec::with_capacity(len as usize);
        walks.read_steps(offset, len, &mut path)?;
        check_path(
            SegmentId(slot as u32),
            &path,
            self.resident.r(),
            self.resident.node_count(),
        )
        .map_err(corrupt)?;
        // Cells are set only here, under the mutex, and this one was empty above.
        let fresh = cell.path.set(path.into_boxed_slice()).is_ok();
        debug_assert!(fresh);
        drop(walks);
        cell.hot.store(true, Ordering::Relaxed);
        fault
            .resident_steps
            .fetch_add(len as u64, Ordering::Relaxed);
        Ok(cell.path.get().expect("set above"))
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
            cell.path.take();
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
        if let Some(path) = fault.cells[slot].path.take() {
            let steps = fault.resident_steps.get_mut();
            *steps = steps.saturating_sub(path.len() as u64);
            self.resident.install_indexed_path(id, &path);
        } else {
            let (offset, len) = self.dir.region(slot);
            let mut path = Vec::with_capacity(len as usize);
            let prev = self
                .prev
                .as_ref()
                .expect("demand-paged store keeps its source generation open");
            let mut walks = prev.lock().expect("page-cache mutex poisoned");
            walks
                .read_steps(offset, len, &mut path)
                .unwrap_or_else(|e| panic!("materializing segment {slot} for write failed: {e}"));
            drop(walks);
            check_path(id, &path, self.resident.r(), self.resident.node_count())
                .unwrap_or_else(|e| panic!("segment {slot} corrupt on disk: {e}"));
            self.resident.install_indexed_path(id, &path);
        }
        self.in_arena[slot] = true;
    }

    /// Marks `slot` written: its path is now the arena's.
    fn note_write(&mut self, slot: usize) {
        debug_assert!(self.in_arena[slot]);
        self.rewritten[slot] = true;
    }

    /// Trims the decoded-path cache back under the step budget with a second-chance
    /// sweep: hot cells are demoted on the first pass and dropped (if still over)
    /// on the second.  Runs after batch application.
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
                if cell.path.get().is_none() {
                    continue;
                }
                if *cell.hot.get_mut() {
                    *cell.hot.get_mut() = false;
                    continue;
                }
                let path = cell.path.take().expect("checked above");
                resident = resident.saturating_sub(path.len() as u64);
            }
        }
        *fault.resident_steps.get_mut() = resident;
    }

    /// Length of `slot` as the read surface sees it (arena for materialized slots,
    /// directory for on-disk ones — no fault needed).
    fn tracked_len(&self, slot: usize) -> usize {
        if self.in_arena[slot] {
            self.resident.segment_len(SegmentId(slot as u32))
        } else {
            self.dir.lens()[slot] as usize
        }
    }

    /// Every slot whose path is on disk is one the last generation holds, with a
    /// path to fault, and that nothing has rewritten since.
    fn check_directory(&self) -> Result<(), String> {
        for (slot, &in_arena) in self.in_arena.iter().enumerate() {
            let on_disk = self.dir.lens().get(slot).is_some_and(|&len| len > 0);
            if !in_arena && (!on_disk || self.rewritten[slot]) {
                return Err(format!(
                    "slot {slot} is outside the arena but has no path on disk"
                ));
            }
        }
        Ok(())
    }

    /// Full-store consistency for a demand-paged store: faults every segment and
    /// recomputes counters and postings from the actual paths.
    fn check_demand_paths(&self) -> Result<(), String> {
        let node_count = self.resident.node_count();
        let mut counts = vec![0u64; node_count];
        let mut keys: Vec<u64> = Vec::new();
        for slot in 0..self.in_arena.len() {
            let id = SegmentId(slot as u32);
            let path = self.path_of(slot as u32).map_err(|e| e.to_string())?;
            if path.len() != self.tracked_len(slot) {
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
        self.tracked_len(id.index())
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
        if slots > self.in_arena.len() {
            self.in_arena.resize(slots, true);
            self.rewritten.resize(slots, true);
            if let Some(fault) = &mut self.fault {
                fault.cells.resize_with(slots, FaultCell::new);
            }
        }
    }

    fn set_segment(&mut self, id: SegmentId, path: &[NodeId]) {
        self.materialize_for_write(id.index());
        self.resident.set_segment(id, path);
        self.note_write(id.index());
    }

    fn clear_segment(&mut self, id: SegmentId) {
        self.materialize_for_write(id.index());
        self.resident.clear_segment(id);
        self.note_write(id.index());
    }

    /// Fills the resident store in bulk.  An empty store has nothing on disk to
    /// materialize first.
    fn fill(&mut self, plan: &SegmentRewrites) {
        self.resident.fill(plan);
        for (id, _) in plan.iter() {
            self.note_write(id.index());
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
        self.check_directory()
    }
}

impl PersistentWalkStore for DiskWalkStore {
    /// Writes every path once, packed, in slot order: a slot written since the last
    /// generation from the arena, every other slot as the bytes the last generation
    /// holds, read forward once — moved out of its cache, or streamed from its file
    /// **without** being admitted — and checked against its page CRCs.  A
    /// checkpoint never assembles the heap and never faults the store resident.
    fn encode_walks<S: Write + Seek>(&mut self, out: &mut SnapshotWriter<S>) -> PersistResult<()> {
        // A generation streamed earlier but never published holds page frames.
        self.next = None;
        let slots = self.in_arena.len();
        let this = &*self;
        let lens = move || (0..slots).map(move |slot| this.tracked_len(slot) as u32);
        let header = WalksHeader::packed(self.resident.r(), self.resident.node_count(), lens());
        let mut next = PagedWalks::unwritten(header);
        next.configure_cache(self.budget.max_resident_pages);
        let mut stream = WalksStream::begin(out, header, lens(), Some(&mut next))?;
        let walks = self
            .prev
            .as_mut()
            .map(|prev| prev.get_mut().expect("page-cache mutex poisoned"));
        let mut heap = PrevHeap::new(walks);
        // Where `slot` starts in the last generation's heap.
        let mut at = 0u64;
        for slot in 0..slots {
            let stored = self.dir.lens().get(slot).copied().unwrap_or(0);
            if self.rewritten[slot] {
                stream.put_path(self.resident.segment_path(SegmentId(slot as u32)))?;
            } else {
                heap.copy(at, stored, &mut stream)?;
            }
            at += stored as u64;
        }
        let (page_crcs, heap_at) = stream.finish()?;
        self.next = Some(StreamedGeneration {
            walks: next,
            page_crcs,
            heap_at,
        });
        self.stats.pages_rewritten += header.page_count() as u64;
        Ok(())
    }

    /// Demand-paged open.  The plan's paths go into the resident arena, paths
    /// only, and the visit index is counted from them and from every other heap
    /// path, which the one pass that checks each heap page against its CRC hands
    /// over (an unbounded cache keeps what it checks, a bounded one streams it
    /// through a page of scratch).  No heap path is kept past the count: each
    /// faults in on first touch.
    fn open_walks(
        mut walks: PagedWalks,
        node_count: usize,
        plan: &SegmentRewrites,
    ) -> PersistResult<Self> {
        let r = walks.header().r as usize;
        let budget = PageBudget::from_env();
        walks.configure_cache(budget.max_resident_pages);
        let mut loader = WalkStore::loader(node_count, r);
        for (id, path) in plan.iter() {
            loader.write(id, path).map_err(corrupt)?;
        }
        let resident = loader.finish_with(|count| {
            walks.scan_paths(plan, |id, path| count(id, path).map_err(corrupt))
        })?;

        let dir = walks.shared_dir();
        let slots = node_count * r;
        let mut rewritten: Vec<bool> = (0..slots).map(|slot| slot >= dir.slots()).collect();
        let mut in_arena: Vec<bool> = (0..slots)
            .map(|slot| dir.lens().get(slot).is_none_or(|&len| len == 0))
            .collect();
        for (id, _) in plan.iter() {
            in_arena[id.index()] = true;
            rewritten[id.index()] = true;
        }
        let fault = FaultState {
            cells: (0..slots).map(|_| FaultCell::new()).collect(),
            resident_steps: AtomicU64::new(0),
            budget_steps: budget.budget_steps(),
        };
        Ok(DiskWalkStore {
            resident,
            dir,
            rewritten,
            in_arena,
            fault: Some(fault),
            budget,
            prev: Some(Mutex::new(walks)),
            next: None,
            stats: DiskStoreStats::default(),
        })
    }

    /// Completes the reader the encode put together — it only lacked the published
    /// file and its directory — and makes it the fault and write-back source.  The
    /// directory is the last one with the written slots' lengths taken from the
    /// arena, updated in place once the old reader lets go of it.  Nothing is
    /// re-read and nothing is checksummed.
    fn after_checkpoint(&mut self, snap_path: &Path) -> PersistResult<()> {
        let StreamedGeneration {
            mut walks,
            page_crcs,
            heap_at,
        } = self.next.take().ok_or_else(|| {
            format_err("after_checkpoint without a generation streamed by encode_walks")
        })?;
        let file = File::open(snap_path)?;
        self.prev = None;
        let (rewritten, resident) = (&self.rewritten, &self.resident);
        Arc::make_mut(&mut self.dir).update(rewritten.len(), |slot| {
            rewritten[slot].then(|| resident.segment_len(SegmentId(slot as u32)) as u32)
        });
        self.rewritten.fill(false);
        walks.written_to(file, page_crcs, heap_at, Arc::clone(&self.dir));
        self.prev = Some(Mutex::new(walks));
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::reference::encode_walks_fresh;
    use crate::layout::tests::{open_walks, write_snapshot};
    use crate::layout::WALKS_PAGE_SIZE;
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

    /// Checkpoints `store` to `path` and holds the file to the reference encoder,
    /// which renders every path the store reads.
    fn checkpoint_and_compare(store: &mut DiskWalkStore, path: &Path, what: &str) {
        let expected = reference_file(&[(SECTION_WALKS, encode_walks_fresh(&*store))]);
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
        assert!(store.dir.slots() == 0);
        checkpoint_and_compare(&mut store, &tmp.path().join("snap-0.ppr"), "fresh");
        assert!(store.heap_geometry().1 > 10);
        // Nothing written: every path is copied out of the previous generation.
        checkpoint_and_compare(&mut store, &tmp.path().join("snap-1.ppr"), "unwritten");

        // Paths that keep, lose and gain length in one generation, so every slot
        // after the first of them moves: an in-place rewrite, a shrink, a clear,
        // and two slots growing past a page.
        store.set_segment(SegmentId(7), &grown_path(7, 4, n as u32));
        store.set_segment(SegmentId(300), &grown_path(300, 2, n as u32));
        store.clear_segment(SegmentId(450));
        store.set_segment(SegmentId(20), &grown_path(20, 90, n as u32));
        store.set_segment(SegmentId(599), &grown_path(599, 1500, n as u32));
        checkpoint_and_compare(&mut store, &tmp.path().join("snap-2.ppr"), "mixed");

        // Reopened under a two-page cache: the copied bytes now come from the file.
        let old = set_thread_page_budget(Some(PageBudget::bounded(2)));
        let reopened = open_walks::<DiskWalkStore>(&tmp.path().join("snap-2.ppr"));
        set_thread_page_budget(old);
        let mut reopened = reopened.unwrap();
        reopened.set_segment(SegmentId(8), &grown_path(8, 5, n as u32));
        reopened.set_segment(SegmentId(21), &grown_path(21, 200, n as u32));
        reopened.ensure_nodes(n + 3);
        reopened.set_segment(
            SegmentId(n as u32 + 1),
            &grown_path(n as u32 + 1, 9, n as u32),
        );
        checkpoint_and_compare(&mut reopened, &tmp.path().join("snap-3.ppr"), "bounded");
        assert!(reopened.residency().resident_pages <= 2);
        checkpoint_and_compare(
            &mut reopened,
            &tmp.path().join("snap-4.ppr"),
            "bounded, unwritten",
        );

        // Paths that grow many-fold, generation after generation.
        let mut store = DiskWalkStore::new(8, 1);
        for node in 0..8u32 {
            store.set_segment(SegmentId(node), &grown_path(node, 5, 8));
        }
        checkpoint_and_compare(&mut store, &tmp.path().join("snap-5.ppr"), "small");
        for (round, len) in [9usize, 17, 65, 257, 1025].into_iter().enumerate() {
            for node in (round as u32 % 2..8).step_by(2) {
                store.set_segment(SegmentId(node), &grown_path(node, len, 8));
            }
            let name = format!("snap-{}.ppr", 6 + round);
            checkpoint_and_compare(&mut store, &tmp.path().join(name), "grown");
        }
    }

    #[test]
    fn a_checkpoint_checksums_each_page_once_and_publishing_checksums_nothing() {
        let tmp = TempDir::new("disk-crc-cost");
        let mut store = many_pages(600);
        checkpoint_to(&mut store, &tmp.path().join("snap-0.ppr"));
        store.set_segment(SegmentId(7), &grown_path(7, 4, 600));

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
        // Header, directory, page-CRC table and every page written, once; the
        // previous generation's pages came out of its cache, checked when they
        // entered it.
        let file_len = std::fs::metadata(&path).unwrap().len();
        assert_eq!(encoded, file_len - 32);

        // The published generation was put together from the parts in hand: nothing
        // was loaded and every page is warm.
        let pages = store.heap_geometry().1;
        assert_eq!(store.pager_stats(), PagerStats::default());
        assert_eq!(store.residency().resident_pages, pages as usize);
        let reopened = open_walks::<DiskWalkStore>(&path).unwrap();
        assert!(WalkIndexMut::check_consistency(&reopened).is_ok());

        // Under a two-page cache the previous pages stream from the file: each is
        // read and checked once more, in one forward pass.
        let old = set_thread_page_budget(Some(PageBudget::bounded(2)));
        let reopened = open_walks::<DiskWalkStore>(&path);
        set_thread_page_budget(old);
        let mut reopened = reopened.unwrap();
        let opened = reopened.pager_stats();
        let before = crate::crc::checksummed_bytes();
        let streamed = tmp.path().join("snap-2.ppr");
        write_snapshot(&streamed, &mut reopened);
        let encoded = crate::crc::checksummed_bytes() - before;
        let read = reopened.pager_stats();
        assert_eq!(read.streamed - opened.streamed, pages);
        assert_eq!((read.loads, read.hits), (opened.loads, opened.hits));
        let file_len = std::fs::metadata(&streamed).unwrap().len();
        assert_eq!(encoded, file_len - 32 + pages * WALKS_PAGE_SIZE as u64);
    }

    #[test]
    fn verification_keeps_its_pages_only_where_that_cannot_evict() {
        let tmp = TempDir::new("disk-verify");
        let snap = tmp.path().join("snap-0.ppr");
        let mut store = many_pages(600);
        checkpoint_to(&mut store, &snap);
        let pages = store.heap_geometry().1;

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
            let pager = store.prev.as_ref().unwrap().lock().unwrap().shared_dir();
            Arc::ptr_eq(&pager, &store.dir)
        };
        assert!(shared(&reopened));
        // Growth past the frozen layout leaves it alone: new slots live in the arena.
        reopened.ensure_nodes(70);
        reopened.set_segment(SegmentId(69), &grown_path(69, 3, 70));
        assert!(shared(&reopened));
        assert_eq!(reopened.dir.slots(), 64);
        checkpoint_to(&mut reopened, &tmp.path().join("snap-1.ppr"));
        assert!(shared(&reopened));
        assert_eq!(reopened.dir.slots(), 70);
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
        assert_eq!(filled.rewritten, looped.rewritten);
        assert_eq!(filled.in_arena, looped.in_arena);
        assert_eq!(filled.arena_stats(), looped.arena_stats());
        assert!(WalkIndexMut::check_consistency(&filled).is_ok());
        let (a, b) = (tmp.path().join("filled.ppr"), tmp.path().join("looped.ppr"));
        checkpoint_to(&mut filled, &a);
        checkpoint_to(&mut looped, &b);
        assert!(std::fs::read(&a).unwrap() == std::fs::read(&b).unwrap());
        assert_eq!(filled.dir, looped.dir);
        assert_eq!(filled.heap_geometry(), looped.heap_geometry());
        assert_eq!(filled.stats(), looped.stats());
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
        assert_eq!(reopened.heap_geometry(), (10, 1));
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
