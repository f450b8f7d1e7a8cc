//! The walks-section codec: the PageRank Store's segment paths, packed into pages.
//!
//! The section stores every segment path exactly once, back to back in segment-id
//! order.  The visit index is not stored: it is a function of the paths, and every
//! open counts it from them (see *Reading*).
//!
//! ```text
//! payload := header | dir | page_crcs | heap
//! header  := r u32 | shard_count u32 (always 1) | node_count u64 | slot_count u64
//!          | heap_len u64 (steps) | page_size u32 | meta_crc u32
//! dir     := slot_count × len u32                         (steps of each slot's path)
//! page_crcs := ceil(heap_len·4 / page_size) × u32
//! heap    := every path's steps as u32 words, in slot order, padded to whole pages
//!            with the filler word
//! ```
//!
//! A slot's path starts where the one before it ends, so its heap offset is the sum
//! of the lengths before it; the lengths, summed with checked arithmetic, must end
//! exactly at `heap_len`, and a directory that disagrees with its heap is corrupt.
//! In memory a [`Directory`] keeps the lengths and every 64th slot's offset.
//! `meta_crc` covers the directory and the page-CRC table, and each heap page
//! carries its own CRC, so the paged reader ([`PagedWalks`]) validates everything it
//! touches without reading the whole section at once.
//!
//! # Writing
//!
//! Every layout encodes through the one [`WalksStream`], and nothing section-sized
//! is ever held in memory.  The header (it holds `meta_crc`) and the page-CRC table
//! (it holds what the pages after it will checksum to) are [deferred] in the
//! [`SnapshotWriter`]; the directory goes out through one bounded scratch buffer; the
//! caller then pushes every slot's path in slot order — decoded steps, or the raw
//! words of a previous generation's heap — and the stream packs them into a
//! page-sized buffer, checksums and writes each page once as it fills, and
//! [`WalksStream::finish`] fills the two deferred runs in.  Each byte passes through
//! the CRC kernel once: `meta_crc` and the section's own CRC are both glued from
//! the pieces' checksums ([`crc32_concat`]).
//!
//! # Reading
//!
//! [`PagedWalks::open`] reads and checksums the directory and the page-CRC table.
//! [`PersistentWalkStore::open_walks`] then installs the final paths a WAL tail left
//! (its plan), paths only, and reads every heap page once, in order, against its
//! CRC (`PagedWalks::scan_paths`): the heap path of every segment the plan does
//! not rewrite is checked against the store's shape — it starts at its source and
//! visits only known nodes — and handed to [`ppr_store::WalkLoader`], which counts
//! the visit index from it and the plan's paths with the kernel that builds a fresh
//! store.  A rotted page, a torn heap or a path that breaks the
//! shape therefore fails the open, while an older generation can still be tried,
//! and no index can disagree with the paths it was counted from.  The flat store
//! keeps the heap paths it reads; a demand-paged store leaves them on disk.
//!
//! [deferred]: SnapshotWriter::defer

use crate::crc::{crc32, crc32_concat, Crc32};
use crate::io::{corrupt, format_err, ByteReader, ByteWriter, PersistResult, SPILL_BYTES};
use crate::pager::{PageCache, PagerStats};
use crate::snapshot::{
    check_shard_count, Deferred, SnapshotFile, SnapshotWriter, SECTION_WALKS, SHARD_COUNT,
};
use ppr_graph::NodeId;
use ppr_store::{SegmentId, SegmentRewrites, WalkIndex, WalkIndexMut, WalkStore};
use std::fs::File;
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::Path;
use std::sync::Arc;

/// Page size of the walk heap, in bytes (1024 steps per page).
pub const WALKS_PAGE_SIZE: usize = 4096;

/// Filler word for the heap cells past its last step (matches the arena's filler).
pub const FILLER_WORD: u32 = u32::MAX;

const HEADER_LEN: usize = 4 + 4 + 8 + 8 + 8 + 4 + 4;

pub(crate) const STEPS_PER_PAGE: u64 = (WALKS_PAGE_SIZE / 4) as u64;

/// Slots per offset a [`Directory`] keeps.
const MARK_EVERY: usize = 64;

/// A generation's slot directory in memory: every slot's path length, and the heap
/// offset of every 64th slot, so any slot's region is found with at most 63
/// additions while the whole costs about one `u32` per slot.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Directory {
    lens: Vec<u32>,
    /// `marks[b]`: heap offset of slot `b · 64`.
    marks: Vec<u64>,
    heap_len: u64,
}

impl Directory {
    /// The directory of a heap whose slots hold paths of `lens` steps, or `None` if
    /// the lengths overflow a `u64` sum.
    fn from_lens(lens: Vec<u32>) -> Option<Self> {
        let mut dir = Directory {
            lens,
            marks: Vec::new(),
            heap_len: 0,
        };
        dir.index()?;
        Some(dir)
    }

    /// Recomputes the marks and the heap length from the lengths.
    fn index(&mut self) -> Option<()> {
        self.marks.clear();
        self.marks.reserve(self.lens.len().div_ceil(MARK_EVERY));
        let mut offset = 0u64;
        for block in self.lens.chunks(MARK_EVERY) {
            self.marks.push(offset);
            for &len in block {
                offset = offset.checked_add(len as u64)?;
            }
        }
        self.heap_len = offset;
        Some(())
    }

    /// Every slot's stored path length, indexed by segment id.
    pub fn lens(&self) -> &[u32] {
        &self.lens
    }

    /// Number of slots.
    pub fn slots(&self) -> usize {
        self.lens.len()
    }

    /// Heap length in steps: the sum of the lengths.
    pub fn heap_len(&self) -> u64 {
        self.heap_len
    }

    /// The heap region of `slot`: its first step and its length.  Panics past the
    /// last slot.
    pub fn region(&self, slot: usize) -> (u64, u32) {
        let start = slot - slot % MARK_EVERY;
        let before: u64 = self.lens[start..slot].iter().map(|&len| len as u64).sum();
        (self.marks[slot / MARK_EVERY] + before, self.lens[slot])
    }

    /// Grows the directory to `slots` slots (new ones empty) and gives every slot
    /// `new_len` names a new length.
    pub(crate) fn update(&mut self, slots: usize, new_len: impl Fn(usize) -> Option<u32>) {
        self.lens.resize(slots, 0);
        for (slot, len) in self.lens.iter_mut().enumerate() {
            if let Some(new) = new_len(slot) {
                *len = new;
            }
        }
        // At most `u32::MAX` slots of at most `u32::MAX` steps each.
        self.index().expect("slot lengths sum within u64");
    }
}

/// Parsed fixed-size header of a walks section.  The on-disk shard count (always 1)
/// is checked on open and not kept.
#[derive(Debug, Clone, Copy)]
pub struct WalksHeader {
    /// Segments per node.
    pub r: u32,
    /// Nodes addressed by the store.
    pub node_count: u64,
    /// Total segment slots (`node_count * r`).
    pub slot_count: u64,
    /// Heap length in steps: the sum of the slot lengths.
    pub heap_len: u64,
    /// Heap page size in bytes.
    pub page_size: u32,
}

impl WalksHeader {
    /// The header of a section over `node_count` nodes with `r` slots each, whose
    /// paths have the lengths `lens`, in slot order.
    pub fn packed(r: usize, node_count: usize, lens: impl IntoIterator<Item = u32>) -> Self {
        WalksHeader {
            r: r as u32,
            node_count: node_count as u64,
            slot_count: (node_count * r) as u64,
            heap_len: lens.into_iter().map(u64::from).sum(),
            page_size: WALKS_PAGE_SIZE as u32,
        }
    }

    /// Number of heap pages the section holds.
    pub fn page_count(&self) -> u32 {
        let bytes = self.heap_len * 4;
        bytes.div_ceil(self.page_size as u64) as u32
    }

    fn encode(&self, meta_crc: u32) -> Vec<u8> {
        let mut w = ByteWriter::with_capacity(HEADER_LEN);
        w.put_u32(self.r);
        w.put_u32(SHARD_COUNT);
        w.put_u64(self.node_count);
        w.put_u64(self.slot_count);
        w.put_u64(self.heap_len);
        w.put_u32(self.page_size);
        w.put_u32(meta_crc);
        w.into_bytes()
    }
}

/// One walks section in the writing: begun with the directory, fed every slot's
/// path in slot order, finished by filling in the header and the page-CRC table
/// (see the [module docs](self)).
#[derive(Debug)]
pub struct WalksStream<'a, S: Write + Seek> {
    out: &'a mut SnapshotWriter<S>,
    header: WalksHeader,
    head: Deferred,
    table: Deferred,
    /// CRC-32 of the directory bytes, the front of what `meta_crc` covers.
    meta_crc: u32,
    page_crcs: Vec<u32>,
    heap_at: u64,
    /// The next generation's reader, offered every page as it is written.
    warm: Option<&'a mut PagedWalks>,
    /// The page being filled, and how many of its bytes are.
    image: Box<[u8]>,
    filled: usize,
    /// Page buffers free for reuse.
    spare: Vec<Box<[u8]>>,
}

impl<'a, S: Write + Seek> WalksStream<'a, S> {
    /// Begins the walks section of `out` and streams the directory — `lens`, one
    /// length per slot, which must agree with `header` — ahead of the heap.  Every
    /// heap page is offered to `warm`'s cache once written, when a reader is given.
    pub fn begin(
        out: &'a mut SnapshotWriter<S>,
        header: WalksHeader,
        lens: impl IntoIterator<Item = u32>,
        warm: Option<&'a mut PagedWalks>,
    ) -> PersistResult<Self> {
        out.begin_section(SECTION_WALKS)?;
        let head = out.defer(HEADER_LEN)?;
        let mut meta_crc = 0;
        let mut emit = |chunk: &[u8]| {
            let crc = crc32(chunk);
            meta_crc = crc32_concat(meta_crc, crc, chunk.len() as u64);
            out.write_checksummed(chunk, crc)
        };
        let mut w = ByteWriter::with_capacity(SPILL_BYTES + 4);
        let (mut slots, mut steps) = (0u64, 0u64);
        for len in lens {
            w.put_u32(len);
            slots += 1;
            steps += len as u64;
            w.spill(SPILL_BYTES, &mut emit)?;
        }
        w.spill(0, &mut emit)?;
        assert_eq!(
            (slots, steps),
            (header.slot_count, header.heap_len),
            "the directory disagrees with its header"
        );
        let table = out.defer(header.page_count() as usize * 4)?;
        let heap_at = out.position();
        Ok(WalksStream {
            out,
            header,
            head,
            table,
            meta_crc,
            page_crcs: Vec::with_capacity(header.page_count() as usize),
            heap_at,
            warm,
            image: vec![0u8; WALKS_PAGE_SIZE].into_boxed_slice(),
            filled: 0,
            spare: Vec::new(),
        })
    }

    /// Appends the next slot's path.
    pub fn put_path(&mut self, mut path: &[NodeId]) -> PersistResult<()> {
        while !path.is_empty() {
            let take = path.len().min((WALKS_PAGE_SIZE - self.filled) / 4);
            let (now, rest) = path.split_at(take);
            let words = &mut self.image[self.filled..self.filled + take * 4];
            for (word, step) in words.chunks_exact_mut(4).zip(now) {
                word.copy_from_slice(&step.0.to_le_bytes());
            }
            self.advance(take * 4)?;
            path = rest;
        }
        Ok(())
    }

    /// Appends steps already encoded as little-endian words: a slot's bytes in a
    /// previous generation's heap.
    pub(crate) fn put_words(&mut self, mut words: &[u8]) -> PersistResult<()> {
        debug_assert_eq!(words.len() % 4, 0);
        while !words.is_empty() {
            let take = words.len().min(WALKS_PAGE_SIZE - self.filled);
            self.image[self.filled..self.filled + take].copy_from_slice(&words[..take]);
            self.advance(take)?;
            words = &words[take..];
        }
        Ok(())
    }

    /// A page-sized buffer to read into: a spare one if the stream has it.
    pub(crate) fn spare_page(&mut self) -> Box<[u8]> {
        self.spare
            .pop()
            .unwrap_or_else(|| vec![0u8; WALKS_PAGE_SIZE].into_boxed_slice())
    }

    /// Hands the stream a page-sized buffer the caller is done with.
    pub(crate) fn recycle(&mut self, page: Box<[u8]>) {
        debug_assert_eq!(page.len(), WALKS_PAGE_SIZE);
        self.spare.push(page);
    }

    fn advance(&mut self, bytes: usize) -> PersistResult<()> {
        self.filled += bytes;
        if self.filled == WALKS_PAGE_SIZE {
            self.write_page()?;
        }
        Ok(())
    }

    /// Pads the page being filled with the filler word, checksums and writes it, and
    /// offers it to the warm reader.
    fn write_page(&mut self) -> PersistResult<()> {
        debug_assert_eq!(FILLER_WORD, u32::MAX);
        self.image[self.filled..].fill(0xFF);
        let crc = crc32(&self.image);
        let page = self.page_crcs.len() as u32;
        self.page_crcs.push(crc);
        self.out.write_checksummed(&self.image, crc)?;
        let image = std::mem::take(&mut self.image);
        let idle = match &mut self.warm {
            Some(warm) => warm.preload(page, image)?,
            None => Some(image),
        };
        if let Some(idle) = idle {
            self.spare.push(idle);
        }
        self.image = self.spare_page();
        self.filled = 0;
        Ok(())
    }

    /// Ends the section.  Returns the page-CRC table and the absolute offset of heap
    /// page 0 in the sink — what a [`PagedWalks`] over the written bytes needs.
    pub fn finish(mut self) -> PersistResult<(Vec<u32>, u64)> {
        let pushed = self.page_crcs.len() as u64 * STEPS_PER_PAGE + self.filled as u64 / 4;
        assert_eq!(
            pushed, self.header.heap_len,
            "the heap disagrees with its directory"
        );
        if self.filled > 0 {
            self.write_page()?;
        }
        let mut table = ByteWriter::with_capacity(self.page_crcs.len() * 4);
        for &crc in &self.page_crcs {
            table.put_u32(crc);
        }
        let table = table.into_bytes();
        let table_crc = self.out.fill(self.table, &table)?;
        let meta_crc = crc32_concat(self.meta_crc, table_crc, table.len() as u64);
        self.out.fill(self.head, &self.header.encode(meta_crc))?;
        self.out.end_section()?;
        Ok((self.page_crcs, self.heap_at))
    }
}

/// Streams any store's walk data as a walks section, every path from memory.
pub fn stream_walks<S: Write + Seek>(
    store: &impl WalkIndex,
    out: &mut SnapshotWriter<S>,
) -> PersistResult<()> {
    let slots = store.node_count() * store.r();
    let len = |slot: usize| store.segment_len(SegmentId(slot as u32)) as u32;
    let header = WalksHeader::packed(store.r(), store.node_count(), (0..slots).map(len));
    let mut stream = WalksStream::begin(out, header, (0..slots).map(len), None)?;
    for slot in 0..slots {
        stream.put_path(store.segment_path(SegmentId(slot as u32)))?;
    }
    stream.finish()?;
    Ok(())
}

/// A walks section opened for paged reading: directory and page-CRC table eagerly
/// read and validated, heap pages faulted in (and CRC-checked) on first touch.
#[derive(Debug)]
pub struct PagedWalks {
    header: WalksHeader,
    /// The generation's directory, shared with whoever faults paths out of it.
    dir: Arc<Directory>,
    page_crcs: Vec<u32>,
    cache: PageCache,
}

impl PagedWalks {
    /// Opens the walks section of the snapshot at `path`.
    pub fn open(path: &Path) -> PersistResult<Self> {
        PagedWalks::from_snapshot(SnapshotFile::open(path)?)
    }

    /// Opens the walks section of an already opened snapshot.
    pub fn from_snapshot(snap: SnapshotFile) -> PersistResult<Self> {
        let info = snap.section(SECTION_WALKS)?;
        let mut file = snap.into_file();
        if info.len < HEADER_LEN as u64 {
            return Err(corrupt("walks section shorter than its header"));
        }
        file.seek(SeekFrom::Start(info.offset))?;
        let mut head = vec![0u8; HEADER_LEN];
        file.read_exact(&mut head)?;
        let mut r = ByteReader::new(&head);
        let segments = r.get_u32()?;
        check_shard_count(r.get_u32()?, "walks section")?;
        let header = WalksHeader {
            r: segments,
            node_count: r.get_u64()?,
            slot_count: r.get_u64()?,
            heap_len: r.get_u64()?,
            page_size: r.get_u32()?,
        };
        let meta_crc = r.get_u32()?;
        if header.page_size as usize != WALKS_PAGE_SIZE {
            return Err(format_err(format!(
                "walks page size {} unsupported (expected {WALKS_PAGE_SIZE})",
                header.page_size
            )));
        }
        // The header fields are untrusted until cross-checked (meta_crc only covers
        // the regions after the header), so all derived arithmetic is checked: a
        // corrupt count must fail as Corrupt, never wrap or overflow-panic.
        let slot_total = header.node_count.checked_mul(header.r as u64);
        if header.r == 0 || slot_total != Some(header.slot_count) {
            return Err(corrupt("walks header is internally inconsistent"));
        }
        if header.slot_count > u32::MAX as u64 {
            return Err(format_err("more segment slots than the u32 id space"));
        }
        if header
            .heap_len
            .checked_mul(4)
            .is_none_or(|bytes| bytes > info.len)
        {
            return Err(corrupt("walks heap larger than its own section"));
        }
        let page_count = header.page_count();
        let dir_len = header.slot_count * 4;
        let crc_len = page_count as u64 * 4;
        let heap_bytes = page_count as u64 * header.page_size as u64;
        if info.len != HEADER_LEN as u64 + dir_len + crc_len + heap_bytes {
            return Err(corrupt("walks section length disagrees with its header"));
        }

        // Each region is read into its own buffer and checksummed as it arrives.
        let mut running = Crc32::new();
        let mut read_region = |len: u64| -> PersistResult<Vec<u8>> {
            let len = usize::try_from(len)
                .map_err(|_| corrupt("walks directory too large for this platform"))?;
            let mut bytes = vec![0u8; len];
            file.read_exact(&mut bytes)?;
            running.update(&bytes);
            Ok(bytes)
        };
        let dir_bytes = read_region(dir_len)?;
        let crc_bytes = read_region(crc_len)?;
        if running.finish() != meta_crc {
            return Err(corrupt("walks directory checksum mismatch"));
        }
        let words = |bytes: &[u8]| -> Vec<u32> {
            bytes
                .chunks_exact(4)
                .map(|word| u32::from_le_bytes(word.try_into().unwrap()))
                .collect()
        };
        let dir = Directory::from_lens(words(&dir_bytes))
            .filter(|dir| dir.heap_len() == header.heap_len)
            .ok_or_else(|| corrupt("walks directory lengths disagree with the heap"))?;
        drop(dir_bytes);
        let page_crcs = words(&crc_bytes);
        let heap_base = info.offset + HEADER_LEN as u64 + dir_len + crc_len;
        let cache = PageCache::new(file, heap_base, WALKS_PAGE_SIZE, page_count);
        Ok(PagedWalks {
            header,
            dir: Arc::new(dir),
            page_crcs,
            cache,
        })
    }

    /// The reader of a generation that is being written: geometry known, no
    /// directory, page CRCs or file yet.  Cache policy and [`PagedWalks::preload`]
    /// work at once; [`PagedWalks::written_to`] completes it.
    pub(crate) fn unwritten(header: WalksHeader) -> Self {
        PagedWalks {
            header,
            dir: Arc::default(),
            page_crcs: Vec::new(),
            cache: PageCache::unwritten(WALKS_PAGE_SIZE, header.page_count()),
        }
    }

    /// Completes an [`unwritten`](Self::unwritten) reader once its generation is
    /// published: what [`WalksStream::finish`] returned, the generation's
    /// directory, and the file to fault from.
    pub(crate) fn written_to(
        &mut self,
        file: File,
        page_crcs: Vec<u32>,
        heap_at: u64,
        dir: Arc<Directory>,
    ) {
        assert_eq!(page_crcs.len(), self.header.page_count() as usize);
        assert_eq!(
            (dir.slots() as u64, dir.heap_len()),
            (self.header.slot_count, self.header.heap_len)
        );
        self.page_crcs = page_crcs;
        self.dir = dir;
        self.cache.attach(file, heap_at);
    }

    /// The section's parsed header.
    pub fn header(&self) -> &WalksHeader {
        &self.header
    }

    /// The slot directory, indexed by segment id.
    pub fn dir(&self) -> &Directory {
        &self.dir
    }

    /// The slot directory as the shared allocation the reader itself holds.
    pub(crate) fn shared_dir(&self) -> Arc<Directory> {
        Arc::clone(&self.dir)
    }

    /// Page-cache access counters.
    pub fn pager_stats(&self) -> PagerStats {
        self.cache.stats()
    }

    /// Sets the page cache's residency budget (`None` = unbounded), evicting down
    /// immediately if needed.
    pub fn configure_cache(&mut self, max_resident_pages: Option<usize>) {
        self.cache.set_budget(max_resident_pages);
    }

    /// Number of heap pages currently resident in the cache.
    pub fn resident_pages(&self) -> usize {
        self.cache.resident_pages()
    }

    /// Bytes of heap pages currently resident in the cache.
    pub fn resident_bytes(&self) -> u64 {
        self.cache.resident_bytes()
    }

    /// Byte offset of heap page 0 within the snapshot file (test observability —
    /// corruption tests flip bytes at exact heap positions).
    pub fn heap_file_offset(&self) -> u64 {
        self.cache.base_offset()
    }

    /// Offers the cache the validated image of page `index` under its admission
    /// policy (see [`PageCache::preload`]): it enters only while there is room under
    /// the budget.  The buffer the cache does not keep comes back.
    pub(crate) fn preload(
        &mut self,
        index: u32,
        image: Box<[u8]>,
    ) -> PersistResult<Option<Box<[u8]>>> {
        self.cache.preload(index, image)
    }

    /// Takes every resident page image out of the cache (see
    /// [`PageCache::take_frames`]).
    pub(crate) fn take_frames(&mut self) -> Vec<Option<Box<[u8]>>> {
        self.cache.take_frames()
    }

    fn page_crc(&self, index: u32) -> PersistResult<u32> {
        self.page_crcs
            .get(index as usize)
            .copied()
            .ok_or_else(|| corrupt(format!("heap page {index} out of range")))
    }

    /// Reads one validated heap page.
    pub fn read_page(&mut self, index: u32) -> PersistResult<&[u8]> {
        let crc = self.page_crc(index)?;
        self.cache.read_page(index, crc)
    }

    /// Copies one validated heap page into `out` without admitting it to the cache
    /// (cache hits are served from memory; misses stream from the file).  This is
    /// how a checkpoint reads the pages it has no frame of.
    pub fn stream_page(&mut self, index: u32, out: &mut [u8]) -> PersistResult<()> {
        let crc = self.page_crc(index)?;
        self.cache.read_page_into(index, crc, out)
    }

    /// Reads every heap page once, in order, against the CRC table, so a rotted or
    /// torn heap fails here and not at some later demand fault, and hands `visit`
    /// the stored path of every non-empty slot `plan` does not rewrite, in slot
    /// order.  An unbounded cache keeps what it has just validated — admission can
    /// never cost it an eviction, and the first touch of a page is then not a second
    /// read and a second checksum; a bounded one streams through a page of scratch
    /// and admits nothing.
    pub(crate) fn scan_paths(
        &mut self,
        plan: &SegmentRewrites,
        mut visit: impl FnMut(SegmentId, &[NodeId]) -> PersistResult<()>,
    ) -> PersistResult<()> {
        let dir = Arc::clone(&self.dir);
        let mut rewritten = vec![false; dir.slots()];
        for (id, _) in plan.iter() {
            if let Some(flag) = rewritten.get_mut(id.index()) {
                *flag = true;
            }
        }
        let admit = self.cache.budget().is_none();
        let mut scratch = vec![0u8; if admit { 0 } else { WALKS_PAGE_SIZE }];
        // The non-empty slots in heap order; the directory sums to the heap length,
        // so they run out exactly where the heap does.
        let mut slots = dir.lens().iter().enumerate().filter(|&(_, &len)| len > 0);
        // The slot being read and how many of its steps are still to come.
        let mut open: Option<(usize, usize)> = None;
        let mut path = Vec::new();
        let mut unread = self.header.heap_len;
        for page in 0..self.header.page_count() {
            let crc = self.page_crc(page)?;
            let bytes: &[u8] = if admit {
                self.cache.read_page(page, crc)?
            } else {
                self.cache.read_page_into(page, crc, &mut scratch)?;
                &scratch
            };
            let words = unread.min(STEPS_PER_PAGE) as usize;
            unread -= words as u64;
            let mut at = 0;
            while at < words {
                let (slot, left) = open.take().unwrap_or_else(|| {
                    let (slot, &len) = slots.next().expect("the lengths sum to the heap");
                    path.clear();
                    (slot, len as usize)
                });
                let take = left.min(words - at);
                if !rewritten[slot] {
                    path.extend(
                        bytes[at * 4..(at + take) * 4]
                            .chunks_exact(4)
                            .map(|word| NodeId(u32::from_le_bytes(word.try_into().unwrap()))),
                    );
                }
                at += take;
                if take < left {
                    open = Some((slot, left - take));
                } else if !rewritten[slot] {
                    visit(SegmentId(slot as u32), &path)?;
                }
            }
        }
        debug_assert!(open.is_none() && slots.next().is_none());
        Ok(())
    }

    /// Reads the `len` steps starting at heap offset `offset` (in steps) into `out`
    /// (cleared first), faulting in the pages they span.
    pub fn read_steps(
        &mut self,
        offset: u64,
        len: u32,
        out: &mut Vec<NodeId>,
    ) -> PersistResult<()> {
        out.clear();
        if len == 0 {
            return Ok(());
        }
        if offset
            .checked_add(len as u64)
            .is_none_or(|end| end > self.header.heap_len)
        {
            return Err(corrupt(format!(
                "slot region [{offset}, +{len}) exceeds the heap ({} steps)",
                self.header.heap_len
            )));
        }
        let mut remaining = len as u64;
        let mut step = offset;
        while remaining > 0 {
            let page = (step / STEPS_PER_PAGE) as u32;
            let within = (step % STEPS_PER_PAGE) as usize;
            let take = remaining.min(STEPS_PER_PAGE - within as u64) as usize;
            let bytes = self.read_page(page)?;
            for word in bytes[within * 4..(within + take) * 4].chunks_exact(4) {
                out.push(NodeId(u32::from_le_bytes(word.try_into().unwrap())));
            }
            step += take as u64;
            remaining -= take as u64;
        }
        Ok(())
    }
}

/// A store layout that can round-trip through the snapshot walks section.
///
/// The engines' durable `open`/`checkpoint` APIs are generic over this trait, so the
/// same recovery pipeline serves the flat [`WalkStore`] and the file-backed
/// [`crate::disk::DiskWalkStore`].
pub trait PersistentWalkStore: WalkIndexMut + Sized {
    /// Streams this store's walk data into `out` as its walks section (through a
    /// [`WalksStream`]).  (`&mut` so file-backed stores can take their previous
    /// generation's page frames and reuse them.)
    fn encode_walks<S: Write + Seek>(&mut self, out: &mut SnapshotWriter<S>) -> PersistResult<()>;

    /// Rebuilds the store from an open walks section of `node_count` nodes — the
    /// section's own plus any a WAL tail created — with `plan`, the final paths the
    /// tail left, installed over it, paths only.  Every heap page is read once,
    /// against its CRC, and the visit index is counted once from the final paths:
    /// `plan`'s for the segments it names, the heap's for the rest.  Anything on
    /// disk that fails a check is an error, returned while the caller can still fall
    /// back to an older generation.
    fn open_walks(
        walks: PagedWalks,
        node_count: usize,
        plan: &SegmentRewrites,
    ) -> PersistResult<Self>;

    /// Hook invoked after the snapshot `encode_walks` streamed into has been durably
    /// published at `snap_path`; file-backed stores re-anchor their faults and
    /// their next write-back on it here.
    fn after_checkpoint(&mut self, snap_path: &Path) -> PersistResult<()> {
        let _ = snap_path;
        Ok(())
    }
}

impl PersistentWalkStore for WalkStore {
    fn encode_walks<S: Write + Seek>(&mut self, out: &mut SnapshotWriter<S>) -> PersistResult<()> {
        stream_walks(self, out)
    }

    /// Reads the heap paths into the arena as the scan goes by, then the plan's;
    /// the index is counted with the construction kernel.  Nothing of the file
    /// outlives the open, so its pages stream through scratch.
    fn open_walks(
        mut walks: PagedWalks,
        node_count: usize,
        plan: &SegmentRewrites,
    ) -> PersistResult<Self> {
        walks.configure_cache(Some(1));
        let mut loader = WalkStore::loader(node_count, walks.header().r as usize);
        walks.scan_paths(plan, |id, path| loader.write(id, path).map_err(corrupt))?;
        for (id, path) in plan.iter() {
            loader.write(id, path).map_err(corrupt)?;
        }
        Ok(loader.finish())
    }
}

/// The assemble-in-memory encoder [`WalksStream`] replaced, kept as the byte
/// reference the streamed sections are held to.
#[cfg(test)]
pub(crate) mod reference {
    use super::*;

    /// Assembles a complete walks-section payload from its parts.  `heap` must
    /// already be padded to whole pages of `page_size` bytes.
    pub(crate) fn assemble_walks_payload(
        header: &WalksHeader,
        lens: &[u32],
        heap: &[u8],
    ) -> Vec<u8> {
        let page_count = header.page_count() as usize;
        assert_eq!(heap.len(), page_count * header.page_size as usize);
        assert_eq!(lens.len() as u64, header.slot_count);

        let mut dir_bytes = ByteWriter::with_capacity(lens.len() * 4);
        for &len in lens {
            dir_bytes.put_u32(len);
        }
        let dir_bytes = dir_bytes.into_bytes();

        let mut crc_table = ByteWriter::with_capacity(page_count * 4);
        for page in heap.chunks(header.page_size as usize) {
            crc_table.put_u32(crc32(page));
        }
        let crc_table = crc_table.into_bytes();

        let mut meta_crc = Crc32::new();
        meta_crc.update(&dir_bytes);
        meta_crc.update(&crc_table);

        let mut payload =
            ByteWriter::with_capacity(HEADER_LEN + dir_bytes.len() + crc_table.len() + heap.len());
        payload.put_u32(header.r);
        payload.put_u32(SHARD_COUNT);
        payload.put_u64(header.node_count);
        payload.put_u64(header.slot_count);
        payload.put_u64(header.heap_len);
        payload.put_u32(header.page_size);
        payload.put_u32(meta_crc.finish());
        payload.put_bytes(&dir_bytes);
        payload.put_bytes(&crc_table);
        payload.put_bytes(heap);
        payload.into_bytes()
    }

    /// Every slot's path length in `store`, and the heap bytes: the paths back to
    /// back in slot order, padded to whole pages with the filler word.
    pub(crate) fn render_heap(store: &impl WalkIndex) -> (Vec<u32>, Vec<u8>) {
        let slots = store.node_count() * store.r();
        let mut lens = Vec::with_capacity(slots);
        let mut heap = Vec::new();
        for slot in 0..slots {
            let path = store.segment_path(SegmentId(slot as u32));
            lens.push(path.len() as u32);
            for step in path {
                heap.extend_from_slice(&step.0.to_le_bytes());
            }
        }
        heap.resize(heap.len().next_multiple_of(WALKS_PAGE_SIZE), 0xFF);
        (lens, heap)
    }

    /// Encodes any store's walk data as a walks payload.
    pub(crate) fn encode_walks_fresh(store: &impl WalkIndex) -> Vec<u8> {
        let (lens, heap) = render_heap(store);
        let header = WalksHeader::packed(store.r(), store.node_count(), lens.iter().copied());
        assemble_walks_payload(&header, &lens, &heap)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::reference::*;
    use super::*;
    use crate::snapshot::tests::reference_file;
    use crate::snapshot::AtomicFile;
    use crate::tempdir::TempDir;
    use std::io::Cursor;

    fn sample_store() -> WalkStore {
        let mut store = WalkStore::new(6, 2);
        let paths: &[(u32, usize, &[u32])] = &[
            (0, 0, &[0, 1, 2, 1]),
            (0, 1, &[0]),
            (3, 0, &[3, 4, 5, 4, 3]),
            (5, 1, &[5, 5, 5]),
        ];
        for &(node, slot, p) in paths {
            let path: Vec<NodeId> = p.iter().map(|&n| NodeId(n)).collect();
            store.set_segment(SegmentId::new(NodeId(node), slot, 2), &path);
        }
        store
    }

    /// The bytes of a snapshot file holding just `store`'s streamed walks section.
    pub(crate) fn streamed_file(store: &mut impl PersistentWalkStore) -> Vec<u8> {
        let mut w = SnapshotWriter::new(Cursor::new(Vec::new())).unwrap();
        store.encode_walks(&mut w).unwrap();
        w.finish().unwrap().into_inner()
    }

    /// Streams `store`'s walks section into a snapshot file at `path`.
    pub(crate) fn write_snapshot(path: &Path, store: &mut impl PersistentWalkStore) {
        let mut w = SnapshotWriter::new(AtomicFile::create(path).unwrap()).unwrap();
        store.encode_walks(&mut w).unwrap();
        w.finish().unwrap().publish().unwrap();
    }

    /// Opens the walks section of the snapshot at `path` as a `W` with no plan.
    pub(crate) fn open_walks<W: PersistentWalkStore>(path: &Path) -> PersistResult<W> {
        let walks = PagedWalks::open(path)?;
        let node_count = walks.header().node_count as usize;
        W::open_walks(walks, node_count, &SegmentRewrites::new())
    }

    fn write_payload(path: &Path, payload: Vec<u8>) {
        std::fs::write(path, reference_file(&[(SECTION_WALKS, payload)])).unwrap();
    }

    /// A store whose paths straddle page ends and skip ids: `n` nodes, `r` = 2,
    /// path lengths cycling from empty to longer than a page.
    fn paged_store<W: WalkIndexMut>(mut store: W) -> W {
        let n = store.node_count() as u32;
        for node in 0..n {
            for k in 0..2usize {
                let len = [0usize, 1, 5, 16, 17, 40, 70, 300, 1030][(node as usize * 2 + k) % 9];
                let mut path = vec![NodeId(node); len.min(1)];
                path.extend((1..len as u32).map(|i| NodeId((node * 7 + i * 13) % n)));
                store.set_segment(SegmentId::new(NodeId(node), k, 2), &path);
            }
        }
        store
    }

    #[test]
    fn streamed_sections_equal_the_assembled_reference_byte_for_byte() {
        let mut flat = paged_store(WalkStore::new(97, 2));
        let expected = reference_file(&[(SECTION_WALKS, encode_walks_fresh(&flat))]);
        assert!(expected.len() > 20 * WALKS_PAGE_SIZE, "many pages");
        assert_eq!(streamed_file(&mut flat), expected);

        // Degenerate geometry: no segment written, so no heap page at all.
        let mut empty = WalkStore::new(4, 1);
        let expected = reference_file(&[(SECTION_WALKS, encode_walks_fresh(&empty))]);
        assert_eq!(streamed_file(&mut empty), expected);
    }

    #[test]
    fn a_streamed_section_is_checksummed_once() {
        let mut store = paged_store(WalkStore::new(97, 2));
        let file_len = streamed_file(&mut store).len() as u64;
        let before = crate::crc::checksummed_bytes();
        let _ = streamed_file(&mut store);
        let checksummed = crate::crc::checksummed_bytes() - before;
        // Everything but the file header and the section head goes through the
        // kernel, once.
        assert_eq!(checksummed, file_len - 32);
    }

    #[test]
    fn fresh_encode_decodes_to_an_identical_store() {
        let dir = TempDir::new("layout-roundtrip");
        let path = dir.path().join("snap.ppr");
        let mut store = sample_store();
        write_snapshot(&path, &mut store);

        let walks = PagedWalks::open(&path).unwrap();
        assert_eq!(walks.header().node_count, 6);
        let rebuilt = open_walks::<WalkStore>(&path).unwrap();
        assert_eq!(rebuilt.total_visits(), store.total_visits());
        assert_eq!(rebuilt.visit_counts(), store.visit_counts());
        for slot in 0..12u32 {
            assert_eq!(
                rebuilt.segment_path(SegmentId(slot)),
                store.segment_path(SegmentId(slot)),
                "slot {slot}"
            );
        }
        assert!(rebuilt.check_consistency().is_ok());
    }

    #[test]
    fn a_multi_shard_walks_section_is_refused() {
        let dir = TempDir::new("layout-shards");
        let path = dir.path().join("snap.ppr");
        let mut payload = encode_walks_fresh(&sample_store());
        // The shard-count field follows `r`; the meta CRC does not cover the header.
        assert_eq!(payload[4..8], 1u32.to_le_bytes());
        payload[4..8].copy_from_slice(&3u32.to_le_bytes());
        write_payload(&path, payload);
        assert!(matches!(
            PagedWalks::open(&path),
            Err(crate::io::PersistError::Format(_))
        ));
    }

    #[test]
    fn paths_lie_back_to_back_in_slot_order() {
        let dir = TempDir::new("layout-packed");
        let path = dir.path().join("snap.ppr");
        let mut store = paged_store(WalkStore::new(97, 2));
        write_snapshot(&path, &mut store);
        let mut walks = PagedWalks::open(&path).unwrap();
        let directory = walks.dir().clone();
        assert_eq!(directory.slots(), 194);
        let mut offset = 0u64;
        let mut read = Vec::new();
        for slot in 0..directory.slots() {
            let id = SegmentId(slot as u32);
            let (at, len) = directory.region(slot);
            assert_eq!(
                (at, len as usize),
                (offset, store.segment_len(id)),
                "{slot}"
            );
            walks.read_steps(at, len, &mut read).unwrap();
            assert_eq!(read, store.segment_path(id), "slot {slot}");
            offset += len as u64;
        }
        assert_eq!(offset, walks.header().heap_len);
        assert_eq!(directory.heap_len(), offset);
    }

    #[test]
    fn heap_page_corruption_is_caught_on_read() {
        let dir = TempDir::new("layout-pagecrc");
        let path = dir.path().join("snap.ppr");
        write_snapshot(&path, &mut sample_store());
        // Flip a byte in the last page of the file (heap region).
        let mut bytes = std::fs::read(&path).unwrap();
        let n = bytes.len();
        bytes[n - 4090] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();

        let result = open_walks::<WalkStore>(&path);
        assert!(matches!(result, Err(crate::io::PersistError::Corrupt(_))));
    }

    #[test]
    fn heap_paths_that_break_the_store_shape_are_refused() {
        let dir = TempDir::new("layout-shape");
        let path = dir.path().join("snap.ppr");
        let mut store = sample_store();
        let (lens, heap) = render_heap(&store);
        let header = WalksHeader::packed(2, 6, lens.iter().copied());
        // Segment 6 (node 3, slot 0) holds [3, 4, 5, 4, 3] from step 5, after the
        // four steps of segment 0 and the one of segment 1.
        assert_eq!((lens[0], lens[1], lens[6]), (4, 1, 5));
        let word = |step: u64| step as usize * 4..step as usize * 4 + 4;
        let mut cases = Vec::new();
        let mut off_source = heap.clone();
        off_source[word(5)].copy_from_slice(&4u32.to_le_bytes());
        cases.push(("start at its source", lens.clone(), off_source));
        let mut unknown_node = heap.clone();
        unknown_node[word(7)].copy_from_slice(&6u32.to_le_bytes());
        cases.push(("outside the store", lens.clone(), unknown_node));
        let mut past_the_heap = lens.clone();
        past_the_heap[6] += 1;
        cases.push(("disagree with the heap", past_the_heap, heap.clone()));
        let mut short_of_the_heap = lens.clone();
        short_of_the_heap[11] -= 1;
        cases.push(("disagree with the heap", short_of_the_heap, heap.clone()));
        for (what, lens, heap) in cases {
            write_payload(&path, assemble_walks_payload(&header, &lens, &heap));
            for result in [
                open_walks::<WalkStore>(&path).map(|_| ()),
                open_walks::<crate::DiskWalkStore>(&path).map(|_| ()),
            ] {
                match result {
                    Err(crate::io::PersistError::Corrupt(why)) => {
                        assert!(why.contains(what), "{what}: {why}")
                    }
                    other => panic!("{what}: {other:?}"),
                }
            }
        }
        // The unmodified encode still loads.
        write_snapshot(&path, &mut store);
        assert!(open_walks::<WalkStore>(&path).is_ok());
    }
}
