//! The walks-section codec: a paged on-disk layout for the PageRank Store, aligned
//! to arena segments.
//!
//! The section serializes everything the `WalkIndex` surface exposes — every segment
//! path, the visit postings, and the exact counters — in a layout designed for
//! page-granular write-back:
//!
//! ```text
//! payload := header | dir | postings | page_crcs | heap
//! header  := r u32 | shard_count u32 | node_count u64 | slot_count u64
//!          | heap_len u64 (steps) | page_size u32 | meta_crc u32
//! dir     := slot_count × (offset u64 | len u32 | cap u32)      (steps, not bytes)
//! postings:= per node (count u32 | (segment u32, visits u32)*count) | total_visits u64
//! page_crcs := ceil(heap_len·4 / page_size) × u32
//! heap    := the walk steps as u32 words, padded to whole pages with the filler word
//! ```
//!
//! Like the in-memory [`ppr_store::arena::StepArena`], every segment owns a
//! **capacity-reserved slot** of the heap (power-of-two, at least 16 steps), so a
//! segment that is rewritten without outgrowing its reservation dirties only its own
//! pages and every other page of the heap can be carried into the next snapshot
//! byte-for-byte — that reuse is what [`crate::disk::DiskWalkStore`]'s checkpoint
//! measures.  `meta_crc` covers the directory, postings, and page-CRC table, and each
//! heap page carries its own CRC, so the paged reader ([`PagedWalks`]) fully
//! validates everything it touches without ever reading the whole section.
//!
//! Decoding always cross-checks the serialized postings against the stored paths,
//! so index corruption is detected at open time instead of surfacing as silently
//! wrong scores.  Flat stores take the bulk-load fast path
//! ([`PagedWalks::decode_flat_store`]): the serialized runs become the index
//! directly and one global sorted pass verifies them.  Sharded stores replay paths
//! through `WalkIndexMut::set_segment` ([`PagedWalks::rebuild_into`]) and verify
//! the rebuilt index against the serialized runs.

use crate::crc::{crc32, Crc32};
use crate::io::{corrupt, format_err, ByteReader, ByteWriter, PersistResult};
use crate::pager::{PageCache, PagerStats};
use crate::snapshot::{SnapshotFile, SECTION_WALKS};
use ppr_graph::NodeId;
use ppr_store::{SegmentId, ShardedWalkStore, WalkIndex, WalkIndexMut, WalkStore};
use std::io::{Read, Seek, SeekFrom};
use std::path::Path;

/// Page size of the walk heap, in bytes (1024 steps per page).
pub const WALKS_PAGE_SIZE: usize = 4096;

/// Filler word for reserved-but-unused heap cells (matches the arena's filler).
pub const FILLER_WORD: u32 = u32::MAX;

const HEADER_LEN: usize = 4 + 4 + 8 + 8 + 8 + 4 + 4;

/// One segment's region of the on-disk heap, in steps.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FileSlot {
    /// First step of the slot's region.
    pub offset: u64,
    /// Stored path length.
    pub len: u32,
    /// Reserved capacity (power of two; 0 for never-written slots).
    pub cap: u32,
}

/// Capacity reserved on disk for a path of `len` steps: next power of two, at least
/// 16 — the same rule as the in-memory arena, so steady-state rewrites stay within
/// their reservation on disk exactly when they do in memory.
pub fn file_reservation(len: usize) -> u32 {
    if len == 0 {
        0
    } else {
        (len.next_power_of_two().max(16)) as u32
    }
}

/// Parsed fixed-size header of a walks section.
#[derive(Debug, Clone, Copy)]
pub struct WalksHeader {
    /// Segments per node.
    pub r: u32,
    /// Shard count of the store that wrote the section (1 for flat layouts).
    pub shard_count: u32,
    /// Nodes addressed by the store.
    pub node_count: u64,
    /// Total segment slots (`node_count * r`).
    pub slot_count: u64,
    /// Heap length in steps (live + reserved + garbage).
    pub heap_len: u64,
    /// Heap page size in bytes.
    pub page_size: u32,
}

impl WalksHeader {
    /// Number of heap pages the section holds.
    pub fn page_count(&self) -> u32 {
        let bytes = self.heap_len * 4;
        bytes.div_ceil(self.page_size as u64) as u32
    }
}

/// Serializes a store's visit postings (per-node sorted runs plus `total_visits`) —
/// the one postings wire format, shared by the fresh encoders and the disk store's
/// write-back path.
pub(crate) fn encode_postings(store: &impl WalkIndex) -> Vec<u8> {
    let mut w = ByteWriter::new();
    for node in 0..store.node_count() {
        let node = NodeId::from_index(node);
        let run: Vec<(SegmentId, u32)> = store.segments_visiting(node).collect();
        w.put_u32(run.len() as u32);
        for (seg, count) in run {
            w.put_u32(seg.0);
            w.put_u32(count);
        }
    }
    w.put_u64(store.total_visits());
    w.into_bytes()
}

/// Verifies the serialized postings of `raw` against a rebuilt store.
fn verify_postings(raw: &[u8], store: &impl WalkIndex) -> PersistResult<()> {
    let mut r = ByteReader::new(raw);
    for node in 0..store.node_count() {
        let node_id = NodeId::from_index(node);
        let count = r.get_u32()? as usize;
        let mut rebuilt = store.segments_visiting(node_id);
        for k in 0..count {
            let seg = SegmentId(r.get_u32()?);
            let visits = r.get_u32()?;
            if rebuilt.next() != Some((seg, visits)) {
                return Err(corrupt(format!(
                    "serialized posting {k} of node {node} disagrees with the rebuilt index"
                )));
            }
        }
        if rebuilt.next().is_some() {
            return Err(corrupt(format!(
                "rebuilt index has postings for node {node} the snapshot lacks"
            )));
        }
    }
    let total = r.get_u64()?;
    if total != store.total_visits() {
        return Err(corrupt(format!(
            "serialized total_visits {total} disagrees with the rebuilt {}",
            store.total_visits()
        )));
    }
    r.expect_end("postings")
}

/// Assembles a complete walks-section payload from its parts.  `heap` must already
/// be padded to whole pages of `page_size` bytes.
pub fn assemble_walks_payload(
    header: &WalksHeader,
    dir: &[FileSlot],
    postings: &[u8],
    heap: &[u8],
) -> Vec<u8> {
    let page_count = header.page_count() as usize;
    assert_eq!(heap.len(), page_count * header.page_size as usize);
    assert_eq!(dir.len() as u64, header.slot_count);

    let mut dir_bytes = ByteWriter::with_capacity(dir.len() * 16);
    for slot in dir {
        dir_bytes.put_u64(slot.offset);
        dir_bytes.put_u32(slot.len);
        dir_bytes.put_u32(slot.cap);
    }
    let dir_bytes = dir_bytes.into_bytes();

    let mut crc_table = ByteWriter::with_capacity(page_count * 4);
    for page in heap.chunks(header.page_size as usize) {
        crc_table.put_u32(crc32(page));
    }
    let crc_table = crc_table.into_bytes();

    let mut meta_crc = Crc32::new();
    meta_crc.update(&dir_bytes);
    meta_crc.update(postings);
    meta_crc.update(&crc_table);

    let mut payload = ByteWriter::with_capacity(
        HEADER_LEN + dir_bytes.len() + postings.len() + crc_table.len() + heap.len(),
    );
    payload.put_u32(header.r);
    payload.put_u32(header.shard_count);
    payload.put_u64(header.node_count);
    payload.put_u64(header.slot_count);
    payload.put_u64(header.heap_len);
    payload.put_u32(header.page_size);
    payload.put_u32(meta_crc.finish());
    payload.put_bytes(&dir_bytes);
    payload.put_bytes(postings);
    payload.put_bytes(&crc_table);
    payload.put_bytes(heap);
    payload.into_bytes()
}

/// Computes a tight fresh layout for `store`: slots in segment-id order, each with
/// its power-of-two reservation.  Returns the directory and the heap length.
pub fn fresh_layout(store: &impl WalkIndex) -> (Vec<FileSlot>, u64) {
    let slot_count = store.node_count() * store.r();
    let mut dir = Vec::with_capacity(slot_count);
    let mut offset = 0u64;
    for slot in 0..slot_count {
        let len = store.segment_len(SegmentId(slot as u32)) as u32;
        let cap = file_reservation(len as usize);
        dir.push(FileSlot {
            offset: if cap == 0 { 0 } else { offset },
            len,
            cap,
        });
        offset += cap as u64;
    }
    (dir, offset)
}

/// Renders the heap bytes for `dir` by copying every slot's path out of `store`,
/// filling reservations and holes with the filler word, padded to whole pages.
pub fn render_heap(store: &impl WalkIndex, dir: &[FileSlot], heap_len: u64) -> Vec<u8> {
    let page_count = (heap_len * 4).div_ceil(WALKS_PAGE_SIZE as u64) as usize;
    let mut heap = vec![0xFFu8; page_count * WALKS_PAGE_SIZE];
    for (slot, file_slot) in dir.iter().enumerate() {
        if file_slot.len == 0 {
            continue;
        }
        let path = store.segment_path(SegmentId(slot as u32));
        debug_assert_eq!(path.len(), file_slot.len as usize);
        let mut pos = file_slot.offset as usize * 4;
        for step in path {
            heap[pos..pos + 4].copy_from_slice(&step.0.to_le_bytes());
            pos += 4;
        }
    }
    heap
}

/// Encodes any store's walk data as a fresh, tightly laid-out walks section.
pub fn encode_walks_fresh(store: &impl WalkIndex, shard_count: u32) -> Vec<u8> {
    let (dir, heap_len) = fresh_layout(store);
    let header = WalksHeader {
        r: store.r() as u32,
        shard_count,
        node_count: store.node_count() as u64,
        slot_count: dir.len() as u64,
        heap_len,
        page_size: WALKS_PAGE_SIZE as u32,
    };
    let heap = render_heap(store, &dir, heap_len);
    let postings = encode_postings(store);
    assemble_walks_payload(&header, &dir, &postings, &heap)
}

/// A walks section opened for paged reading: directory and postings eagerly read and
/// validated, heap pages faulted in (and CRC-checked) on first touch.
#[derive(Debug)]
pub struct PagedWalks {
    header: WalksHeader,
    dir: Vec<FileSlot>,
    postings_raw: Vec<u8>,
    page_crcs: Vec<u32>,
    cache: PageCache,
}

impl PagedWalks {
    /// Opens the walks section of the snapshot at `path`.
    pub fn open(path: &Path) -> PersistResult<Self> {
        let snap = SnapshotFile::open(path)?;
        let info = snap.section(SECTION_WALKS)?;
        let mut file = snap.into_file();
        if info.len < HEADER_LEN as u64 {
            return Err(corrupt("walks section shorter than its header"));
        }
        file.seek(SeekFrom::Start(info.offset))?;
        let mut head = vec![0u8; HEADER_LEN];
        file.read_exact(&mut head)?;
        let mut r = ByteReader::new(&head);
        let header = WalksHeader {
            r: r.get_u32()?,
            shard_count: r.get_u32()?,
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
        let dir_len = header.slot_count as usize * 16;
        let crc_len = page_count as usize * 4;
        let meta_end = HEADER_LEN + dir_len;
        let heap_bytes = page_count as u64 * header.page_size as u64;
        let expected_tail = heap_bytes + crc_len as u64;
        let Some(postings_len) = (info.len)
            .checked_sub(meta_end as u64)
            .and_then(|rest| rest.checked_sub(expected_tail))
        else {
            return Err(corrupt("walks section too short for its own directory"));
        };
        let postings_len = usize::try_from(postings_len)
            .map_err(|_| corrupt("walks postings too large for this platform"))?;

        let mut meta = vec![0u8; dir_len + postings_len + crc_len];
        file.read_exact(&mut meta)?;
        if crc32(&meta) != meta_crc {
            return Err(corrupt("walks directory/postings checksum mismatch"));
        }
        let mut dir = Vec::with_capacity(header.slot_count as usize);
        let mut reader = ByteReader::new(&meta[..dir_len]);
        for _ in 0..header.slot_count {
            dir.push(FileSlot {
                offset: reader.get_u64()?,
                len: reader.get_u32()?,
                cap: reader.get_u32()?,
            });
        }
        let postings_raw = meta[dir_len..dir_len + postings_len].to_vec();
        let mut page_crcs = Vec::with_capacity(page_count as usize);
        let mut reader = ByteReader::new(&meta[dir_len + postings_len..]);
        for _ in 0..page_count {
            page_crcs.push(reader.get_u32()?);
        }
        let heap_base = info.offset + (HEADER_LEN + meta.len()) as u64;
        let cache = PageCache::new(file, heap_base, WALKS_PAGE_SIZE, page_count);
        Ok(PagedWalks {
            header,
            dir,
            postings_raw,
            page_crcs,
            cache,
        })
    }

    /// The section's parsed header.
    pub fn header(&self) -> &WalksHeader {
        &self.header
    }

    /// The slot directory, indexed by segment id.
    pub fn dir(&self) -> &[FileSlot] {
        &self.dir
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

    /// Replaces the page cache's pin set (pages that are never evicted).
    pub fn pin_pages(&mut self, pages: &[u32]) -> PersistResult<()> {
        self.cache.set_pinned_pages(pages)
    }

    /// Number of heap pages currently resident in the cache.
    pub fn resident_pages(&self) -> usize {
        self.cache.resident_pages()
    }

    /// Bytes of heap pages currently resident in the cache.
    pub fn resident_bytes(&self) -> u64 {
        self.cache.resident_bytes()
    }

    /// Number of resident pages that are pinned.
    pub fn pinned_resident_pages(&self) -> usize {
        self.cache.pinned_resident_pages()
    }

    /// Byte offset of heap page 0 within the snapshot file (test observability —
    /// corruption tests flip bytes at exact heap positions).
    pub fn heap_file_offset(&self) -> u64 {
        self.cache.base_offset()
    }

    /// Seeds the page cache from an in-memory heap image (the bytes a checkpoint
    /// just wrote), so follow-up write-backs copy clean pages from memory instead of
    /// re-reading the file.  Admission follows the cache's policy: pinned pages
    /// always enter, unpinned pages only while there is room under the budget.
    pub fn preload_heap(&mut self, heap: &[u8]) -> PersistResult<()> {
        let page_size = self.header.page_size as usize;
        for (index, page) in heap.chunks(page_size).enumerate() {
            if page.len() == page_size {
                self.cache.preload(index as u32, page)?;
            }
        }
        Ok(())
    }

    /// Reads one validated heap page.
    pub fn read_page(&mut self, index: u32) -> PersistResult<&[u8]> {
        let crc = *self
            .page_crcs
            .get(index as usize)
            .ok_or_else(|| corrupt(format!("heap page {index} out of range")))?;
        self.cache.read_page(index, crc)
    }

    /// Copies one validated heap page into `out` without admitting it to the cache
    /// (cache hits are served from memory; misses stream from the file).  This is
    /// the checkpoint write-back path for clean pages.
    pub fn stream_page(&mut self, index: u32, out: &mut [u8]) -> PersistResult<()> {
        let crc = *self
            .page_crcs
            .get(index as usize)
            .ok_or_else(|| corrupt(format!("heap page {index} out of range")))?;
        self.cache.read_page_into(index, crc, out)
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
        let steps_per_page = (WALKS_PAGE_SIZE / 4) as u64;
        let mut remaining = len as u64;
        let mut step = offset;
        while remaining > 0 {
            let page = (step / steps_per_page) as u32;
            let within = (step % steps_per_page) as usize;
            let take = remaining.min(steps_per_page - within as u64) as usize;
            let bytes = self.read_page(page)?;
            for word in bytes[within * 4..(within + take) * 4].chunks_exact(4) {
                out.push(NodeId(u32::from_le_bytes(word.try_into().unwrap())));
            }
            step += take as u64;
            remaining -= take as u64;
        }
        Ok(())
    }

    /// Parses the serialized visit postings into per-node [`ppr_store::VisitPostings`] plus the
    /// claimed total visit count.  This is the index half of the walks section —
    /// demand-paged opens install it directly (paths stay on disk), the flat decode
    /// pairs it with a full heap scan.
    pub fn parse_postings(&self) -> PersistResult<(Vec<ppr_store::VisitPostings>, u64)> {
        let mut reader = ByteReader::new(&self.postings_raw);
        let mut postings = Vec::with_capacity(self.header.node_count as usize);
        for _ in 0..self.header.node_count {
            let count = reader.get_u32()? as usize;
            let mut run = Vec::with_capacity(count);
            for _ in 0..count {
                let seg = SegmentId(reader.get_u32()?);
                let visits = reader.get_u32()?;
                run.push((seg, visits));
            }
            postings.push(ppr_store::VisitPostings::from_sorted_run(run).map_err(corrupt)?);
        }
        let total = reader.get_u64()?;
        reader.expect_end("postings")?;
        Ok((postings, total))
    }

    /// Decodes the section into a flat [`WalkStore`] on the bulk-load fast path:
    /// paths stream out of the paged heap, the serialized postings become the index
    /// **directly** (packed blocks, no `record` call per stored step), and paths and
    /// index are cross-checked in one sorted pass inside
    /// [`WalkStore::bulk_load`] — cold open costs a file scan plus one sort instead
    /// of an incremental index rebuild.
    pub fn decode_flat_store(&mut self) -> PersistResult<WalkStore> {
        let header = *self.header();
        if header.shard_count != 1 {
            return Err(format_err(format!(
                "snapshot holds a {}-shard store; open it with the sharded engine",
                header.shard_count
            )));
        }
        // Stream every non-empty slot's path into one flat buffer.
        let mut steps: Vec<NodeId> = Vec::new();
        let mut bounds: Vec<(SegmentId, usize, usize)> = Vec::new();
        let mut path = Vec::new();
        for slot in 0..header.slot_count as u32 {
            let file_slot = self.dir[slot as usize];
            if file_slot.len == 0 {
                continue;
            }
            self.read_steps(file_slot.offset, file_slot.len, &mut path)?;
            let start = steps.len();
            steps.extend_from_slice(&path);
            bounds.push((SegmentId(slot), start, path.len()));
        }
        // The serialized postings become the index verbatim.
        let (postings, total) = self.parse_postings()?;

        let store = WalkStore::bulk_load(
            header.node_count as usize,
            header.r as usize,
            bounds
                .iter()
                .map(|&(id, start, len)| (id, &steps[start..start + len])),
            postings,
        )
        .map_err(corrupt)?;
        if store.total_visits() != total {
            return Err(corrupt(format!(
                "serialized total_visits {total} disagrees with the loaded {}",
                store.total_visits()
            )));
        }
        Ok(store)
    }

    /// Rebuilds every segment of the section into `store` (which must already be
    /// sized for the section's node count and `r`), then verifies the rebuilt
    /// postings and counters against the serialized ones.
    pub fn rebuild_into<W: WalkIndexMut>(&mut self, store: &mut W) -> PersistResult<()> {
        if store.node_count() as u64 != self.header.node_count
            || store.r() as u64 != self.header.r as u64
        {
            return Err(format_err(
                "store dimensions do not match the walks section".to_string(),
            ));
        }
        let mut path = Vec::new();
        for slot in 0..self.header.slot_count as u32 {
            let file_slot = self.dir[slot as usize];
            if file_slot.len == 0 {
                continue;
            }
            self.read_steps(file_slot.offset, file_slot.len, &mut path)?;
            let id = SegmentId(slot);
            let source = id.source(self.header.r as usize);
            if path.first() != Some(&source) {
                return Err(corrupt(format!(
                    "segment {slot} does not start at its source node {source}"
                )));
            }
            if let Some(bad) = path
                .iter()
                .find(|v| v.index() as u64 >= self.header.node_count)
            {
                return Err(corrupt(format!(
                    "segment {slot} visits node {bad} outside the store"
                )));
            }
            store.set_segment(id, &path);
        }
        verify_postings(&self.postings_raw, store)
    }
}

/// A store layout that can round-trip through the snapshot walks section.
///
/// The engines' durable `open`/`checkpoint` APIs are generic over this trait, so the
/// same recovery pipeline serves the flat [`WalkStore`], the [`ShardedWalkStore`],
/// and the file-backed [`crate::disk::DiskWalkStore`].
pub trait PersistentWalkStore: WalkIndexMut + Sized {
    /// Encodes this store's walk data as a walks-section payload.  (`&mut` so
    /// file-backed stores can stream clean pages out of their previous generation.)
    fn encode_walks(&mut self) -> PersistResult<Vec<u8>>;

    /// Rebuilds the store from an open walks section.
    fn decode_walks(walks: PagedWalks) -> PersistResult<Self>;

    /// Hook invoked after the snapshot containing this store's payload has been
    /// durably published at `snap_path`; file-backed stores re-anchor their clean-page
    /// source here.
    fn after_checkpoint(&mut self, snap_path: &Path) -> PersistResult<()> {
        let _ = snap_path;
        Ok(())
    }

    /// Verifies whatever payload bytes `decode_walks` deferred reading.  The durable
    /// open path calls this so that a corrupt generation is detected *while fallback
    /// to an older generation is still possible* — a demand-paged store streams its
    /// unread heap pages against the CRC table here (bounded memory, no admission).
    /// Stores whose decode already read everything have nothing left to check.
    fn verify_walks(&self) -> PersistResult<()> {
        Ok(())
    }
}

impl PersistentWalkStore for WalkStore {
    fn encode_walks(&mut self) -> PersistResult<Vec<u8>> {
        Ok(encode_walks_fresh(self, 1))
    }

    fn decode_walks(mut walks: PagedWalks) -> PersistResult<Self> {
        walks.decode_flat_store()
    }
}

impl PersistentWalkStore for ShardedWalkStore {
    fn encode_walks(&mut self) -> PersistResult<Vec<u8>> {
        Ok(encode_walks_fresh(self, self.shard_count() as u32))
    }

    fn decode_walks(mut walks: PagedWalks) -> PersistResult<Self> {
        let header = *walks.header();
        let mut store = ShardedWalkStore::new(
            header.node_count as usize,
            header.r as usize,
            header.shard_count as usize,
        );
        walks.rebuild_into(&mut store)?;
        Ok(store)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::SnapshotWriter;
    use crate::tempdir::TempDir;
    use ppr_store::WalkIndexView;

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

    fn write_snapshot(path: &Path, payload: Vec<u8>) {
        let mut w = SnapshotWriter::new();
        w.add_section(SECTION_WALKS, payload);
        w.write_to(path).unwrap();
    }

    #[test]
    fn fresh_encode_decodes_to_an_identical_store() {
        let dir = TempDir::new("layout-roundtrip");
        let path = dir.path().join("snap.ppr");
        let mut store = sample_store();
        write_snapshot(&path, store.encode_walks().unwrap());

        let walks = PagedWalks::open(&path).unwrap();
        assert_eq!(walks.header().node_count, 6);
        assert_eq!(walks.header().shard_count, 1);
        let rebuilt = WalkStore::decode_walks(walks).unwrap();
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
    fn sharded_encode_round_trips_and_guards_the_layout() {
        let dir = TempDir::new("layout-sharded");
        let path = dir.path().join("snap.ppr");
        let mut store = ShardedWalkStore::new(6, 2, 3);
        for slot in 0..6u32 {
            let source = NodeId(slot / 2);
            let path_steps = vec![source, NodeId((slot as usize % 6) as u32)];
            let id = SegmentId::new(source, slot as usize % 2, 2);
            // Only write valid paths: start at source.
            let mut p = vec![source];
            p.extend(path_steps.into_iter().skip(1));
            store.set_segment(id, &p);
        }
        write_snapshot(&path, store.encode_walks().unwrap());

        let rebuilt = ShardedWalkStore::decode_walks(PagedWalks::open(&path).unwrap()).unwrap();
        assert_eq!(rebuilt.shard_count(), 3);
        assert_eq!(rebuilt.visit_counts(), store.visit_counts());
        assert!(WalkIndexMut::check_consistency(&rebuilt).is_ok());

        // A flat store refuses a sharded section.
        assert!(matches!(
            WalkStore::decode_walks(PagedWalks::open(&path).unwrap()),
            Err(crate::io::PersistError::Format(_))
        ));
    }

    #[test]
    fn slot_reservations_are_power_of_two_aligned() {
        assert_eq!(file_reservation(0), 0);
        assert_eq!(file_reservation(1), 16);
        assert_eq!(file_reservation(16), 16);
        assert_eq!(file_reservation(17), 32);
        let mut store = sample_store();
        let payload = store.encode_walks().unwrap();
        let dir = TempDir::new("layout-caps");
        let path = dir.path().join("snap.ppr");
        write_snapshot(&path, payload);
        let walks = PagedWalks::open(&path).unwrap();
        for slot in walks.dir() {
            if slot.cap != 0 {
                assert!(slot.cap.is_power_of_two() && slot.cap >= 16);
                assert!(slot.len <= slot.cap);
            } else {
                assert_eq!(slot.len, 0);
            }
        }
    }

    #[test]
    fn heap_page_corruption_is_caught_on_read() {
        let dir = TempDir::new("layout-pagecrc");
        let path = dir.path().join("snap.ppr");
        let mut store = sample_store();
        write_snapshot(&path, store.encode_walks().unwrap());
        // Flip a byte in the last page of the file (heap region).
        let mut bytes = std::fs::read(&path).unwrap();
        let n = bytes.len();
        bytes[n - 100] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();

        let result = WalkStore::decode_walks(PagedWalks::open(&path).unwrap());
        assert!(matches!(result, Err(crate::io::PersistError::Corrupt(_))));
    }

    #[test]
    fn postings_verification_catches_index_drift() {
        let dir = TempDir::new("layout-postings");
        let path = dir.path().join("snap.ppr");
        let mut store = sample_store();
        // Hand-assemble a payload whose postings disagree with the paths.
        let (slot_dir, heap_len) = fresh_layout(&store);
        let header = WalksHeader {
            r: 2,
            shard_count: 1,
            node_count: 6,
            slot_count: 12,
            heap_len,
            page_size: WALKS_PAGE_SIZE as u32,
        };
        let heap = render_heap(&store, &slot_dir, heap_len);
        let mut bogus = encode_postings(&store);
        let len = bogus.len();
        bogus[len - 9] ^= 0x01; // corrupt total_visits
        write_snapshot(
            &path,
            assemble_walks_payload(&header, &slot_dir, &bogus, &heap),
        );

        let result = WalkStore::decode_walks(PagedWalks::open(&path).unwrap());
        assert!(matches!(result, Err(crate::io::PersistError::Corrupt(_))));
        // The unmodified encode still loads.
        write_snapshot(&path, store.encode_walks().unwrap());
        assert!(WalkStore::decode_walks(PagedWalks::open(&path).unwrap()).is_ok());
    }
}
