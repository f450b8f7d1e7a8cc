//! A bounded, evicting page cache over a [`File`] region.
//!
//! The snapshot's walk heap is laid out in fixed-size pages ([`crate::layout`]); this
//! cache is how those pages are read back.  Reads demand-fault pages on first touch
//! and verify each faulted image against a caller-supplied CRC — on *every* (re-)fault,
//! not just the first, so an evicted page that rots on disk is caught the moment it is
//! needed again.  Residency is bounded: an optional `max_resident_pages` budget is
//! enforced with CLOCK (second-chance) eviction over the resident set.
//!
//! Frames live in a flat table indexed by page number (`Vec<Option<Frame>>`), so the
//! hot read path is two direct slot accesses with zero hashing.  This deliberately
//! replaces the earlier `HashMap` cache — besides the double-lookup it forced on hits,
//! a map cannot hand back a borrow from a single probe on stable Rust once eviction
//! needs `&mut` access mid-function (NLL problem case #3); the frame table can.
//!
//! A checkpoint reads the previous generation through [`PageCache::read_page_into`],
//! which serves cache hits from memory but streams misses file-to-file **without
//! admission** — writing a generation never faults the whole store resident.
//! Hit/miss/eviction/streamed counters make every regime observable in the
//! persistence bench.
//!
//! Frames also travel *between* generations without being copied: a checkpoint
//! takes the previous generation's frames ([`PageCache::take_frames`]), reuses
//! them as the buffers of the pages it writes, and offers each written page to the
//! next generation's cache ([`PageCache::preload`]), which exists —
//! [`PageCache::unwritten`], with its budget — before the file it will read from
//! does ([`PageCache::attach`]).

use crate::crc::crc32;
use crate::io::{corrupt, PersistResult};
use std::collections::VecDeque;
use std::fs::File;
use std::io::{Read, Seek, SeekFrom};

/// Access counters of a [`PageCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PagerStats {
    /// Pages faulted in from the file (first touch or re-fault after eviction).
    pub loads: u64,
    /// Page reads served from memory.
    pub hits: u64,
    /// Bytes read from the file.
    pub bytes_read: u64,
    /// Resident pages evicted to stay under the budget.
    pub evictions: u64,
    /// Subset of `loads` that re-faulted a page evicted earlier.
    pub refaults: u64,
    /// Pages served to streaming readers straight from the file, bypassing admission
    /// (a checkpoint reading the previous generation).
    pub streamed: u64,
}

/// One resident page.
#[derive(Debug)]
struct Frame {
    bytes: Box<[u8]>,
    /// CLOCK reference bit: set on every access, cleared when the hand passes.
    referenced: bool,
}

/// A bounded read cache over a fixed-size-page region of a file.
#[derive(Debug)]
pub struct PageCache {
    /// `None` while the generation this cache reads is still being written: until
    /// [`PageCache::attach`] only preloaded pages can be served.
    file: Option<File>,
    /// Byte offset of page 0 within the file.
    base: u64,
    page_size: usize,
    page_count: u32,
    /// Frame table indexed by page number; `None` means not resident.
    frames: Vec<Option<Frame>>,
    /// Number of `Some` entries in `frames`.
    resident: usize,
    /// Residency budget in pages; `None` means unbounded.
    budget: Option<usize>,
    /// CLOCK ring: exactly the resident pages, each once.
    clock: VecDeque<u32>,
    /// Pages that have been resident at least once (distinguishes re-faults).
    ever_resident: Vec<bool>,
    stats: PagerStats,
}

impl PageCache {
    /// Wraps `file` from byte offset `base`, exposing `page_count` pages of
    /// `page_size` bytes each.  The cache starts unbounded.
    pub fn new(file: File, base: u64, page_size: usize, page_count: u32) -> Self {
        let mut cache = PageCache::unwritten(page_size, page_count);
        cache.attach(file, base);
        cache
    }

    /// A cache over `page_count` pages of a file that does not exist yet.  Budget
    /// and preloads work as on any cache; a miss is an error until
    /// [`PageCache::attach`] supplies the file.
    pub fn unwritten(page_size: usize, page_count: u32) -> Self {
        PageCache {
            file: None,
            base: 0,
            page_size,
            page_count,
            frames: (0..page_count).map(|_| None).collect(),
            resident: 0,
            budget: None,
            clock: VecDeque::new(),
            ever_resident: vec![false; page_count as usize],
            stats: PagerStats::default(),
        }
    }

    /// Binds the cache to its backing `file`, whose page 0 starts at byte `base`.
    pub fn attach(&mut self, file: File, base: u64) {
        self.file = Some(file);
        self.base = base;
    }

    /// Number of pages in the region.
    pub fn page_count(&self) -> u32 {
        self.page_count
    }

    /// Page size in bytes.
    pub fn page_size(&self) -> usize {
        self.page_size
    }

    /// Byte offset of page 0 within the backing file.
    pub fn base_offset(&self) -> u64 {
        self.base
    }

    /// Access counters since construction.
    pub fn stats(&self) -> PagerStats {
        self.stats
    }

    /// Number of pages currently resident.
    pub fn resident_pages(&self) -> usize {
        self.resident
    }

    /// Bytes of page data currently resident.
    pub fn resident_bytes(&self) -> u64 {
        self.resident as u64 * self.page_size as u64
    }

    /// Sets the residency budget (`None` = unbounded), evicting down if the current
    /// resident set exceeds it.  A budget of 0 is clamped to 1 — a cache that can
    /// hold nothing cannot serve reads.
    pub fn set_budget(&mut self, budget: Option<usize>) {
        self.budget = budget.map(|b| b.max(1));
        if let Some(limit) = self.budget {
            while self.resident > limit && self.evict_one() {}
        }
    }

    /// Current residency budget (`None` = unbounded).
    pub fn budget(&self) -> Option<usize> {
        self.budget
    }

    fn check_range(&self, index: u32) -> PersistResult<()> {
        if index >= self.page_count {
            return Err(corrupt(format!(
                "page {index} out of range ({} pages)",
                self.page_count
            )));
        }
        Ok(())
    }

    /// Reads the page's bytes from the file into `out` (no CRC check, no counters
    /// beyond `bytes_read`).
    fn read_from_file(&mut self, index: u32, out: &mut [u8]) -> PersistResult<()> {
        let file = self.file.as_mut().ok_or_else(|| {
            corrupt(format!(
                "heap page {index} read before its generation was published"
            ))
        })?;
        file.seek(SeekFrom::Start(
            self.base + index as u64 * self.page_size as u64,
        ))?;
        file.read_exact(out)?;
        self.stats.bytes_read += self.page_size as u64;
        Ok(())
    }

    /// Evicts one resident page chosen by CLOCK second-chance: the hand skips (and
    /// demotes) referenced pages once, then takes the first unreferenced one.
    /// Returns `false` when nothing is resident.
    fn evict_one(&mut self) -> bool {
        // Each ring entry is inspected at most twice (demote, then take), so the
        // loop is bounded even when every page starts referenced.
        for _ in 0..2 * self.clock.len() {
            let Some(index) = self.clock.pop_front() else {
                return false;
            };
            let frame = self.frames[index as usize]
                .as_mut()
                .expect("clock ring holds only resident pages");
            if frame.referenced {
                frame.referenced = false;
                self.clock.push_back(index);
                continue;
            }
            self.frames[index as usize] = None;
            self.resident -= 1;
            self.stats.evictions += 1;
            return true;
        }
        !self.clock.is_empty() && {
            // Unreachable in practice (two passes always find a victim), but keep
            // the loop bound honest: take the hand's page unconditionally.
            let index = self.clock.pop_front().expect("checked non-empty");
            self.frames[index as usize] = None;
            self.resident -= 1;
            self.stats.evictions += 1;
            true
        }
    }

    /// Installs a verified page image, evicting to budget first.
    fn admit(&mut self, index: u32, bytes: Box<[u8]>) {
        if let Some(limit) = self.budget {
            while self.resident >= limit && self.evict_one() {}
        }
        let slot = &mut self.frames[index as usize];
        debug_assert!(slot.is_none(), "admitting an already-resident page");
        *slot = Some(Frame {
            bytes,
            referenced: true,
        });
        self.resident += 1;
        self.ever_resident[index as usize] = true;
        self.clock.push_back(index);
    }

    /// Offers the cache an already-validated page image (a checkpoint keeps the
    /// pages it just wrote warm instead of re-reading them from disk).  The frame
    /// is moved in, never copied, and the buffer the cache does not keep comes back
    /// for reuse: the offered one when declined, the superseded image when the page
    /// was already resident.
    ///
    /// Out-of-range indices and wrong-length images are hard errors — a caller that
    /// trips either has corrupted its geometry bookkeeping.  Admission is a policy
    /// decision, not an error: pages enter only while there is room under the
    /// budget — warming the cache never evicts demand-faulted pages.
    pub fn preload(&mut self, index: u32, bytes: Box<[u8]>) -> PersistResult<Option<Box<[u8]>>> {
        self.check_range(index)?;
        if bytes.len() != self.page_size {
            return Err(corrupt(format!(
                "preload of page {index} with {} bytes, page size is {}",
                bytes.len(),
                self.page_size
            )));
        }
        if let Some(frame) = self.frames[index as usize].as_mut() {
            return Ok(Some(std::mem::replace(&mut frame.bytes, bytes)));
        }
        if let Some(limit) = self.budget {
            if self.resident >= limit {
                return Ok(Some(bytes));
            }
        }
        self.admit(index, bytes);
        Ok(None)
    }

    /// Hands every resident frame to the caller, indexed by page, and leaves the
    /// cache empty — still valid: a later read faults from the file again.  The
    /// checkpoint encoder takes the previous generation's frames this way, so their
    /// buffers move on into the next generation instead of being duplicated.
    pub fn take_frames(&mut self) -> Vec<Option<Box<[u8]>>> {
        self.clock.clear();
        self.resident = 0;
        self.frames
            .iter_mut()
            .map(|slot| slot.take().map(|frame| frame.bytes))
            .collect()
    }

    /// Reads page `index`, demand-faulting it from the file on a miss and verifying
    /// the image against `expected_crc` before it enters the cache.  Every fault is
    /// verified — including re-faults of pages evicted earlier.
    pub fn read_page(&mut self, index: u32, expected_crc: u32) -> PersistResult<&[u8]> {
        self.check_range(index)?;
        if self.frames[index as usize].is_some() {
            self.stats.hits += 1;
        } else {
            let mut buf = vec![0u8; self.page_size].into_boxed_slice();
            self.read_from_file(index, &mut buf)?;
            if crc32(&buf) != expected_crc {
                return Err(corrupt(format!("checksum mismatch on heap page {index}")));
            }
            self.stats.loads += 1;
            if self.ever_resident[index as usize] {
                self.stats.refaults += 1;
            }
            self.admit(index, buf);
        }
        let frame = self.frames[index as usize]
            .as_mut()
            .expect("page resident after fault");
        frame.referenced = true;
        Ok(&frame.bytes)
    }

    /// Copies page `index` into `out` without admitting it: cache hits are served
    /// from memory, misses stream from the file (CRC-verified) and leave the
    /// resident set untouched.  This is how a checkpoint reads the previous
    /// generation — writing the next must not fault the whole store resident.
    pub fn read_page_into(
        &mut self,
        index: u32,
        expected_crc: u32,
        out: &mut [u8],
    ) -> PersistResult<()> {
        self.check_range(index)?;
        if out.len() != self.page_size {
            return Err(corrupt(format!(
                "streaming read of page {index} into {} bytes, page size is {}",
                out.len(),
                self.page_size
            )));
        }
        if let Some(frame) = self.frames[index as usize].as_mut() {
            frame.referenced = true;
            self.stats.hits += 1;
            out.copy_from_slice(&frame.bytes);
            return Ok(());
        }
        self.read_from_file(index, out)?;
        if crc32(out) != expected_crc {
            return Err(corrupt(format!("checksum mismatch on heap page {index}")));
        }
        self.stats.streamed += 1;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tempdir::TempDir;
    use std::io::Write;

    fn setup(pages: &[[u8; 8]]) -> (TempDir, File, Vec<u32>) {
        let dir = TempDir::new("pager");
        let path = dir.path().join("paged.bin");
        let mut file = File::create(&path).unwrap();
        file.write_all(b"HDR!").unwrap(); // 4-byte prefix before page 0
        let mut crcs = Vec::new();
        for page in pages {
            file.write_all(page).unwrap();
            crcs.push(crc32(page));
        }
        drop(file);
        (dir, File::open(&path).unwrap(), crcs)
    }

    #[test]
    fn loads_once_then_hits() {
        let pages = [[1u8; 8], [2u8; 8], [3u8; 8]];
        let (_dir, file, crcs) = setup(&pages);
        let mut cache = PageCache::new(file, 4, 8, 3);
        for round in 0..2 {
            for (i, page) in pages.iter().enumerate() {
                assert_eq!(cache.read_page(i as u32, crcs[i]).unwrap(), page);
            }
            let stats = cache.stats();
            assert_eq!(stats.loads, 3);
            assert_eq!(stats.hits, round * 3);
            assert_eq!(stats.bytes_read, 24);
            assert_eq!(stats.evictions, 0);
        }
        assert_eq!(cache.resident_pages(), 3);
    }

    #[test]
    fn crc_mismatch_and_out_of_range_are_rejected() {
        let pages = [[9u8; 8]];
        let (_dir, file, crcs) = setup(&pages);
        let mut cache = PageCache::new(file, 4, 8, 1);
        assert!(cache.read_page(0, crcs[0] ^ 1).is_err());
        assert!(cache.read_page(1, 0).is_err());
    }

    #[test]
    fn budget_evicts_and_refaults_verify_crc() {
        let pages = [[1u8; 8], [2u8; 8], [3u8; 8]];
        let (_dir, file, crcs) = setup(&pages);
        let mut cache = PageCache::new(file, 4, 8, 3);
        cache.set_budget(Some(1));
        for (i, page) in pages.iter().enumerate() {
            assert_eq!(cache.read_page(i as u32, crcs[i]).unwrap(), page);
        }
        assert_eq!(cache.resident_pages(), 1);
        assert_eq!(cache.stats().evictions, 2);
        // Page 0 was evicted; reading it again is a verified re-fault.
        assert_eq!(cache.read_page(0, crcs[0]).unwrap(), &pages[0]);
        let stats = cache.stats();
        assert_eq!(stats.loads, 4);
        assert_eq!(stats.refaults, 1);
        // A wrong CRC on a re-fault is caught, not served stale.
        assert!(cache.read_page(1, crcs[1] ^ 1).is_err());
    }

    #[test]
    fn clock_gives_referenced_pages_a_second_chance() {
        let pages = [[1u8; 8], [2u8; 8], [3u8; 8], [4u8; 8]];
        let (_dir, file, crcs) = setup(&pages);
        let mut cache = PageCache::new(file, 4, 8, 4);
        cache.set_budget(Some(3));
        for i in 0..3 {
            cache.read_page(i, crcs[i as usize]).unwrap();
        }
        // Admitting page 3 demotes everyone and evicts page 0; pages 1 and 2 are now
        // resident with cleared reference bits.
        cache.read_page(3, crcs[3]).unwrap();
        assert_eq!(cache.stats().evictions, 1);
        // Touch page 1: its reference bit protects it from the next pass, so
        // re-admitting page 0 must skip page 1 and evict page 2 instead.
        cache.read_page(1, crcs[1]).unwrap();
        cache.read_page(0, crcs[0]).unwrap();
        assert!(cache.frames[1].is_some(), "recently-used page survived");
        assert!(cache.frames[2].is_none(), "cold page took the eviction");
        assert_eq!(cache.stats().evictions, 2);
    }

    #[test]
    fn preload_misuse_is_a_hard_error_and_never_evicts() {
        let pages = [[1u8; 8], [2u8; 8]];
        let (_dir, file, crcs) = setup(&pages);
        let mut cache = PageCache::new(file, 4, 8, 2);
        assert!(
            cache.preload(2, Box::new([0u8; 8])).is_err(),
            "out of range"
        );
        assert!(
            cache.preload(0, Box::new([0u8; 4])).is_err(),
            "wrong length"
        );
        cache.set_budget(Some(1));
        cache.read_page(0, crcs[0]).unwrap();
        // At budget: a preload is declined (and handed back) rather than
        // evicting a demand-faulted page.
        let declined = cache.preload(1, Box::new(pages[1])).unwrap();
        assert_eq!(declined.as_deref(), Some(&pages[1][..]));
        assert!(cache.frames[0].is_some());
        assert!(cache.frames[1].is_none());
        assert_eq!(cache.stats().evictions, 0);
    }

    #[test]
    fn frames_move_from_one_generation_to_the_next_before_its_file_exists() {
        let pages = [[1u8; 8], [2u8; 8], [3u8; 8]];
        let (dir, file, crcs) = setup(&pages);
        let mut old = PageCache::new(file, 4, 8, 3);
        old.read_page(0, crcs[0]).unwrap();
        old.read_page(2, crcs[2]).unwrap();
        let mut carried = old.take_frames();
        assert_eq!(old.resident_pages(), 0);
        assert_eq!(carried.iter().filter(|f| f.is_some()).count(), 2);
        // The emptied cache still serves reads, as re-faults.
        assert_eq!(old.read_page(0, crcs[0]).unwrap(), &pages[0]);
        assert_eq!(old.stats().refaults, 1);

        let mut next = PageCache::unwritten(8, 3);
        next.set_budget(Some(2));
        for (index, frame) in carried.iter_mut().enumerate() {
            if let Some(frame) = frame.take() {
                assert!(next.preload(index as u32, frame).unwrap().is_none());
            }
        }
        assert_eq!(next.resident_pages(), 2);
        assert_eq!(next.read_page(2, crcs[2]).unwrap(), &pages[2]);
        // A miss has nowhere to go until the file is attached.
        assert!(next.read_page(1, crcs[1]).is_err());
        next.attach(File::open(dir.path().join("paged.bin")).unwrap(), 4);
        assert_eq!(next.read_page(1, crcs[1]).unwrap(), &pages[1]);
        assert_eq!(next.stats().loads, 1);
        assert_eq!(next.stats().hits, 1);
    }

    #[test]
    fn streaming_reads_bypass_admission() {
        let pages = [[1u8; 8], [2u8; 8]];
        let (_dir, file, crcs) = setup(&pages);
        let mut cache = PageCache::new(file, 4, 8, 2);
        let mut out = [0u8; 8];
        cache.read_page_into(0, crcs[0], &mut out).unwrap();
        assert_eq!(out, pages[0]);
        assert_eq!(cache.resident_pages(), 0, "streamed page not admitted");
        assert_eq!(cache.stats().streamed, 1);
        // A cached page serves the streaming read from memory.
        cache.read_page(1, crcs[1]).unwrap();
        cache.read_page_into(1, crcs[1], &mut out).unwrap();
        assert_eq!(out, pages[1]);
        assert_eq!(cache.stats().hits, 1);
        assert!(cache.read_page_into(0, crcs[0] ^ 1, &mut out).is_err());
    }
}
