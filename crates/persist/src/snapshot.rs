//! The snapshot container: a versioned, sectioned, checksummed file written
//! atomically per generation.
//!
//! A snapshot is the durable image of one engine at one instant — engine metadata,
//! the Social Store's graph, and the PageRank Store's walk data live in separate
//! **sections** so each can evolve (and be validated) independently:
//!
//! ```text
//! file    := magic "PPRSNAP1" | version u32 | section_count u32 | section*
//! section := tag u32 | payload_len u64 | payload_crc u32 | payload
//! ```
//!
//! Snapshots are **immutable** and **streamed**: [`SnapshotWriter`] works over any
//! `Write + Seek` sink, a section's bytes go to the sink as its encoder produces
//! them, and the section head (length, CRC) written as a placeholder when the
//! section began is patched when it ends — no section is ever assembled in memory.
//! The payload CRC is derived with [`crc32_concat`] from the CRCs of the pieces
//! written, so an encoder that already knows a piece's CRC (a heap page and its
//! page-table entry) hands it over with [`SnapshotWriter::write_checksummed`] and
//! the piece is not checksummed again.  An encoder may also [`defer`] a short run
//! it can only decide after later bytes (the walks header holds a CRC of what
//! follows it) and [`fill`] it in before the section ends.
//!
//! On disk the sink is an [`AtomicFile`]: a temp sibling that [`AtomicFile::publish`]
//! fsyncs and renames into place (then fsyncs the directory), and that removes
//! itself when dropped unpublished — so a crash or an I/O error mid-checkpoint can
//! never produce a torn snapshot or leave debris; the previous generation simply
//! remains current.  Any flipped byte is caught either by a section checksum or by
//! the walks section's own page-level checksums ([`crate::layout`]); a snapshot that
//! fails validation is treated as absent and recovery falls back to the previous
//! generation.
//!
//! [`defer`]: SnapshotWriter::defer
//! [`fill`]: SnapshotWriter::fill

use crate::crc::{crc32, crc32_concat};
use crate::io::{corrupt, format_err, PersistResult};
use std::fs::File;
use std::io::{BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

const MAGIC: &[u8; 8] = b"PPRSNAP1";
/// Oldest container version this build can still read.
/// History: 1 = the first layout; 2 = a `compaction_threshold` f64 added to META;
/// 3 = the walks section stores no postings (the visit index is counted at open);
/// 4 = the walks heap is packed (paths back to back under one length per slot) and
/// META drops its four retired settings.
pub const MIN_VERSION: u32 = 4;
/// Container format version written by this build.  Bump whenever any section's
/// byte layout changes; versions outside `MIN_VERSION..=VERSION` fail with a clean
/// `Format` error instead of being misdiagnosed as bit rot by the decoders.
pub const VERSION: u32 = 4;

/// Section tag: engine metadata (config, RNG state, counters).
pub const SECTION_META: u32 = 1;
/// Section tag: the Social Store's graph (both adjacency directions, exact order).
pub const SECTION_GRAPH: u32 = 2;
/// Section tag: the PageRank Store's walk data (slot directory + paged heap).
pub const SECTION_WALKS: u32 = 3;

/// The shard count the graph section and the walks header carry.  Both fields date
/// from a layout that could split a store across shards; this build writes 1 and
/// refuses any other value ([`check_shard_count`]).
pub(crate) const SHARD_COUNT: u32 = 1;

/// Refuses a section written for a store split across shards: a typed `Format`
/// error, since the bytes are intact but describe a layout this build cannot load.
pub(crate) fn check_shard_count(claimed: u32, section: &str) -> PersistResult<()> {
    if claimed == SHARD_COUNT {
        Ok(())
    } else {
        Err(format_err(format!(
            "{section} claims {claimed} shards; this build reads only unsharded stores"
        )))
    }
}

/// Byte offset of `section_count` in the file header.
const COUNT_AT: u64 = 12;
const FILE_HEADER_LEN: u64 = 16;
const SECTION_HEAD_LEN: u64 = 16;

/// A file that appears at its destination complete or not at all: bytes go to a
/// `.tmp` sibling, [`AtomicFile::publish`] makes them durable and renames them into
/// place, and dropping the file unpublished — an encoder failed, the disk filled —
/// removes the sibling.
#[derive(Debug)]
pub struct AtomicFile {
    file: BufWriter<File>,
    tmp: PathBuf,
    dest: PathBuf,
    published: bool,
}

impl AtomicFile {
    /// Creates (truncating) the temp sibling of `dest`.
    pub fn create(dest: &Path) -> PersistResult<Self> {
        let tmp = dest.with_extension("tmp");
        let file = File::create(&tmp)?;
        Ok(AtomicFile {
            // Heap pages arrive 4 KiB at a time; batch them into larger writes.
            file: BufWriter::with_capacity(256 * 1024, file),
            tmp,
            dest: dest.to_path_buf(),
            published: false,
        })
    }

    /// Flushes and fsyncs the bytes, renames them to the destination and fsyncs the
    /// parent directory.  On any error the temp sibling is removed.
    pub fn publish(mut self) -> PersistResult<()> {
        let bytes = self.file.stream_position()?;
        crate::shim::notify(crate::shim::IoOp::SnapshotWrite, bytes as usize);
        self.file.flush()?;
        self.file.get_ref().sync_all()?;
        std::fs::rename(&self.tmp, &self.dest)?;
        self.published = true;
        if let Some(parent) = self.dest.parent() {
            // Make the rename itself durable.  Directory fsync is best-effort on
            // platforms where directories cannot be opened for sync.
            if let Ok(dir) = File::open(parent) {
                let _ = dir.sync_all();
            }
        }
        Ok(())
    }
}

impl Drop for AtomicFile {
    fn drop(&mut self) {
        if !self.published {
            let _ = std::fs::remove_file(&self.tmp);
        }
    }
}

impl Write for AtomicFile {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.file.write(buf)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.file.flush()
    }
}

impl Seek for AtomicFile {
    fn seek(&mut self, pos: SeekFrom) -> std::io::Result<u64> {
        self.file.seek(pos)
    }
}

/// A run of section bytes written as a placeholder by [`SnapshotWriter::defer`].
#[derive(Debug)]
#[must_use = "a deferred run must be filled before its section ends"]
pub struct Deferred {
    part: usize,
    at: u64,
    len: usize,
}

/// A consecutive run of a section's payload: its length and, once known, its CRC.
#[derive(Debug)]
struct Part {
    len: u64,
    crc: Option<u32>,
}

#[derive(Debug)]
struct OpenSection {
    head_at: u64,
    parts: Vec<Part>,
}

/// Streams one snapshot file into a `Write + Seek` sink, section by section.
#[derive(Debug)]
pub struct SnapshotWriter<S: Write + Seek> {
    sink: S,
    /// Where sequential writes continue (patches seek away and back).
    pos: u64,
    /// Tags of the sections begun so far.
    tags: Vec<u32>,
    open: Option<OpenSection>,
}

impl<S: Write + Seek> SnapshotWriter<S> {
    /// Starts a snapshot at the sink's current position (which must be its start:
    /// section offsets are absolute).
    pub fn new(mut sink: S) -> PersistResult<Self> {
        sink.write_all(MAGIC)?;
        sink.write_all(&VERSION.to_le_bytes())?;
        sink.write_all(&0u32.to_le_bytes())?;
        Ok(SnapshotWriter {
            sink,
            pos: FILE_HEADER_LEN,
            tags: Vec::new(),
            open: None,
        })
    }

    /// Absolute position the next payload byte will be written at.
    pub fn position(&self) -> u64 {
        self.pos
    }

    /// Begins the section tagged `tag`.  Sections appear in the file in the order
    /// they are begun; tags must be unique within a file.
    pub fn begin_section(&mut self, tag: u32) -> PersistResult<()> {
        assert!(self.open.is_none(), "the previous section was not ended");
        debug_assert!(!self.tags.contains(&tag), "duplicate section tag {tag}");
        self.tags.push(tag);
        let mut head = [0u8; SECTION_HEAD_LEN as usize];
        head[..4].copy_from_slice(&tag.to_le_bytes());
        self.sink.write_all(&head)?;
        self.open = Some(OpenSection {
            head_at: self.pos,
            parts: Vec::new(),
        });
        self.pos += SECTION_HEAD_LEN;
        Ok(())
    }

    fn push_part(&mut self, len: u64, crc: Option<u32>) -> usize {
        let parts = &mut self.open.as_mut().expect("no section is open").parts;
        match (parts.last_mut(), crc) {
            (
                Some(Part {
                    len: run,
                    crc: Some(front),
                }),
                Some(back),
            ) => {
                *front = crc32_concat(*front, back, len);
                *run += len;
            }
            _ => parts.push(Part { len, crc }),
        }
        self.pos += len;
        parts.len() - 1
    }

    /// Appends `bytes` to the open section.
    pub fn write(&mut self, bytes: &[u8]) -> PersistResult<()> {
        self.write_checksummed(bytes, crc32(bytes))
    }

    /// Appends `bytes`, whose CRC-32 the caller already holds, to the open section
    /// without checksumming them again.
    pub fn write_checksummed(&mut self, bytes: &[u8], crc: u32) -> PersistResult<()> {
        self.sink.write_all(bytes)?;
        self.push_part(bytes.len() as u64, Some(crc));
        Ok(())
    }

    /// Appends `len` placeholder bytes to the open section, to be replaced through
    /// [`SnapshotWriter::fill`] once later bytes have decided them.
    pub fn defer(&mut self, len: usize) -> PersistResult<Deferred> {
        let at = self.pos;
        self.sink.write_all(&vec![0u8; len])?;
        let part = self.push_part(len as u64, None);
        Ok(Deferred { part, at, len })
    }

    /// Replaces a deferred run with its final `bytes`; returns their CRC-32.
    pub fn fill(&mut self, slot: Deferred, bytes: &[u8]) -> PersistResult<u32> {
        assert_eq!(bytes.len(), slot.len, "a deferred run keeps its length");
        self.patch(slot.at, bytes)?;
        let crc = crc32(bytes);
        let open = self.open.as_mut().expect("no section is open");
        open.parts[slot.part].crc = Some(crc);
        Ok(crc)
    }

    fn patch(&mut self, at: u64, bytes: &[u8]) -> PersistResult<()> {
        self.sink.seek(SeekFrom::Start(at))?;
        self.sink.write_all(bytes)?;
        self.sink.seek(SeekFrom::Start(self.pos))?;
        Ok(())
    }

    /// Ends the open section: its head now holds the payload's length and CRC.
    pub fn end_section(&mut self) -> PersistResult<()> {
        let open = self.open.take().expect("no section is open");
        let (mut len, mut crc) = (0u64, 0u32);
        for part in &open.parts {
            let part_crc = part.crc.expect("a deferred run was never filled");
            crc = crc32_concat(crc, part_crc, part.len);
            len += part.len;
        }
        let mut tail = [0u8; 12];
        tail[..8].copy_from_slice(&len.to_le_bytes());
        tail[8..].copy_from_slice(&crc.to_le_bytes());
        self.patch(open.head_at + 4, &tail)
    }

    /// Completes the file (the header learns the section count) and returns the
    /// flushed sink.
    pub fn finish(mut self) -> PersistResult<S> {
        assert!(self.open.is_none(), "the last section was not ended");
        let count = (self.tags.len() as u32).to_le_bytes();
        self.patch(COUNT_AT, &count)?;
        self.sink.flush()?;
        Ok(self.sink)
    }
}

/// One section's location within an open snapshot file.
#[derive(Debug, Clone, Copy)]
pub struct SectionInfo {
    /// The section's tag.
    pub tag: u32,
    /// Byte offset of the payload within the file.
    pub offset: u64,
    /// Payload length in bytes.
    pub len: u64,
    /// CRC-32 of the payload.
    pub crc: u32,
}

/// An open snapshot file: header validated, section table scanned, payloads read on
/// demand.
#[derive(Debug)]
pub struct SnapshotFile {
    file: File,
    sections: Vec<SectionInfo>,
}

impl SnapshotFile {
    /// Opens `path`, validating the header and scanning the section table (payload
    /// bytes are not read yet).
    pub fn open(path: &Path) -> PersistResult<Self> {
        let mut file = File::open(path)?;
        let file_len = file.metadata()?.len();
        let mut header = [0u8; 16];
        file.read_exact(&mut header)
            .map_err(|_| corrupt("snapshot shorter than its header"))?;
        if &header[..8] != MAGIC {
            return Err(corrupt("bad snapshot magic"));
        }
        let version = u32::from_le_bytes(header[8..12].try_into().unwrap());
        if !(MIN_VERSION..=VERSION).contains(&version) {
            return Err(format_err(format!(
                "snapshot version {version}, this build reads {MIN_VERSION}..={VERSION}"
            )));
        }
        let count = u32::from_le_bytes(header[12..16].try_into().unwrap());
        let mut sections = Vec::with_capacity(count as usize);
        let mut pos = 16u64;
        for _ in 0..count {
            // All section-table arithmetic is checked: a corrupt length near
            // u64::MAX must fail as Corrupt, never wrap past the bounds checks.
            if pos.checked_add(16).is_none_or(|end| end > file_len) {
                return Err(corrupt("snapshot section table truncated"));
            }
            file.seek(SeekFrom::Start(pos))?;
            let mut head = [0u8; 16];
            file.read_exact(&mut head)?;
            let tag = u32::from_le_bytes(head[0..4].try_into().unwrap());
            let len = u64::from_le_bytes(head[4..12].try_into().unwrap());
            let crc = u32::from_le_bytes(head[12..16].try_into().unwrap());
            let offset = pos + 16;
            if offset.checked_add(len).is_none_or(|end| end > file_len) {
                return Err(corrupt(format!(
                    "section {tag} claims {len} bytes past the end of the file"
                )));
            }
            sections.push(SectionInfo {
                tag,
                offset,
                len,
                crc,
            });
            pos = offset + len;
        }
        if pos != file_len {
            return Err(corrupt(format!(
                "{} trailing bytes after the last section",
                file_len - pos
            )));
        }
        Ok(SnapshotFile { file, sections })
    }

    /// Locations of every section, in file order.
    pub fn sections(&self) -> &[SectionInfo] {
        &self.sections
    }

    /// The location of the section tagged `tag`.
    pub fn section(&self, tag: u32) -> PersistResult<SectionInfo> {
        self.sections
            .iter()
            .copied()
            .find(|s| s.tag == tag)
            .ok_or_else(|| corrupt(format!("snapshot has no section with tag {tag}")))
    }

    /// Reads and checksum-validates the payload of the section tagged `tag`.
    pub fn read_section(&mut self, tag: u32) -> PersistResult<Vec<u8>> {
        let info = self.section(tag)?;
        let len = usize::try_from(info.len)
            .map_err(|_| corrupt(format!("section {tag} too large for this platform")))?;
        let mut payload = vec![0u8; len];
        self.file.seek(SeekFrom::Start(info.offset))?;
        self.file.read_exact(&mut payload)?;
        if crc32(&payload) != info.crc {
            return Err(corrupt(format!("checksum mismatch in section {tag}")));
        }
        Ok(payload)
    }

    /// Takes the underlying file handle (for paged section access); consumes the
    /// snapshot handle.
    pub fn into_file(self) -> File {
        self.file
    }

    /// Verifies every section's payload checksum by streaming the file through a
    /// fixed 64 KiB buffer — the full-file validation used when deciding whether a
    /// generation is loadable at all.  Streaming matters now that stores are
    /// larger than RAM by design: validation must never materialize a section the
    /// page cache exists to avoid holding.
    pub fn verify_all(path: &Path) -> PersistResult<()> {
        let mut snap = SnapshotFile::open(path)?;
        let mut buf = vec![0u8; 64 * 1024];
        for info in snap.sections.clone() {
            snap.file.seek(SeekFrom::Start(info.offset))?;
            let mut hasher = crate::crc::Crc32::new();
            let mut remaining = info.len;
            while remaining > 0 {
                let chunk = buf.len().min(remaining as usize);
                snap.file.read_exact(&mut buf[..chunk])?;
                hasher.update(&buf[..chunk]);
                remaining -= chunk as u64;
            }
            if hasher.finish() != info.crc {
                return Err(corrupt(format!(
                    "checksum mismatch in section {}",
                    info.tag
                )));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::tempdir::TempDir;
    use std::io::Cursor;

    /// The whole-file assembly the streaming writer replaced, kept as its byte
    /// reference: every payload in memory, checksummed in one piece.
    pub(crate) fn reference_file(sections: &[(u32, Vec<u8>)]) -> Vec<u8> {
        let mut file = Vec::new();
        file.extend_from_slice(MAGIC);
        file.extend_from_slice(&VERSION.to_le_bytes());
        file.extend_from_slice(&(sections.len() as u32).to_le_bytes());
        for (tag, payload) in sections {
            file.extend_from_slice(&tag.to_le_bytes());
            file.extend_from_slice(&(payload.len() as u64).to_le_bytes());
            file.extend_from_slice(&crc32(payload).to_le_bytes());
            file.extend_from_slice(payload);
        }
        file
    }

    /// A sink that accepts `budget` bytes and then fails every write.
    pub(crate) struct FailAfter<S> {
        pub inner: S,
        pub budget: u64,
    }

    impl<S: Write> Write for FailAfter<S> {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            if self.budget == 0 && !buf.is_empty() {
                return Err(std::io::Error::other("no space left on the test device"));
            }
            let take = buf.len().min(self.budget as usize);
            let written = self.inner.write(&buf[..take])?;
            self.budget -= written as u64;
            Ok(written)
        }

        fn flush(&mut self) -> std::io::Result<()> {
            self.inner.flush()
        }
    }

    impl<S: Seek> Seek for FailAfter<S> {
        fn seek(&mut self, pos: SeekFrom) -> std::io::Result<u64> {
            self.inner.seek(pos)
        }
    }

    fn sample_sections() -> Vec<(u32, Vec<u8>)> {
        vec![
            (SECTION_META, b"meta-bytes".to_vec()),
            (SECTION_GRAPH, vec![7u8; 1000]),
            (SECTION_WALKS, b"".to_vec()),
        ]
    }

    fn stream_sample<S: Write + Seek>(sink: S) -> PersistResult<S> {
        let mut w = SnapshotWriter::new(sink)?;
        for (tag, payload) in sample_sections() {
            w.begin_section(tag)?;
            // In pieces, so the section CRC has to be glued from theirs.
            for piece in payload.chunks(300) {
                w.write(piece)?;
            }
            w.end_section()?;
        }
        w.finish()
    }

    fn write_sample(path: &Path) {
        stream_sample(AtomicFile::create(path).unwrap())
            .unwrap()
            .publish()
            .unwrap();
    }

    #[test]
    fn streamed_files_equal_the_assembled_reference() {
        let streamed = stream_sample(Cursor::new(Vec::new())).unwrap().into_inner();
        assert_eq!(streamed, reference_file(&sample_sections()));
    }

    #[test]
    fn deferred_runs_are_patched_and_checksummed_in_place() {
        let payload: Vec<u8> = (0..=255u8).cycle().take(5_000).collect();
        let mut w = SnapshotWriter::new(Cursor::new(Vec::new())).unwrap();
        w.begin_section(SECTION_WALKS).unwrap();
        let head = w.defer(40).unwrap();
        w.write(&payload[40..1_000]).unwrap();
        let table = w.defer(24).unwrap();
        assert_eq!(w.position(), 16 + 16 + 1_024);
        w.write_checksummed(&payload[1_024..], crc32(&payload[1_024..]))
            .unwrap();
        w.fill(table, &payload[1_000..1_024]).unwrap();
        w.fill(head, &payload[..40]).unwrap();
        w.end_section().unwrap();
        let streamed = w.finish().unwrap().into_inner();
        assert_eq!(streamed, reference_file(&[(SECTION_WALKS, payload)]));
    }

    #[test]
    fn a_failing_sink_leaves_no_temp_file_behind() {
        let dir = TempDir::new("snap-enospc");
        let path = dir.path().join("snap-000001.ppr");
        let full = reference_file(&sample_sections()).len() as u64;
        // Every budget short of the file plus its patched heads fails somewhere
        // else: in a payload, in a head, in a patch.
        let mut budget = 0;
        let sink = loop {
            let sink = FailAfter {
                inner: AtomicFile::create(&path).unwrap(),
                budget,
            };
            match stream_sample(sink) {
                Ok(sink) => break sink,
                Err(crate::io::PersistError::Io(_)) => {}
                Err(other) => panic!("budget {budget}: unexpected error {other}"),
            }
            assert_eq!(
                std::fs::read_dir(dir.path()).unwrap().count(),
                0,
                "budget {budget} left debris"
            );
            budget += 1;
        };
        assert!(
            budget > full,
            "the patches are written through the sink too"
        );
        // With room for every byte the same code publishes the file.
        sink.inner.publish().unwrap();
        assert_eq!(
            std::fs::read(&path).unwrap(),
            reference_file(&sample_sections())
        );
        assert!(!path.with_extension("tmp").exists());
    }

    #[test]
    fn sections_round_trip() {
        let dir = TempDir::new("snap-roundtrip");
        let path = dir.path().join("snap-000000.ppr");
        write_sample(&path);
        assert!(!path.with_extension("tmp").exists(), "tmp must be renamed");

        let mut snap = SnapshotFile::open(&path).unwrap();
        assert_eq!(snap.sections().len(), 3);
        assert_eq!(snap.read_section(SECTION_META).unwrap(), b"meta-bytes");
        assert_eq!(snap.read_section(SECTION_GRAPH).unwrap(), vec![7u8; 1000]);
        assert!(snap.read_section(SECTION_WALKS).unwrap().is_empty());
        assert!(snap.read_section(99).is_err());
        SnapshotFile::verify_all(&path).unwrap();
    }

    #[test]
    fn every_flipped_byte_is_rejected_by_verify_all() {
        let dir = TempDir::new("snap-flip");
        let path = dir.path().join("snap.ppr");
        write_sample(&path);
        let clean = std::fs::read(&path).unwrap();
        // Flipping a byte at a sample of positions across header, section table, and
        // payloads must always fail validation (never silently load).
        for pos in (0..clean.len()).step_by(13).chain([clean.len() - 1]) {
            let mut bad = clean.clone();
            bad[pos] ^= 0x40;
            std::fs::write(&path, &bad).unwrap();
            assert!(
                SnapshotFile::verify_all(&path).is_err(),
                "flip at byte {pos} went undetected"
            );
        }
        std::fs::write(&path, &clean).unwrap();
        SnapshotFile::verify_all(&path).unwrap();
    }

    #[test]
    fn truncated_files_are_rejected() {
        let dir = TempDir::new("snap-trunc");
        let path = dir.path().join("snap.ppr");
        write_sample(&path);
        let clean = std::fs::read(&path).unwrap();
        for keep in [0usize, 5, 16, clean.len() - 1] {
            std::fs::write(&path, &clean[..keep]).unwrap();
            assert!(SnapshotFile::open(&path).is_err(), "kept {keep} bytes");
        }
    }
}
