//! The write-ahead log: an append-only file of CRC-framed batch records, each holding
//! a batch's edges **and its effects**.
//!
//! A record carries the `&[Edge]` batch an engine's `apply_arrivals` /
//! `apply_deletions` call consumed, a monotone sequence number, and what the batch
//! did to the engine ([`WalEffects`]):
//!
//! * the segments drawn for the nodes the batch created (its *growth*);
//! * the reconciled rewrite plan the walk store installed, each rewrite a whole new
//!   path;
//! * the engine cursors after the batch ([`WalCursors`]): construction-RNG state,
//!   batch index, and the work-counter and `initialization_steps` the batch added.
//!
//! The node count after the batch is not logged: it is the count before plus the
//! growth plan's length over the segments each node owns.
//!
//! Recovery therefore never re-runs a reroute: it applies the edges to the graph
//! and installs the logged paths, drawing no random number and reading no postings
//! list.  A tail written by one build replays to the same store under any other,
//! whatever its sampler.  [`WalWriter::append`] still writes an *edges-only* record
//! (no effects) for logs with no engine behind them; an engine never replays one.
//!
//! # Framing and durability
//!
//! ```text
//! file    := header record*
//! header  := magic "PPRWAL01" | version u32 (= 2) | crc u32 (over magic+version)
//! record  := body_len u32 | body_crc u32 | body
//! body    := seq u64 | kind u8 (1 = arrivals, 2 = deletions) | count v
//!            | (source v, target v)*count | effects?
//! effects := rng u64*4 | batch_index v
//!            | segments_updated v | walk_steps v | edges_processed v
//!            | arrivals_filtered v | initialization_steps v
//!            | plan (growth) | plan (rewrites)
//! plan    := entries v | (segment-delta v | len v | node v*len)*entries
//! v       := LEB128 varint: 7 bits a byte, low first, high bit = more
//! ```
//!
//! The work and `initialization_steps` fields are the batch's deltas; every other
//! cursor is its value after the batch.  A segment-delta is the wrapping
//! difference from the previous entry's segment id (from 0 for the first), so a
//! plan in segment-id order spends a byte or two per id.  Varints keep a record
//! near 3× smaller than 32-bit fields would: walks crowd onto the small ids of
//! the oldest nodes.  Version 1 logs (edges only, replayed by
//! re-running every batch) are refused with a typed [`PersistError::Format`]
//! error: checkpoint with the build that wrote them before upgrading.
//!
//! One contract holds for every append: **write, sync, install**.  An append writes
//! the full frame and returns only once an `fdatasync` has made it durable, and an
//! engine installs a batch's rewrites only after that ([`WalWriter::append_batch`]
//! returns) — so the walk store never holds a batch its log does not, and a batch
//! acknowledged by the engine survives power loss.
//!
//! A crash mid-append leaves a **torn tail**: a partial frame, or a frame whose CRC
//! does not match.  [`read_records`] stops at the first invalid frame and reports the
//! byte offset of the last valid one, and [`WalWriter::open_truncating`] truncates the
//! file there before appending again — recovery keeps every fully synced batch and
//! cleanly drops the one that was mid-write, which is exactly the at-most-one-batch
//! loss window the fsync contract promises.
//!
//! [`PersistError::Format`]: crate::io::PersistError::Format

use crate::crc::crc32;
use crate::io::{corrupt, format_err, ByteReader, ByteWriter, PersistResult};
use ppr_graph::{Edge, NodeId};
use ppr_store::{SegmentId, SegmentRewrites, WorkCounter};
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::Path;
use std::time::Instant;

const MAGIC: &[u8; 8] = b"PPRWAL01";
const VERSION: u32 = 2;
const HEADER_LEN: u64 = 8 + 4 + 4;

/// The kind of edge batch a WAL record logs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WalOp {
    /// A batch for `apply_arrivals`.
    Arrivals,
    /// A batch for `apply_deletions` (a `remove_edge` logs a batch of one).
    Deletions,
}

impl WalOp {
    fn to_byte(self) -> u8 {
        match self {
            WalOp::Arrivals => 1,
            WalOp::Deletions => 2,
        }
    }

    fn from_byte(b: u8) -> PersistResult<Self> {
        match b {
            1 => Ok(WalOp::Arrivals),
            2 => Ok(WalOp::Deletions),
            other => Err(corrupt(format!("unknown WAL record kind {other}"))),
        }
    }
}

/// The engine cursors a batch leaves behind: what recovery sets instead of
/// re-running the batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WalCursors {
    /// The construction stream's state after the batch.
    pub rng: [u64; 4],
    /// The engine's batch index after the batch.
    pub batch_index: u64,
    /// The work the batch added to the engine's counter.
    pub work: WorkCounter,
    /// The construction steps the batch added (its growth segments' steps).
    pub initialization_steps: u64,
}

/// What one batch did to the engine, as a decoded record holds it.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct WalEffects {
    /// The engine cursors after the batch.
    pub cursors: WalCursors,
    /// The segments drawn for the nodes the batch created, in segment-id order.
    pub growth: SegmentRewrites,
    /// The reconciled rewrites the walk store installed, in plan order.
    pub rewrites: SegmentRewrites,
}

impl WalEffects {
    /// Checks every logged segment against the store shape after the batch —
    /// `segments_per_node` segments for each of `nodes` nodes — so a path read off
    /// disk is refused with a typed error before any store sees it: each id is in
    /// range, each path starts at its segment's source, and every visit names a
    /// node the store holds.
    pub fn check_segments(&self, segments_per_node: usize, nodes: usize) -> PersistResult<()> {
        let slots = nodes
            .checked_mul(segments_per_node)
            .ok_or_else(|| corrupt(format!("WAL record for {nodes} nodes")))?;
        for (id, path) in self.growth.iter().chain(self.rewrites.iter()) {
            if id.index() >= slots || path.is_empty() {
                return Err(corrupt(format!(
                    "WAL record logs segment {} ({} visits) of a {slots}-segment store",
                    id.0,
                    path.len()
                )));
            }
            ppr_store::walks::check_path(id, path, segments_per_node, nodes)
                .map_err(|e| corrupt(format!("WAL record: {e}")))?;
        }
        Ok(())
    }
}

/// One engine batch as [`WalWriter::append_batch`] logs it, borrowed from the
/// engine's own buffers.
#[derive(Debug, Clone, Copy)]
pub struct BatchRecord<'a> {
    /// The record's sequence number.
    pub seq: u64,
    /// Whether the batch is arrivals or deletions.
    pub op: WalOp,
    /// The edges of the batch, in the order the engine received them.
    pub edges: &'a [Edge],
    /// The engine cursors after the batch.
    pub cursors: WalCursors,
    /// The segments drawn for the nodes the batch created.
    pub growth: &'a SegmentRewrites,
    /// The reconciled rewrites the walk store installs.
    pub rewrites: &'a SegmentRewrites,
}

/// One durable batch record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalRecord {
    /// Monotone sequence number of the record within the engine's whole history
    /// (snapshots store the next expected value, so replay knows where to resume).
    pub seq: u64,
    /// Whether the batch is arrivals or deletions.
    pub op: WalOp,
    /// The edges of the batch, in the exact order the engine received them.
    pub edges: Vec<Edge>,
    /// What the batch did; `None` for an edges-only record ([`WalWriter::append`]).
    pub effects: Option<WalEffects>,
}

/// Encodes one plan: its entry count, then per entry the segment id (as the
/// wrapping difference from the previous entry's, so a plan in segment-id order
/// spends a byte or two on it), the path length and the path.
fn encode_plan(w: &mut ByteWriter, plan: &SegmentRewrites) {
    w.put_varint(plan.len() as u64);
    let mut previous = 0u32;
    for (id, path) in plan.iter() {
        w.put_varint(u64::from(id.0.wrapping_sub(previous)));
        previous = id.0;
        w.put_varint(path.len() as u64);
        for node in path {
            w.put_varint(u64::from(node.0));
        }
    }
}

/// Decodes one plan, never allocating past what the body still holds: an entry
/// takes at least two bytes and a visit at least one.
fn decode_plan(r: &mut ByteReader<'_>) -> PersistResult<SegmentRewrites> {
    let entries = r.get_varint()?;
    if entries > (r.remaining() / 2) as u64 {
        return Err(corrupt(format!(
            "WAL plan of {entries} entries in {} bytes",
            r.remaining()
        )));
    }
    let mut plan = SegmentRewrites::new();
    let (mut previous, mut path) = (0u32, Vec::new());
    for _ in 0..entries {
        let id = previous.wrapping_add(r.get_varint_u32()?);
        previous = id;
        let len = r.get_varint()?;
        if len > r.remaining() as u64 {
            return Err(corrupt(format!("WAL path of {len} visits")));
        }
        path.clear();
        for _ in 0..len {
            path.push(NodeId(r.get_varint_u32()?));
        }
        plan.push(SegmentId(id), &path);
    }
    Ok(plan)
}

/// Encodes one whole frame — length, CRC and body — into one buffer.
fn encode_frame(
    seq: u64,
    op: WalOp,
    edges: &[Edge],
    effects: Option<(&WalCursors, &SegmentRewrites, &SegmentRewrites)>,
) -> Vec<u8> {
    // Room for the fixed fields plus three bytes a varint, enough for most.
    let plan_bytes = |plan: &SegmentRewrites| {
        3 * plan.len() * 2 + 3 * plan.iter().map(|(_, p)| p.len()).sum::<usize>()
    };
    let effects_len = effects.map_or(0, |(_, growth, rewrites)| {
        96 + plan_bytes(growth) + plan_bytes(rewrites)
    });
    let mut w = ByteWriter::with_capacity(8 + 16 + edges.len() * 6 + effects_len);
    w.put_u32(0); // body_len, patched below
    w.put_u32(0); // body_crc, patched below
    w.put_u64(seq);
    w.put_u8(op.to_byte());
    w.put_varint(edges.len() as u64);
    for edge in edges {
        w.put_varint(u64::from(edge.source.0));
        w.put_varint(u64::from(edge.target.0));
    }
    if let Some((cursors, growth, rewrites)) = effects {
        for word in cursors.rng {
            w.put_u64(word);
        }
        w.put_varint(cursors.batch_index);
        w.put_varint(cursors.work.segments_updated);
        w.put_varint(cursors.work.walk_steps);
        w.put_varint(cursors.work.edges_processed);
        w.put_varint(cursors.work.arrivals_filtered);
        w.put_varint(cursors.initialization_steps);
        encode_plan(&mut w, growth);
        encode_plan(&mut w, rewrites);
    }
    let mut frame = w.into_bytes();
    let body_len = (frame.len() - 8) as u32;
    let body_crc = crc32(&frame[8..]);
    frame[..4].copy_from_slice(&body_len.to_le_bytes());
    frame[4..8].copy_from_slice(&body_crc.to_le_bytes());
    frame
}

impl WalRecord {
    fn decode(body: &[u8]) -> PersistResult<Self> {
        let mut r = ByteReader::new(body);
        let seq = r.get_u64()?;
        let op = WalOp::from_byte(r.get_u8()?)?;
        let count = r.get_varint()?;
        if count > (r.remaining() / 2) as u64 {
            return Err(corrupt(format!(
                "WAL record body holds {} bytes for {count} edges",
                r.remaining()
            )));
        }
        let mut edges = Vec::with_capacity(count as usize);
        for _ in 0..count {
            let source = NodeId(r.get_varint_u32()?);
            let target = NodeId(r.get_varint_u32()?);
            edges.push(Edge { source, target });
        }
        if r.remaining() == 0 {
            return Ok(WalRecord {
                seq,
                op,
                edges,
                effects: None,
            });
        }
        let rng = [r.get_u64()?, r.get_u64()?, r.get_u64()?, r.get_u64()?];
        let batch_index = r.get_varint()?;
        let work = WorkCounter {
            segments_updated: r.get_varint()?,
            walk_steps: r.get_varint()?,
            edges_processed: r.get_varint()?,
            arrivals_filtered: r.get_varint()?,
        };
        let initialization_steps = r.get_varint()?;
        let growth = decode_plan(&mut r)?;
        let rewrites = decode_plan(&mut r)?;
        r.expect_end("WAL record")?;
        Ok(WalRecord {
            seq,
            op,
            edges,
            effects: Some(WalEffects {
                cursors: WalCursors {
                    rng,
                    batch_index,
                    work,
                    initialization_steps,
                },
                growth,
                rewrites,
            }),
        })
    }
}

/// Result of scanning a WAL file.
#[derive(Debug)]
pub struct WalScan {
    /// Every record with a valid frame, in file order.
    pub records: Vec<WalRecord>,
    /// Byte offset just past the last valid frame (the truncation point).
    pub valid_len: u64,
    /// `true` when bytes past `valid_len` existed but did not form a valid frame — a
    /// torn tail from a crash mid-append.
    pub torn_tail: bool,
}

/// Reads and validates every record of a WAL file.
///
/// Frames after the first invalid one are **not** inspected: a torn frame means the
/// writer died there, so nothing after it can be trusted (and the writer never starts
/// frame `k + 1` before frame `k` is fully written).
pub fn read_records(path: &Path) -> PersistResult<WalScan> {
    let mut file = File::open(path)?;
    let mut bytes = Vec::new();
    file.read_to_end(&mut bytes)?;
    if bytes.len() < HEADER_LEN as usize {
        return Err(corrupt("WAL file shorter than its header"));
    }
    if &bytes[..8] != MAGIC {
        return Err(corrupt("bad WAL magic"));
    }
    let version = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
    if version != VERSION {
        return Err(format_err(format!(
            "WAL version {version}, expected {VERSION}"
        )));
    }
    let header_crc = u32::from_le_bytes(bytes[12..16].try_into().unwrap());
    if header_crc != crc32(&bytes[..12]) {
        return Err(corrupt("WAL header checksum mismatch"));
    }

    let mut records = Vec::new();
    let mut pos = HEADER_LEN as usize;
    let mut torn_tail = false;
    while pos < bytes.len() {
        let Some(frame) = bytes.get(pos..pos + 8) else {
            torn_tail = true;
            break;
        };
        let body_len = u32::from_le_bytes(frame[..4].try_into().unwrap()) as usize;
        let body_crc = u32::from_le_bytes(frame[4..8].try_into().unwrap());
        let Some(body) = bytes.get(pos + 8..pos + 8 + body_len) else {
            torn_tail = true;
            break;
        };
        if crc32(body) != body_crc {
            torn_tail = true;
            break;
        }
        // A frame that checksums but does not parse is corruption, not tearing: the
        // writer only syncs well-formed bodies.
        records.push(WalRecord::decode(body)?);
        pos += 8 + body_len;
    }
    Ok(WalScan {
        records,
        valid_len: pos.min(bytes.len()) as u64,
        torn_tail,
    })
}

/// Appends CRC-framed records to a WAL file, each synced before its append returns.
#[derive(Debug)]
pub struct WalWriter {
    file: File,
    appended: u64,
    /// `fdatasync` calls issued by the append path.
    fsyncs: u64,
    /// Nanoseconds those calls took since [`WalWriter::take_sync_nanos`] last
    /// drained them; `None` (no clock is read) until it is first called.
    sync_nanos: Option<u64>,
}

/// Point-in-time WAL observability counters (see [`WalWriter::stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WalStats {
    /// Records appended through the writer (this incarnation; resets on rotation).
    pub appended: u64,
    /// `fdatasync` calls issued by the append path, one per append.
    pub fsyncs: u64,
}

impl WalWriter {
    fn new(file: File) -> Self {
        WalWriter {
            file,
            appended: 0,
            fsyncs: 0,
            sync_nanos: None,
        }
    }

    /// Creates a fresh WAL file (failing if one already exists) and syncs its header.
    pub fn create(path: &Path) -> PersistResult<Self> {
        let mut file = OpenOptions::new().write(true).create_new(true).open(path)?;
        let mut header = Vec::with_capacity(HEADER_LEN as usize);
        header.extend_from_slice(MAGIC);
        header.extend_from_slice(&VERSION.to_le_bytes());
        let crc = crc32(&header);
        header.extend_from_slice(&crc.to_le_bytes());
        file.write_all(&header)?;
        file.sync_all()?;
        Ok(WalWriter::new(file))
    }

    /// Re-opens an existing WAL for appending: validates every frame, truncates the
    /// torn tail (if any) so a crashed half-frame can never shadow a future append,
    /// and positions the writer at the end.  Returns the surviving records alongside
    /// the writer.
    pub fn open_truncating(path: &Path) -> PersistResult<(WalScan, Self)> {
        let scan = read_records(path)?;
        let file = OpenOptions::new().write(true).open(path)?;
        if scan.torn_tail {
            file.set_len(scan.valid_len)?;
            file.sync_all()?;
        }
        let mut file = file;
        file.seek(SeekFrom::Start(scan.valid_len))?;
        Ok((scan, WalWriter::new(file)))
    }

    /// Appends one edges-only record (no effects) and fsyncs it.  Encodes straight
    /// from the borrowed batch — no clone of the edges.
    pub fn append(&mut self, seq: u64, op: WalOp, edges: &[Edge]) -> PersistResult<()> {
        self.append_frame(&encode_frame(seq, op, edges, None))
    }

    /// Appends one batch record — the edges plus the effects an engine's recovery
    /// installs instead of re-running the batch — and fsyncs it, so the caller may
    /// install the batch once this returns.
    pub fn append_batch(&mut self, record: &BatchRecord<'_>) -> PersistResult<()> {
        self.append_frame(&encode_frame(
            record.seq,
            record.op,
            record.edges,
            Some((&record.cursors, record.growth, record.rewrites)),
        ))
    }

    fn append_frame(&mut self, frame: &[u8]) -> PersistResult<()> {
        crate::shim::notify(crate::shim::IoOp::WalAppend, frame.len());
        self.file.write_all(frame)?;
        crate::shim::notify(crate::shim::IoOp::WalSync, 0);
        match &mut self.sync_nanos {
            Some(total) => {
                let started = Instant::now();
                self.file.sync_data()?;
                *total += started.elapsed().as_nanos() as u64;
            }
            None => self.file.sync_data()?,
        }
        self.fsyncs += 1;
        self.appended += 1;
        Ok(())
    }

    /// Drains the time appends have spent waiting in their own `fdatasync` since the
    /// last call, in nanoseconds.  The first call starts the timing (and returns 0):
    /// a writer nobody asks pays no clock reads.
    pub fn take_sync_nanos(&mut self) -> u64 {
        self.sync_nanos.replace(0).unwrap_or(0)
    }

    /// Number of records appended through this writer.
    pub fn appended(&self) -> u64 {
        self.appended
    }

    /// Point-in-time WAL counters: the writer's append and fsync counts.
    pub fn stats(&self) -> WalStats {
        WalStats {
            appended: self.appended,
            fsyncs: self.fsyncs,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tempdir::TempDir;

    fn edges(pairs: &[(u32, u32)]) -> Vec<Edge> {
        pairs.iter().map(|&(s, t)| Edge::new(s, t)).collect()
    }

    #[test]
    fn fsync_waits_are_timed_only_once_someone_asks() {
        let dir = TempDir::new("wal-sync-nanos");
        let mut writer = WalWriter::create(&dir.path().join("wal.log")).unwrap();
        writer
            .append(0, WalOp::Arrivals, &edges(&[(0, 1)]))
            .unwrap();
        assert_eq!(writer.sync_nanos, None, "no clock is read unasked");
        assert_eq!(
            writer.take_sync_nanos(),
            0,
            "the first call starts the timing"
        );
        writer
            .append(1, WalOp::Arrivals, &edges(&[(1, 2)]))
            .unwrap();
        writer
            .append(2, WalOp::Arrivals, &edges(&[(2, 3)]))
            .unwrap();
        assert!(writer.take_sync_nanos() > 0);
        assert_eq!(writer.take_sync_nanos(), 0, "drained");
        assert_eq!(writer.stats().fsyncs, 3);
    }

    #[test]
    fn append_and_read_round_trip() {
        let dir = TempDir::new("wal-roundtrip");
        let path = dir.path().join("wal.log");
        let mut writer = WalWriter::create(&path).unwrap();
        writer
            .append(0, WalOp::Arrivals, &edges(&[(0, 1), (2, 3)]))
            .unwrap();
        writer
            .append(1, WalOp::Deletions, &edges(&[(0, 1)]))
            .unwrap();
        writer.append(2, WalOp::Arrivals, &[]).unwrap();

        let scan = read_records(&path).unwrap();
        assert!(!scan.torn_tail);
        assert_eq!(scan.records.len(), 3);
        assert_eq!(scan.records[0].op, WalOp::Arrivals);
        assert_eq!(scan.records[0].edges, edges(&[(0, 1), (2, 3)]));
        assert_eq!(scan.records[1].op, WalOp::Deletions);
        assert_eq!(scan.records[2].seq, 2);
        assert!(scan.records[2].edges.is_empty());
    }

    #[test]
    fn torn_tail_is_truncated_and_appends_resume() {
        let dir = TempDir::new("wal-torn");
        let path = dir.path().join("wal.log");
        let mut writer = WalWriter::create(&path).unwrap();
        writer
            .append(0, WalOp::Arrivals, &edges(&[(1, 2)]))
            .unwrap();
        writer
            .append(1, WalOp::Arrivals, &edges(&[(3, 4)]))
            .unwrap();
        drop(writer);
        // Simulate a crash mid-append: half a frame of garbage at the tail.
        let intact = std::fs::metadata(&path).unwrap().len();
        let mut file = OpenOptions::new().append(true).open(&path).unwrap();
        file.write_all(&[0x55; 7]).unwrap();
        drop(file);

        let (scan, mut writer) = WalWriter::open_truncating(&path).unwrap();
        assert!(scan.torn_tail);
        assert_eq!(scan.valid_len, intact);
        assert_eq!(scan.records.len(), 2);
        writer
            .append(2, WalOp::Deletions, &edges(&[(1, 2)]))
            .unwrap();
        drop(writer);

        let rescan = read_records(&path).unwrap();
        assert!(!rescan.torn_tail);
        assert_eq!(rescan.records.len(), 3);
        assert_eq!(rescan.records[2].seq, 2);
    }

    #[test]
    fn corrupted_record_body_stops_the_scan() {
        let dir = TempDir::new("wal-corrupt");
        let path = dir.path().join("wal.log");
        let mut writer = WalWriter::create(&path).unwrap();
        writer
            .append(0, WalOp::Arrivals, &edges(&[(1, 2)]))
            .unwrap();
        writer
            .append(1, WalOp::Arrivals, &edges(&[(3, 4)]))
            .unwrap();
        drop(writer);
        // Flip one byte inside the second record's body.
        let mut bytes = std::fs::read(&path).unwrap();
        let off = bytes.len() - 3;
        bytes[off] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();

        let scan = read_records(&path).unwrap();
        assert!(scan.torn_tail, "a mid-body flip must invalidate the frame");
        assert_eq!(scan.records.len(), 1);
    }

    #[test]
    fn bad_header_is_rejected_outright() {
        let dir = TempDir::new("wal-header");
        let path = dir.path().join("wal.log");
        std::fs::write(&path, b"NOTAWAL!\x01\x00\x00\x00zzzz").unwrap();
        assert!(read_records(&path).is_err());
        std::fs::write(&path, b"short").unwrap();
        assert!(read_records(&path).is_err());
    }

    fn plan(entries: &[(u32, &[u32])]) -> SegmentRewrites {
        let mut plan = SegmentRewrites::new();
        for &(id, path) in entries {
            let path: Vec<NodeId> = path.iter().map(|&v| NodeId(v)).collect();
            plan.push(SegmentId(id), &path);
        }
        plan
    }

    /// Effects of a batch on a store of 2 segments per node that grew from 3 nodes
    /// to 4: node 3's two segments, then two rewrites (one of them of node 3's).
    fn effects() -> WalEffects {
        WalEffects {
            cursors: WalCursors {
                rng: [1, 2, 3, 4],
                batch_index: 9,
                work: WorkCounter {
                    segments_updated: 2,
                    walk_steps: 5,
                    edges_processed: 1,
                    arrivals_filtered: 0,
                },
                initialization_steps: 3,
            },
            growth: plan(&[(6, &[3]), (7, &[3, 1])]),
            rewrites: plan(&[(0, &[0, 3, 2]), (6, &[3, 0])]),
        }
    }

    fn append_with(writer: &mut WalWriter, seq: u64, edges: &[Edge], effects: &WalEffects) {
        let record = BatchRecord {
            seq,
            op: WalOp::Arrivals,
            edges,
            cursors: effects.cursors,
            growth: &effects.growth,
            rewrites: &effects.rewrites,
        };
        writer.append_batch(&record).unwrap();
    }

    #[test]
    fn effect_records_round_trip_beside_edges_only_ones() {
        let dir = TempDir::new("wal-effects");
        let path = dir.path().join("wal.log");
        let mut writer = WalWriter::create(&path).unwrap();
        let logged = effects();
        append_with(&mut writer, 0, &edges(&[(0, 3)]), &logged);
        writer
            .append(1, WalOp::Deletions, &edges(&[(0, 3)]))
            .unwrap();
        append_with(&mut writer, 2, &[], &WalEffects::default());
        assert_eq!(writer.stats().fsyncs, 3, "every record synced");
        drop(writer);

        let scan = read_records(&path).unwrap();
        assert!(!scan.torn_tail);
        assert_eq!(scan.records[0].edges, edges(&[(0, 3)]));
        assert_eq!(scan.records[0].effects.as_ref(), Some(&logged));
        assert_eq!(scan.records[1].effects, None, "an edges-only record");
        assert_eq!(scan.records[2].effects, Some(WalEffects::default()));
        logged.check_segments(2, 4).unwrap();
    }

    #[test]
    fn logged_segments_are_checked_against_the_store_shape() {
        let reject = |mutate: &dyn Fn(&mut WalEffects), what: &str| {
            let mut bad = effects();
            mutate(&mut bad);
            assert!(
                matches!(
                    bad.check_segments(2, 4),
                    Err(crate::PersistError::Corrupt(_))
                ),
                "{what}"
            );
        };
        reject(
            &|e| e.rewrites = plan(&[(8, &[4])]),
            "segment past the store",
        );
        reject(
            &|e| e.rewrites = plan(&[(1, &[1, 2])]),
            "path off its source",
        );
        reject(&|e| e.growth = plan(&[(6, &[])]), "empty path");
        reject(
            &|e| e.rewrites = plan(&[(0, &[0, 4])]),
            "node past the count",
        );
        assert!(
            effects().check_segments(2, usize::MAX).is_err(),
            "node count overflows"
        );
    }

    #[test]
    fn a_version_1_log_is_refused_with_a_format_error() {
        let dir = TempDir::new("wal-v1");
        let path = dir.path().join("wal.log");
        let mut header = MAGIC.to_vec();
        header.extend_from_slice(&1u32.to_le_bytes());
        let crc = crc32(&header);
        header.extend_from_slice(&crc.to_le_bytes());
        std::fs::write(&path, &header).unwrap();
        assert!(matches!(
            read_records(&path),
            Err(crate::PersistError::Format(_))
        ));
    }

    #[test]
    fn create_refuses_to_clobber() {
        let dir = TempDir::new("wal-clobber");
        let path = dir.path().join("wal.log");
        let _writer = WalWriter::create(&path).unwrap();
        assert!(WalWriter::create(&path).is_err());
    }
}
