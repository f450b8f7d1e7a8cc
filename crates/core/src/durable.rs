//! Durable engines: `create_durable` / `open` / `checkpoint` on [`WalkEngine`] of
//! either walk kind, built on `ppr-persist`.
//!
//! # The recovery contract
//!
//! A durable engine owns a [`StoreDir`]: generation-numbered snapshots plus a
//! write-ahead log of every batch applied since the snapshot.  Three facts make the
//! combination a *bit-exact* recovery mechanism rather than a best-effort one:
//!
//! 1. **Batches are the only inputs.**  After construction, engine state evolves
//!    only through `apply_arrivals` / `apply_deletions` (and per-edge wrappers,
//!    which *are* singleton batches) and `add_node`.  Each call appends one record
//!    to the WAL: its edges plus its effects — the segments drawn for the nodes it
//!    created, the reconciled rewrites as whole paths, and the engine cursors after
//!    it ([`ppr_persist::WalCursors`]).  The record is written and synced after
//!    reconcile and before the walk store installs the rewrites, so the call
//!    returns — acknowledging the batch — only once the record is durable.
//! 2. **A record's effects are the batch's end state.**  Installing the logged
//!    paths and setting the logged cursors over the snapshot the log follows
//!    reproduces scores, postings, and paths byte for byte, without re-running a
//!    reroute.  Replay draws no random number, so it does not depend on the
//!    sampler: a tail written by another build replays to the store that build
//!    held.
//! 3. **Snapshots are atomic, logs truncate cleanly.**  Snapshots are immutable
//!    generation files published by renaming `CURRENT`; a crash mid-checkpoint
//!    leaves the previous generation authoritative.  A crash mid-append leaves a
//!    torn WAL tail that recovery truncates at the last CRC-valid record.
//!
//! Recovery therefore is: read `CURRENT` → open that generation's snapshot as far as
//! its walk heap → apply the WAL tail's edges to the graph and fold its effects into
//! one plan of final paths → open the walk store with the plan installed, counting
//! the visit index once as every heap page is checked (falling back to the previous
//! generation if the snapshot is corrupt) → truncate the torn tail, if any → attach
//! the writer and continue (see [`WalkEngine::open`]).  The restart-equivalence
//! differential test (`tests/durability.rs`) holds the whole stack to "crash
//! anywhere, recover, resume ≡ never crashed", and this module's tests hold effect
//! replay to re-running the edge batches.
//!
//! # Durability semantics
//!
//! One contract: **write, sync, install**.  Every batch's record is written, then
//! `fdatasync`ed, then its plan installed, all before `apply_*` returns: an
//! acknowledged batch survives power loss, and at most the one batch that was
//! mid-write can be lost (and is then *cleanly absent*, never half-applied).  A
//! WAL append failure panics — an engine that can no longer log cannot honour the
//! durability it promised, and limping on in memory would silently break it.
//!
//! A store directory admits a **single writer process**, and the contract is
//! enforced: `create_durable*` and `open` acquire the directory's `LOCK` file
//! ([`ppr_persist::StoreLock`]) and hold it for the engine's lifetime, so a second
//! writer fails fast with [`ppr_persist::PersistError::Locked`] naming the holder.
//! A lock left behind by a crashed process (the PID no longer runs) is stolen
//! automatically, so crash recovery never needs manual cleanup.

use crate::config::MonteCarloConfig;
use crate::engine::{PageRank, WalkEngine, WalkKind};
use ppr_graph::{DynamicGraph, Edge, GraphView};
use ppr_persist::dir::StoreDir;
use ppr_persist::graph::{decode_graph, encode_graph};
use ppr_persist::io::{corrupt, format_err, ByteReader, ByteWriter};
use ppr_persist::layout::PersistentWalkStore;
use ppr_persist::lock::StoreLock;
use ppr_persist::snapshot::{
    AtomicFile, SnapshotFile, SnapshotWriter, SECTION_GRAPH, SECTION_META,
};
use ppr_persist::wal::{self, WalRecord, WalWriter};
use ppr_persist::{BatchRecord, DiskWalkStore, PagedWalks, WalEffects, WalOp};
use ppr_store::{SegmentId, SegmentRewrites, SocialStore, WalkIndexMut, WalkStore, WorkCounter};
use rand::rngs::SmallRng;
use std::io::{Seek, Write};
use std::path::Path;

pub use ppr_persist::{PersistError, PersistResult};

/// A PageRank engine whose walk store is the file-backed
/// [`ppr_persist::DiskWalkStore`] — demand-paged reads, packed checkpoints.
pub type DurablePageRank = WalkEngine<PageRank, DiskWalkStore>;

/// The durability state attached to a running engine: its store directory, active
/// generation, and open WAL writer.
#[derive(Debug)]
pub struct DurableLog {
    dir: StoreDir,
    /// The held cross-process lock on the store directory; released when the engine
    /// (and with it this log) is dropped.
    lock: StoreLock,
    gen: u64,
    /// Newest generation (besides `gen`) whose snapshot is known good — the one this
    /// process last loaded or wrote.  Pruning never deletes generations at or above
    /// it, so after a fallback recovery the known-good base survives checkpoints and
    /// the known-corrupt snapshot is never left as the only fallback.
    last_good: u64,
    writer: WalWriter,
    /// Whether [`DurableLog::take_sync_nanos`] has been called: the WAL writer then
    /// times its fsyncs, and so must every writer a rotation replaces it with.
    times_syncs: bool,
}

impl DurableLog {
    /// Appends one batch record — the edges plus their effects — and fsyncs it
    /// (see [`WalWriter::append_batch`]).
    ///
    /// # Panics
    ///
    /// Panics if the append fails: the engine promised durability for every
    /// acknowledged batch and can no longer deliver it.
    pub(crate) fn append(&mut self, record: &BatchRecord<'_>) {
        self.writer
            .append_batch(record)
            .expect("WAL append failed; cannot continue without breaking durability");
    }

    /// Drains the nanoseconds batch appends have spent in their own `fdatasync`
    /// since the last call (see [`WalWriter::take_sync_nanos`]); the first call
    /// starts the timing.
    pub fn take_sync_nanos(&mut self) -> u64 {
        self.times_syncs = true;
        self.writer.take_sync_nanos()
    }

    /// The active generation number.
    pub fn generation(&self) -> u64 {
        self.gen
    }

    /// Point-in-time WAL counters (appends, fsyncs) of the open writer; see
    /// [`ppr_persist::WalStats`].
    pub fn wal_stats(&self) -> ppr_persist::WalStats {
        self.writer.stats()
    }

    /// The store directory root.
    pub fn root(&self) -> &Path {
        self.dir.root()
    }
}

/// Engine metadata persisted in the snapshot's META section.
#[derive(Debug, Clone, Copy)]
struct EngineMeta {
    kind: u8,
    config: MonteCarloConfig,
    batch_index: u64,
    wal_seq: u64,
    rng: [u64; 4],
    initialization_steps: u64,
    work: WorkCounter,
}

fn encode_meta(m: &EngineMeta) -> Vec<u8> {
    let mut w = ByteWriter::with_capacity(96);
    w.put_u8(m.kind);
    w.put_f64(m.config.epsilon);
    w.put_u64(m.config.r as u64);
    w.put_u64(m.config.seed);
    w.put_u64(m.batch_index);
    w.put_u64(m.wal_seq);
    for word in m.rng {
        w.put_u64(word);
    }
    w.put_u64(m.initialization_steps);
    w.put_u64(m.work.segments_updated);
    w.put_u64(m.work.walk_steps);
    w.put_u64(m.work.edges_processed);
    w.put_u64(m.work.arrivals_filtered);
    w.into_bytes()
}

/// Decodes the META section.
fn decode_meta(payload: &[u8]) -> PersistResult<EngineMeta> {
    let mut r = ByteReader::new(payload);
    let kind = r.get_u8()?;
    let epsilon = r.get_f64()?;
    let segments = r.get_len()?;
    let seed = r.get_u64()?;
    if !(epsilon > 0.0 && epsilon < 1.0) || segments == 0 {
        return Err(corrupt("engine config out of range"));
    }
    let config = MonteCarloConfig::new(epsilon, segments).with_seed(seed);
    let batch_index = r.get_u64()?;
    let wal_seq = r.get_u64()?;
    let rng = [r.get_u64()?, r.get_u64()?, r.get_u64()?, r.get_u64()?];
    if rng.iter().all(|&w| w == 0) {
        return Err(corrupt("all-zero RNG state"));
    }
    let initialization_steps = r.get_u64()?;
    let work = WorkCounter {
        segments_updated: r.get_u64()?,
        walk_steps: r.get_u64()?,
        edges_processed: r.get_u64()?,
        arrivals_filtered: r.get_u64()?,
    };
    r.expect_end("engine metadata")?;
    Ok(EngineMeta {
        kind,
        config,
        batch_index,
        wal_seq,
        rng,
        initialization_steps,
        work,
    })
}

/// Streams one complete generation snapshot into `sink`, section by section as the
/// encoders produce the bytes.
fn stream_generation<S: Write + Seek, W: PersistentWalkStore>(
    sink: S,
    meta: &EngineMeta,
    social: &SocialStore,
    walks: &mut W,
) -> PersistResult<S> {
    let mut snap = SnapshotWriter::new(sink)?;
    snap.begin_section(SECTION_META)?;
    snap.write(&encode_meta(meta))?;
    snap.end_section()?;
    snap.begin_section(SECTION_GRAPH)?;
    encode_graph(social.graph(), |chunk| snap.write(chunk))?;
    snap.end_section()?;
    walks.encode_walks(&mut snap)?;
    snap.finish()
}

/// Writes one complete generation snapshot — atomically: an error on the way leaves
/// no file, temp or final — and invokes the store's post-publish hook.
fn write_generation<W: PersistentWalkStore>(
    dir: &StoreDir,
    gen: u64,
    meta: &EngineMeta,
    social: &SocialStore,
    walks: &mut W,
) -> PersistResult<()> {
    let path = dir.snapshot_path(gen);
    stream_generation(AtomicFile::create(&path)?, meta, social, walks)?.publish()?;
    walks.after_checkpoint(&path)
}

/// A generation's snapshot opened as far as its walk heap: META and the graph
/// decoded, the walks section's directory and page-CRC table read and checked.
struct OpenedSnapshot {
    meta: EngineMeta,
    graph: DynamicGraph,
    walks: PagedWalks,
}

fn open_snapshot(dir: &StoreDir, gen: u64) -> PersistResult<OpenedSnapshot> {
    let mut snap = SnapshotFile::open(&dir.snapshot_path(gen))?;
    let meta = decode_meta(&snap.read_section(SECTION_META)?)?;
    let graph = decode_graph(&snap.read_section(SECTION_GRAPH)?)?;
    let walks = PagedWalks::from_snapshot(snap)?;
    if walks.header().node_count != graph.node_count() as u64 {
        return Err(corrupt(format!(
            "walk store addresses {} nodes but the graph has {}",
            walks.header().node_count,
            graph.node_count()
        )));
    }
    Ok(OpenedSnapshot { meta, graph, walks })
}

/// The recovered WAL records the snapshot has not absorbed, checked for sequence
/// contiguity: records with seq < `start_seq` are skipped, the rest must count up
/// from it.
fn tail_records<'a>(
    start_seq: u64,
    records: impl IntoIterator<Item = &'a WalRecord>,
) -> PersistResult<Vec<&'a WalRecord>> {
    let mut tail = Vec::new();
    for record in records {
        if record.seq < start_seq {
            continue;
        }
        let next = start_seq + tail.len() as u64;
        if record.seq != next {
            return Err(corrupt(format!(
                "WAL sequence gap: expected record {next}, found {}",
                record.seq
            )));
        }
        tail.push(record);
    }
    Ok(tail)
}

/// Folds a WAL tail into the state it leaves, drawing no random number and reading
/// no path:
///
/// 1. every record's edges are applied to `social`, in order;
/// 2. the records' growth segments and rewrites fold into one plan holding each
///    touched segment's final path — the last write wins — in segment-id order;
/// 3. `meta`'s cursors advance to the last record's: the generator and the batch
///    index as logged, the work counter and `initialization_steps` by every
///    record's deltas.
///
/// Every record is checked before it counts — node counts against the edges and
/// the growth, segments against the store shape (see
/// [`WalEffects::check_segments`]) — and a record that fails returns
/// [`PersistError::Corrupt`].
fn fold_tail(
    social: &mut SocialStore,
    meta: &mut EngineMeta,
    segments: usize,
    tail: &[&WalRecord],
) -> PersistResult<SegmentRewrites> {
    // Every segment write of the tail: (segment, record, from rewrites, entry).
    let mut writes: Vec<(SegmentId, u32, bool, u32)> = Vec::new();
    for (ri, record) in tail.iter().enumerate() {
        let effects = record
            .effects
            .as_ref()
            .ok_or_else(|| corrupt(format!("WAL record {} logs no effects", record.seq)))?;
        let cursors = &effects.cursors;
        if !matches!(
            cursors.batch_index.checked_sub(meta.batch_index),
            Some(0 | 1)
        ) || cursors.rng.iter().all(|&w| w == 0)
        {
            return Err(corrupt(format!(
                "WAL record {} logs impossible cursors",
                record.seq
            )));
        }
        apply_logged_edges(social, record, effects, segments)?;
        effects.check_segments(segments, social.node_count())?;
        meta.work
            .checked_merge(&cursors.work)
            .ok_or_else(|| corrupt("WAL work overflow"))?;
        meta.initialization_steps = meta
            .initialization_steps
            .checked_add(cursors.initialization_steps)
            .ok_or_else(|| corrupt("WAL initialization steps overflow"))?;
        meta.rng = cursors.rng;
        meta.batch_index = cursors.batch_index;
        for (rewrite, plan) in [(false, &effects.growth), (true, &effects.rewrites)] {
            writes.extend(
                plan.iter()
                    .enumerate()
                    .map(|(k, (id, _))| (id, ri as u32, rewrite, k as u32)),
            );
        }
    }
    writes.sort_unstable();
    let mut plan = SegmentRewrites::new();
    for (i, &(id, ri, rewrite, k)) in writes.iter().enumerate() {
        if writes.get(i + 1).is_some_and(|next| next.0 == id) {
            continue; // a later write of the same segment wins
        }
        let effects = tail[ri as usize].effects.as_ref().expect("checked above");
        let source = if rewrite {
            &effects.rewrites
        } else {
            &effects.growth
        };
        plan.push(id, source.get(k as usize).1);
    }
    Ok(plan)
}

/// Applies one logged batch's edges to the Social Store as the engine did, once the
/// record's growth plan is checked against them: it holds the segments of the nodes
/// the batch created, in slot order, and an arrival record's endpoints lie below the
/// node count it leaves — the count before plus the plan's whole nodes (a trailing
/// partial node's segments then lie past the store [`WalEffects::check_segments`]
/// checks); a deletion record creates no node.
fn apply_logged_edges(
    social: &mut SocialStore,
    record: &WalRecord,
    effects: &WalEffects,
    segments: usize,
) -> PersistResult<()> {
    let before = social.node_count();
    let grown = effects.growth.len();
    let nodes = before + grown.checked_div(segments).unwrap_or(0);
    let in_range = |edge: &Edge| edge.source.index() < nodes && edge.target.index() < nodes;
    let grown_ok = match record.op {
        WalOp::Arrivals => record.edges.iter().all(in_range),
        WalOp::Deletions => grown == 0,
    };
    if !grown_ok
        || effects
            .growth
            .iter()
            .enumerate()
            .any(|(i, (id, _))| id.index() != before * segments + i)
    {
        return Err(corrupt(format!(
            "WAL record {} grows {before} nodes to {nodes} with {} segments",
            record.seq,
            effects.growth.len()
        )));
    }
    match record.op {
        WalOp::Arrivals => {
            social.ensure_nodes(nodes);
            for &edge in &record.edges {
                social.add_edge(edge);
            }
        }
        WalOp::Deletions => {
            for &edge in &record.edges {
                social.remove_edge(edge);
            }
        }
    }
    Ok(())
}

/// How [`WalkEngine::open`] brings a snapshot up to the end of its log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Replay {
    /// Fold the tail's effects and install them as the store opens.
    Effects,
    /// Re-run the tail's edge batches through the engine: the reference the
    /// effect replay is held to.
    #[cfg(test)]
    Edges,
}

/// Shared checkpoint driver: writes generation `gen + 1`, rotates the WAL, publishes
/// `CURRENT`, prunes old generations.  On failure the previous `DurableLog` is
/// returned unchanged so the engine stays durable on the old generation.
fn run_checkpoint<W: PersistentWalkStore>(
    log: DurableLog,
    meta: &EngineMeta,
    social: &SocialStore,
    walks: &mut W,
) -> (DurableLog, PersistResult<u64>) {
    let new_gen = log.gen + 1;
    let attempt = (|| {
        write_generation(&log.dir, new_gen, meta, social, walks)?;
        // A wal-<new_gen> can only pre-exist if an earlier checkpoint attempt died
        // between creating it and publishing CURRENT — it was never part of a
        // published generation (nothing is ever appended before the publish), so
        // clearing it is what makes checkpointing retryable after such a crash.
        let wal_path = log.dir.wal_path(new_gen);
        if wal_path.exists() {
            std::fs::remove_file(&wal_path)?;
        }
        let writer = WalWriter::create(&wal_path)?;
        log.dir.publish_gen(new_gen)?;
        Ok(writer)
    })();
    match attempt {
        Ok(mut writer) => {
            if log.times_syncs {
                writer.take_sync_nanos();
            }
            // Keep everything from the last known-good snapshot up: normally that is
            // the generation just superseded, but after a fallback recovery it is
            // the older base — the known-corrupt snapshot in between must never
            // become the only fallback.
            log.dir.prune_generations_below(log.last_good.min(log.gen));
            (
                DurableLog {
                    dir: log.dir,
                    lock: log.lock,
                    gen: new_gen,
                    // The snapshot just written (and fsynced) is the new known-good
                    // base; the next checkpoint may prune everything below it.
                    last_good: new_gen,
                    writer,
                    times_syncs: log.times_syncs,
                },
                Ok(new_gen),
            )
        }
        Err(e) => (log, Err(e)),
    }
}

/// Attaches a fresh store directory to a just-built engine: generation 0 snapshot,
/// empty WAL, `CURRENT` published.
fn attach_fresh<W: PersistentWalkStore>(
    root: impl Into<std::path::PathBuf>,
    meta: &EngineMeta,
    social: &SocialStore,
    walks: &mut W,
) -> PersistResult<DurableLog> {
    let dir = StoreDir::init(root)?;
    let lock = StoreLock::acquire(dir.root())?;
    write_generation(&dir, 0, meta, social, walks)?;
    // StoreDir::init guarantees no CURRENT exists, so a leftover wal-0 is debris
    // from a create attempt that died before publishing — clear it so creation is
    // retryable.
    let wal_path = dir.wal_path(0);
    if wal_path.exists() {
        std::fs::remove_file(&wal_path)?;
    }
    let writer = WalWriter::create(&wal_path)?;
    dir.publish_gen(0)?;
    Ok(DurableLog {
        dir,
        lock,
        gen: 0,
        last_good: 0,
        writer,
        times_syncs: false,
    })
}

impl<K: WalkKind, W: WalkIndexMut + PersistentWalkStore> WalkEngine<K, W> {
    fn engine_meta(&self) -> EngineMeta {
        EngineMeta {
            kind: K::TAG,
            config: self.config,
            batch_index: self.batch_index,
            wal_seq: self.wal_seq,
            rng: self.rng.state(),
            initialization_steps: self.initialization_steps,
            work: self.work,
        }
    }

    /// Opens a durable engine from `root`, performing full crash recovery: latest
    /// valid snapshot, then the WAL tail's effects, torn-tail truncation.  The tail
    /// is not re-run: its edges are applied to the graph, its growth segments and
    /// rewrites fold into one plan of each touched segment's final path, and the
    /// cursors come from its last record — no random number is drawn.  The walk
    /// store opens with the plan's paths installed, paths only, and counts its
    /// visit index once, from the final paths, in the pass that checks every heap
    /// page ([`PersistentWalkStore::open_walks`]).  The recovered engine is
    /// bit-identical to the one that crashed (up to the at-most-one unsynced
    /// batch), and so is the next snapshot it writes.
    ///
    /// A snapshot that fails any check — including a heap page or path found bad
    /// while the index is counted — sends recovery to the previous generation,
    /// scanning down while snapshot files exist, with every log from that one
    /// forward replayed (sequence numbers dedupe against the older snapshot).  A
    /// log that fails is an error, since every older generation replays it too: a
    /// record that fails its checks, or a torn sealed log, returns
    /// [`PersistError::Corrupt`], a version-1 log [`PersistError::Format`].  Fails
    /// if the directory holds the other walk kind.
    pub fn open(root: impl AsRef<Path>) -> PersistResult<Self> {
        Self::open_replaying(root.as_ref(), Replay::Effects)
    }

    fn open_replaying(root: &Path, replay: Replay) -> PersistResult<Self> {
        let dir = StoreDir::open(root.to_path_buf())?;
        let lock = StoreLock::acquire(dir.root())?;
        let current_gen = dir.current_gen()?;
        // The current generation's log, opened — a torn tail cut — by the first
        // attempt that gets that far; every attempt replays it.
        let mut log: Option<(Vec<WalRecord>, WalWriter)> = None;
        // Bit rot can land in format-sensitive bytes (a version field corrupts into
        // a Format error just as easily as a payload byte corrupts into a Corrupt
        // one), so *every* snapshot failure falls back.  A store this build cannot
        // read fails identically at every generation, so the scan ends by returning
        // the primary error anyway.
        let mut primary: Option<PersistError> = None;
        for gen in (0..=current_gen).rev() {
            if gen < current_gen && !dir.snapshot_path(gen).exists() {
                break;
            }
            let OpenedSnapshot {
                mut meta,
                graph,
                walks,
            } = match open_snapshot(&dir, gen) {
                Ok(snapshot) => snapshot,
                Err(e) => {
                    primary.get_or_insert(e);
                    continue;
                }
            };
            if meta.kind != K::TAG {
                return Err(format_err(format!(
                    "store directory holds an engine of kind {}, not {} (kind {})",
                    meta.kind,
                    K::NAME,
                    K::TAG
                )));
            }
            let segments = K::segments_per_node(meta.config.r);
            if walks.header().r as usize != segments {
                primary.get_or_insert(corrupt(format!(
                    "walks section stores {} segments per node, the engine {segments}",
                    walks.header().r
                )));
                continue;
            }

            // Logs of generations between this snapshot and the current one were
            // sealed by later checkpoints, and a log is always complete when sealed
            // (a crash mid-append is truncated by the recovery that precedes the
            // sealing checkpoint).  A torn tail here is therefore post-seal
            // corruption of records a newer snapshot had absorbed — a hard error,
            // never silent loss of acknowledged batches.
            let mut sealed = Vec::new();
            for g in gen..current_gen {
                let scan = wal::read_records(&dir.wal_path(g))?;
                if scan.torn_tail {
                    return Err(corrupt(format!(
                        "sealed WAL of generation {g} is corrupt past record {}",
                        scan.records.len()
                    )));
                }
                sealed.extend(scan.records);
            }
            if log.is_none() {
                let (scan, writer) = WalWriter::open_truncating(&dir.wal_path(current_gen))?;
                log = Some((scan.records, writer));
            }
            let current = &log.as_ref().expect("opened above").0;
            let tail = tail_records(meta.wal_seq, sealed.iter().chain(current))?;

            let mut social = SocialStore::from_graph(graph);
            let plan = match replay {
                Replay::Effects => fold_tail(&mut social, &mut meta, segments, &tail)?,
                #[cfg(test)]
                Replay::Edges => SegmentRewrites::new(),
            };
            let walks = match W::open_walks(walks, social.node_count(), &plan) {
                Ok(walks) => walks,
                Err(e) => {
                    primary.get_or_insert(e);
                    continue;
                }
            };
            let mut engine =
                WalkEngine::assemble(social, walks, meta.config, SmallRng::from_state(meta.rng));
            engine.work = meta.work;
            engine.initialization_steps = meta.initialization_steps;
            engine.batch_index = meta.batch_index;
            #[cfg(test)]
            if replay == Replay::Edges {
                engine.replay_edges(&tail);
            }
            engine.wal_seq = meta.wal_seq + tail.len() as u64;
            let (_, writer) = log.take().expect("opened above");
            engine.durability = Some(DurableLog {
                dir,
                lock,
                gen: current_gen,
                // The snapshot actually loaded (older than `current_gen` after a
                // fallback) is the known-good base pruning must preserve.
                last_good: gen,
                writer,
                times_syncs: false,
            });
            return Ok(engine);
        }
        Err(primary.expect("the current generation is always tried"))
    }

    /// The edge replay [`Self::open`] replaced, kept as its reference: every tail
    /// record re-run through the ordinary batch pipeline.
    #[cfg(test)]
    fn replay_edges(&mut self, tail: &[&WalRecord]) {
        for record in tail {
            match record.op {
                WalOp::Arrivals => self.apply_arrivals(&record.edges),
                WalOp::Deletions => self.apply_deletions(&record.edges),
            };
        }
    }

    /// [`Self::open`] with the tail re-run by [`Self::replay_edges`].
    #[cfg(test)]
    fn open_replaying_edges(root: &Path) -> PersistResult<Self> {
        Self::open_replaying(root, Replay::Edges)
    }

    /// Writes a new snapshot generation, rotates the WAL, and publishes it as
    /// `CURRENT`.  Returns the new generation number.  Fails (leaving the engine
    /// durable on its previous generation) if the engine was not opened or created
    /// durable.
    pub fn checkpoint(&mut self) -> PersistResult<u64> {
        let Some(log) = self.durability.take() else {
            return Err(format_err(
                "engine has no durable store attached; build it with create_durable or open"
                    .to_string(),
            ));
        };
        let meta = self.engine_meta();
        let (log, result) = run_checkpoint(log, &meta, &self.store, &mut self.walks);
        self.durability = Some(log);
        result
    }

    /// `true` when the engine logs to a durable store directory.
    pub fn is_durable(&self) -> bool {
        self.durability.is_some()
    }

    /// The attached durability state, if any.
    pub fn durable_log(&self) -> Option<&DurableLog> {
        self.durability.as_ref()
    }

    fn make_durable(mut self, root: impl AsRef<Path>) -> PersistResult<Self> {
        let meta = self.engine_meta();
        let log = attach_fresh(
            root.as_ref().to_path_buf(),
            &meta,
            &self.store,
            &mut self.walks,
        )?;
        self.durability = Some(log);
        Ok(self)
    }
}

impl<K: WalkKind, W: WalkIndexMut> WalkEngine<K, W> {
    /// Drains the time the attached WAL (if any) has spent in per-batch `fdatasync`
    /// since the last call; see [`DurableLog::take_sync_nanos`].
    pub fn take_wal_sync_nanos(&mut self) -> Option<u64> {
        self.durability.as_mut().map(DurableLog::take_sync_nanos)
    }
}

impl<K: WalkKind> WalkEngine<K, WalkStore> {
    /// Builds a flat-store engine over `graph` and initialises a durable store
    /// directory at `root` (generation-0 snapshot plus an empty WAL).
    pub fn create_durable(
        root: impl AsRef<Path>,
        graph: impl Into<SocialStore>,
        config: MonteCarloConfig,
    ) -> PersistResult<Self> {
        Self::from_graph(graph, config).make_durable(root)
    }
}

impl<K: WalkKind> WalkEngine<K, DiskWalkStore> {
    /// Builds an engine over the file-backed [`DiskWalkStore`] and initialises a
    /// durable store directory at `root`.  Subsequent [`Self::checkpoint`] calls
    /// write every path once, packed: the segments the batches since the last
    /// checkpoint rewrote from memory, every other segment's bytes copied from the
    /// last generation's heap.
    pub fn create_durable_disk(
        root: impl AsRef<Path>,
        graph: impl Into<SocialStore>,
        config: MonteCarloConfig,
    ) -> PersistResult<Self> {
        let store = graph.into();
        let walks = DiskWalkStore::new(store.node_count(), K::segments_per_node(config.r));
        Self::with_store(store, walks, config).make_durable(root)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Salsa;
    use ppr_graph::generators::{preferential_attachment_edges, PreferentialAttachmentConfig};
    use ppr_graph::{DynamicGraph, NodeId};
    use ppr_persist::{set_thread_page_budget, PageBudget, TempDir};
    use ppr_store::StoreDigest;
    use proptest::prelude::*;

    #[test]
    fn meta_round_trips_exactly() {
        let meta = EngineMeta {
            kind: PageRank::TAG,
            config: MonteCarloConfig::new(0.25, 7).with_seed(99),
            batch_index: 17,
            wal_seq: 23,
            rng: [1, 2, 3, 4],
            initialization_steps: 555,
            work: WorkCounter {
                segments_updated: 1,
                walk_steps: 2,
                edges_processed: 3,
                arrivals_filtered: 4,
            },
        };
        let decoded = decode_meta(&encode_meta(&meta)).unwrap();
        assert_eq!(decoded.kind, meta.kind);
        assert_eq!(decoded.config, meta.config);
        assert_eq!(decoded.batch_index, meta.batch_index);
        assert_eq!(decoded.wal_seq, meta.wal_seq);
        assert_eq!(decoded.rng, meta.rng);
        assert_eq!(decoded.initialization_steps, meta.initialization_steps);
        assert_eq!(decoded.work, meta.work);
    }

    #[test]
    fn meta_decoding_rejects_nonsense() {
        let meta = EngineMeta {
            kind: Salsa::TAG,
            config: MonteCarloConfig::new(0.2, 3),
            batch_index: 0,
            wal_seq: 0,
            rng: [9, 0, 0, 0],
            initialization_steps: 0,
            work: WorkCounter::default(),
        };
        let clean = encode_meta(&meta);
        assert!(decode_meta(&clean[..clean.len() - 1]).is_err(), "truncated");
        let mut bad = clean.clone();
        bad[1..9].fill(0xFF); // epsilon = NaN-ish bits
        assert!(decode_meta(&bad).is_err());
        let mut bad = clean;
        bad[9..17].fill(0); // no segments per node
        assert!(decode_meta(&bad).is_err());
    }

    #[test]
    fn a_snapshot_older_than_version_4_fails_open_with_a_format_error() {
        // Versions 1 and 2 stored the postings in the walks section, and version 3
        // a heap of capacity-reserved slots; this build reads none of them.
        let tmp = TempDir::new("old-snapshot");
        let root = tmp.path().join("store");
        let config = MonteCarloConfig::new(0.25, 2).with_seed(7);
        drop(
            WalkEngine::<PageRank>::create_durable(&root, DynamicGraph::with_nodes(5), config)
                .unwrap(),
        );
        let path = StoreDir::open(root.clone()).unwrap().snapshot_path(0);
        let clean = std::fs::read(&path).unwrap();
        assert_eq!(clean[8..12], 4u32.to_le_bytes());
        for version in [1u32, 2, 3] {
            let mut old = clean.clone();
            old[8..12].copy_from_slice(&version.to_le_bytes());
            std::fs::write(&path, &old).unwrap();
            match WalkEngine::<PageRank>::open(&root) {
                Err(PersistError::Format(why)) => assert!(why.contains("version"), "{why}"),
                other => panic!("version {version}: {:?}", other.map(|e| state_of(&e))),
            }
        }
        std::fs::write(&path, &clean).unwrap();
        assert!(WalkEngine::<PageRank>::open(&root).is_ok());
    }

    /// Builds an engine over `graph` into `walks(node_count, segments per node)` in
    /// bulk and through the per-segment reference, holds the two to each other —
    /// draws, digest, every path and posting, arena geometry, and through `Debug`
    /// every remaining field (slot offsets and capacities, postings blocks, written
    /// flags) — then makes both durable and compares their first snapshot files byte
    /// for byte.
    fn assert_bulk_build_equals_reference<K: WalkKind, W>(
        graph: &DynamicGraph,
        config: MonteCarloConfig,
        walks: impl Fn(usize, usize) -> W,
        what: &str,
    ) where
        W: PersistentWalkStore + std::fmt::Debug,
    {
        let what = format!("{} {what}, n = {}", K::NAME, graph.node_count());
        let build = |per_segment: bool| {
            let store = SocialStore::from_graph(graph.clone());
            let walks = walks(store.node_count(), K::segments_per_node(config.r));
            if per_segment {
                WalkEngine::<K, W>::with_store_per_segment(store, walks, config)
            } else {
                WalkEngine::<K, W>::with_store(store, walks, config)
            }
        };
        let (bulk, reference) = (build(false), build(true));
        assert_eq!(
            bulk.initialization_steps(),
            reference.initialization_steps(),
            "{what}"
        );
        assert_eq!(bulk.rng.state(), reference.rng.state(), "{what}");
        let (a, b) = (bulk.walk_store(), reference.walk_store());
        assert_eq!(StoreDigest::of(a), StoreDigest::of(b), "{what}");
        assert_eq!(a.arena_stats(), b.arena_stats(), "{what}");
        for node in 0..graph.node_count() {
            let node = NodeId::from_index(node);
            for id in a.segment_ids_of(node) {
                assert_eq!(a.segment_path(id), b.segment_path(id), "{what}: {id:?}");
            }
            assert!(
                a.segments_visiting(node).eq(b.segments_visiting(node)),
                "{what}: postings of {node}"
            );
        }
        assert_eq!(format!("{a:?}"), format!("{b:?}"), "{what}");
        bulk.validate_segments().unwrap();

        let tmp = TempDir::new("bulk-build");
        let snapshot = |engine: WalkEngine<K, W>, name: &str| {
            let root = tmp.path().join(name);
            drop(engine.make_durable(&root).unwrap());
            std::fs::read(StoreDir::open(root).unwrap().snapshot_path(0)).unwrap()
        };
        assert!(
            snapshot(bulk, "bulk") == snapshot(reference, "reference"),
            "{what}: first snapshot files differ"
        );
    }

    fn assert_every_layout_builds_like_the_reference<K: WalkKind>(
        graph: &DynamicGraph,
        config: MonteCarloConfig,
    ) {
        assert_bulk_build_equals_reference::<K, _>(graph, config, WalkStore::new, "flat");
        assert_bulk_build_equals_reference::<K, _>(graph, config, DiskWalkStore::new, "disk");
    }

    #[test]
    fn bulk_construction_equals_the_per_segment_loop() {
        let cases = [
            (DynamicGraph::with_nodes(0), MonteCarloConfig::new(0.2, 3)),
            (DynamicGraph::with_nodes(70), MonteCarloConfig::new(0.2, 2)),
            (
                ppr_graph::generators::preferential_attachment(200, 4, 31),
                MonteCarloConfig::new(0.25, 1).with_seed(5),
            ),
            (
                ppr_graph::generators::preferential_attachment(400, 3, 32),
                MonteCarloConfig::new(0.2, 3).with_seed(6),
            ),
        ];
        for (graph, config) in &cases {
            assert_every_layout_builds_like_the_reference::<PageRank>(graph, *config);
            assert_every_layout_builds_like_the_reference::<Salsa>(graph, *config);
        }
    }

    #[test]
    fn replay_enforces_contiguity() {
        let rec = |seq| WalRecord {
            seq,
            op: WalOp::Arrivals,
            edges: vec![],
            effects: None,
        };
        let records = [rec(0), rec(1), rec(2), rec(3)];
        let seqs = |tail: Vec<&WalRecord>| tail.iter().map(|r| r.seq).collect::<Vec<_>>();
        assert_eq!(seqs(tail_records(2, &records).unwrap()), [2, 3]);
        assert!(tail_records(0, &[rec(0), rec(2)]).is_err());
        assert!(tail_records(5, &[]).unwrap().is_empty());
    }

    /// A seeded schedule that grows a 10-node graph to 90 nodes: preferential
    /// attachment edges in arrival order (so batches keep naming new nodes), in
    /// batches of mixed size with single-edge calls among them, and every third op
    /// a deletion batch of delivered edges — the later ones name edges already
    /// gone, so some delete nothing.
    fn growth_schedule(seed: u64) -> Vec<(WalOp, Vec<Edge>)> {
        let edges = preferential_attachment_edges(&PreferentialAttachmentConfig::new(90, 3, seed));
        let mut ops = Vec::new();
        let mut start = 0;
        for &len in [7usize, 1, 23, 12].iter().cycle() {
            if start >= edges.len() {
                break;
            }
            let end = (start + len).min(edges.len());
            ops.push((WalOp::Arrivals, edges[start..end].to_vec()));
            if ops.len() % 3 == 0 {
                let victims = edges[..end].iter().copied().step_by(5).take(6);
                ops.push((WalOp::Deletions, victims.collect()));
            }
            if ops.len() % 7 == 0 {
                ops.push((WalOp::Deletions, vec![edges[start]]));
            }
            start = end;
        }
        ops
    }

    fn apply_op<K: WalkKind, W: WalkIndexMut>(
        engine: &mut WalkEngine<K, W>,
        op: &(WalOp, Vec<Edge>),
    ) {
        match op {
            (WalOp::Arrivals, edges) if edges.len() == 1 => {
                engine.add_edge(edges[0]);
            }
            (WalOp::Arrivals, edges) => {
                engine.apply_arrivals(edges);
            }
            (WalOp::Deletions, edges) if edges.len() == 1 => {
                engine.remove_edge(edges[0]);
            }
            (WalOp::Deletions, edges) => {
                engine.apply_deletions(edges);
            }
        }
    }

    /// Everything recovery must restore: the store's digest, the graph, and every
    /// engine cursor.
    #[derive(Debug, PartialEq)]
    struct EngineState {
        digest: StoreDigest,
        edges: usize,
        rng: [u64; 4],
        batch_index: u64,
        work: WorkCounter,
        initialization_steps: u64,
        wal_seq: u64,
    }

    fn state_of<K: WalkKind, W: WalkIndexMut>(engine: &WalkEngine<K, W>) -> EngineState {
        EngineState {
            digest: StoreDigest::of(&engine.walks),
            edges: engine.graph().edge_count(),
            rng: engine.rng.state(),
            batch_index: engine.batch_index,
            work: engine.work,
            initialization_steps: engine.initialization_steps,
            wal_seq: engine.wal_seq,
        }
    }

    /// Runs the growth schedule into a durable engine `create` builds at `root`,
    /// checkpointing a third of the way in, and "crashes" it; returns its state.
    fn crash_after_schedule<K: WalkKind, W: WalkIndexMut + PersistentWalkStore>(
        root: &Path,
        seed: u64,
        create: &dyn Fn(&Path) -> WalkEngine<K, W>,
    ) -> EngineState {
        let ops = growth_schedule(seed);
        let mut engine = create(root);
        for op in &ops[..ops.len() / 3] {
            apply_op(&mut engine, op);
        }
        engine.checkpoint().unwrap();
        let checkpointed_nodes = engine.node_count();
        for op in &ops[ops.len() / 3..] {
            apply_op(&mut engine, op);
        }
        assert!(
            engine.node_count() > checkpointed_nodes,
            "the tail must grow"
        );
        let state = state_of(&engine);
        assert!(state.wal_seq > 20, "the tail must be long");
        state
    }

    /// Recovers the same store directory from its effect records and by re-running
    /// its edge batches, and holds both to the engine that crashed.
    fn assert_effect_replay_equals_edge_replay<K, W>(
        create: &dyn Fn(&Path) -> WalkEngine<K, W>,
        what: &str,
    ) where
        K: WalkKind,
        W: WalkIndexMut + PersistentWalkStore,
    {
        let tmp = TempDir::new("effect-replay");
        let root = tmp.path().join("store");
        let crashed = crash_after_schedule(&root, 17, create);

        let by_effects = WalkEngine::<K, W>::open(&root).unwrap();
        assert_eq!(state_of(&by_effects), crashed, "{what}: effect replay");
        let profile = by_effects.batch_profile();
        assert!(
            profile.detect.is_zero() && profile.candidates.is_zero(),
            "{what}: replay ran detection: {profile:?}"
        );
        assert_eq!(profile.paths_read, 0, "{what}");
        by_effects.validate_segments().unwrap();
        drop(by_effects);

        let by_edges = WalkEngine::<K, W>::open_replaying_edges(&root).unwrap();
        assert_eq!(state_of(&by_edges), crashed, "{what}: edge replay");
    }

    fn assert_every_layout_replays_effects_like_edges<K: WalkKind>(config: MonteCarloConfig) {
        let graph = || DynamicGraph::with_nodes(10);
        let what = format!("{}, ε = {}", K::NAME, config.epsilon);
        assert_effect_replay_equals_edge_replay::<K, WalkStore>(
            &|root| WalkEngine::create_durable(root, graph(), config).unwrap(),
            &format!("{what}, flat"),
        );
        let disk = |root: &Path| WalkEngine::create_durable_disk(root, graph(), config).unwrap();
        assert_effect_replay_equals_edge_replay::<K, DiskWalkStore>(
            &disk,
            &format!("{what}, disk"),
        );
        let previous = set_thread_page_budget(Some(PageBudget::bounded(2)));
        assert_effect_replay_equals_edge_replay::<K, DiskWalkStore>(
            &disk,
            &format!("{what}, disk under a 2-page cache"),
        );
        set_thread_page_budget(previous);
    }

    #[test]
    fn effect_replay_equals_edge_replay() {
        for config in [
            MonteCarloConfig::new(0.2, 3).with_seed(71),
            MonteCarloConfig::new(0.25, 2).with_seed(73),
        ] {
            assert_every_layout_replays_effects_like_edges::<PageRank>(config);
            assert_every_layout_replays_effects_like_edges::<Salsa>(config);
        }
    }

    #[test]
    fn a_node_added_alone_survives_recovery() {
        let tmp = TempDir::new("add-node");
        let root = tmp.path().join("store");
        let config = MonteCarloConfig::new(0.2, 2).with_seed(79);
        let mut engine =
            WalkEngine::<PageRank>::create_durable(&root, DynamicGraph::with_nodes(4), config)
                .unwrap();
        engine.apply_arrivals(&[Edge::new(0, 1), Edge::new(1, 2)]);
        let node = engine.add_node();
        engine.apply_arrivals(&[Edge::new(node.0, 0)]);
        let crashed = state_of(&engine);
        drop(engine);
        let recovered = WalkEngine::<PageRank>::open(&root).unwrap();
        assert_eq!(recovered.node_count(), 5);
        assert_eq!(state_of(&recovered), crashed);
    }

    /// Rewrites the engine seed in META of snapshot `gen` under `root`, every other
    /// section copied through the snapshot writer (so every CRC stays valid).
    fn rewrite_engine_seed(root: &Path, gen: u64, seed: u64) {
        let path = StoreDir::open(root.to_path_buf())
            .unwrap()
            .snapshot_path(gen);
        let mut snap = SnapshotFile::open(&path).unwrap();
        let tags: Vec<u32> = snap.sections().iter().map(|section| section.tag).collect();
        let mut writer = SnapshotWriter::new(std::io::Cursor::new(Vec::new())).unwrap();
        for tag in tags {
            let mut payload = snap.read_section(tag).unwrap();
            if tag == SECTION_META {
                let mut meta = decode_meta(&payload).unwrap();
                assert_ne!(meta.config.seed, seed);
                meta.config = meta.config.with_seed(seed);
                payload = encode_meta(&meta);
            }
            writer.begin_section(tag).unwrap();
            writer.write(&payload).unwrap();
            writer.end_section().unwrap();
        }
        drop(snap);
        std::fs::write(&path, writer.finish().unwrap().into_inner()).unwrap();
    }

    #[test]
    fn recovery_does_not_depend_on_the_sampler() {
        // A tail replays to the store the crashed engine held even when every repair
        // stream it would draw is another: the seed they derive from is rewritten
        // under it.  Re-running the edges on the new streams gives another store.
        let tmp = TempDir::new("sampler-independence");
        let root = tmp.path().join("store");
        let config = MonteCarloConfig::new(0.2, 3).with_seed(83);
        let create = |root: &Path| {
            WalkEngine::<PageRank>::create_durable(root, DynamicGraph::with_nodes(10), config)
                .unwrap()
        };
        let crashed = crash_after_schedule(&root, 19, &create);
        rewrite_engine_seed(&root, 1, 84);

        let recovered = WalkEngine::<PageRank>::open(&root).unwrap();
        assert_eq!(recovered.config().seed, 84);
        assert_eq!(state_of(&recovered), crashed);
        drop(recovered);
        let rerun = WalkEngine::<PageRank>::open_replaying_edges(&root).unwrap();
        assert_ne!(StoreDigest::of(rerun.walk_store()), crashed.digest);
    }

    /// A store whose generation-0 WAL holds three records; the last creates
    /// nodes 6 and 7 and reroutes into them.
    fn small_store(root: &Path, seed: u64) -> EngineState {
        let config = MonteCarloConfig::new(0.25, 2).with_seed(seed);
        let mut engine =
            WalkEngine::<PageRank>::create_durable(root, DynamicGraph::with_nodes(6), config)
                .unwrap();
        engine.apply_arrivals(&[Edge::new(0, 1), Edge::new(1, 2), Edge::new(2, 0)]);
        engine.apply_deletions(&[Edge::new(1, 2)]);
        engine.apply_arrivals(&[Edge::new(3, 1), Edge::new(7, 2), Edge::new(1, 7)]);
        state_of(&engine)
    }

    /// Rewrites the generation-0 WAL under `root`, every record passed through
    /// `edit` and encoded again (so every frame checksums clean).
    fn rewrite_wal(root: &Path, edit: &dyn Fn(&mut WalRecord)) {
        let path = root.join("wal-000000.log");
        let records = wal::read_records(&path).unwrap().records;
        std::fs::remove_file(&path).unwrap();
        let mut writer = WalWriter::create(&path).unwrap();
        for mut record in records {
            edit(&mut record);
            match &record.effects {
                Some(effects) => {
                    let batch = BatchRecord {
                        seq: record.seq,
                        op: record.op,
                        edges: &record.edges,
                        cursors: effects.cursors,
                        growth: &effects.growth,
                        rewrites: &effects.rewrites,
                    };
                    writer.append_batch(&batch).unwrap();
                }
                None => writer.append(record.seq, record.op, &record.edges).unwrap(),
            }
        }
    }

    #[test]
    fn a_record_that_disagrees_with_itself_is_refused() {
        let tmp = TempDir::new("inconsistent-record");
        type Edit = fn(&mut WalEffects);
        let cases: [(&str, Edit); 7] = [
            ("unchanged", |_| {}),
            ("an edge to a node without segments", |e| {
                e.growth = SegmentRewrites::new()
            }),
            ("a created node short of a segment", |e| {
                let mut growth = SegmentRewrites::new();
                for (id, path) in e.growth.iter().skip(1) {
                    growth.push(id, path);
                }
                e.growth = growth;
            }),
            ("half of a node the batch did not create", |e| {
                let next = SegmentId(e.growth.get(e.growth.len() - 1).0 .0 + 1);
                e.growth.push(next, &[NodeId(8)]);
            }),
            ("a rewrite off its source", |e| {
                let (id, path) = e.rewrites.get(0);
                let mut moved = path.to_vec();
                moved[0] = NodeId((moved[0].0 + 1) % 8);
                e.rewrites.push(id, &moved);
            }),
            ("a batch index that skips", |e| e.cursors.batch_index += 1),
            ("an all-zero generator", |e| e.cursors.rng = [0; 4]),
        ];
        for (i, (what, edit)) in cases.into_iter().enumerate() {
            let root = tmp.path().join(format!("store-{i}"));
            let crashed = small_store(&root, 89);
            rewrite_wal(&root, &|record| {
                if record.seq == 2 {
                    edit(record.effects.as_mut().unwrap());
                }
            });
            match WalkEngine::<PageRank>::open(&root) {
                Ok(recovered) if what == "unchanged" => {
                    assert_eq!(state_of(&recovered), crashed)
                }
                Err(PersistError::Corrupt(_)) if what != "unchanged" => {}
                other => panic!("{what}: {:?}", other.map(|e| state_of(&e))),
            }
        }
        // An edges-only record cannot be replayed.
        let root = tmp.path().join("edges-only");
        small_store(&root, 89);
        rewrite_wal(&root, &|record| record.effects = None);
        assert!(matches!(
            WalkEngine::<PageRank>::open(&root),
            Err(PersistError::Corrupt(_))
        ));
    }

    /// Byte offset of the last frame of the WAL at `path`.
    fn last_frame_offset(bytes: &[u8]) -> usize {
        let (mut pos, mut last) = (16, 16);
        while pos < bytes.len() {
            last = pos;
            let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
            pos += 8 + len;
        }
        last
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(40))]

        /// A record is disk bytes: mutated and re-framed with a fresh CRC, `open`
        /// must refuse it or recover from it, never panic; without one, the
        /// mutation reads as a torn tail and recovery keeps the records before it.
        #[test]
        fn a_mutated_record_is_refused_or_installed_never_panics(
            flip in (0usize..1_000_000, 1u32..256),
            cut in 0usize..1_000_000,
            truncate in 0u32..2,
            seed in 0u64..1_000,
        ) {
            let tmp = TempDir::new("mutated-record");
            let root = tmp.path().join("store");
            small_store(&root, seed);

            let wal_path = root.join("wal-000000.log");
            let clean = std::fs::read(&wal_path).unwrap();
            let at = last_frame_offset(&clean);
            let body = &clean[at + 8..];
            let mut mutated = body.to_vec();
            if truncate == 1 {
                mutated.truncate(cut % body.len());
            } else {
                mutated[flip.0 % body.len()] ^= flip.1 as u8;
            }

            // Without a fresh CRC: a torn tail, recovered to the records before it.
            let mut torn = clean[..at + 8].to_vec();
            torn.extend_from_slice(&mutated);
            std::fs::write(&wal_path, &torn).unwrap();
            let scan = wal::read_records(&wal_path).unwrap();
            prop_assert!(scan.torn_tail);
            prop_assert_eq!(scan.records.len(), 2);
            let recovered = WalkEngine::<PageRank>::open(&root).unwrap();
            prop_assert_eq!(recovered.wal_seq, 2);
            drop(recovered);

            // Re-framed with a fresh CRC: a typed error, or a consistent store in
            // which every node the record names owns its segments.
            let mut reframed = clean[..at].to_vec();
            reframed.extend_from_slice(&(mutated.len() as u32).to_le_bytes());
            reframed.extend_from_slice(&ppr_persist::crc32(&mutated).to_le_bytes());
            reframed.extend_from_slice(&mutated);
            std::fs::write(&wal_path, &reframed).unwrap();
            if let Ok(recovered) = WalkEngine::<PageRank>::open(&root) {
                let walks = recovered.walk_store();
                prop_assert!(walks.check_consistency().is_ok());
                for node in 0..walks.node_count() {
                    let node = NodeId::from_index(node);
                    prop_assert!(walks.segment_ids_of(node).all(|id| walks.segment_len(id) > 0));
                }
            }
        }
    }
}
