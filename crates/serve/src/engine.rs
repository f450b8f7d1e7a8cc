//! The single-writer/many-readers [`QueryEngine`] and its pipelined commit path.
//!
//! The writer side owns the real incremental engine; a `Committer` (inline by
//! default, or on its own thread in pipelined mode) owns one mutable copy-on-write
//! *mirror* of the engine's state (a [`FrozenWalks`] + [`FrozenGraph`] pair).  Each
//! commit
//!
//! 1. applies the batch to the engine exactly as before (same pipeline, same RNG
//!    streams, same WAL hooks when the engine is durable) and **records** its exact
//!    effect on the mirror as a list of [`MirrorOp`]s — the reconciled rewrite
//!    plan(s) plus the segments of any nodes the batch created;
//! 2. hands the recording plus the edge batch itself to the committer as one
//!    `CommitTask`, which replays both into the mirror (walk ops through the
//!    copy-on-write spine, edges directly onto the mirror adjacency — cost
//!    proportional to what the batch touched, never to the store size or to node
//!    degrees), group-syncs the WAL up to the batch's append watermark, and
//!    publishes the advanced mirror as the next [`Generation`];
//! 3. reclaims the superseded generation's buffers as the next mirror when no
//!    reader still pins them ("generation ping-pong"), catching the reclaimed
//!    buffers up by re-syncing exactly the chunks this batch touched.
//!
//! In **pipelined mode** ([`QueryEngine::with_pipeline`]) the committer runs on its
//! own thread behind a bounded in-flight window: the writer starts applying batch
//! `N + 1` to the engine while the mirror advance + generation publish for batch `N`
//! completes.  Tasks are applied strictly in epoch order by a single committer, so
//! the single-writer/epoch-monotonic contract readers rely on is untouched — readers
//! just pin generations a bounded number of epochs behind the live engine until
//! [`QueryEngine::flush_commits`] drains the window.  Durable engines additionally
//! switch their WAL into group-commit mode: appends stop fsyncing individually and
//! the committer issues one coalesced `fdatasync` per drained task, *before*
//! publishing the generation — readers never see a batch the WAL does not cover.
//!
//! Readers pin the current generation through a [`ServeHandle`] (one brief mutex
//! lock to clone an `Arc`, then zero synchronisation for the whole query).  A reader
//! holding generation `g` keeps exactly the chunks `g` references alive; the
//! committer's next `Arc::make_mut` copies only chunks still shared — snapshot
//! isolation by structural sharing, the redb/Manifold generation discipline applied
//! to the PageRank Store.  With the two-level chunk spine, publishing a generation
//! is O(1) clones plus O(touched + √chunks) first-mutation copies; [`CommitStats`]
//! counts exactly that work.

use crate::batch::{QueryBatch, ScratchPool};
use crate::generation::{EngineKind, Generation, PinnedView, Query, Served};
use crate::telem::{CommitSpans, QuerySpans};
use ppr_core::{GroupCommit, Salsa, UpdateStats, WalkEngine, WalkKind};
use ppr_graph::{DynamicGraph, Edge, GraphView, NodeId};
use ppr_store::{
    FrozenGraph, FrozenWalks, SegmentRewrites, TouchedChunks, WalkIndexMut, WalkIndexView,
};
use ppr_telemetry::{SnapshotBuilder, Telemetry, TelemetrySnapshot};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, SyncSender};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// One write operation against the serving engine.
#[derive(Debug, Clone, Copy)]
pub enum WriteOp<'a> {
    /// An edge-arrival batch (`apply_arrivals`).
    Arrivals(&'a [Edge]),
    /// An edge-deletion batch (`apply_deletions`).
    Deletions(&'a [Edge]),
}

/// One recorded effect of a write op on the frozen walk mirror, in application
/// order.  The writer records these while the batch applies; the committer replays
/// them into the mirror without ever touching the live store — which is what lets
/// the mirror advance on another thread while the writer starts the next batch.
#[derive(Debug, Clone)]
pub enum MirrorOp {
    /// Node growth: grow the mirror to `to` nodes and install the (non-empty)
    /// segments the engine generated for them.
    Growth {
        /// Node count after the growth.
        to: usize,
        /// The new nodes' non-empty segment paths, in `segment_ids_of` order,
        /// packed into a pooled plan buffer (same recycling as `Rewrites`).
        segments: SegmentRewrites,
    },
    /// A reconciled rewrite plan, exactly as the engine applied it to the live
    /// store.
    Rewrites(SegmentRewrites),
}

/// The recording sink of [`ServeEngine::apply_and_record`].  Pools the plan
/// buffers of already-committed tasks so that recording a steady stream of
/// small batches stops allocating: a recycled [`SegmentRewrites`] is refilled
/// with a buffer-reusing `clone_from` instead of a fresh clone.
#[derive(Debug, Default)]
pub struct OpsRecorder {
    ops: Vec<MirrorOp>,
    spare_plans: Vec<SegmentRewrites>,
}

impl OpsRecorder {
    /// Appends a growth op, packing the new nodes' segments into a recycled plan
    /// buffer — no per-segment path allocation in steady state.
    fn push_growth<W: WalkIndexView + ?Sized>(&mut self, store: &W, from: usize, to: usize) {
        let mut segments = self.spare_plans.pop().unwrap_or_default();
        segments.clear();
        for node in from..to {
            let node = NodeId::from_index(node);
            for id in store.segment_ids_of(node) {
                let path = store.segment_path(id);
                if !path.is_empty() {
                    segments.push(id, path);
                }
            }
        }
        self.ops.push(MirrorOp::Growth { to, segments });
    }

    /// Appends a rewrite-plan op, refilling a recycled plan when one is pooled.
    fn push_rewrites(&mut self, plan: &SegmentRewrites) {
        let mut copy = self.spare_plans.pop().unwrap_or_default();
        copy.clone_from(plan);
        self.ops.push(MirrorOp::Rewrites(copy));
    }

    /// Drains the ops recorded since the last drain (the commit task's payload).
    pub fn take_ops(&mut self) -> Vec<MirrorOp> {
        std::mem::take(&mut self.ops)
    }

    /// Returns a committed task's plan buffers to the pool.
    pub fn recycle_plan(&mut self, plan: SegmentRewrites) {
        if self.spare_plans.len() < 16 {
            self.spare_plans.push(plan);
        }
    }
}

/// The engine surface [`QueryEngine`] serves: apply a write op while recording its
/// exact effect on a frozen mirror.  Implemented by [`WalkEngine`] of either walk
/// kind over every store layout.
pub trait ServeEngine {
    /// Which engine family this is (decides segment interpretation in queries).
    fn kind(&self) -> EngineKind;

    /// The walk reset probability queries must use.
    fn epsilon(&self) -> f64;

    /// The live graph (each commit records its post-batch node/edge counts; the
    /// mirror adjacency advances by replaying the edge batch, never by reading
    /// the live graph).
    fn live_graph(&self) -> &DynamicGraph;

    /// Full freeze of the live walk store (done once, at serving start).
    fn freeze_walks(&self, epoch: u64) -> FrozenWalks;

    /// Applies `op` to the live engine and appends to `rec` the exact recording of
    /// its effect: replaying the recorded [`MirrorOp`]s, in order, into a mirror
    /// that matched the pre-batch store leaves it bit-identical to the post-batch
    /// store.
    fn apply_and_record(&mut self, op: WriteOp<'_>, rec: &mut OpsRecorder) -> UpdateStats;

    /// Switches the engine's WAL (if durable and fsyncing) into group-commit mode,
    /// returning the handle the committer syncs through.  The default (in-memory
    /// engines) has nothing to sync.
    fn group_commit(&mut self) -> Option<GroupCommit> {
        None
    }

    /// Leaves WAL group-commit mode with one final covering sync.
    fn end_group_commit(&mut self) {}

    /// Drains the nanoseconds [`ServeEngine::apply_and_record`] calls have spent
    /// waiting for their own WAL `fdatasync` since the last call (the first call
    /// starts the timing) — what lets an inline commit book that wait under
    /// `commit.wal_sync` instead of `commit.apply`.  The default (in-memory
    /// engines) has no WAL.
    fn take_wal_sync_nanos(&mut self) -> Option<u64> {
        None
    }

    /// Emits the live engine's own telemetry layers (`store.*`, `work.*`,
    /// `batch.*`, the walk store's counters, `wal.*` when durable) into `out` —
    /// what lets [`QueryEngine::telemetry_snapshot`] fold the whole stack into
    /// one snapshot.  The default emits nothing.
    fn emit_metrics(&self, out: &mut SnapshotBuilder) {
        let _ = out;
    }
}

impl<K: WalkKind, W: WalkIndexMut> ServeEngine for WalkEngine<K, W> {
    fn kind(&self) -> EngineKind {
        if K::TAG == Salsa::TAG {
            EngineKind::Salsa
        } else {
            EngineKind::PageRank
        }
    }

    fn epsilon(&self) -> f64 {
        self.config().epsilon
    }

    fn live_graph(&self) -> &DynamicGraph {
        self.graph()
    }

    fn freeze_walks(&self, epoch: u64) -> FrozenWalks {
        FrozenWalks::from_index(self.walk_store(), epoch)
    }

    fn apply_and_record(&mut self, op: WriteOp<'_>, rec: &mut OpsRecorder) -> UpdateStats {
        let before = self.walk_store().node_count();
        let stats = match op {
            WriteOp::Arrivals(edges) => self.apply_arrivals(edges),
            WriteOp::Deletions(edges) => self.apply_deletions(edges),
        };
        // Growth first: the plan may rewrite segments of nodes that did not exist
        // at the previous generation.
        let after = self.walk_store().node_count();
        if after > before {
            rec.push_growth(self.walk_store(), before, after);
        }
        rec.push_rewrites(self.last_rewrites());
        stats
    }

    fn group_commit(&mut self) -> Option<GroupCommit> {
        self.wal_group_commit()
    }

    fn end_group_commit(&mut self) {
        self.wal_end_group_commit();
    }

    fn take_wal_sync_nanos(&mut self) -> Option<u64> {
        WalkEngine::take_wal_sync_nanos(self)
    }

    fn emit_metrics(&self, out: &mut SnapshotBuilder) {
        self.emit_telemetry(out);
    }
}

/// Write-path observability: what the commit path actually did, surfaced like
/// `ArenaStats` / `BatchProfile`.  Snapshot via [`QueryEngine::commit_stats`].
///
/// The copy counters are the proof the two-level spine keeps commits O(touched): a
/// 1-edge batch on a large store copies a handful of leaf chunks and O(1) spine
/// blocks, never O(store).  The WAL counters show group-commit coalescing
/// (`wal_appends_synced / wal_fsyncs` appends covered per `fdatasync`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CommitStats {
    /// Generations published.
    pub commits: u64,
    /// Commits handed to the pipelined committer thread (0 in inline mode).
    pub pipelined_commits: u64,
    /// Highest commit-pipeline occupancy observed (epochs in flight at send time).
    pub max_inflight: u64,
    /// Walk-path leaf chunks copy-on-write re-copied.
    pub walk_chunks_copied: u64,
    /// Visit-count leaf chunks re-copied.
    pub count_chunks_copied: u64,
    /// Adjacency leaf chunks re-copied.
    pub graph_chunks_copied: u64,
    /// Two-level spine blocks re-copied, across all three spines.
    pub spine_blocks_copied: u64,
    /// `fdatasync` calls the WAL group-commit issued (0 without a durable engine).
    pub wal_fsyncs: u64,
    /// WAL appends those syncs covered (> `wal_fsyncs` means coalescing won).
    pub wal_appends_synced: u64,
}

/// The shared atomic cell behind [`CommitStats`] (writer and committer threads both
/// update it; any thread may snapshot).
#[derive(Debug, Default)]
struct CommitStatsCell {
    commits: AtomicU64,
    pipelined_commits: AtomicU64,
    max_inflight: AtomicU64,
    walk_chunks_copied: AtomicU64,
    count_chunks_copied: AtomicU64,
    graph_chunks_copied: AtomicU64,
    spine_blocks_copied: AtomicU64,
    wal_fsyncs: AtomicU64,
    wal_appends_synced: AtomicU64,
}

impl CommitStatsCell {
    fn snapshot(&self) -> CommitStats {
        CommitStats {
            commits: self.commits.load(Ordering::Relaxed),
            pipelined_commits: self.pipelined_commits.load(Ordering::Relaxed),
            max_inflight: self.max_inflight.load(Ordering::Relaxed),
            walk_chunks_copied: self.walk_chunks_copied.load(Ordering::Relaxed),
            count_chunks_copied: self.count_chunks_copied.load(Ordering::Relaxed),
            graph_chunks_copied: self.graph_chunks_copied.load(Ordering::Relaxed),
            spine_blocks_copied: self.spine_blocks_copied.load(Ordering::Relaxed),
            wal_fsyncs: self.wal_fsyncs.load(Ordering::Relaxed),
            wal_appends_synced: self.wal_appends_synced.load(Ordering::Relaxed),
        }
    }
}

/// Which direction a batch moves the graph — tells the committer how to replay
/// `edges` on the mirror adjacency.
#[derive(Debug, Clone, Copy)]
enum GraphOp {
    Arrivals,
    Deletions,
}

/// Everything the committer needs to advance the mirror by one batch and publish
/// the next generation — recorded by the writer, free of references into the live
/// engine.
#[derive(Debug)]
struct CommitTask {
    epoch: u64,
    ops: Vec<MirrorOp>,
    /// Graph node count after the batch.
    node_count: usize,
    /// Graph edge count after the batch.
    edge_count: usize,
    /// The edge batch itself, replayed on the mirror adjacency in batch order —
    /// O(1) per edge, where re-snapshotting endpoint lists would be O(degree).
    graph_op: GraphOp,
    edges: Vec<Edge>,
    /// WAL append watermark this batch is covered by (durable engines only).
    wal_mark: Option<u64>,
}

/// Owns the mirrors and publishes generations — inline on the writer, or on the
/// commit thread in pipelined mode.  Tasks arrive strictly in epoch order either
/// way, which is what keeps published generations epoch-monotonic.
#[derive(Debug)]
struct Committer {
    kind: EngineKind,
    epsilon: f64,
    mirror_walks: FrozenWalks,
    mirror_graph: FrozenGraph,
    published: Arc<Mutex<Arc<Generation>>>,
    /// `(last committed epoch, its condvar)` — [`QueryEngine::flush_commits`] waits
    /// here for the pipeline to drain.
    committed: Arc<(Mutex<u64>, Condvar)>,
    stats: Arc<CommitStatsCell>,
    /// Group-commit handle for the coalesced WAL sync (pipelined durable mode).
    group: Option<GroupCommit>,
    /// Reusable record of the leaf chunks the current batch touched — what the
    /// ping-pong catch-up syncs into the reclaimed back buffer.
    touched: TouchedChunks,
    /// Recycled placeholder pair parked in the mirror slots while the advanced
    /// mirror moves into the published generation — keeps the publish swap
    /// allocation-free in steady state.
    spare: Option<(FrozenWalks, FrozenGraph)>,
    /// Commit-stage histograms (`commit.mirror` / `commit.wal_sync` /
    /// `commit.publish`), installed by [`QueryEngine::with_telemetry`] before
    /// the committer moves onto its thread.  `None` keeps `run` span-free.
    spans: Option<CommitSpans>,
}

impl Committer {
    /// Replays the task's edge batch on a mirror adjacency view in batch order —
    /// the engine (either walk kind) mutates the live graph strictly per edge in batch
    /// order (arrivals push, deletions first-occurrence `swap_remove`, absent
    /// edges skipped), so replay reproduces the live lists element-for-element,
    /// which queries rely on (sampling picks neighbours by list position).
    fn replay_edges(mirror: &mut FrozenGraph, task: &CommitTask) {
        match task.graph_op {
            GraphOp::Arrivals => {
                for &edge in &task.edges {
                    mirror.add_edge(edge);
                }
            }
            GraphOp::Deletions => {
                for &edge in &task.edges {
                    mirror.remove_edge(edge);
                }
            }
        }
        debug_assert_eq!(mirror.edge_count(), task.edge_count);
        mirror.set_edge_count(task.edge_count);
    }

    /// Runs one commit task to completion and returns its emptied shell (the
    /// outer buffers) so an inline caller can recycle the allocations; the
    /// pipelined commit thread just drops it.
    fn run(&mut self, task: CommitTask) -> CommitTask {
        self.touched.clear();
        let mirror_span = self.spans.as_ref().map(|s| s.tele.time(&s.mirror));
        for op in &task.ops {
            match op {
                MirrorOp::Growth { to, segments } => {
                    self.mirror_walks.ensure_nodes(*to);
                    for (id, path) in segments.iter() {
                        self.mirror_walks
                            .set_segment_recording(id, path, &mut self.touched);
                    }
                }
                MirrorOp::Rewrites(plan) => self
                    .mirror_walks
                    .apply_rewrites_recording(plan, &mut self.touched),
            }
        }
        self.mirror_graph.ensure_nodes(task.node_count);
        Committer::replay_edges(&mut self.mirror_graph, &task);
        self.mirror_walks.set_epoch(task.epoch);
        drop(mirror_span);

        let (walk, counts) = self.mirror_walks.take_copy_stats();
        let graph = self.mirror_graph.take_copy_stats();
        self.stats.commits.fetch_add(1, Ordering::Relaxed);
        self.stats
            .walk_chunks_copied
            .fetch_add(walk.chunks_copied, Ordering::Relaxed);
        self.stats
            .count_chunks_copied
            .fetch_add(counts.chunks_copied, Ordering::Relaxed);
        self.stats
            .graph_chunks_copied
            .fetch_add(graph.chunks_copied, Ordering::Relaxed);
        self.stats.spine_blocks_copied.fetch_add(
            walk.blocks_copied + counts.blocks_copied + graph.blocks_copied,
            Ordering::Relaxed,
        );

        // Durability before visibility: one coalesced sync covers every WAL append
        // up to this batch before any reader can pin the generation holding it.
        if let (Some(group), Some(mark)) = (&self.group, task.wal_mark) {
            let _wal_sync = self.spans.as_ref().map(|s| s.tele.time(&s.wal_sync));
            group
                .sync_upto(mark)
                .expect("group-commit WAL sync failed; cannot break durability silently");
            self.stats
                .wal_fsyncs
                .store(group.fsyncs(), Ordering::Relaxed);
            self.stats
                .wal_appends_synced
                .store(group.synced(), Ordering::Relaxed);
        }

        // Publish by MOVING the advanced mirror into the generation — no clone, no
        // refcount sweep — then reclaim the superseded generation's buffers as the
        // next mirror ("generation ping-pong").
        let publish_span = self.spans.as_ref().map(|s| s.tele.time(&s.publish));
        let (spare_walks, spare_graph) = self
            .spare
            .take()
            .unwrap_or_else(|| (FrozenWalks::empty(1, 0, 0), FrozenGraph::empty()));
        let front_walks = std::mem::replace(&mut self.mirror_walks, spare_walks);
        let front_graph = std::mem::replace(&mut self.mirror_graph, spare_graph);
        let generation = Arc::new(Generation {
            epoch: task.epoch,
            kind: self.kind,
            epsilon: self.epsilon,
            walks: front_walks,
            graph: front_graph,
        });
        let superseded = {
            let mut slot = self.published.lock().expect("generation slot poisoned");
            std::mem::replace(&mut *slot, Arc::clone(&generation))
        };
        match Arc::try_unwrap(superseded) {
            Ok(back) => {
                // No reader pinned the superseded generation: its buffers become the
                // next mirror, caught up by syncing exactly the chunks this batch
                // touched — in-place memcpys, allocation-free in steady state.
                self.spare = Some((
                    std::mem::replace(&mut self.mirror_walks, back.walks),
                    std::mem::replace(&mut self.mirror_graph, back.graph),
                ));
                self.mirror_walks
                    .sync_touched_from(&generation.walks, &mut self.touched);
                self.mirror_graph.ensure_nodes(task.node_count);
                Committer::replay_edges(&mut self.mirror_graph, &task);
            }
            Err(pinned) => {
                // A reader still holds it; clone the just-published generation (O(1)
                // root bumps) and let copy-on-write cover whatever stays pinned.
                drop(pinned);
                self.spare = Some((
                    std::mem::replace(&mut self.mirror_walks, generation.walks.clone()),
                    std::mem::replace(&mut self.mirror_graph, generation.graph.clone()),
                ));
            }
        }
        drop(publish_span);

        let (lock, condvar) = &*self.committed;
        *lock.lock().expect("commit watermark poisoned") = task.epoch;
        condvar.notify_all();
        task
    }
}

/// The commit thread of a pipelined serving session: a bounded channel (the
/// in-flight window) feeding one [`Committer`].
#[derive(Debug)]
struct CommitPipeline {
    sender: SyncSender<CommitTask>,
    thread: JoinHandle<Committer>,
    window: usize,
}

/// Who runs commit tasks.  `Parked` is the transitional state while the pipeline is
/// being started or torn down; it is never observable from outside.
#[derive(Debug)]
enum CommitMode {
    Inline(Box<Committer>),
    Piped(CommitPipeline),
    Parked,
}

/// The shared generation slot readers pin from.  Cloning the handle is cheap; it is
/// the address a serving session hands to its reader threads.
#[derive(Debug, Clone)]
pub struct ServeHandle {
    published: Arc<Mutex<Arc<Generation>>>,
    query_seed: u64,
    /// Query-lifecycle instruments shared by every handle clone of the session
    /// (`None` until [`QueryEngine::with_telemetry`]).
    spans: Option<Arc<QuerySpans>>,
    /// The session's pool of batch execution contexts, shared by every handle
    /// clone so batch serving reuses scratch across threads and batches.
    scratch: Arc<ScratchPool>,
}

impl ServeHandle {
    /// Pins the current generation: one brief lock to clone the `Arc`, then the
    /// whole query runs lock-free against immutable data.
    pub fn pin(&self) -> PinnedView {
        PinnedView(Arc::clone(
            &self.published.lock().expect("generation slot poisoned"),
        ))
    }

    /// The session's query seed (queries draw from `(query_seed, query_id)`).
    pub fn query_seed(&self) -> u64 {
        self.query_seed
    }

    /// Pins the current generation and answers one query on the
    /// `(session query_seed, query_id)` stream — a batch of one through the
    /// same pooled context [`ServeHandle::serve_batch`] uses, so a steady
    /// stream of single queries allocates no scratch.  With telemetry attached
    /// the call is traced (`query.latency` over `query.pin` → `query.walk` →
    /// `query.topk`, or `query.global_topk` for a global-rank or hub/authority
    /// query) — tracing never changes the answer's bits.
    pub fn serve(&self, query_id: u64, query: &Query) -> Served {
        let spans = self.spans.as_deref();
        let _latency = spans.map(|s| s.tele.time(&s.latency));
        let view = {
            let _pin = spans.map(|s| s.tele.time(&s.pin));
            self.pin()
        };
        let mut ctx = self.scratch.take();
        let served =
            view.answer_in_context(self.query_seed, query_id, query, &mut ctx, None, spans);
        self.scratch.put(ctx);
        served
    }

    /// Serves a whole [`QueryBatch`] on the calling thread under **one**
    /// generation pin: all queries run through one pooled per-query scratch and
    /// fetch straight from the pinned generation, with any batch deadline
    /// applied per query.  Answers come back in batch order and are
    /// bit-identical to calling [`ServeHandle::serve`] per query (absent an
    /// expiring deadline) — see the [batch module docs](crate::batch).  For a fanned-out batch use
    /// [`crate::ReaderPool::serve_batch`].
    pub fn serve_batch(&self, batch: &QueryBatch) -> Vec<Served> {
        let spans = self.spans.as_deref();
        if let Some(s) = spans {
            s.batch_size.record(batch.len() as u64);
        }
        let view = {
            let _pin = spans.map(|s| s.tele.time(&s.pin));
            self.pin()
        };
        let mut ctx = self.scratch.take();
        let mut out = Vec::with_capacity(batch.len());
        for (query_id, query) in &batch.jobs {
            let _latency = spans.map(|s| s.tele.time(&s.latency));
            out.push(view.answer_in_context(
                self.query_seed,
                *query_id,
                query,
                &mut ctx,
                batch.deadline.as_ref(),
                spans,
            ));
        }
        self.scratch.put(ctx);
        out
    }

    /// The session's query-lifecycle instruments (pool entry points record the
    /// batch-level spans themselves).
    pub(crate) fn query_spans(&self) -> Option<&Arc<QuerySpans>> {
        self.spans.as_ref()
    }

    /// The session's shared per-query scratch pool.
    pub(crate) fn scratch_pool(&self) -> &Arc<ScratchPool> {
        &self.scratch
    }
}

/// Snapshot-isolated serving over one incremental engine: a single writer commits
/// batches, any number of readers answer queries from epoch-pinned generations.
///
/// By default commits complete inline — [`QueryEngine::pin`] right after a commit
/// sees that commit's generation.  [`QueryEngine::with_pipeline`] moves the mirror
/// advance, WAL sync, and generation publish onto a commit thread behind a bounded
/// window; readers then trail the live engine by at most `window` epochs until
/// [`QueryEngine::flush_commits`] drains the pipeline.
#[derive(Debug)]
pub struct QueryEngine<E: ServeEngine> {
    engine: E,
    epoch: u64,
    mode: CommitMode,
    published: Arc<Mutex<Arc<Generation>>>,
    committed: Arc<(Mutex<u64>, Condvar)>,
    stats: Arc<CommitStatsCell>,
    /// Writer-side clone of the WAL group-commit handle (pipelined durable mode):
    /// reads the append watermark each batch must be synced up to.
    group: Option<GroupCommit>,
    query_seed: u64,
    /// Recording sink (pools plan buffers across commits).
    recorder: OpsRecorder,
    /// Shell of the last inline-committed task, recycled into the next one.
    spare_task: Option<CommitTask>,
    /// The registry [`QueryEngine::telemetry_snapshot`] collects through
    /// (`None` until [`QueryEngine::with_telemetry`]).
    telemetry: Option<Telemetry>,
    /// Writer-side commit-stage spans (`commit.apply` wraps the engine apply).
    spans: Option<CommitSpans>,
    /// Query-lifecycle instruments cloned into every [`ServeHandle`].
    query_spans: Option<Arc<QuerySpans>>,
    /// Batch execution contexts pooled across the session (cloned into every
    /// [`ServeHandle`] so batches reuse scratch regardless of which thread
    /// serves them).
    scratch: Arc<ScratchPool>,
}

impl<E: ServeEngine> QueryEngine<E> {
    /// Wraps `engine` for serving: freezes generation 0 and publishes it.
    /// `query_seed` keys every query stream of this serving session.
    pub fn new(engine: E, query_seed: u64) -> Self {
        let mirror_walks = engine.freeze_walks(0);
        let mirror_graph = FrozenGraph::from_graph(engine.live_graph());
        let generation = Arc::new(Generation {
            epoch: 0,
            kind: engine.kind(),
            epsilon: engine.epsilon(),
            walks: mirror_walks.clone(),
            graph: mirror_graph.clone(),
        });
        let published = Arc::new(Mutex::new(generation));
        let committed = Arc::new((Mutex::new(0), Condvar::new()));
        let stats = Arc::new(CommitStatsCell::default());
        let committer = Committer {
            kind: engine.kind(),
            epsilon: engine.epsilon(),
            mirror_walks,
            mirror_graph,
            published: Arc::clone(&published),
            committed: Arc::clone(&committed),
            stats: Arc::clone(&stats),
            group: None,
            touched: TouchedChunks::default(),
            spare: None,
            spans: None,
        };
        QueryEngine {
            engine,
            epoch: 0,
            mode: CommitMode::Inline(Box::new(committer)),
            published,
            committed,
            stats,
            group: None,
            query_seed,
            recorder: OpsRecorder::default(),
            spare_task: None,
            telemetry: None,
            spans: None,
            query_spans: None,
            scratch: Arc::new(ScratchPool::default()),
        }
    }

    /// Attaches a telemetry registry to the serving session: commit stages
    /// (`commit.apply` / `commit.mirror` / `commit.wal_sync` / `commit.publish`)
    /// and the query lifecycle (`query.*`, on every [`ServeHandle`] created from
    /// now on) record into `tele`'s histograms, and
    /// [`QueryEngine::telemetry_snapshot`] collects through it.  A running
    /// commit pipeline is bounced (drained and restarted with the same window)
    /// so the commit thread picks the instruments up.  Telemetry observes only:
    /// published generations and query answers stay bit-identical.
    pub fn with_telemetry(mut self, tele: &Telemetry) -> Self {
        let spans = CommitSpans::new(tele);
        let window = self.pipeline_window();
        let mut committer = self
            .stop_pipeline()
            .expect("commit mode always recoverable");
        committer.spans = Some(spans.clone());
        self.mode = CommitMode::Inline(Box::new(committer));
        // From here on the WAL times the fsync inside each inline apply.
        self.engine.take_wal_sync_nanos();
        self.telemetry = Some(tele.clone());
        self.spans = Some(spans);
        self.query_spans = Some(Arc::new(QuerySpans::new(tele)));
        if window > 0 {
            self.with_pipeline(window)
        } else {
            self
        }
    }

    /// Moves the commit path onto its own thread behind a bounded in-flight
    /// `window` (clamped to at least 1): the writer applies batch `N + 1` while the
    /// mirror advance + publish for batch `N` completes, and durable engines switch
    /// their WAL into group-commit mode (one coalesced sync per drained task).
    /// Idempotent on an already-pipelined session.
    pub fn with_pipeline(mut self, window: usize) -> Self {
        let window = window.max(1);
        let mut committer = match self.stop_pipeline() {
            Some(c) => c,
            None => unreachable!("commit mode always recoverable"),
        };
        self.group = self.engine.group_commit();
        committer.group = self.group.clone();
        let (sender, receiver) = sync_channel::<CommitTask>(window);
        let thread = std::thread::Builder::new()
            .name("ppr-commit".into())
            .spawn(move || {
                let mut committer = committer;
                for task in receiver {
                    committer.run(task);
                }
                committer
            })
            .expect("spawning the commit thread failed");
        self.mode = CommitMode::Piped(CommitPipeline {
            sender,
            thread,
            window,
        });
        self
    }

    /// Tears the pipeline (if any) down — draining every queued task — and returns
    /// the committer for inline reuse.
    fn stop_pipeline(&mut self) -> Option<Committer> {
        match std::mem::replace(&mut self.mode, CommitMode::Parked) {
            CommitMode::Inline(committer) => Some(*committer),
            CommitMode::Piped(pipeline) => {
                drop(pipeline.sender);
                Some(pipeline.thread.join().expect("the commit thread panicked"))
            }
            CommitMode::Parked => None,
        }
    }

    /// The configured pipeline window (0 when commits run inline).
    pub fn pipeline_window(&self) -> usize {
        match &self.mode {
            CommitMode::Piped(pipeline) => pipeline.window,
            _ => 0,
        }
    }

    /// Blocks until every commit issued so far has published its generation (a
    /// no-op in inline mode).  After this, [`QueryEngine::pin`] sees the latest
    /// committed epoch.
    pub fn flush_commits(&mut self) {
        let (lock, condvar) = &*self.committed;
        let mut committed = lock.lock().expect("commit watermark poisoned");
        while *committed < self.epoch {
            committed = condvar.wait(committed).expect("commit watermark poisoned");
        }
    }

    /// Write-path observability: copy-on-write work, WAL sync coalescing, pipeline
    /// occupancy.  Counters accumulate over the session.
    pub fn commit_stats(&self) -> CommitStats {
        self.stats.snapshot()
    }

    /// The reader-facing handle (clone one per reader thread).
    pub fn handle(&self) -> ServeHandle {
        ServeHandle {
            published: Arc::clone(&self.published),
            query_seed: self.query_seed,
            spans: self.query_spans.clone(),
            scratch: Arc::clone(&self.scratch),
        }
    }

    /// One whole-stack observability snapshot through the attached registry:
    /// the live engine's layers ([`ServeEngine::emit_metrics`]: `store.*`,
    /// `work.*`, `batch.*`, the walk store's counters, `wal.*` when durable),
    /// the commit path (`commit.*` counters plus the stage histograms), serving
    /// gauges (`serve.*`), and every query-lifecycle histogram readers recorded.
    /// Returns `None` until [`QueryEngine::with_telemetry`] attaches a
    /// registry.
    pub fn telemetry_snapshot(&self) -> Option<TelemetrySnapshot> {
        let tele = self.telemetry.as_ref()?;
        let adapter = |out: &mut SnapshotBuilder| {
            self.engine.emit_metrics(out);
            out.source("commit", &self.commit_stats());
            out.scoped("serve", |out| {
                out.gauge("epoch", self.epoch as f64);
                out.gauge("published_epoch", self.pin().epoch() as f64);
                out.gauge("pipeline_window", self.pipeline_window() as f64);
            });
        };
        Some(tele.collect_with(&[&adapter]))
    }

    /// Pins the writer's current generation (readers use [`ServeHandle::pin`]).
    /// Under a pipeline this may trail [`QueryEngine::epoch`] by up to the window;
    /// [`QueryEngine::flush_commits`] closes the gap.
    pub fn pin(&self) -> PinnedView {
        self.handle().pin()
    }

    /// The current committed epoch of the live engine (the writer's view; published
    /// generations trail it by at most the pipeline window).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The wrapped engine (read access; all writes go through the commit path).
    pub fn engine(&self) -> &E {
        &self.engine
    }

    /// Mutable access to the wrapped engine for maintenance that leaves its
    /// *logical* state untouched — durable checkpoints, WAL rotation, compaction
    /// tuning.  Flushes the commit pipeline first, so maintenance always sees a
    /// fully published engine.  Applying edge batches here instead of through
    /// [`Self::commit_arrivals`] / [`Self::commit_deletions`] would desync the
    /// published mirror from the live store.
    pub fn engine_mut(&mut self) -> &mut E {
        self.flush_commits();
        &mut self.engine
    }

    /// Unwraps the serving layer and returns the engine — e.g. to drop it
    /// (simulating a crash for the chaos harness) and reopen from its durable
    /// store.  Drains the pipeline, ends WAL group-commit mode (one final covering
    /// sync), and joins the commit thread.  Readers holding the old handle keep the
    /// last published generation; a new serving session starts from
    /// [`QueryEngine::new`].
    pub fn into_engine(mut self) -> E {
        let _ = self.stop_pipeline();
        self.group = None;
        self.engine.end_group_commit();
        self.engine
    }

    /// Commits an arrival batch: applies it to the engine, records its mirror
    /// effect, and hands the commit task to the (inline or pipelined) committer.
    pub fn commit_arrivals(&mut self, edges: &[Edge]) -> UpdateStats {
        self.commit(WriteOp::Arrivals(edges), edges)
    }

    /// Commits a deletion batch (see [`Self::commit_arrivals`]).
    pub fn commit_deletions(&mut self, edges: &[Edge]) -> UpdateStats {
        self.commit(WriteOp::Deletions(edges), edges)
    }

    fn commit(&mut self, op: WriteOp<'_>, edges: &[Edge]) -> UpdateStats {
        let graph_op = match op {
            WriteOp::Arrivals(_) => GraphOp::Arrivals,
            WriteOp::Deletions(_) => GraphOp::Deletions,
        };
        let timed = self.spans.as_ref().filter(|s| s.tele.is_enabled());
        let timed = timed.map(|s| (s, s.tele.now_nanos()));
        let stats = self.engine.apply_and_record(op, &mut self.recorder);
        if let Some((s, started)) = timed {
            // An inline durable commit fsyncs its WAL record inside the apply: that
            // wait is `commit.wal_sync`'s (as on the pipelined path), not the
            // reroute's.
            let elapsed = s.tele.now_nanos().saturating_sub(started);
            let sync = self.engine.take_wal_sync_nanos().unwrap_or(0);
            s.apply.record(elapsed.saturating_sub(sync));
            if sync > 0 {
                s.wal_sync.record(sync);
            }
        }
        // Every append this batch made (durable engines append inside the apply) is
        // at or below the group's current watermark.
        let wal_mark = self.group.as_ref().map(|group| group.appended());

        // The committer needs no access to the live engine: it replays the edge
        // batch itself on the mirror adjacency, in batch order.
        let mut batch = match self.spare_task.take() {
            Some(shell) => shell.edges,
            None => Vec::new(),
        };
        batch.clear();
        batch.extend_from_slice(edges);

        let graph = self.engine.live_graph();
        self.epoch += 1;
        let task = CommitTask {
            epoch: self.epoch,
            ops: self.recorder.take_ops(),
            node_count: graph.node_count(),
            edge_count: graph.edge_count(),
            graph_op,
            edges: batch,
            wal_mark,
        };
        match &mut self.mode {
            CommitMode::Inline(committer) => {
                let mut shell = committer.run(task);
                for op in shell.ops.drain(..) {
                    match op {
                        MirrorOp::Rewrites(plan) | MirrorOp::Growth { segments: plan, .. } => {
                            self.recorder.recycle_plan(plan)
                        }
                    }
                }
                self.spare_task = Some(shell);
            }
            CommitMode::Piped(pipeline) => {
                self.stats.pipelined_commits.fetch_add(1, Ordering::Relaxed);
                let inflight =
                    self.epoch - *self.committed.0.lock().expect("commit watermark poisoned");
                self.stats
                    .max_inflight
                    .fetch_max(inflight, Ordering::Relaxed);
                pipeline
                    .sender
                    .send(task)
                    .expect("the commit thread died with tasks in flight");
            }
            CommitMode::Parked => unreachable!("commit mode is never parked mid-commit"),
        }
        stats
    }
}
