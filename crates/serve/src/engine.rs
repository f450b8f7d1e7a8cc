//! The single-writer/many-readers [`QueryEngine`] and its commit path.
//!
//! The writer side owns the real incremental engine; a `Committer` owns one
//! mutable copy-on-write *mirror* of the engine's state (a [`FrozenWalks`] +
//! [`FrozenGraph`] pair).  Each commit runs inline, in this order, before
//! [`QueryEngine::commit_arrivals`] / [`QueryEngine::commit_deletions`] returns:
//!
//! 1. the engine applies the batch exactly as it would unserved (same RNG
//!    streams); a durable engine first writes the batch's WAL record and
//!    `fdatasync`s it, then installs the plan in its walk store;
//! 2. the committer advances the mirror by the batch's effect — the segments of
//!    any nodes it created, read from the live store, then the engine's own
//!    reconciled rewrite plan, then the edge batch replayed onto the mirror
//!    adjacency (cost proportional to what the batch touched, never to the store
//!    size or to node degrees) — and publishes the advanced mirror as the next
//!    [`Generation`];
//! 3. the committer reclaims the superseded generation's buffers as the next
//!    mirror when no reader still pins them ("generation ping-pong"), catching the
//!    reclaimed buffers up by re-syncing exactly the chunks this batch touched.
//!
//! So a reader never sees a batch the WAL does not hold, and [`QueryEngine::pin`]
//! right after a commit sees that commit's generation.
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
use ppr_core::{Salsa, UpdateStats, WalkEngine, WalkKind};
use ppr_graph::{DynamicGraph, Edge, GraphView, NodeId};
use ppr_store::{
    FrozenGraph, FrozenWalks, SegmentRewrites, TouchedChunks, WalkIndexMut, WalkIndexView,
};
use ppr_telemetry::{SnapshotBuilder, Telemetry, TelemetrySnapshot};
use std::sync::{Arc, Mutex};

/// One write operation against the serving engine.
#[derive(Debug, Clone, Copy)]
pub enum WriteOp<'a> {
    /// An edge-arrival batch (`apply_arrivals`).
    Arrivals(&'a [Edge]),
    /// An edge-deletion batch (`apply_deletions`).
    Deletions(&'a [Edge]),
}

/// The engine surface [`QueryEngine`] serves: apply a write op, then expose the
/// live state the committer advances its mirror from.  Implemented by
/// [`WalkEngine`] of either walk kind over every store layout.
pub trait ServeEngine {
    /// The live walk store's type.
    type Walks: WalkIndexView;

    /// Which engine family this is (decides segment interpretation in queries).
    fn kind(&self) -> EngineKind;

    /// The walk reset probability queries must use.
    fn epsilon(&self) -> f64;

    /// The live graph (each commit reads its post-batch node/edge counts; the
    /// mirror adjacency advances by replaying the edge batch, never by reading
    /// the live lists).
    fn live_graph(&self) -> &DynamicGraph;

    /// The live walk store (frozen whole once, at serving start; afterwards only
    /// the segments of nodes a batch created are read from it).
    fn live_walks(&self) -> &Self::Walks;

    /// Applies `op` to the live engine.
    fn apply(&mut self, op: WriteOp<'_>) -> UpdateStats;

    /// The reconciled rewrite plan the last [`ServeEngine::apply`] installed:
    /// replaying it, after the segments of the nodes the op created, into a
    /// mirror that matched the pre-op store leaves it bit-identical to the
    /// post-op store.
    fn last_rewrites(&self) -> &SegmentRewrites;

    /// Drains the nanoseconds [`ServeEngine::apply`] calls have spent waiting for
    /// their own WAL `fdatasync` since the last call (the first call starts the
    /// timing) — what lets a commit book that wait under `commit.wal_sync`
    /// instead of `commit.apply`.  The default (in-memory engines) has no WAL.
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
    type Walks = W;

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

    fn live_walks(&self) -> &W {
        self.walk_store()
    }

    fn apply(&mut self, op: WriteOp<'_>) -> UpdateStats {
        match op {
            WriteOp::Arrivals(edges) => self.apply_arrivals(edges),
            WriteOp::Deletions(edges) => self.apply_deletions(edges),
        }
    }

    fn last_rewrites(&self) -> &SegmentRewrites {
        WalkEngine::last_rewrites(self)
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
/// blocks, never O(store).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CommitStats {
    /// Generations published.
    pub commits: u64,
    /// Walk-path leaf chunks copy-on-write re-copied.
    pub walk_chunks_copied: u64,
    /// Visit-count leaf chunks re-copied.
    pub count_chunks_copied: u64,
    /// Adjacency leaf chunks re-copied.
    pub graph_chunks_copied: u64,
    /// Two-level spine blocks re-copied, across all three spines.
    pub spine_blocks_copied: u64,
}

/// Owns the mirrors and publishes generations, one commit at a time on the
/// writer, which is what keeps published generations epoch-monotonic.
#[derive(Debug)]
struct Committer {
    kind: EngineKind,
    epsilon: f64,
    mirror_walks: FrozenWalks,
    mirror_graph: FrozenGraph,
    published: Arc<Mutex<Arc<Generation>>>,
    stats: CommitStats,
    /// Reusable record of the leaf chunks the current batch touched — what the
    /// ping-pong catch-up syncs into the reclaimed back buffer.
    touched: TouchedChunks,
    /// Recycled placeholder pair parked in the mirror slots while the advanced
    /// mirror moves into the published generation — keeps the publish swap
    /// allocation-free in steady state.
    spare: Option<(FrozenWalks, FrozenGraph)>,
}

impl Committer {
    /// Replays the batch's edges on a mirror adjacency view in batch order — the
    /// engine (either walk kind) mutates the live graph strictly per edge in batch
    /// order (arrivals push, deletions first-occurrence `swap_remove`, absent
    /// edges skipped), so replay reproduces the live lists element-for-element,
    /// which queries rely on (sampling picks neighbours by list position).  The
    /// mirror keeps its own edge count; a count that disagrees with the live graph's
    /// means the lists diverged, and the commit stops rather than publish them.
    fn replay_edges(mirror: &mut FrozenGraph, op: WriteOp<'_>, edge_count: usize) {
        match op {
            WriteOp::Arrivals(edges) => {
                for &edge in edges {
                    mirror.add_edge(edge);
                }
            }
            WriteOp::Deletions(edges) => {
                for &edge in edges {
                    mirror.remove_edge(edge);
                }
            }
        }
        assert_eq!(
            mirror.edge_count(),
            edge_count,
            "mirror adjacency diverged from the live graph"
        );
    }

    /// Advances the mirror by `op`, which `engine` has just applied (it held
    /// `nodes_before` nodes before), and publishes the result as generation
    /// `epoch`, timing `commit.mirror` / `commit.publish` when `spans` is set.
    fn run<E: ServeEngine>(
        &mut self,
        engine: &E,
        epoch: u64,
        nodes_before: usize,
        op: WriteOp<'_>,
        spans: Option<&CommitSpans>,
    ) {
        let walks = engine.live_walks();
        let graph = engine.live_graph();
        let (node_count, edge_count) = (graph.node_count(), graph.edge_count());
        self.touched.clear();
        let mirror_span = spans.map(|s| s.tele.time(&s.mirror));
        // Growth first: the plan may rewrite segments of nodes that did not exist
        // at the previous generation.
        let nodes_after = walks.node_count();
        if nodes_after > nodes_before {
            self.mirror_walks.ensure_nodes(nodes_after);
            for node in nodes_before..nodes_after {
                for id in walks.segment_ids_of(NodeId::from_index(node)) {
                    let path = walks.segment_path(id);
                    if !path.is_empty() {
                        self.mirror_walks
                            .set_segment_recording(id, path, &mut self.touched);
                    }
                }
            }
        }
        self.mirror_walks
            .apply_rewrites_recording(engine.last_rewrites(), &mut self.touched);
        self.mirror_graph.ensure_nodes(node_count);
        Committer::replay_edges(&mut self.mirror_graph, op, edge_count);
        self.mirror_walks.set_epoch(epoch);
        drop(mirror_span);

        let (walk, counts) = self.mirror_walks.take_copy_stats();
        let graph = self.mirror_graph.take_copy_stats();
        self.stats.commits += 1;
        self.stats.walk_chunks_copied += walk.chunks_copied;
        self.stats.count_chunks_copied += counts.chunks_copied;
        self.stats.graph_chunks_copied += graph.chunks_copied;
        self.stats.spine_blocks_copied +=
            walk.blocks_copied + counts.blocks_copied + graph.blocks_copied;

        // Publish by MOVING the advanced mirror into the generation — no clone, no
        // refcount sweep — then reclaim the superseded generation's buffers as the
        // next mirror ("generation ping-pong").
        let publish_span = spans.map(|s| s.tele.time(&s.publish));
        let (spare_walks, spare_graph) = self
            .spare
            .take()
            .unwrap_or_else(|| (FrozenWalks::empty(1, 0, 0), FrozenGraph::empty()));
        let front_walks = std::mem::replace(&mut self.mirror_walks, spare_walks);
        let front_graph = std::mem::replace(&mut self.mirror_graph, spare_graph);
        let generation = Arc::new(Generation {
            epoch,
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
                self.mirror_graph.ensure_nodes(node_count);
                Committer::replay_edges(&mut self.mirror_graph, op, edge_count);
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
    }
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
/// Every commit completes inline — [`QueryEngine::pin`] right after a commit sees
/// that commit's generation.
#[derive(Debug)]
pub struct QueryEngine<E: ServeEngine> {
    engine: E,
    epoch: u64,
    committer: Committer,
    query_seed: u64,
    /// The registry [`QueryEngine::telemetry_snapshot`] collects through
    /// (`None` until [`QueryEngine::with_telemetry`]).
    telemetry: Option<Telemetry>,
    /// Commit-stage spans (`None` until [`QueryEngine::with_telemetry`]).
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
        let mirror_walks = FrozenWalks::from_index(engine.live_walks(), 0);
        let mirror_graph = FrozenGraph::from_graph(engine.live_graph());
        let generation = Arc::new(Generation {
            epoch: 0,
            kind: engine.kind(),
            epsilon: engine.epsilon(),
            walks: mirror_walks.clone(),
            graph: mirror_graph.clone(),
        });
        let committer = Committer {
            kind: engine.kind(),
            epsilon: engine.epsilon(),
            mirror_walks,
            mirror_graph,
            published: Arc::new(Mutex::new(generation)),
            stats: CommitStats::default(),
            touched: TouchedChunks::default(),
            spare: None,
        };
        QueryEngine {
            engine,
            epoch: 0,
            committer,
            query_seed,
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
    /// [`QueryEngine::telemetry_snapshot`] collects through it.  Telemetry
    /// observes only: published generations and query answers stay
    /// bit-identical.
    pub fn with_telemetry(mut self, tele: &Telemetry) -> Self {
        // From here on the WAL times the fsync inside each apply.
        self.engine.take_wal_sync_nanos();
        self.telemetry = Some(tele.clone());
        self.spans = Some(CommitSpans::new(tele));
        self.query_spans = Some(Arc::new(QuerySpans::new(tele)));
        self
    }

    /// Write-path observability: copy-on-write work.  Counters accumulate over
    /// the session.
    pub fn commit_stats(&self) -> CommitStats {
        self.committer.stats
    }

    /// The reader-facing handle (clone one per reader thread).
    pub fn handle(&self) -> ServeHandle {
        ServeHandle {
            published: Arc::clone(&self.committer.published),
            query_seed: self.query_seed,
            spans: self.query_spans.clone(),
            scratch: Arc::clone(&self.scratch),
        }
    }

    /// One whole-stack observability snapshot through the attached registry:
    /// the live engine's layers ([`ServeEngine::emit_metrics`]: `store.*`,
    /// `work.*`, `batch.*`, the walk store's counters, `wal.*` when durable),
    /// the commit path (`commit.*` counters plus the stage histograms), the
    /// serving epoch (`serve.epoch`), and every query-lifecycle histogram
    /// readers recorded.  Returns `None` until [`QueryEngine::with_telemetry`]
    /// attaches a registry.
    pub fn telemetry_snapshot(&self) -> Option<TelemetrySnapshot> {
        let tele = self.telemetry.as_ref()?;
        let adapter = |out: &mut SnapshotBuilder| {
            self.engine.emit_metrics(out);
            out.source("commit", &self.commit_stats());
            out.scoped("serve", |out| {
                out.gauge("epoch", self.epoch as f64);
            });
        };
        Some(tele.collect_with(&[&adapter]))
    }

    /// Pins the writer's current generation (readers use [`ServeHandle::pin`]).
    pub fn pin(&self) -> PinnedView {
        self.handle().pin()
    }

    /// The current committed epoch: the number of batches committed, and the
    /// epoch of the published generation.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The wrapped engine (read access; all writes go through the commit path).
    pub fn engine(&self) -> &E {
        &self.engine
    }

    /// Mutable access to the wrapped engine for maintenance that leaves its
    /// *logical* state untouched — durable checkpoints, WAL rotation.  Applying
    /// edge batches here instead of through
    /// [`Self::commit_arrivals`] / [`Self::commit_deletions`] would desync the
    /// published mirror from the live store.
    pub fn engine_mut(&mut self) -> &mut E {
        &mut self.engine
    }

    /// Unwraps the serving layer and returns the engine — e.g. to drop it
    /// (simulating a crash for the chaos harness) and reopen from its durable
    /// store.  Readers holding the old handle keep the last published
    /// generation; a new serving session starts from [`QueryEngine::new`].
    pub fn into_engine(self) -> E {
        self.engine
    }

    /// Commits an arrival batch: applies it to the engine (a durable engine logs
    /// and syncs it first), advances the mirror, and publishes the next
    /// generation, all before returning.
    pub fn commit_arrivals(&mut self, edges: &[Edge]) -> UpdateStats {
        self.commit(WriteOp::Arrivals(edges))
    }

    /// Commits a deletion batch (see [`Self::commit_arrivals`]).
    pub fn commit_deletions(&mut self, edges: &[Edge]) -> UpdateStats {
        self.commit(WriteOp::Deletions(edges))
    }

    fn commit(&mut self, op: WriteOp<'_>) -> UpdateStats {
        let nodes_before = self.engine.live_walks().node_count();
        let timed = self.spans.as_ref().filter(|s| s.tele.is_enabled());
        let timed = timed.map(|s| (s, s.tele.now_nanos()));
        let stats = self.engine.apply(op);
        if let Some((s, started)) = timed {
            // A durable engine fsyncs its WAL record inside the apply: that wait
            // is `commit.wal_sync`'s, not the reroute's.
            let elapsed = s.tele.now_nanos().saturating_sub(started);
            let sync = self.engine.take_wal_sync_nanos().unwrap_or(0);
            s.apply.record(elapsed.saturating_sub(sync));
            if sync > 0 {
                s.wal_sync.record(sync);
            }
        }
        self.epoch += 1;
        self.committer.run(
            &self.engine,
            self.epoch,
            nodes_before,
            op,
            self.spans.as_ref(),
        );
        stats
    }
}
