//! Epoch-pinned snapshot views: the read-side half of snapshot-isolated serving.
//!
//! The live stores mutate in place — an in-place arena rewrite is exactly what makes
//! maintenance fast — so a reader on another thread can never safely look at them
//! while a batch applies.  This module provides the immutable counterpart:
//!
//! * [`FrozenWalks`] — a frozen PageRank Store generation implementing the full
//!   [`WalkIndexView`] query surface.  Storage is **chunked copy-on-write** behind a
//!   two-level spine (`Arc` root → `Arc` blocks of `B` chunk
//!   pointers → `Arc` leaf chunks), so cloning a generation is O(1) — one root
//!   refcount bump — and advancing it by a batch ([`FrozenWalks::apply_rewrites`])
//!   re-copies only the leaf chunks the batch touched, the spine blocks pointing at
//!   them, and the root: O(touched + √chunks) pointer traffic, while every untouched
//!   chunk stays shared with the published generations readers still pin.
//! * [`FrozenGraph`] — the matching frozen Social-Store adjacency (out- and
//!   in-neighbours, chunked the same way), implementing [`ppr_graph::GraphView`], so
//!   walks and SALSA queries run against it unchanged.  Each adjacency leaf is one
//!   flat, gapped CSR over [`NODES_PER_GRAPH_CHUNK`] nodes — inline list offsets and
//!   lengths over one payload with slack behind every list — so reading a list is
//!   one leaf load plus one payload load, and replaying an arrival is a write into
//!   the list's slack.
//! * [`AdjacencyFetch`] — the data-access model of the paper's personalized walker
//!   (Algorithm 1): one *fetch* returns a node's full out-adjacency.  Implemented by
//!   the live [`crate::SocialStore`] (with fetch accounting) and by [`FrozenGraph`],
//!   so the walker serves from a live store or from a pinned generation with the same
//!   code — and, crucially, the same RNG stream, which is what makes a concurrently
//!   served query bit-identical to its single-threaded replay.
//!
//! The writer keeps one mutable [`FrozenWalks`]/[`FrozenGraph`] *mirror*, advances it
//! after every batch from the engine's own reconciled rewrite plan, and publishes a
//! clone as the next generation (see `ppr-serve`).  Readers pin a generation by
//! cloning one `Arc` and then proceed without any further synchronisation: every
//! chunk they can reach is immutable.
//!
//! # Construction
//!
//! The mirror is seeded once per serving session — every restart — and the seed is
//! one pass over the data.  [`FrozenWalks::from_index`] sweeps the store's paths in
//! segment order, sizing each walk chunk's buffer once before filling it, and copies
//! the visit counts chunk by chunk; [`FrozenGraph::from_graph`] builds each adjacency leaf
//! straight from the graph's lists.  Neither goes through a copy-on-write
//! `Spine::get_mut` or a per-visit counter update: those price a batch, and a seed
//! is not one.  A demand-paged store's segments fault in through
//! [`WalkIndexView::segment_path`], each once.

use crate::index::WalkIndexView;
use crate::segment::SegmentId;
use crate::SegmentRewrites;
use ppr_graph::{Edge, GraphView, NodeId};
use std::sync::Arc;

/// Segments per copy-on-write walk chunk.  Small enough that a batch rewriting a few
/// hundred segments copies a few hundred small chunks (and the per-rewrite splice
/// shifts little), large enough that the spine (one `Arc` per chunk) stays tiny
/// relative to the data.
pub const SEGMENTS_PER_CHUNK: usize = 32;

/// Nodes per copy-on-write visit-count chunk.  A chunk is a flat `u64` array, so its
/// copy is one memcpy; 128 keeps that at 1 KiB while visit locality (hubs draw most
/// rewritten steps) keeps the number of copied chunks per batch small.
pub const COUNTS_PER_CHUNK: usize = 128;

/// Nodes per copy-on-write adjacency chunk.  An adjacency chunk is one flat, gapped
/// CSR leaf (see `AdjChunk`), so copying one is one memcpy of its member nodes' lists
/// and their slack — small chunks keep the bill per touched endpoint down to a few
/// hundred bytes outside a hub's chunk.
pub const NODES_PER_GRAPH_CHUNK: usize = 16;

/// A seeded walk chunk reserves `1 / SEED_HEADROOM` more steps than it holds.  Commits
/// rewrite a chunk's segments in its own buffer whenever the chunk is not shared, and
/// a quarter of headroom absorbs their length changes there; seeded at exact
/// capacity, every rewrite that lengthened a chunk reallocated it, and the serving
/// window's peak resident set read 1–2 % higher on four of the five benchmark
/// workloads.  A seeded adjacency list gets the same share of slack in its slot (see
/// `AdjChunk`), so the arrivals that follow a seed write in place instead of moving
/// their leaf's later lists.
const SEED_HEADROOM: usize = 4;

/// Leaf chunks per walk-spine block (see `Spine`); `B ≈ √C` for a few-thousand-node
/// store's segment chunk count `C`.
pub const WALK_BLOCK: usize = 32;

/// Leaf chunks per visit-count-spine block.
pub const COUNT_BLOCK: usize = 16;

/// Leaf chunks per adjacency-spine block.
pub const GRAPH_BLOCK: usize = 16;

/// Copy-on-write work one `Spine` performed since its counters were last drained:
/// how many leaf chunks and spine blocks `Arc::make_mut` actually re-copied because a
/// published generation still shared them.  The serving layer aggregates these into
/// its per-commit `CommitStats`; the regression contract is that a small batch copies
/// O(batch) leaves and O(1) blocks, never O(store).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpineCopyStats {
    /// Leaf chunks re-copied because a pinned generation still shared them.
    pub chunks_copied: u64,
    /// Spine blocks (pointer arrays of `B` chunk `Arc`s) re-copied.
    pub blocks_copied: u64,
}

impl SpineCopyStats {
    /// Component-wise sum.
    pub fn merge(self, other: SpineCopyStats) -> SpineCopyStats {
        SpineCopyStats {
            chunks_copied: self.chunks_copied + other.chunks_copied,
            blocks_copied: self.blocks_copied + other.blocks_copied,
        }
    }
}

/// The two-level copy-on-write chunk spine: an `Arc` root of `Arc` blocks of `Arc`
/// leaf chunks.
///
/// Cloning a spine bumps exactly one refcount (the root).  Mutating leaf `i` after a
/// clone re-copies, at most, the root pointer array, the one block holding `i`, and
/// leaf `i` itself — everything else stays structurally shared with every pinned
/// generation.  `Spine::get_mut` counts the copies it forces so the serving layer
/// can prove commits stay O(touched).
#[derive(Debug, Clone)]
struct Spine<T, const B: usize> {
    root: Arc<Vec<Arc<Vec<Arc<T>>>>>,
    /// Total leaf chunks (the last block may be partial).
    len: usize,
    copies: SpineCopyStats,
}

impl<T: Clone, const B: usize> Spine<T, B> {
    fn new() -> Self {
        Spine {
            root: Arc::new(Vec::new()),
            len: 0,
            copies: SpineCopyStats::default(),
        }
    }

    /// A spine over `leaves`, in order: each leaf moved into its own `Arc` once and
    /// grouped `B` to a block — no copy-on-write bookkeeping, nothing shared yet.
    fn from_leaves(leaves: impl Iterator<Item = T>) -> Self {
        let mut blocks: Vec<Vec<Arc<T>>> = Vec::new();
        let mut len = 0;
        for leaf in leaves {
            if len % B == 0 {
                blocks.push(Vec::with_capacity(B));
            }
            blocks
                .last_mut()
                .expect("a block was opened for this leaf")
                .push(Arc::new(leaf));
            len += 1;
        }
        Spine {
            root: Arc::new(blocks.into_iter().map(Arc::new).collect()),
            len,
            copies: SpineCopyStats::default(),
        }
    }

    #[inline]
    fn get(&self, i: usize) -> &T {
        &self.root[i / B][i % B]
    }

    /// Mutable access to leaf `i`, re-copying (and counting) only the root, block and
    /// leaf still shared with a pinned generation.
    fn get_mut(&mut self, i: usize) -> &mut T {
        let (bi, li) = (i / B, i % B);
        // Measure sharing top-down *before* any copy: re-copying the root bumps every
        // block's refcount (and a block copy every leaf's), so a shared ancestor
        // forces copies all the way down.
        let root_shared = Arc::strong_count(&self.root) > 1;
        let block_shared = root_shared || Arc::strong_count(&self.root[bi]) > 1;
        let leaf_shared = block_shared || Arc::strong_count(&self.root[bi][li]) > 1;
        self.copies.blocks_copied += block_shared as u64;
        self.copies.chunks_copied += leaf_shared as u64;
        let root = Arc::make_mut(&mut self.root);
        let block = Arc::make_mut(&mut root[bi]);
        Arc::make_mut(&mut block[li])
    }

    /// Grows the spine to at least `target` leaves, filling new slots with `make()`.
    /// Growth is not counted as copy-on-write work: it is O(new leaves) by nature.
    fn grow_with(&mut self, target: usize, mut make: impl FnMut() -> T) {
        if target <= self.len {
            return;
        }
        let root = Arc::make_mut(&mut self.root);
        if let Some(last) = root.last_mut() {
            if last.len() < B {
                let want = (target - self.len).min(B - last.len());
                let block = Arc::make_mut(last);
                for _ in 0..want {
                    block.push(Arc::new(make()));
                }
                self.len += want;
            }
        }
        while self.len < target {
            let want = (target - self.len).min(B);
            let mut block = Vec::with_capacity(B);
            for _ in 0..want {
                block.push(Arc::new(make()));
            }
            root.push(Arc::new(block));
            self.len += want;
        }
    }

    fn iter(&self) -> impl Iterator<Item = &T> {
        self.root
            .iter()
            .flat_map(|block| block.iter())
            .map(|a| &**a)
    }

    /// Drains the copy counters accumulated since the last drain.
    fn take_copies(&mut self) -> SpineCopyStats {
        std::mem::take(&mut self.copies)
    }

    /// Makes leaf `i` content-equal to `other`'s leaf `i` with the cheapest move
    /// available: nothing if the two spines already share the leaf, an in-place
    /// `clone_from` (no allocation) if our leaf is unique, or — when an old pinned
    /// generation still shares our leaf — adopting `other`'s leaf `Arc` outright.
    /// This is the catch-up half of the committer's generation ping-pong: the
    /// reclaimed back buffer replays a batch as O(touched) memcpys instead of
    /// re-running the mutation logic.
    fn sync_leaf_from(&mut self, other: &Self, i: usize) {
        let (bi, li) = (i / B, i % B);
        if Arc::ptr_eq(&self.root[bi][li], &other.root[bi][li]) {
            return;
        }
        let root_shared = Arc::strong_count(&self.root) > 1;
        let block_shared = root_shared || Arc::strong_count(&self.root[bi]) > 1;
        self.copies.blocks_copied += block_shared as u64;
        let root = Arc::make_mut(&mut self.root);
        let block = Arc::make_mut(&mut root[bi]);
        let leaf = &mut block[li];
        if Arc::strong_count(leaf) == 1 {
            self.copies.chunks_copied += 1;
            Arc::make_mut(leaf).clone_from(&other.root[bi][li]);
        } else {
            *leaf = Arc::clone(&other.root[bi][li]);
        }
    }
}

/// One chunk of segment paths: `SEGMENTS_PER_CHUNK` consecutive segment ids, stored
/// as a flat step buffer with per-segment bounds (a miniature CSR).
#[derive(Debug, Default)]
struct WalkChunk {
    /// `bounds[k]..bounds[k + 1]` is local segment `k`'s slice of `steps`.
    bounds: Vec<u32>,
    steps: Vec<NodeId>,
}

impl Clone for WalkChunk {
    fn clone(&self) -> Self {
        WalkChunk {
            bounds: self.bounds.clone(),
            steps: self.steps.clone(),
        }
    }

    /// Field-wise `clone_from` so the ping-pong catch-up path
    /// (`Spine::sync_leaf_from`) re-fills an existing chunk's buffers instead of
    /// reallocating them.
    fn clone_from(&mut self, source: &Self) {
        self.bounds.clone_from(&source.bounds);
        self.steps.clone_from(&source.steps);
    }
}

impl WalkChunk {
    fn new() -> Self {
        WalkChunk {
            bounds: vec![0; SEGMENTS_PER_CHUNK + 1],
            steps: Vec::new(),
        }
    }

    #[inline]
    fn path(&self, local: usize) -> &[NodeId] {
        &self.steps[self.bounds[local] as usize..self.bounds[local + 1] as usize]
    }

    /// Replaces local segment `local`'s path.  Same-length rewrites (common under
    /// steady-state rerouting) copy in place; others splice and shift the chunk's
    /// successors — O(chunk), and a chunk is only a few dozen steps.
    fn set(&mut self, local: usize, path: &[NodeId]) {
        let start = self.bounds[local] as usize;
        let end = self.bounds[local + 1] as usize;
        if path.len() == end - start {
            self.steps[start..end].copy_from_slice(path);
            return;
        }
        let delta = path.len() as i64 - (end - start) as i64;
        self.steps.splice(start..end, path.iter().copied());
        for b in &mut self.bounds[local + 1..] {
            *b = (*b as i64 + delta) as u32;
        }
    }
}

/// What one batch changed in a [`FrozenWalks`] — recorded by the mutating
/// `*_recording` methods, consumed by [`FrozenWalks::sync_touched_from`]: the walk
/// chunks to re-copy (indices may repeat; deduped at sync time) and the batch's
/// aggregated per-node visit-count deltas, replayed on the lagging twin instead of
/// memcpying whole count chunks.  Reusable: the owner clears it once per batch.
#[derive(Debug, Default, Clone)]
pub struct TouchedChunks {
    walk: Vec<u32>,
    deltas: Vec<(u32, i32)>,
    /// Scratch for collecting raw ±1 step deltas before aggregation.
    scratch: Vec<(u32, i32)>,
}

impl TouchedChunks {
    /// Empties the record for the next batch.
    pub fn clear(&mut self) {
        self.walk.clear();
        self.deltas.clear();
        self.scratch.clear();
    }
}

/// A frozen PageRank Store generation: immutable segment paths and visit counters
/// behind a two-level chunked `Spine`, implementing the [`WalkIndexView`] query
/// surface.
///
/// Cloning is O(1) (two root `Arc` bumps); advancing by a batch copies only touched
/// leaf chunks plus the spine blocks pointing at them.
#[derive(Debug, Clone)]
pub struct FrozenWalks {
    r: usize,
    node_count: usize,
    total_visits: u64,
    epoch: u64,
    chunks: Spine<WalkChunk, WALK_BLOCK>,
    counts: Spine<Vec<u64>, COUNT_BLOCK>,
}

/// Moves node `node`'s visit count by `net` in a view pinned to `epoch`.  A count
/// that would leave `u64` means the mirror has fallen out of step with the engine it
/// copies: a checked failure in every build, never a published `W(v)` near 2⁶⁴.
fn shift_count(count: &mut u64, net: i64, node: usize, epoch: u64) {
    let Some(shifted) = count.checked_add_signed(net) else {
        panic!(
            "cannot move the visit count {count} of node {node} by {net} in the view at \
             epoch {epoch}"
        );
    };
    *count = shifted;
}

impl FrozenWalks {
    /// Freezes a full copy of `store` as epoch `epoch`.  O(store), done once, in one
    /// sweep of the store's paths: each [`SEGMENTS_PER_CHUNK`]-segment walk chunk is
    /// sized once from the segment lengths (plus a quarter of headroom for later
    /// commits) and filled, and the visit
    /// counts are copied chunk by chunk from [`WalkIndexView::visit_counts`] — no
    /// per-visit counter update and no copy-on-write bookkeeping.  Later generations
    /// advance incrementally through [`FrozenWalks::apply_rewrites`].
    pub fn from_index<W: WalkIndexView + ?Sized>(store: &W, epoch: u64) -> Self {
        let r = store.r();
        assert!(r >= 1, "need at least one walk segment per node");
        let node_count = store.node_count();
        let segments = node_count * r;
        let chunks = Spine::from_leaves((0..segments.div_ceil(SEGMENTS_PER_CHUNK)).map(|c| {
            let ids = (c * SEGMENTS_PER_CHUNK..segments.min((c + 1) * SEGMENTS_PER_CHUNK))
                .map(|slot| SegmentId(slot as u32));
            let len: usize = ids.clone().map(|id| store.segment_len(id)).sum();
            let mut chunk = WalkChunk {
                bounds: Vec::with_capacity(SEGMENTS_PER_CHUNK + 1),
                steps: Vec::with_capacity(len + len / SEED_HEADROOM),
            };
            chunk.bounds.push(0);
            for id in ids {
                chunk.steps.extend_from_slice(store.segment_path(id));
                chunk.bounds.push(chunk.steps.len() as u32);
            }
            chunk
                .bounds
                .resize(SEGMENTS_PER_CHUNK + 1, chunk.steps.len() as u32);
            chunk
        }));
        let counts =
            Spine::from_leaves(store.visit_counts().chunks(COUNTS_PER_CHUNK).map(|counts| {
                let mut leaf = vec![0; COUNTS_PER_CHUNK];
                leaf[..counts.len()].copy_from_slice(counts);
                leaf
            }));
        let frozen = FrozenWalks {
            r,
            node_count,
            total_visits: store.total_visits(),
            epoch,
            chunks,
            counts,
        };
        debug_assert_eq!(
            frozen
                .chunks
                .iter()
                .map(|chunk| chunk.steps.len() as u64)
                .sum::<u64>(),
            frozen.total_visits,
            "the store's paths and its visit total disagree"
        );
        frozen
    }

    /// The per-segment seed [`FrozenWalks::from_index`] replaced, kept as its
    /// reference: an empty view advanced by one [`FrozenWalks::set_segment`] per
    /// segment.
    #[cfg(test)]
    pub(crate) fn from_index_per_segment<W: WalkIndexView + ?Sized>(store: &W, epoch: u64) -> Self {
        let mut frozen = FrozenWalks::empty(store.r(), store.node_count(), epoch);
        for node in 0..store.node_count() {
            for id in store.segment_ids_of(NodeId::from_index(node)) {
                frozen.set_segment(id, store.segment_path(id));
            }
        }
        frozen
    }

    /// An all-empty store of `node_count` nodes with `r` segment slots per node.
    pub fn empty(r: usize, node_count: usize, epoch: u64) -> Self {
        assert!(r >= 1, "need at least one walk segment per node");
        let mut frozen = FrozenWalks {
            r,
            node_count: 0,
            total_visits: 0,
            epoch,
            chunks: Spine::new(),
            counts: Spine::new(),
        };
        frozen.ensure_nodes(node_count);
        frozen
    }

    /// Drains the copy-on-write counters of both spines: `(segment-path spine,
    /// visit-count spine)` copies forced since the last drain.  The serving layer's
    /// commit path calls this once per published generation.
    pub fn take_copy_stats(&mut self) -> (SpineCopyStats, SpineCopyStats) {
        (self.chunks.take_copies(), self.counts.take_copies())
    }

    /// The generation number this view is pinned to.
    #[inline]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Stamps the view with a new generation number (the writer does this right
    /// before publishing the advanced mirror).
    pub fn set_epoch(&mut self, epoch: u64) {
        self.epoch = epoch;
    }

    /// Grows the view to address at least `n` nodes (new nodes start with empty
    /// segments; the committer installs the engine's with
    /// [`FrozenWalks::set_segment_recording`]).
    pub fn ensure_nodes(&mut self, n: usize) {
        if n <= self.node_count {
            return;
        }
        self.node_count = n;
        let chunks = (n * self.r).div_ceil(SEGMENTS_PER_CHUNK);
        self.chunks.grow_with(chunks, WalkChunk::new);
        let counts = n.div_ceil(COUNTS_PER_CHUNK);
        self.counts.grow_with(counts, || vec![0; COUNTS_PER_CHUNK]);
    }

    /// Replaces one segment's path, keeping the visit counters exact.  Copy-on-write:
    /// the touched chunks are cloned only if a published generation still shares them.
    pub fn set_segment(&mut self, id: SegmentId, path: &[NodeId]) {
        let slot = id.index();
        assert!(
            slot < self.node_count * self.r,
            "segment {id:?} outside the view"
        );
        let chunk = slot / SEGMENTS_PER_CHUNK;
        let local = slot % SEGMENTS_PER_CHUNK;
        let old_len = {
            let chunk = self.chunks.get_mut(chunk);
            let old_len = chunk.path(local).len();
            // Old visits out, new visits in; both paths address nodes inside the view.
            for k in 0..old_len {
                let v = chunk.path(local)[k].index();
                let counts = self.counts.get_mut(v / COUNTS_PER_CHUNK);
                shift_count(&mut counts[v % COUNTS_PER_CHUNK], -1, v, self.epoch);
            }
            chunk.set(local, path);
            old_len
        };
        for &v in path {
            assert!(v.index() < self.node_count, "visit outside the view");
            let counts = self.counts.get_mut(v.index() / COUNTS_PER_CHUNK);
            counts[v.index() % COUNTS_PER_CHUNK] += 1;
        }
        self.total_visits = self.total_visits - old_len as u64 + path.len() as u64;
    }

    /// Advances the view by one reconciled rewrite plan — exactly the plan the engine
    /// applied to the live store, in plan order.
    ///
    /// Visit-count maintenance is batched: the per-step deltas of every rewrite in
    /// the plan are buffered, grouped by count chunk, and applied with one
    /// `Spine::get_mut` per touched chunk — instead of one per step, which under
    /// per-edge commits is most of the mirror-advance cost.
    pub fn apply_rewrites(&mut self, rewrites: &SegmentRewrites) {
        let mut touched = TouchedChunks::default();
        self.apply_rewrites_recording(rewrites, &mut touched);
    }

    /// [`FrozenWalks::apply_rewrites`] that additionally records every touched leaf
    /// chunk into `touched`, so a lagging twin of this view can catch up with
    /// [`FrozenWalks::sync_touched_from`] instead of replaying the plan.
    pub fn apply_rewrites_recording(
        &mut self,
        rewrites: &SegmentRewrites,
        touched: &mut TouchedChunks,
    ) {
        let mut deltas = std::mem::take(&mut touched.scratch);
        deltas.clear();
        for (id, path) in rewrites.iter() {
            let slot = id.index();
            assert!(
                slot < self.node_count * self.r,
                "segment {id:?} outside the view"
            );
            let chunk_index = slot / SEGMENTS_PER_CHUNK;
            touched.walk.push(chunk_index as u32);
            let chunk = self.chunks.get_mut(chunk_index);
            let local = slot % SEGMENTS_PER_CHUNK;
            let old = chunk.path(local);
            let old_len = old.len();
            for &v in old {
                deltas.push((v.index() as u32, -1));
            }
            for &v in path {
                assert!(v.index() < self.node_count, "visit outside the view");
                deltas.push((v.index() as u32, 1));
            }
            chunk.set(local, path);
            self.total_visits = self.total_visits - old_len as u64 + path.len() as u64;
        }
        self.apply_count_deltas(&mut deltas, touched);
        touched.scratch = deltas;
    }

    /// Applies buffered `(node, ±1)` visit deltas, grouped so each touched count
    /// chunk is resolved (and, if shared, copied) exactly once.  Each node's nonzero
    /// net delta is also recorded into `touched` for the catch-up replay.
    fn apply_count_deltas(&mut self, deltas: &mut [(u32, i32)], touched: &mut TouchedChunks) {
        deltas.sort_unstable_by_key(|&(node, _)| node);
        let mut i = 0;
        while i < deltas.len() {
            let chunk_index = deltas[i].0 as usize / COUNTS_PER_CHUNK;
            let chunk = self.counts.get_mut(chunk_index);
            while i < deltas.len() && deltas[i].0 as usize / COUNTS_PER_CHUNK == chunk_index {
                let (node, mut net) = deltas[i];
                i += 1;
                while i < deltas.len() && deltas[i].0 == node {
                    net += deltas[i].1;
                    i += 1;
                }
                if net != 0 {
                    touched.deltas.push((node, net));
                    let count = &mut chunk[node as usize % COUNTS_PER_CHUNK];
                    shift_count(count, net as i64, node as usize, self.epoch);
                }
            }
        }
    }

    /// [`FrozenWalks::set_segment`] that records the walk chunk it touches and its
    /// visit-count deltas (the growth companion of
    /// [`FrozenWalks::apply_rewrites_recording`]).
    pub fn set_segment_recording(
        &mut self,
        id: SegmentId,
        path: &[NodeId],
        touched: &mut TouchedChunks,
    ) {
        let slot = id.index();
        assert!(
            slot < self.node_count * self.r,
            "segment {id:?} outside the view"
        );
        let chunk_index = slot / SEGMENTS_PER_CHUNK;
        touched.walk.push(chunk_index as u32);
        let mut deltas = std::mem::take(&mut touched.scratch);
        deltas.clear();
        let old_len = {
            let chunk = self.chunks.get_mut(chunk_index);
            let local = slot % SEGMENTS_PER_CHUNK;
            let old = chunk.path(local);
            for &v in old {
                deltas.push((v.index() as u32, -1));
            }
            let old_len = old.len();
            chunk.set(local, path);
            old_len
        };
        for &v in path {
            assert!(v.index() < self.node_count, "visit outside the view");
            deltas.push((v.index() as u32, 1));
        }
        self.total_visits = self.total_visits - old_len as u64 + path.len() as u64;
        self.apply_count_deltas(&mut deltas, touched);
        touched.scratch = deltas;
    }

    /// Catches this view up to `front` — its twin advanced by exactly one batch whose
    /// changes are in `touched` — without re-running the batch's mutation logic: an
    /// O(touched) pass re-copying the touched walk chunks (allocation-free when this
    /// view's chunks are unique) and replaying the batch's aggregated visit-count
    /// deltas in place.  This is the committer's generation ping-pong catch-up half;
    /// both views must descend from the same lineage (this one exactly one batch
    /// behind) so untouched chunks are already structurally shared.
    pub fn sync_touched_from(&mut self, front: &FrozenWalks, touched: &mut TouchedChunks) {
        debug_assert_eq!(self.r, front.r, "ping-pong twins must agree on r");
        self.ensure_nodes(front.node_count);
        touched.walk.sort_unstable();
        touched.walk.dedup();
        for &i in &touched.walk {
            self.chunks.sync_leaf_from(&front.chunks, i as usize);
        }
        for &(node, net) in &touched.deltas {
            let chunk = self.counts.get_mut(node as usize / COUNTS_PER_CHUNK);
            let count = &mut chunk[node as usize % COUNTS_PER_CHUNK];
            shift_count(count, net as i64, node as usize, self.epoch);
        }
        self.total_visits = front.total_visits;
        self.epoch = front.epoch;
    }
}

impl WalkIndexView for FrozenWalks {
    #[inline]
    fn r(&self) -> usize {
        self.r
    }

    #[inline]
    fn node_count(&self) -> usize {
        self.node_count
    }

    #[inline]
    fn segment_path(&self, id: SegmentId) -> &[NodeId] {
        let slot = id.index();
        self.chunks
            .get(slot / SEGMENTS_PER_CHUNK)
            .path(slot % SEGMENTS_PER_CHUNK)
    }

    #[inline]
    fn source_of(&self, id: SegmentId) -> NodeId {
        id.source(self.r)
    }

    fn segment_ids_of(&self, node: NodeId) -> impl Iterator<Item = SegmentId> + '_ {
        let r = self.r;
        (0..r).map(move |slot| SegmentId::new(node, slot, r))
    }

    #[inline]
    fn visit_count(&self, node: NodeId) -> u64 {
        self.counts.get(node.index() / COUNTS_PER_CHUNK)[node.index() % COUNTS_PER_CHUNK]
    }

    fn visit_counts(&self) -> std::borrow::Cow<'_, [u64]> {
        let mut out = Vec::with_capacity(self.node_count);
        for chunk in self.counts.iter() {
            let take = (self.node_count - out.len()).min(COUNTS_PER_CHUNK);
            out.extend_from_slice(&chunk[..take]);
        }
        std::borrow::Cow::Owned(out)
    }

    #[inline]
    fn total_visits(&self) -> u64 {
        self.total_visits
    }
}

/// The least a full list's slot grows by; above it a full list grows its slot by
/// half.  Four entries is what a `Vec<NodeId>` first allocates, so a new node's first
/// edges move its leaf no more often than they would reallocate a live-graph list.
///
/// Growth is by half, not doubling, and the payload is resized to fit, not to a
/// doubled capacity: the slot slack and the vector's spare capacity would otherwise
/// stack up, and with slots doubling into a doubling payload the peak resident set
/// read 2 % above the per-list `Vec` layout on `ingest_stream`, where the graph
/// grows by two thirds while the mirror serves.  Growing by half with exact resizes
/// read 1–3 % below it on all five benchmark workloads.
const MIN_LIST_SLOT: usize = 4;

/// What a list's unused slot entries hold.  Never read: a list is its slot's first
/// `lens[k]` entries.
const SLACK: NodeId = NodeId(u32::MAX);

/// The slot a seeded list of `len` neighbours gets: its list plus
/// `1 / SEED_HEADROOM` of slack, rounded up, so the next pushes land in place.  An
/// empty list gets an empty slot.
fn seeded_slot(len: usize) -> usize {
    len + len.div_ceil(SEED_HEADROOM)
}

/// A payload offset as stored in a leaf's `starts`.
fn offset(at: usize) -> u32 {
    u32::try_from(at).expect("an adjacency chunk's payload outgrew u32 offsets")
}

/// One chunk of frozen adjacency: the neighbour lists (one direction) of
/// [`NODES_PER_GRAPH_CHUNK`] consecutive nodes in one flat leaf — a gapped CSR.
/// List `k` owns the slot `starts[k]..starts[k + 1]` of `payload` and holds its
/// `lens[k]` neighbours at the front of it; the rest of the slot is slack.
///
/// A read is one load of the leaf (both arrays are inline) and one of the payload.
/// A push writes into the list's slack in O(1); a full list grows its slot by half,
/// which moves only the chunk's later lists.  A node with no neighbours — and every slot
/// past the last node — owns an empty slot, so it holds no payload.  Copying a leaf
/// (copy-on-write after a publish pinned it) copies its whole payload, slack
/// included.
#[derive(Debug, Clone, Default)]
struct AdjChunk {
    /// `starts[k]..starts[k + 1]` is list `k`'s slot; `starts[NODES_PER_GRAPH_CHUNK]`
    /// is the payload's length.
    starts: [u32; NODES_PER_GRAPH_CHUNK + 1],
    /// Neighbours list `k` holds at the front of its slot.
    lens: [u32; NODES_PER_GRAPH_CHUNK],
    payload: Vec<NodeId>,
}

impl AdjChunk {
    /// One direction's adjacency spine over `node_count` nodes, `list` giving each
    /// node's neighbours: each leaf sized once, every list copied once into a slot
    /// with `seeded_slot` room.
    fn spine<'g>(
        node_count: usize,
        list: impl Fn(NodeId) -> &'g [NodeId],
    ) -> Spine<AdjChunk, GRAPH_BLOCK> {
        Spine::from_leaves((0..node_count.div_ceil(NODES_PER_GRAPH_CHUNK)).map(|c| {
            let nodes = c * NODES_PER_GRAPH_CHUNK..node_count.min((c + 1) * NODES_PER_GRAPH_CHUNK);
            let members = nodes.len();
            let lists = nodes.map(|v| list(NodeId::from_index(v)));
            let size = lists.clone().map(|list| seeded_slot(list.len())).sum();
            let mut chunk = AdjChunk {
                payload: Vec::with_capacity(size),
                ..AdjChunk::default()
            };
            for (k, list) in lists.enumerate() {
                chunk.starts[k] = offset(chunk.payload.len());
                chunk.lens[k] = list.len() as u32;
                chunk.payload.extend_from_slice(list);
                chunk
                    .payload
                    .resize(chunk.starts[k] as usize + seeded_slot(list.len()), SLACK);
            }
            let end = offset(chunk.payload.len());
            chunk.starts[members..].fill(end);
            chunk
        }))
    }

    #[inline]
    fn list(&self, local: usize) -> &[NodeId] {
        let start = self.starts[local] as usize;
        &self.payload[start..start + self.lens[local] as usize]
    }

    /// Appends `node` to list `local`: in place while its slot has slack, else after
    /// growing the slot by half (by at least `MIN_LIST_SLOT`).
    fn push(&mut self, local: usize, node: NodeId) {
        let start = self.starts[local] as usize;
        let end = self.starts[local + 1] as usize;
        let at = start + self.lens[local] as usize;
        if at == end {
            let extra = ((end - start) / 2).max(MIN_LIST_SLOT);
            let tail = self.payload.len();
            self.payload.reserve_exact(extra);
            self.payload.resize(tail + extra, SLACK);
            self.payload.copy_within(end..tail, end + extra);
            for start in &mut self.starts[local + 1..] {
                *start = offset(*start as usize + extra);
            }
        }
        self.payload[at] = node;
        self.lens[local] += 1;
    }

    /// `Vec::swap_remove(pos)` on list `local`: its last neighbour takes `pos`'s place.
    fn swap_remove(&mut self, local: usize, pos: usize) {
        let start = self.starts[local] as usize;
        let last = start + self.lens[local] as usize - 1;
        self.payload[start + pos] = self.payload[last];
        self.lens[local] -= 1;
    }
}

/// A frozen Social-Store adjacency generation: the exact out- and in-neighbour lists
/// (order included — sampling picks by position) behind two chunked spines, one per
/// direction — an edge commit touches its source's out-chunk and its target's
/// in-chunk, never the other direction of either endpoint.
///
/// Cloning is cheap; replaying a batch's edges ([`FrozenGraph::add_edge`],
/// [`FrozenGraph::remove_edge`]) advances it, copying only the chunks holding
/// endpoints the batch touched.
#[derive(Debug, Clone)]
pub struct FrozenGraph {
    node_count: usize,
    edge_count: usize,
    out: Spine<AdjChunk, GRAPH_BLOCK>,
    incoming: Spine<AdjChunk, GRAPH_BLOCK>,
}

impl FrozenGraph {
    /// An empty zero-node view — the cheap placeholder the committer swaps in while
    /// its real buffers move into a published generation.
    pub fn empty() -> Self {
        FrozenGraph {
            node_count: 0,
            edge_count: 0,
            out: Spine::new(),
            incoming: Spine::new(),
        }
    }

    /// Freezes a full copy of `graph`.  O(graph), done once per serving session: each
    /// adjacency leaf is sized once and filled straight from the graph's lists, every
    /// non-empty list with a quarter of slack for the commits that follow.
    pub fn from_graph<G: GraphView + ?Sized>(graph: &G) -> Self {
        let node_count = graph.node_count();
        FrozenGraph {
            node_count,
            edge_count: graph.edge_count(),
            out: AdjChunk::spine(node_count, |v| graph.out_neighbors(v)),
            incoming: AdjChunk::spine(node_count, |v| graph.in_neighbors(v)),
        }
    }

    /// Grows the view to address at least `n` nodes (new nodes start isolated).
    pub fn ensure_nodes(&mut self, n: usize) {
        if n <= self.node_count {
            return;
        }
        self.node_count = n;
        let chunks = n.div_ceil(NODES_PER_GRAPH_CHUNK);
        self.out.grow_with(chunks, AdjChunk::default);
        self.incoming.grow_with(chunks, AdjChunk::default);
    }

    /// Drains both adjacency spines' copy-on-write counters (see
    /// [`FrozenWalks::take_copy_stats`]).
    pub fn take_copy_stats(&mut self) -> SpineCopyStats {
        self.out.take_copies().merge(self.incoming.take_copies())
    }

    /// Replays one edge arrival — bit-exactly `DynamicGraph::add_edge`: the target
    /// is appended to the source's out-list and the source to the target's in-list,
    /// preserving list order (sampling picks by position).  Amortised O(1) once the
    /// two leaves are unshared: a push into a list's slack, or a slot growing by
    /// half, which moves the leaf's later lists.
    pub fn add_edge(&mut self, edge: Edge) {
        debug_assert!(
            edge.source.index() < self.node_count && edge.target.index() < self.node_count,
            "edge {edge} outside the view; ensure_nodes first"
        );
        let (source, target) = (edge.source.index(), edge.target.index());
        self.out
            .get_mut(source / NODES_PER_GRAPH_CHUNK)
            .push(source % NODES_PER_GRAPH_CHUNK, edge.target);
        self.incoming
            .get_mut(target / NODES_PER_GRAPH_CHUNK)
            .push(target % NODES_PER_GRAPH_CHUNK, edge.source);
        self.edge_count += 1;
    }

    /// Replays one edge deletion — bit-exactly `DynamicGraph::remove_edge`
    /// (first-occurrence `swap_remove` in both directions), returning whether the
    /// edge was present.  Absent edges leave the view untouched.  A list's slot
    /// keeps its size.
    pub fn remove_edge(&mut self, edge: Edge) -> bool {
        if edge.source.index() >= self.node_count || edge.target.index() >= self.node_count {
            return false;
        }
        let Some(pos) = self
            .out_neighbors(edge.source)
            .iter()
            .position(|&t| t == edge.target)
        else {
            return false;
        };
        let (source, target) = (edge.source.index(), edge.target.index());
        self.out
            .get_mut(source / NODES_PER_GRAPH_CHUNK)
            .swap_remove(source % NODES_PER_GRAPH_CHUNK, pos);
        let pos = self
            .in_neighbors(edge.target)
            .iter()
            .position(|&s| s == edge.source)
            .expect("out/in adjacency lists out of sync");
        self.incoming
            .get_mut(target / NODES_PER_GRAPH_CHUNK)
            .swap_remove(target % NODES_PER_GRAPH_CHUNK, pos);
        self.edge_count -= 1;
        true
    }
}

impl GraphView for FrozenGraph {
    #[inline]
    fn node_count(&self) -> usize {
        self.node_count
    }

    #[inline]
    fn edge_count(&self) -> usize {
        self.edge_count
    }

    #[inline]
    fn out_neighbors(&self, node: NodeId) -> &[NodeId] {
        self.out
            .get(node.index() / NODES_PER_GRAPH_CHUNK)
            .list(node.index() % NODES_PER_GRAPH_CHUNK)
    }

    #[inline]
    fn in_neighbors(&self, node: NodeId) -> &[NodeId] {
        self.incoming
            .get(node.index() / NODES_PER_GRAPH_CHUNK)
            .list(node.index() % NODES_PER_GRAPH_CHUNK)
    }
}

/// The paper's data-access model for personalized queries: one *fetch* brings a
/// node's full out-adjacency into the walker's memory.  The walker is generic over
/// this trait, so the same query runs against the live [`crate::SocialStore`] (with
/// its fetch metrics) or a pinned [`FrozenGraph`] generation.
pub trait AdjacencyFetch {
    /// Number of nodes the store addresses.
    fn node_count(&self) -> usize;

    /// One fetch: copies `node`'s out-adjacency into `out` (cleared first).
    fn fetch_out(&self, node: NodeId, out: &mut Vec<NodeId>);
}

impl AdjacencyFetch for FrozenGraph {
    fn node_count(&self) -> usize {
        GraphView::node_count(self)
    }

    fn fetch_out(&self, node: NodeId, out: &mut Vec<NodeId>) {
        out.clear();
        out.extend_from_slice(self.out_neighbors(node));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::walks::WalkStore;
    use ppr_graph::{DynamicGraph, Edge};

    fn path(nodes: &[u32]) -> Vec<NodeId> {
        nodes.iter().map(|&n| NodeId(n)).collect()
    }

    fn assert_views_equal<W: WalkIndexView>(frozen: &FrozenWalks, store: &W, context: &str) {
        assert_eq!(frozen.node_count(), store.node_count(), "{context}: nodes");
        assert_eq!(frozen.r(), store.r(), "{context}: r");
        assert_eq!(
            frozen.total_visits(),
            store.total_visits(),
            "{context}: total_visits"
        );
        assert_eq!(
            frozen.visit_counts(),
            store.visit_counts(),
            "{context}: visit counts"
        );
        for g in 0..store.node_count() {
            let node = NodeId::from_index(g);
            assert_eq!(frozen.visit_count(node), store.visit_count(node));
            for id in store.segment_ids_of(node) {
                assert_eq!(
                    frozen.segment_path(id),
                    store.segment_path(id),
                    "{context}: segment {id:?}"
                );
            }
        }
    }

    /// Holds the bulk seed of `store` to the per-segment reference, field by field and
    /// leaf by leaf, and to the store itself; returns the bulk seed.
    fn assert_seed_matches_reference<W: WalkIndexView>(
        store: &W,
        epoch: u64,
        context: &str,
    ) -> FrozenWalks {
        let bulk = FrozenWalks::from_index(store, epoch);
        let reference = FrozenWalks::from_index_per_segment(store, epoch);
        assert_eq!(
            (bulk.r, bulk.node_count, bulk.total_visits, bulk.epoch),
            (
                reference.r,
                reference.node_count,
                reference.total_visits,
                reference.epoch
            ),
            "{context}: header"
        );
        assert_eq!(
            bulk.chunks.len, reference.chunks.len,
            "{context}: walk chunks"
        );
        for (c, (a, b)) in bulk.chunks.iter().zip(reference.chunks.iter()).enumerate() {
            assert_eq!(a.bounds, b.bounds, "{context}: bounds of chunk {c}");
            assert_eq!(a.steps, b.steps, "{context}: steps of chunk {c}");
            let len = a.steps.len();
            assert!(
                (len..=len + len / SEED_HEADROOM).contains(&a.steps.capacity()),
                "{context}: chunk {c} holds {len} steps in a buffer of {}",
                a.steps.capacity()
            );
        }
        assert_eq!(
            bulk.counts.len, reference.counts.len,
            "{context}: count chunks"
        );
        for (c, (a, b)) in bulk.counts.iter().zip(reference.counts.iter()).enumerate() {
            assert_eq!(a, b, "{context}: count chunk {c}");
        }
        assert_views_equal(&bulk, store, context);
        bulk
    }

    #[test]
    fn freeze_reproduces_the_store_exactly() {
        let mut store = WalkStore::new(150, 3);
        for n in 0..150u32 {
            let id = SegmentId::new(NodeId(n), (n as usize) % 3, 3);
            store.set_segment(id, &path(&[n, (n + 7) % 150, (n + 1) % 150]));
        }
        let frozen = assert_seed_matches_reference(&store, 9, "full freeze");
        assert_eq!(frozen.epoch(), 9);
        // Visits spread over count chunks, a partial last walk chunk, and no nodes.
        let mut store = WalkStore::new(300, 1);
        for n in (0..300u32).step_by(7) {
            let id = SegmentId::new(NodeId(n), 0, 1);
            store.set_segment(id, &path(&[n, 299 - n, 131, 299 - n]));
        }
        assert_seed_matches_reference(&store, 1, "sparse");
        assert_seed_matches_reference(&WalkStore::new(0, 2), 0, "no nodes");
    }

    #[test]
    fn apply_rewrites_advances_the_view_like_the_store() {
        let mut store = WalkStore::new(200, 2);
        let mut frozen = FrozenWalks::from_index(&store, 0);
        for round in 0..5u32 {
            let mut plan = SegmentRewrites::new();
            for k in 0..40u32 {
                let node = (round * 37 + k * 11) % 200;
                let id = SegmentId::new(NodeId(node), (k as usize) % 2, 2);
                let p = path(&[node, (node + round + 1) % 200, (node + 2 * k) % 200]);
                plan.push(id, &p);
            }
            for (id, p) in plan.iter() {
                store.set_segment(id, p);
            }
            frozen.apply_rewrites(&plan);
            frozen.set_epoch(round as u64 + 1);
            assert_views_equal(&frozen, &store, &format!("round {round}"));
        }
    }

    #[test]
    fn cow_keeps_pinned_clones_unchanged() {
        let mut store = WalkStore::new(64, 1);
        let id = SegmentId::new(NodeId(5), 0, 1);
        store.set_segment(id, &path(&[5, 6, 7]));
        let mut mirror = FrozenWalks::from_index(&store, 0);
        let pinned = mirror.clone(); // a published generation readers still hold

        let mut plan = SegmentRewrites::new();
        plan.push(id, &path(&[5, 8]));
        mirror.apply_rewrites(&plan);
        mirror.set_epoch(1);

        assert_eq!(pinned.segment_path(id), path(&[5, 6, 7]).as_slice());
        assert_eq!(pinned.visit_count(NodeId(7)), 1);
        assert_eq!(pinned.total_visits(), 3);
        assert_eq!(mirror.segment_path(id), path(&[5, 8]).as_slice());
        assert_eq!(mirror.visit_count(NodeId(7)), 0);
        assert_eq!(mirror.total_visits(), 2);
        assert_eq!(pinned.epoch(), 0);
        assert_eq!(mirror.epoch(), 1);
    }

    #[test]
    fn node_growth_syncs_new_segments() {
        // The committer's growth op: grow the mirror, install the new nodes' segments
        // recording what they touched, then catch a lagging twin up from the record.
        let mut store = WalkStore::new(4, 2);
        store.set_segment(SegmentId::new(NodeId(1), 0, 2), &path(&[1, 2]));
        let mut frozen = FrozenWalks::from_index(&store, 0);
        let mut twin = frozen.clone();
        store.ensure_nodes(70); // crosses a chunk boundary
        let grown = SegmentId::new(NodeId(69), 1, 2);
        store.set_segment(grown, &path(&[69, 1]));
        frozen.ensure_nodes(70);
        let mut touched = TouchedChunks::default();
        for node in 4..70 {
            for id in store.segment_ids_of(NodeId::from_index(node)) {
                frozen.set_segment_recording(id, store.segment_path(id), &mut touched);
            }
        }
        assert_views_equal(&frozen, &store, "after growth");
        twin.sync_touched_from(&frozen, &mut touched);
        assert_views_equal(&twin, &store, "twin after growth");
    }

    #[test]
    fn frozen_graph_mirrors_adjacency_and_cow_isolates_pins() {
        let mut graph = DynamicGraph::with_nodes(130);
        for i in 0..129u32 {
            graph.add_edge(Edge::new(i, i + 1));
        }
        let mut frozen = FrozenGraph::from_graph(&graph);
        assert_eq!(GraphView::node_count(&frozen), 130);
        assert_eq!(frozen.edge_count(), 129);
        assert_eq!(frozen.out_neighbors(NodeId(3)), &[NodeId(4)]);
        assert_eq!(frozen.in_neighbors(NodeId(4)), &[NodeId(3)]);

        let pinned = frozen.clone();
        graph.add_edge(Edge::new(3, 100));
        graph.remove_edge(Edge::new(64, 65));
        frozen.add_edge(Edge::new(3, 100));
        assert!(frozen.remove_edge(Edge::new(64, 65)));
        assert_eq!(frozen.out_neighbors(NodeId(3)), &[NodeId(4), NodeId(100)]);
        assert_eq!(frozen.out_neighbors(NodeId(64)), &[] as &[NodeId]);
        assert_eq!(frozen.edge_count(), 129);
        // The pinned clone still sees the pre-batch lists.
        assert_eq!(pinned.out_neighbors(NodeId(3)), &[NodeId(4)]);
        assert_eq!(pinned.out_neighbors(NodeId(64)), &[NodeId(65)]);

        let mut buf = Vec::new();
        frozen.fetch_out(NodeId(3), &mut buf);
        assert_eq!(buf, path(&[4, 100]));
    }

    #[test]
    fn store_snapshot_view_wrappers_freeze_identically() {
        // Every store freezes through the one FrozenWalks::from_index; two stores
        // holding the same walks in different arena geometries (one written in
        // reverse, every slot relocated) freeze to the same view.
        let mut flat = WalkStore::new(70, 2);
        let mut relocated = WalkStore::new(70, 2);
        let ids = (0..70u32)
            .step_by(3)
            .map(|n| SegmentId::new(NodeId(n), n as usize % 2, 2));
        for id in ids.clone() {
            let n = id.source(2).0;
            flat.set_segment(id, &path(&[n, 4, (n * 5) % 70, 4]));
        }
        for id in ids.rev() {
            let n = id.source(2).0;
            relocated.set_segment(id, &[NodeId(n); 20]);
            relocated.set_segment(id, &path(&[n, 4, (n * 5) % 70, 4]));
        }
        let view = assert_seed_matches_reference(&flat, 3, "flat");
        assert_eq!(view.epoch(), 3);
        let view = assert_seed_matches_reference(&relocated, 3, "relocated");
        assert_views_equal(&view, &flat, "relocated against flat");
    }

    /// A mirror, at `epoch`, of one segment `[1, 2]`, and the plan shrinking it to `[1]`.
    fn mirror_of_one_segment(epoch: u64) -> (FrozenWalks, SegmentRewrites) {
        let mut store = WalkStore::new(3, 1);
        store.set_segment(SegmentId(1), &path(&[1, 2]));
        let mut shrink = SegmentRewrites::new();
        shrink.push(SegmentId(1), &path(&[1]));
        (FrozenWalks::from_index(&store, epoch), shrink)
    }

    #[test]
    #[should_panic(
        expected = "cannot move the visit count 0 of node 2 by -1 in the view at epoch 5"
    )]
    fn set_segment_never_wraps_a_visit_count() {
        let (mut mirror, _) = mirror_of_one_segment(5);
        mirror.counts.get_mut(0)[2] = 0; // out of step with the store it copies
        mirror.set_segment(SegmentId(1), &path(&[1]));
    }

    #[test]
    #[should_panic(
        expected = "cannot move the visit count 0 of node 2 by -1 in the view at epoch 6"
    )]
    fn apply_rewrites_never_wraps_a_visit_count() {
        let (mut mirror, shrink) = mirror_of_one_segment(6);
        mirror.counts.get_mut(0)[2] = 0;
        mirror.apply_rewrites(&shrink);
    }

    #[test]
    #[should_panic(
        expected = "cannot move the visit count 0 of node 2 by -1 in the view at epoch 7"
    )]
    fn sync_touched_from_never_wraps_a_visit_count() {
        let (mut front, shrink) = mirror_of_one_segment(7);
        let mut back = front.clone();
        let mut touched = TouchedChunks::default();
        front.apply_rewrites_recording(&shrink, &mut touched);
        front.set_epoch(8);
        back.counts.get_mut(0)[2] = 0;
        back.sync_touched_from(&front, &mut touched);
    }

    #[test]
    fn spine_clone_shares_everything_and_mutation_copies_one_path() {
        // 300 leaves → 5 blocks of 64.  After a clone, touching one leaf must copy
        // exactly that leaf, its block, and the root — nothing else.
        let mut spine: Spine<u64, 64> = Spine::new();
        spine.grow_with(300, || 0);
        assert_eq!(spine.len, 300);
        spine.take_copies();

        let pinned = spine.clone();
        *spine.get_mut(130) = 7;
        let copies = spine.take_copies();
        assert_eq!(copies.chunks_copied, 1, "one leaf copied");
        assert_eq!(copies.blocks_copied, 1, "one block copied");
        assert_eq!(*pinned.get(130), 0, "the pinned clone is unchanged");
        assert_eq!(*spine.get(130), 7);

        // A second touch in the same block copies nothing further…
        *spine.get_mut(131) = 8;
        let copies = spine.take_copies();
        assert_eq!(
            copies.chunks_copied, 1,
            "leaf 131 still shared with the pin"
        );
        assert_eq!(copies.blocks_copied, 0, "block 2 is already unshared");
        // …and re-touching an already-copied leaf is free.
        *spine.get_mut(130) = 9;
        assert_eq!(spine.take_copies(), SpineCopyStats::default());
    }

    #[test]
    fn spine_growth_preserves_contents_across_partial_blocks() {
        let mut spine: Spine<usize, 64> = Spine::new();
        spine.grow_with(10, || 1);
        for i in 0..10 {
            *spine.get_mut(i) = i;
        }
        spine.grow_with(200, || 99);
        assert_eq!(spine.len, 200);
        for i in 0..10 {
            assert_eq!(*spine.get(i), i, "pre-growth leaves survive");
        }
        assert_eq!(*spine.get(10), 99);
        assert_eq!(*spine.get(199), 99);
        assert_eq!(spine.iter().count(), 200);
    }

    #[test]
    fn one_segment_rewrite_copies_o1_chunks_after_publish() {
        // A store big enough for many blocks: 3000 nodes × 2 slots = 6000 segments =
        // 188 walk chunks ≈ 3 blocks.  One rewrite after a publish (clone) must copy
        // O(1) leaves, not O(store).
        let mut store = WalkStore::new(3000, 2);
        for n in 0..3000u32 {
            let id = SegmentId::new(NodeId(n), 0, 2);
            store.set_segment(id, &path(&[n, (n + 1) % 3000]));
        }
        let mut mirror = FrozenWalks::from_index(&store, 0);
        mirror.take_copy_stats();
        let _pinned = mirror.clone();

        let mut plan = SegmentRewrites::new();
        plan.push(SegmentId::new(NodeId(5), 0, 2), &path(&[5, 9]));
        mirror.apply_rewrites(&plan);
        let (walk, counts) = mirror.take_copy_stats();
        assert_eq!(walk.chunks_copied, 1);
        assert_eq!(walk.blocks_copied, 1);
        assert!(counts.chunks_copied <= 2, "old + new visit count chunks");
    }

    /// `(list length, slot size)` of `node`'s list in one direction's spine.
    fn slot_of(lists: &Spine<AdjChunk, GRAPH_BLOCK>, node: usize) -> (usize, usize) {
        let chunk = lists.get(node / NODES_PER_GRAPH_CHUNK);
        let local = node % NODES_PER_GRAPH_CHUNK;
        let slot = chunk.starts[local + 1] - chunk.starts[local];
        (chunk.lens[local] as usize, slot as usize)
    }

    /// Asserts two views hold the same lists, element for element, in both directions.
    fn assert_same_lists<G: GraphView>(view: &FrozenGraph, graph: &G, context: &str) {
        assert_eq!(GraphView::node_count(view), graph.node_count(), "{context}");
        assert_eq!(view.edge_count(), graph.edge_count(), "{context}: edges");
        for n in 0..graph.node_count() {
            let node = NodeId::from_index(n);
            assert_eq!(
                view.out_neighbors(node),
                graph.out_neighbors(node),
                "{context}: out-list of {n}"
            );
            assert_eq!(
                view.in_neighbors(node),
                graph.in_neighbors(node),
                "{context}: in-list of {n}"
            );
        }
    }

    #[test]
    fn graph_setters_match_refresh_and_collapse_empty_lists() {
        // A replayed mirror and a fresh freeze of the post-batch graph agree, and a
        // freeze of the replay is the fresh freeze leaf for leaf.  The freeze gives
        // every empty list — isolated, emptied, or padding past the last node — an
        // empty slot, and every other list its length plus a quarter of slack.
        let mut graph = DynamicGraph::with_nodes(70);
        graph.add_edge(Edge::new(1, 2));
        let mut replayed = FrozenGraph::from_graph(&graph);
        graph.add_edge(Edge::new(1, 69));
        graph.remove_edge(Edge::new(1, 2));
        replayed.add_edge(Edge::new(1, 69));
        replayed.remove_edge(Edge::new(1, 2));
        let fresh = FrozenGraph::from_graph(&graph);
        assert_same_lists(&replayed, &graph, "replayed");
        assert_same_lists(&fresh, &graph, "fresh");

        let refrozen = FrozenGraph::from_graph(&replayed);
        for (lists, again) in [
            (&fresh.out, &refrozen.out),
            (&fresh.incoming, &refrozen.incoming),
        ] {
            assert_eq!(lists.len, again.len);
            for (a, b) in lists.iter().zip(again.iter()) {
                assert_eq!(
                    (a.starts, a.lens, &a.payload),
                    (b.starts, b.lens, &b.payload)
                );
            }
        }
        for node in [0, 2, 68, 75, 79] {
            assert_eq!(slot_of(&fresh.incoming, node), (0, 0), "in-list of {node}");
        }
        assert_eq!(slot_of(&fresh.incoming, 69), (1, 2));
        assert_eq!(slot_of(&fresh.out, 1), (1, 2));
        assert_eq!(slot_of(&fresh.out, 2), (0, 0));
        // The replay emptied node 2's in-list in place; its slot stays.
        assert_eq!(slot_of(&replayed.incoming, 2), (0, 2));
        // Leaves that hold only isolated nodes hold no payload at all.
        let chunk = fresh.out.get(64 / NODES_PER_GRAPH_CHUNK);
        assert!(chunk.payload.is_empty() && chunk.payload.capacity() == 0);
        replayed.ensure_nodes(200);
        for node in [80, 150, 199, 207] {
            assert_eq!(slot_of(&replayed.out, node), (0, 0), "grown node {node}");
        }
        assert!(replayed
            .incoming
            .get(199 / NODES_PER_GRAPH_CHUNK)
            .payload
            .is_empty());
    }

    #[test]
    fn frozen_graph_replay_matches_dynamic_graph_under_random_churn() {
        // A seeded loop of arrivals (duplicates included, a third aimed at one hub),
        // first-occurrence deletions, node growth and pinned clones, replayed on a
        // mirror next to the live graph.
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};

        const HUB: u32 = 7;
        let mut rng = SmallRng::seed_from_u64(0x05EE_DAD1);
        let mut graph = DynamicGraph::with_nodes(40);
        for _ in 0..80 {
            let edge = Edge::new(rng.gen_range(0..40u32), rng.gen_range(0..40u32));
            graph.add_edge(edge);
        }
        let mut mirror = FrozenGraph::from_graph(&graph);
        let mut hub_slot = slot_of(&mirror.incoming, HUB as usize).1;
        let mut hub_slot_growths = 0;
        let mut pins: Vec<(FrozenGraph, DynamicGraph)> = Vec::new();
        for step in 0..4000 {
            let n = graph.node_count() as u32;
            match rng.gen_range(0..20u32) {
                0..=9 => {
                    let source = rng.gen_range(0..n);
                    let target = match rng.gen_range(0..3u32) {
                        0 => HUB,
                        // A second copy of one of the source's edges.
                        1 => graph
                            .out_neighbors(NodeId(source))
                            .first()
                            .map_or(HUB, |t| t.0),
                        _ => rng.gen_range(0..n),
                    };
                    graph.add_edge(Edge::new(source, target));
                    mirror.add_edge(Edge::new(source, target));
                    let (_, slot) = slot_of(&mirror.incoming, HUB as usize);
                    hub_slot_growths += (slot != hub_slot) as usize;
                    hub_slot = slot;
                }
                10..=16 => {
                    let source = rng.gen_range(0..n);
                    let out = graph.out_neighbors(NodeId(source));
                    let target = if out.is_empty() || rng.gen_bool(0.2) {
                        rng.gen_range(0..n) // most likely absent
                    } else {
                        out[rng.gen_range(0..out.len())].0
                    };
                    let edge = Edge::new(source, target);
                    assert_eq!(mirror.remove_edge(edge), graph.remove_edge(edge), "{edge}");
                }
                17 => {
                    let grown = graph.node_count() + rng.gen_range(1..20usize);
                    graph.ensure_nodes(grown);
                    mirror.ensure_nodes(grown);
                }
                _ => pins.push((mirror.clone(), graph.clone())),
            }
            if step % 97 == 0 {
                assert_same_lists(&mirror, &graph, &format!("step {step}"));
            }
        }
        assert_same_lists(&mirror, &graph, "end");
        assert!(
            hub_slot_growths >= 5,
            "the hub's in-list outgrew its slot {hub_slot_growths} times"
        );
        assert!(pins.len() > 100, "{} pins", pins.len());
        for (k, (pinned, then)) in pins.iter().enumerate() {
            assert_same_lists(pinned, then, &format!("pin {k}"));
        }
    }

    #[test]
    fn edge_replay_matches_live_graph_order_bit_exactly() {
        // The committer mirrors the live graph by replaying the same edge batch in
        // the same order; sampling picks neighbours by list position, so the lists
        // must match element-for-element — including swap_remove reordering and
        // duplicate (multi-)edges.
        let mut graph = DynamicGraph::with_nodes(8);
        let mut mirror = FrozenGraph::from_graph(&graph);
        let _pinned = mirror.clone(); // force COW on every replayed list

        let batch = [
            Edge::new(0, 1),
            Edge::new(0, 2),
            Edge::new(0, 3),
            Edge::new(0, 2), // duplicate edge — both copies must survive
            Edge::new(5, 0),
            Edge::new(6, 0),
        ];
        for &e in &batch {
            graph.add_edge(e);
            mirror.add_edge(e);
        }
        // swap_remove moves the tail into slot 0 — order change must be replayed.
        let deletions = [Edge::new(0, 1), Edge::new(4, 7), Edge::new(0, 2)];
        for &e in &deletions {
            assert_eq!(mirror.remove_edge(e), graph.remove_edge(e));
        }

        // A fresh freeze of the resulting graph copies the same lists, in order.
        let frozen = FrozenGraph::from_graph(&graph);
        for view in [&mirror, &frozen] {
            for n in 0..8u32 {
                assert_eq!(
                    view.out_neighbors(NodeId(n)),
                    graph.out_neighbors(NodeId(n))
                );
                assert_eq!(view.in_neighbors(NodeId(n)), graph.in_neighbors(NodeId(n)));
            }
            assert_eq!(view.edge_count(), graph.edge_count());
        }
        assert_eq!(frozen.out_neighbors(NodeId(0)), path(&[3, 2]));
    }

    #[test]
    fn frozen_graph_growth_starts_isolated() {
        let graph = DynamicGraph::with_nodes(2);
        let mut frozen = FrozenGraph::from_graph(&graph);
        frozen.ensure_nodes(100);
        assert_eq!(GraphView::node_count(&frozen), 100);
        assert!(frozen.out_neighbors(NodeId(99)).is_empty());
    }
}
