//! The Social Store: a FlockDB stand-in with fetch accounting.
//!
//! In the paper's data-access model the social graph lives in distributed shared memory
//! and is accessed randomly; the cost charged to the personalized-PageRank algorithm is
//! the number of *fetch* operations it issues, where a fetch at node `u` returns all of
//! `u`'s outgoing edges (and, at the algorithm level, the `R` cached walk segments
//! starting at `u`).  [`SocialStore`] wraps a [`DynamicGraph`] and counts every access.

use crate::metrics::{AtomicStoreMetrics, StoreMetrics};
use ppr_graph::{DynamicGraph, Edge, GraphView, NodeId};
use rand::Rng;
use std::sync::atomic::Ordering;

/// The social graph behind an instrumented access API.
#[derive(Debug)]
pub struct SocialStore {
    graph: DynamicGraph,
    metrics: AtomicStoreMetrics,
}

/// Result of a fetch operation: the full out-adjacency of the fetched node.
///
/// The walk segments associated with the node are owned by the PageRank Store
/// ([`crate::WalkStore`]); the personalized walker combines the two at the call site, so
/// a single `fetch` in the paper's sense corresponds to exactly one call of
/// [`SocialStore::fetch`].
#[derive(Debug, Clone, Copy)]
pub struct Fetched<'a> {
    /// The fetched node.
    pub node: NodeId,
    /// All outgoing edges of the node at fetch time.
    pub out_neighbors: &'a [NodeId],
}

impl SocialStore {
    /// Creates a store over `n` isolated nodes.
    pub fn new(n: usize) -> Self {
        Self::from_graph(DynamicGraph::with_nodes(n))
    }

    /// Wraps an existing graph.
    pub fn from_graph(graph: DynamicGraph) -> Self {
        SocialStore {
            graph,
            metrics: AtomicStoreMetrics::default(),
        }
    }

    /// Read-only access to the underlying graph (not counted as a fetch; used by the
    /// maintenance path that co-locates with the store, and by tests).
    pub fn graph(&self) -> &DynamicGraph {
        &self.graph
    }

    /// Number of nodes currently in the store.
    pub fn node_count(&self) -> usize {
        self.graph.node_count()
    }

    /// Number of edges currently in the store.
    pub fn edge_count(&self) -> usize {
        self.graph.edge_count()
    }

    /// Fetch operation: returns the full out-adjacency of `node` and counts one fetch
    /// (plus the volume of data returned) against the store metrics.
    pub fn fetch(&self, node: NodeId) -> Fetched<'_> {
        let out_neighbors = self.graph.out_neighbors(node);
        self.metrics.fetches.fetch_add(1, Ordering::Relaxed);
        self.metrics
            .edges_returned
            .fetch_add(out_neighbors.len() as u64, Ordering::Relaxed);
        Fetched {
            node,
            out_neighbors,
        }
    }

    /// The Remark 1 variant of a fetch: return a single uniformly sampled out-neighbour
    /// instead of the whole adjacency.  Counted separately from full fetches.
    pub fn sample_out_neighbor<R: Rng + ?Sized>(
        &self,
        node: NodeId,
        rng: &mut R,
    ) -> Option<NodeId> {
        self.metrics
            .sampled_neighbor_queries
            .fetch_add(1, Ordering::Relaxed);
        self.graph.random_out_neighbor(node, rng)
    }

    /// Ensures the store can address nodes `0..n`.
    pub fn ensure_nodes(&mut self, n: usize) {
        self.graph.ensure_nodes(n);
    }

    /// Inserts an edge (counted in the metrics).  Grows the node set if necessary.
    pub fn add_edge(&mut self, edge: Edge) {
        self.graph.add_edge_growing(edge);
        self.metrics.edge_insertions.fetch_add(1, Ordering::Relaxed);
    }

    /// Removes one occurrence of `edge`, returning whether it was present.
    pub fn remove_edge(&mut self, edge: Edge) -> bool {
        let removed = self.graph.remove_edge(edge);
        if removed {
            self.metrics.edge_deletions.fetch_add(1, Ordering::Relaxed);
        }
        removed
    }

    /// Out-degree of `node` — the `d(v)` counter of Section 2.2 (not counted as a fetch:
    /// the paper keeps this counter co-located with the arrival path precisely so that
    /// the pre-filter needs no store access).
    pub fn out_degree(&self, node: NodeId) -> usize {
        self.graph.out_degree(node)
    }

    /// In-degree of `node`.
    pub fn in_degree(&self, node: NodeId) -> usize {
        self.graph.in_degree(node)
    }

    /// Snapshot of the access metrics.
    pub fn metrics(&self) -> StoreMetrics {
        self.metrics.snapshot()
    }

    /// Atomically (per counter) snapshots and zeroes the access metrics: the
    /// interval read used by telemetry samplers.  Unlike a `metrics()` +
    /// `reset_metrics()` pair, no concurrent increment can land in both the
    /// returned window and the next one.
    pub fn metrics_and_reset(&self) -> StoreMetrics {
        self.metrics.snapshot_and_reset()
    }

    /// Resets all access metrics to zero.
    pub fn reset_metrics(&self) {
        self.metrics.reset();
    }
}

/// The walker-facing fetch surface: one fetch copies the node's out-adjacency and is
/// charged to the store metrics, exactly like [`SocialStore::fetch`].
impl crate::view::AdjacencyFetch for SocialStore {
    fn node_count(&self) -> usize {
        SocialStore::node_count(self)
    }

    fn fetch_out(&self, node: NodeId, out: &mut Vec<NodeId>) {
        let fetched = self.fetch(node);
        out.clear();
        out.extend_from_slice(fetched.out_neighbors);
    }
}

/// Wraps a graph in a store without copying it.  This is the conversion
/// the engines' `from_graph` constructors use, so building an engine over a large graph
/// never doubles peak memory.
impl From<DynamicGraph> for SocialStore {
    fn from(graph: DynamicGraph) -> Self {
        SocialStore::from_graph(graph)
    }
}

/// Clones the graph into a store.  Prefer passing the graph by value (the
/// [`From<DynamicGraph>`] impl) when the original is no longer needed — the reference
/// form exists so read-only callers (tests, benches replaying one graph many times) can
/// keep theirs.
impl From<&DynamicGraph> for SocialStore {
    fn from(graph: &DynamicGraph) -> Self {
        SocialStore::from_graph(graph.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppr_graph::generators::directed_cycle;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn fetch_returns_adjacency_and_counts() {
        let mut store = SocialStore::new(3);
        store.add_edge(Edge::new(0, 1));
        store.add_edge(Edge::new(0, 2));
        let fetched = store.fetch(NodeId(0));
        assert_eq!(fetched.node, NodeId(0));
        assert_eq!(fetched.out_neighbors, &[NodeId(1), NodeId(2)]);
        let metrics = store.metrics();
        assert_eq!(metrics.fetches, 1);
        assert_eq!(metrics.edges_returned, 2);
        assert_eq!(metrics.edge_insertions, 2);
        store.reset_metrics();
        assert_eq!(store.metrics(), StoreMetrics::default());
    }

    #[test]
    fn fetching_a_dangling_node_returns_empty_but_still_counts() {
        let store = SocialStore::new(2);
        let fetched = store.fetch(NodeId(1));
        assert!(fetched.out_neighbors.is_empty());
        assert_eq!(store.metrics().fetches, 1);
        assert_eq!(store.metrics().edges_returned, 0);
    }

    #[test]
    fn sampled_neighbor_queries_are_counted_separately() {
        let store = SocialStore::from_graph(directed_cycle(5));
        let mut rng = SmallRng::seed_from_u64(1);
        let v = store.sample_out_neighbor(NodeId(0), &mut rng);
        assert_eq!(v, Some(NodeId(1)));
        let metrics = store.metrics();
        assert_eq!(metrics.fetches, 0);
        assert_eq!(metrics.sampled_neighbor_queries, 1);
    }

    #[test]
    fn add_and_remove_edges_update_metrics() {
        let mut store = SocialStore::new(2);
        store.add_edge(Edge::new(0, 1));
        assert!(store.remove_edge(Edge::new(0, 1)));
        assert!(!store.remove_edge(Edge::new(0, 1)));
        let metrics = store.metrics();
        assert_eq!(metrics.edge_insertions, 1);
        assert_eq!(metrics.edge_deletions, 1);
        assert_eq!(store.edge_count(), 0);
    }

    #[test]
    fn add_edge_grows_node_set() {
        let mut store = SocialStore::new(1);
        store.add_edge(Edge::new(0, 9));
        assert_eq!(store.node_count(), 10);
        assert_eq!(store.out_degree(NodeId(0)), 1);
        assert_eq!(store.in_degree(NodeId(9)), 1);
    }
}
