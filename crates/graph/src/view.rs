//! The [`GraphView`] trait: a read-only view over a directed graph.
//!
//! The mutable [`crate::DynamicGraph`], the immutable [`crate::CsrGraph`] and the
//! serving layer's copy-on-write adjacency implement this trait, so that algorithms
//! (power iteration, HITS, SALSA, random walks) are written once — neighbour sampling
//! included — and run against any representation.

use crate::{Edge, NodeId};
use rand::Rng;

/// Read-only access to a directed graph with dense node ids `0..node_count()`.
pub trait GraphView {
    /// Number of nodes in the graph.
    fn node_count(&self) -> usize;

    /// Number of directed edges in the graph.
    fn edge_count(&self) -> usize;

    /// Out-neighbours of `node` (targets of edges leaving `node`).
    fn out_neighbors(&self, node: NodeId) -> &[NodeId];

    /// In-neighbours of `node` (sources of edges entering `node`).
    fn in_neighbors(&self, node: NodeId) -> &[NodeId];

    /// Out-degree of `node`.
    #[inline]
    fn out_degree(&self, node: NodeId) -> usize {
        self.out_neighbors(node).len()
    }

    /// In-degree of `node`.
    #[inline]
    fn in_degree(&self, node: NodeId) -> usize {
        self.in_neighbors(node).len()
    }

    /// Returns `true` if `node` has no outgoing edges (a "dangling" node for PageRank).
    #[inline]
    fn is_dangling(&self, node: NodeId) -> bool {
        self.out_degree(node) == 0
    }

    /// Returns `true` if at least one copy of the edge is present.
    fn has_edge(&self, edge: Edge) -> bool {
        edge.source.index() < self.node_count()
            && self.out_neighbors(edge.source).contains(&edge.target)
    }

    /// Picks a uniformly random out-neighbour of `node` — list position
    /// `gen_range(0..out_degree)` — or `None` if it has none.
    #[inline]
    fn random_out_neighbor<R: Rng + ?Sized>(&self, node: NodeId, rng: &mut R) -> Option<NodeId> {
        pick(self.out_neighbors(node), rng)
    }

    /// Picks a uniformly random in-neighbour of `node` — list position
    /// `gen_range(0..in_degree)` — or `None` if it has none.
    #[inline]
    fn random_in_neighbor<R: Rng + ?Sized>(&self, node: NodeId, rng: &mut R) -> Option<NodeId> {
        pick(self.in_neighbors(node), rng)
    }

    /// Iterates over every node id in the graph.
    fn nodes(&self) -> NodeIter {
        NodeIter {
            next: 0,
            count: self.node_count() as u32,
        }
    }

    /// Collects every edge of the graph into a vector, in node order.
    fn collect_edges(&self) -> Vec<Edge> {
        let mut edges = Vec::with_capacity(self.edge_count());
        for u in self.nodes() {
            for &v in self.out_neighbors(u) {
                edges.push(Edge {
                    source: u,
                    target: v,
                });
            }
        }
        edges
    }

    /// Sum of out-degrees, which must equal the edge count for a consistent graph.
    fn total_out_degree(&self) -> usize {
        self.nodes().map(|u| self.out_degree(u)).sum()
    }

    /// Sum of in-degrees, which must equal the edge count for a consistent graph.
    fn total_in_degree(&self) -> usize {
        self.nodes().map(|u| self.in_degree(u)).sum()
    }
}

/// A uniformly random entry of `neighbors`, picked by position: sampling is part of
/// a graph's observable behaviour, so every representation draws through this.
#[inline]
fn pick<R: Rng + ?Sized>(neighbors: &[NodeId], rng: &mut R) -> Option<NodeId> {
    if neighbors.is_empty() {
        None
    } else {
        Some(neighbors[rng.gen_range(0..neighbors.len())])
    }
}

/// Iterator over the dense node ids of a graph.
#[derive(Debug, Clone)]
pub struct NodeIter {
    next: u32,
    count: u32,
}

impl Iterator for NodeIter {
    type Item = NodeId;

    #[inline]
    fn next(&mut self) -> Option<NodeId> {
        if self.next < self.count {
            let id = NodeId(self.next);
            self.next += 1;
            Some(id)
        } else {
            None
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let remaining = (self.count - self.next) as usize;
        (remaining, Some(remaining))
    }
}

impl ExactSizeIterator for NodeIter {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DynamicGraph;

    fn triangle() -> DynamicGraph {
        let mut g = DynamicGraph::with_nodes(3);
        g.add_edge(Edge::new(0, 1));
        g.add_edge(Edge::new(1, 2));
        g.add_edge(Edge::new(2, 0));
        g
    }

    #[test]
    fn node_iterator_yields_all_nodes() {
        let g = triangle();
        let nodes: Vec<_> = g.nodes().collect();
        assert_eq!(nodes, vec![NodeId(0), NodeId(1), NodeId(2)]);
        assert_eq!(g.nodes().len(), 3);
    }

    #[test]
    fn collect_edges_matches_edge_count() {
        let g = triangle();
        let edges = g.collect_edges();
        assert_eq!(edges.len(), g.edge_count());
        assert!(edges.contains(&Edge::new(2, 0)));
    }

    #[test]
    fn degree_sums_are_consistent() {
        let g = triangle();
        assert_eq!(g.total_out_degree(), g.edge_count());
        assert_eq!(g.total_in_degree(), g.edge_count());
    }

    #[test]
    fn dangling_detection() {
        let mut g = DynamicGraph::with_nodes(2);
        g.add_edge(Edge::new(0, 1));
        assert!(!g.is_dangling(NodeId(0)));
        assert!(g.is_dangling(NodeId(1)));
    }
}
