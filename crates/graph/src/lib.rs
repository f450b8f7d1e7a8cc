//! Directed-graph substrate for the `fast-ppr` workspace.
//!
//! The paper (Bahmani, Chowdhury, Goel; VLDB 2010) works over the Twitter follower
//! graph: a large directed graph that evolves one edge at a time and is accessed
//! randomly through a distributed store.  This crate provides everything the rest of
//! the workspace needs to stand in for that substrate:
//!
//! * [`dynamic::DynamicGraph`] — an adjacency-list directed graph supporting edge
//!   insertion and deletion with in/out degree tracking (the shape FlockDB exposes).
//! * [`csr::CsrGraph`] — an immutable compressed-sparse-row snapshot used by the
//!   linear-algebraic baselines (power iteration, HITS, exact SALSA).
//! * [`generators`] — synthetic social-graph generators: directed preferential
//!   attachment, Chung–Lu power-law graphs, Erdős–Rényi graphs, and the adversarial
//!   gadget of the paper's Example 1.
//! * [`stream`] — edge-arrival orderings (random permutation, Dirichlet, adversarial)
//!   used to drive the incremental experiments.
//! * [`snapshot`] — two-date snapshot splits used by the link-prediction experiment
//!   (Table 1 of the paper).
//! * [`edgelist`] — plain-text edge-list (de)serialisation helpers.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![forbid(unsafe_code)]

pub mod csr;
pub mod dynamic;
pub mod edgelist;
pub mod generators;
pub mod snapshot;
pub mod stream;
pub mod view;

pub use csr::CsrGraph;
pub use dynamic::DynamicGraph;
pub use view::GraphView;

/// Identifier of a node in a graph.
///
/// Nodes are dense indices in `0..node_count()`; the newtype exists so that node
/// identifiers and ordinary counters cannot be mixed up silently.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The node id as a `usize` index, for indexing into per-node vectors.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Builds a [`NodeId`] from a `usize` index.
    ///
    /// # Panics
    ///
    /// Panics if `index` does not fit in `u32`.
    #[inline]
    pub fn from_index(index: usize) -> Self {
        NodeId(u32::try_from(index).expect("node index exceeds u32::MAX"))
    }
}

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl From<u32> for NodeId {
    fn from(value: u32) -> Self {
        NodeId(value)
    }
}

/// A directed edge `source -> target`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Edge {
    /// Tail of the edge (the follower, in social-network terms).
    pub source: NodeId,
    /// Head of the edge (the followee).
    pub target: NodeId,
}

impl Edge {
    /// Creates an edge from raw u32 endpoints.
    #[inline]
    pub fn new(source: u32, target: u32) -> Self {
        Edge {
            source: NodeId(source),
            target: NodeId(target),
        }
    }

    /// Returns the edge with source and target swapped.
    #[inline]
    pub fn reversed(self) -> Self {
        Edge {
            source: self.target,
            target: self.source,
        }
    }

    /// Returns `true` if the edge is a self-loop.
    #[inline]
    pub fn is_self_loop(self) -> bool {
        self.source == self.target
    }
}

impl From<(u32, u32)> for Edge {
    fn from((s, t): (u32, u32)) -> Self {
        Edge::new(s, t)
    }
}

impl std::fmt::Display for Edge {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} -> {}", self.source, self.target)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_id_roundtrip() {
        let id = NodeId::from_index(42);
        assert_eq!(id, NodeId(42));
        assert_eq!(id.index(), 42);
        assert_eq!(id.to_string(), "42");
    }

    #[test]
    fn node_id_from_u32() {
        let id: NodeId = 7u32.into();
        assert_eq!(id, NodeId(7));
    }

    #[test]
    #[should_panic(expected = "node index exceeds u32::MAX")]
    fn node_id_from_oversized_index_panics() {
        let _ = NodeId::from_index(u32::MAX as usize + 1);
    }

    #[test]
    fn edge_constructors_and_accessors() {
        let e = Edge::new(1, 2);
        assert_eq!(e.source, NodeId(1));
        assert_eq!(e.target, NodeId(2));
        assert_eq!(e.reversed(), Edge::new(2, 1));
        assert!(!e.is_self_loop());
        assert!(Edge::new(3, 3).is_self_loop());
        assert_eq!(e.to_string(), "1 -> 2");
    }

    #[test]
    fn edge_from_tuple() {
        let e: Edge = (5u32, 9u32).into();
        assert_eq!(e, Edge::new(5, 9));
    }

    #[test]
    fn node_id_ordering_is_numeric() {
        assert!(NodeId(3) < NodeId(10));
        let mut v = vec![NodeId(5), NodeId(1), NodeId(3)];
        v.sort();
        assert_eq!(v, vec![NodeId(1), NodeId(3), NodeId(5)]);
    }
}
