//! [`DynamicGraph`]: a directed graph under edge insertions and deletions.
//!
//! This is the in-memory stand-in for the adjacency data FlockDB serves at Twitter:
//! for every node we keep both the out-adjacency (who the node follows) and the
//! in-adjacency (who follows the node), so that forward walks (PageRank), backward
//! walks and alternating walks (SALSA) all have O(1)-amortised random access to the
//! neighbour lists while the graph keeps changing.

use crate::view::GraphView;
use crate::{Edge, NodeId};

/// A mutable directed graph with dense node ids.
///
/// Parallel edges are permitted (the generators never produce them, but the incremental
/// engine does not care) and self-loops are permitted as well.  Edge removal is O(out
/// degree + in degree) of the endpoints, which matches the cost model of an adjacency
/// store: a deletion has to locate the entry either way.
#[derive(Debug, Clone, Default)]
pub struct DynamicGraph {
    out_adj: Vec<Vec<NodeId>>,
    in_adj: Vec<Vec<NodeId>>,
    edge_count: usize,
}

impl DynamicGraph {
    /// Creates an empty graph with zero nodes.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a graph with `n` isolated nodes.
    pub fn with_nodes(n: usize) -> Self {
        DynamicGraph {
            out_adj: vec![Vec::new(); n],
            in_adj: vec![Vec::new(); n],
            edge_count: 0,
        }
    }

    /// Builds a graph from an edge list; the node count is `max endpoint + 1` unless
    /// `min_nodes` is larger.
    pub fn from_edges(edges: &[Edge], min_nodes: usize) -> Self {
        let max_node = edges
            .iter()
            .map(|e| e.source.index().max(e.target.index()) + 1)
            .max()
            .unwrap_or(0);
        let mut graph = Self::with_nodes(max_node.max(min_nodes));
        for &edge in edges {
            graph.add_edge(edge);
        }
        graph
    }

    /// Rebuilds a graph from raw adjacency lists, preserving the **exact entry order**
    /// of both directions.
    ///
    /// Adjacency order is observable state: `remove_edge` uses `swap_remove`, and
    /// random-neighbour sampling picks by position, so two graphs with the same edge
    /// multiset but different list orders diverge under the same RNG stream.  A
    /// checkpoint/restore cycle therefore has to round-trip the lists verbatim — this
    /// is the decode half of that surface ([`crate::view::GraphView::out_neighbors`] /
    /// [`crate::view::GraphView::in_neighbors`] are the encode half).
    ///
    /// Returns an error if the two directions disagree: every `u -> v` entry in the
    /// out-lists must appear exactly as often as the matching `v`-side in-list entry,
    /// and no entry may reference a node outside `0..out_adj.len()`.
    pub fn from_adjacency(
        out_adj: Vec<Vec<NodeId>>,
        in_adj: Vec<Vec<NodeId>>,
    ) -> Result<Self, String> {
        if out_adj.len() != in_adj.len() {
            return Err(format!(
                "adjacency lists disagree on the node count: {} out vs {} in",
                out_adj.len(),
                in_adj.len()
            ));
        }
        let edge_count = same_edge_multiset(&out_adj, &in_adj)?;
        Ok(DynamicGraph {
            out_adj,
            in_adj,
            edge_count,
        })
    }

    /// Adds a new isolated node and returns its id.
    pub fn add_node(&mut self) -> NodeId {
        let id = NodeId::from_index(self.out_adj.len());
        self.out_adj.push(Vec::new());
        self.in_adj.push(Vec::new());
        id
    }

    /// Ensures the graph has at least `n` nodes, adding isolated nodes if necessary.
    pub fn ensure_nodes(&mut self, n: usize) {
        while self.out_adj.len() < n {
            self.add_node();
        }
    }

    /// Inserts a directed edge.  Both endpoints must already exist.
    ///
    /// # Panics
    ///
    /// Panics if either endpoint is out of range.
    pub fn add_edge(&mut self, edge: Edge) {
        let n = self.out_adj.len();
        assert!(
            edge.source.index() < n && edge.target.index() < n,
            "edge {edge} references a node outside 0..{n}"
        );
        self.out_adj[edge.source.index()].push(edge.target);
        self.in_adj[edge.target.index()].push(edge.source);
        self.edge_count += 1;
    }

    /// Inserts a directed edge, growing the node set if an endpoint does not exist yet.
    pub fn add_edge_growing(&mut self, edge: Edge) {
        let needed = edge.source.index().max(edge.target.index()) + 1;
        self.ensure_nodes(needed);
        self.add_edge(edge);
    }

    /// Removes one occurrence of the directed edge, returning `true` if it was present.
    pub fn remove_edge(&mut self, edge: Edge) -> bool {
        if edge.source.index() >= self.out_adj.len() || edge.target.index() >= self.in_adj.len() {
            return false;
        }
        let out = &mut self.out_adj[edge.source.index()];
        let Some(pos) = out.iter().position(|&t| t == edge.target) else {
            return false;
        };
        out.swap_remove(pos);
        let inn = &mut self.in_adj[edge.target.index()];
        let pos = inn
            .iter()
            .position(|&s| s == edge.source)
            .expect("out/in adjacency lists out of sync");
        inn.swap_remove(pos);
        self.edge_count -= 1;
        true
    }

    /// Out-degree distribution as a vector indexed by node.
    pub fn out_degrees(&self) -> Vec<usize> {
        self.out_adj.iter().map(Vec::len).collect()
    }

    /// In-degree distribution as a vector indexed by node.
    pub fn in_degrees(&self) -> Vec<usize> {
        self.in_adj.iter().map(Vec::len).collect()
    }

    /// Internal consistency check used by tests and debug assertions: the out- and
    /// in-adjacency structures must describe the same multiset of edges.
    pub fn check_consistency(&self) -> Result<(), String> {
        let out_total: usize = self.out_adj.iter().map(Vec::len).sum();
        let in_total: usize = self.in_adj.iter().map(Vec::len).sum();
        if out_total != self.edge_count {
            return Err(format!(
                "out-adjacency holds {out_total} edges but edge_count is {}",
                self.edge_count
            ));
        }
        if in_total != self.edge_count {
            return Err(format!(
                "in-adjacency holds {in_total} edges but edge_count is {}",
                self.edge_count
            ));
        }
        let mut out_edges: Vec<(u32, u32)> = Vec::with_capacity(out_total);
        for (u, targets) in self.out_adj.iter().enumerate() {
            for &t in targets {
                out_edges.push((u as u32, t.0));
            }
        }
        let mut in_edges: Vec<(u32, u32)> = Vec::with_capacity(in_total);
        for (v, sources) in self.in_adj.iter().enumerate() {
            for &s in sources {
                in_edges.push((s.0, v as u32));
            }
        }
        out_edges.sort_unstable();
        in_edges.sort_unstable();
        if out_edges != in_edges {
            return Err("out- and in-adjacency lists describe different edge sets".to_string());
        }
        Ok(())
    }
}

/// Checks that `out_adj` and `in_adj`, over the same node count, hold the same edge
/// multiset and reference no node outside it; returns the edge count.  A counting
/// transpose groups the out-lists' sources by target, and each group is held to
/// that target's in-list with one balance counter per source: O(E + n), no sort.
fn same_edge_multiset(out_adj: &[Vec<NodeId>], in_adj: &[Vec<NodeId>]) -> Result<usize, String> {
    let n = out_adj.len();
    // `start[v + 1]` counts the out-entries naming `v`, then becomes the end of
    // `v`'s group of sources.
    let mut start = vec![0usize; n + 1];
    for (u, targets) in out_adj.iter().enumerate() {
        for &v in targets {
            if v.index() >= n {
                return Err(format!(
                    "out-edge {u} -> {v} references a node outside 0..{n}"
                ));
            }
            start[v.index() + 1] += 1;
        }
    }
    for (v, sources) in in_adj.iter().enumerate() {
        if let Some(u) = sources.iter().find(|u| u.index() >= n) {
            return Err(format!(
                "in-edge {u} -> {v} references a node outside 0..{n}"
            ));
        }
    }
    let mismatch = || "out- and in-adjacency lists describe different edge multisets".to_string();
    if (0..n).any(|v| start[v + 1] != in_adj[v].len()) {
        return Err(mismatch());
    }
    for v in 0..n {
        start[v + 1] += start[v];
    }
    let mut sources = vec![NodeId(0); start[n]];
    let mut next = start.clone();
    for (u, targets) in out_adj.iter().enumerate() {
        for &v in targets {
            sources[next[v.index()]] = NodeId::from_index(u);
            next[v.index()] += 1;
        }
    }
    drop(next);
    // Each group and in-list have the same length, so a balance that never goes
    // negative ends at zero for every source.
    let mut balance = vec![0u32; n];
    for (v, inn) in in_adj.iter().enumerate() {
        for &u in &sources[start[v]..start[v + 1]] {
            balance[u.index()] += 1;
        }
        for &u in inn {
            let held = &mut balance[u.index()];
            *held = held.checked_sub(1).ok_or_else(mismatch)?;
        }
    }
    Ok(start[n])
}

/// The sort-based check [`same_edge_multiset`] replaced, kept as its reference.
#[cfg(test)]
fn same_edge_multiset_by_sorting(
    out_adj: &[Vec<NodeId>],
    in_adj: &[Vec<NodeId>],
) -> Result<usize, String> {
    let n = out_adj.len();
    let mut forward: Vec<(u32, u32)> = Vec::new();
    for (u, targets) in out_adj.iter().enumerate() {
        for &v in targets {
            if v.index() >= n {
                return Err(format!(
                    "out-edge {u} -> {v} references a node outside 0..{n}"
                ));
            }
            forward.push((u as u32, v.0));
        }
    }
    let mut backward: Vec<(u32, u32)> = Vec::new();
    for (v, sources) in in_adj.iter().enumerate() {
        for &u in sources {
            if u.index() >= n {
                return Err(format!(
                    "in-edge {u} -> {v} references a node outside 0..{n}"
                ));
            }
            backward.push((u.0, v as u32));
        }
    }
    forward.sort_unstable();
    backward.sort_unstable();
    if forward != backward {
        return Err("out- and in-adjacency lists describe different edge multisets".to_string());
    }
    Ok(forward.len())
}

impl GraphView for DynamicGraph {
    #[inline]
    fn node_count(&self) -> usize {
        self.out_adj.len()
    }

    #[inline]
    fn edge_count(&self) -> usize {
        self.edge_count
    }

    #[inline]
    fn out_neighbors(&self, node: NodeId) -> &[NodeId] {
        &self.out_adj[node.index()]
    }

    #[inline]
    fn in_neighbors(&self, node: NodeId) -> &[NodeId] {
        &self.in_adj[node.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn empty_graph_has_no_nodes_or_edges() {
        let g = DynamicGraph::new();
        assert_eq!(g.node_count(), 0);
        assert_eq!(g.edge_count(), 0);
        assert!(g.check_consistency().is_ok());
    }

    #[test]
    fn add_and_remove_edges() {
        let mut g = DynamicGraph::with_nodes(4);
        g.add_edge(Edge::new(0, 1));
        g.add_edge(Edge::new(0, 2));
        g.add_edge(Edge::new(3, 0));
        assert_eq!(g.edge_count(), 3);
        assert_eq!(g.out_degree(NodeId(0)), 2);
        assert_eq!(g.in_degree(NodeId(0)), 1);
        assert!(g.has_edge(Edge::new(0, 2)));

        assert!(g.remove_edge(Edge::new(0, 2)));
        assert!(!g.has_edge(Edge::new(0, 2)));
        assert_eq!(g.edge_count(), 2);
        assert!(!g.remove_edge(Edge::new(0, 2)), "double removal must fail");
        assert!(g.check_consistency().is_ok());
    }

    #[test]
    fn parallel_edges_are_counted_separately() {
        let mut g = DynamicGraph::with_nodes(2);
        g.add_edge(Edge::new(0, 1));
        g.add_edge(Edge::new(0, 1));
        assert_eq!(g.edge_count(), 2);
        assert_eq!(g.out_degree(NodeId(0)), 2);
        assert!(g.remove_edge(Edge::new(0, 1)));
        assert_eq!(g.edge_count(), 1);
        assert!(g.has_edge(Edge::new(0, 1)));
    }

    #[test]
    fn add_edge_growing_extends_node_set() {
        let mut g = DynamicGraph::new();
        g.add_edge_growing(Edge::new(2, 5));
        assert_eq!(g.node_count(), 6);
        assert_eq!(g.edge_count(), 1);
        assert!(g.has_edge(Edge::new(2, 5)));
    }

    #[test]
    #[should_panic(expected = "references a node outside")]
    fn add_edge_out_of_range_panics() {
        let mut g = DynamicGraph::with_nodes(2);
        g.add_edge(Edge::new(0, 5));
    }

    #[test]
    fn from_edges_builds_expected_graph() {
        let edges = vec![Edge::new(0, 1), Edge::new(1, 2), Edge::new(2, 0)];
        let g = DynamicGraph::from_edges(&edges, 0);
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 3);
        let g_padded = DynamicGraph::from_edges(&edges, 10);
        assert_eq!(g_padded.node_count(), 10);
    }

    #[test]
    fn random_neighbor_sampling_respects_adjacency() {
        let mut g = DynamicGraph::with_nodes(4);
        g.add_edge(Edge::new(0, 1));
        g.add_edge(Edge::new(0, 2));
        let mut rng = SmallRng::seed_from_u64(1);
        for _ in 0..50 {
            let v = g.random_out_neighbor(NodeId(0), &mut rng).unwrap();
            assert!(v == NodeId(1) || v == NodeId(2));
        }
        assert!(g.random_out_neighbor(NodeId(3), &mut rng).is_none());
        assert!(g.random_in_neighbor(NodeId(0), &mut rng).is_none());
        let u = g.random_in_neighbor(NodeId(1), &mut rng).unwrap();
        assert_eq!(u, NodeId(0));
    }

    #[test]
    fn degree_vectors_match_graphview() {
        let mut g = DynamicGraph::with_nodes(3);
        g.add_edge(Edge::new(0, 1));
        g.add_edge(Edge::new(0, 2));
        g.add_edge(Edge::new(1, 2));
        assert_eq!(g.out_degrees(), vec![2, 1, 0]);
        assert_eq!(g.in_degrees(), vec![0, 1, 2]);
    }

    #[test]
    fn from_adjacency_round_trips_exact_list_order() {
        let mut g = DynamicGraph::with_nodes(4);
        for edge in [
            Edge::new(0, 2),
            Edge::new(0, 1),
            Edge::new(2, 0),
            Edge::new(0, 1), // parallel edge
            Edge::new(3, 3), // self loop
        ] {
            g.add_edge(edge);
        }
        // Deletion reorders via swap_remove; the round trip must preserve that order.
        g.remove_edge(Edge::new(0, 2));
        let out: Vec<Vec<NodeId>> = g.nodes().map(|u| g.out_neighbors(u).to_vec()).collect();
        let inn: Vec<Vec<NodeId>> = g.nodes().map(|u| g.in_neighbors(u).to_vec()).collect();
        let rebuilt = DynamicGraph::from_adjacency(out.clone(), inn.clone()).unwrap();
        assert_eq!(rebuilt.edge_count(), g.edge_count());
        for u in g.nodes() {
            assert_eq!(rebuilt.out_neighbors(u), g.out_neighbors(u));
            assert_eq!(rebuilt.in_neighbors(u), g.in_neighbors(u));
        }
        assert!(rebuilt.check_consistency().is_ok());
    }

    #[test]
    fn from_adjacency_rejects_mismatched_directions() {
        let out = vec![vec![NodeId(1)], vec![]];
        let inn = vec![vec![], vec![]];
        assert!(DynamicGraph::from_adjacency(out, inn)
            .unwrap_err()
            .contains("different edge multisets"));
        let out = vec![vec![NodeId(7)], vec![]];
        let inn = vec![vec![], vec![NodeId(0)]];
        assert!(DynamicGraph::from_adjacency(out, inn)
            .unwrap_err()
            .contains("outside"));
        assert!(DynamicGraph::from_adjacency(vec![vec![]], vec![])
            .unwrap_err()
            .contains("node count"));
    }

    /// Adjacency lists of a small random graph, mutated by `kind` at entry `at`
    /// (and `to`): 0 leaves them as they are, 1 reorders a list (the multiset is
    /// unchanged), 2 retargets an out-entry, 3 resources an in-entry, 4 drops an
    /// in-entry, 5 duplicates an out-entry, 6 moves an in-entry to another list,
    /// 7 names a node past the end.
    fn mutated_lists(
        n: usize,
        edges: &[(u32, u32)],
        kind: u32,
        at: usize,
        to: u32,
    ) -> (Vec<Vec<NodeId>>, Vec<Vec<NodeId>>) {
        let mut g = DynamicGraph::with_nodes(n);
        for &(u, v) in edges {
            g.add_edge(Edge::new(u % n as u32, v % n as u32));
        }
        let mut out: Vec<Vec<NodeId>> = g.nodes().map(|u| g.out_neighbors(u).to_vec()).collect();
        let mut inn: Vec<Vec<NodeId>> = g.nodes().map(|u| g.in_neighbors(u).to_vec()).collect();
        let to = NodeId(to % n as u32);
        let pick = |lists: &[Vec<NodeId>]| -> Option<(usize, usize)> {
            let total: usize = lists.iter().map(Vec::len).sum();
            let mut k = at % total.max(1);
            for (i, list) in lists.iter().enumerate() {
                if k < list.len() {
                    return Some((i, k));
                }
                k -= list.len();
            }
            None
        };
        match kind {
            1 => out.iter_mut().for_each(|list| list.reverse()),
            2 => {
                if let Some((u, k)) = pick(&out) {
                    out[u][k] = to;
                }
            }
            3 => {
                if let Some((v, k)) = pick(&inn) {
                    inn[v][k] = to;
                }
            }
            4 => {
                if let Some((v, k)) = pick(&inn) {
                    inn[v].remove(k);
                }
            }
            5 => {
                if let Some((u, k)) = pick(&out) {
                    let entry = out[u][k];
                    out[u].push(entry);
                }
            }
            6 => {
                if let Some((v, k)) = pick(&inn) {
                    let entry = inn[v].remove(k);
                    inn[to.index()].push(entry);
                }
            }
            7 => {
                let side = if at % 2 == 0 { &mut out } else { &mut inn };
                side[to.index()].push(NodeId(n as u32 + at as u32 % 3));
            }
            _ => {}
        }
        (out, inn)
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(256))]

        /// The counting check and the sorting one agree on every pair of lists —
        /// the edge count when the directions match, the same error otherwise.
        #[test]
        fn the_counting_check_agrees_with_the_sorting_one(
            n in 1usize..9,
            edges in proptest::collection::vec((0u32..9, 0u32..9), 0..30),
            kind in 0u32..8,
            at in 0usize..64,
            to in 0u32..9,
        ) {
            let (out, inn) = mutated_lists(n, &edges, kind, at, to);
            let counted = same_edge_multiset(&out, &inn);
            proptest::prop_assert_eq!(&counted, &same_edge_multiset_by_sorting(&out, &inn));
            match kind {
                0 | 1 => proptest::prop_assert_eq!(counted, Ok(edges.len())),
                4 | 5 if !edges.is_empty() => proptest::prop_assert!(counted.is_err()),
                7 => proptest::prop_assert!(counted.unwrap_err().contains("outside")),
                _ => {}
            }
        }
    }

    #[test]
    fn self_loops_are_allowed() {
        let mut g = DynamicGraph::with_nodes(1);
        g.add_edge(Edge::new(0, 0));
        assert_eq!(g.out_degree(NodeId(0)), 1);
        assert_eq!(g.in_degree(NodeId(0)), 1);
        assert!(g.check_consistency().is_ok());
        assert!(g.remove_edge(Edge::new(0, 0)));
        assert_eq!(g.edge_count(), 0);
    }
}
