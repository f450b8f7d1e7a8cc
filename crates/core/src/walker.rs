//! Primitive random-walk generation.
//!
//! A *segment* is one continuous session of the PageRank random surfer: starting at its
//! source node, at every step the surfer resets with probability ε (ending the segment)
//! and otherwise moves to a uniformly random out-neighbour of the current node.  A
//! surfer stranded on a dangling node (no outgoing edges) also ends its session — the
//! corresponding Markov chain treats dangling nodes as resetting, exactly like the
//! power-iteration baseline in `ppr-baselines`, so the two agree on the stationary
//! distribution.
//!
//! SALSA segments alternate forward (out-edge) and backward (in-edge) steps, resetting
//! only before forward steps, giving an expected length of `2/ε` (Section 2.3).

use ppr_graph::{GraphView, NodeId};
use rand::Rng;

/// A freshly generated walk and the number of random steps it took to produce it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GeneratedWalk {
    /// The visited path, starting at the walk's first node.
    pub path: Vec<NodeId>,
    /// Number of random-walk steps executed (edges traversed), the work unit of the
    /// paper's cost analysis.
    pub steps: u64,
}

/// Generates one PageRank walk segment starting at `start`: the segment always contains
/// `start` and continues until the first ε-reset, a dangling node, or `max_length`
/// visits.
pub fn pagerank_segment<G: GraphView + ?Sized, R: Rng + ?Sized>(
    graph: &G,
    start: NodeId,
    epsilon: f64,
    max_length: usize,
    rng: &mut R,
) -> GeneratedWalk {
    let mut path = Vec::with_capacity((2.0 / epsilon) as usize);
    let steps = pagerank_segment_into(graph, start, epsilon, max_length, rng, &mut path);
    GeneratedWalk { path, steps }
}

/// Allocation-free variant of [`pagerank_segment`]: generates the walk into `buf`
/// (cleared first) and returns the number of steps taken.  The engines' reroute paths
/// reuse one scratch buffer across repairs so that steady-state maintenance performs no
/// per-segment heap allocation.
pub fn pagerank_segment_into<G: GraphView + ?Sized, R: Rng + ?Sized>(
    graph: &G,
    start: NodeId,
    epsilon: f64,
    max_length: usize,
    rng: &mut R,
    buf: &mut Vec<NodeId>,
) -> u64 {
    debug_assert!(max_length >= 1);
    buf.clear();
    buf.push(start);
    extend_pagerank_walk(graph, buf, epsilon, max_length, rng)
}

/// Continues a walk whose current node is `path.last()`, pushing newly visited nodes
/// onto `path` until the first reset / node with no edge in the required direction /
/// the `max_length` cap, and returns the number of steps taken.  `step_forward(pos)`
/// is the direction of the step leaving position `pos` of `path`: forward steps follow
/// a uniformly random out-edge and are preceded by the ε reset coin, backward steps
/// follow a uniformly random in-edge unconditionally.  Every stored segment is drawn
/// by this loop — a PageRank walk never steps backward, a SALSA walk alternates — so
/// the two kinds draw from `rng` in the same order for the same sequence of directions.
pub fn extend_walk<G: GraphView + ?Sized, R: Rng + ?Sized>(
    graph: &G,
    path: &mut Vec<NodeId>,
    epsilon: f64,
    max_length: usize,
    rng: &mut R,
    step_forward: impl Fn(usize) -> bool,
) -> u64 {
    let mut steps = 0u64;
    let mut current = *path.last().expect("walk must have a current node");
    while path.len() < max_length {
        let forward = step_forward(path.len() - 1);
        if forward && rng.gen_bool(epsilon) {
            break;
        }
        let next = if forward {
            graph.random_out_neighbor(current, rng)
        } else {
            graph.random_in_neighbor(current, rng)
        };
        match next {
            Some(node) => {
                path.push(node);
                current = node;
                steps += 1;
            }
            None => break,
        }
    }
    steps
}

/// Continues a PageRank walk whose current node is `path.last()`, pushing newly visited
/// nodes onto `path` until the first reset / dangling node / the `max_length` cap.
/// Returns the number of steps taken.
pub fn extend_pagerank_walk<G: GraphView + ?Sized, R: Rng + ?Sized>(
    graph: &G,
    path: &mut Vec<NodeId>,
    epsilon: f64,
    max_length: usize,
    rng: &mut R,
) -> u64 {
    extend_walk(graph, path, epsilon, max_length, rng, |_| true)
}

/// Generates one SALSA walk segment starting at `start`.
///
/// If `start_forward` is true the segment starts with a forward step (its even positions
/// are hub visits, odd positions authority visits); otherwise it starts with a backward
/// step (even positions are authority visits).  Resets happen only before forward steps,
/// with probability ε, so the expected segment length is `2/ε`.
pub fn salsa_segment<G: GraphView + ?Sized, R: Rng + ?Sized>(
    graph: &G,
    start: NodeId,
    start_forward: bool,
    epsilon: f64,
    max_length: usize,
    rng: &mut R,
) -> GeneratedWalk {
    let mut path = Vec::with_capacity((4.0 / epsilon) as usize);
    let steps = salsa_segment_into(
        graph,
        start,
        start_forward,
        epsilon,
        max_length,
        rng,
        &mut path,
    );
    GeneratedWalk { path, steps }
}

/// Allocation-free variant of [`salsa_segment`]: generates the walk into `buf` (cleared
/// first) and returns the number of steps taken.
pub fn salsa_segment_into<G: GraphView + ?Sized, R: Rng + ?Sized>(
    graph: &G,
    start: NodeId,
    start_forward: bool,
    epsilon: f64,
    max_length: usize,
    rng: &mut R,
    buf: &mut Vec<NodeId>,
) -> u64 {
    debug_assert!(max_length >= 1);
    buf.clear();
    buf.push(start);
    extend_salsa_walk(graph, buf, start_forward, epsilon, max_length, rng)
}

/// Continues an alternating SALSA walk whose current node is `path.last()`, where
/// `forward` is the direction of the next step.  Resets (probability ε) are rolled only
/// before forward steps; the walk also ends on a node with no edge in the required
/// direction or at the `max_length` cap.  Returns the number of steps taken.
pub fn extend_salsa_walk<G: GraphView + ?Sized, R: Rng + ?Sized>(
    graph: &G,
    path: &mut Vec<NodeId>,
    forward: bool,
    epsilon: f64,
    max_length: usize,
    rng: &mut R,
) -> u64 {
    let first = path.len().saturating_sub(1);
    extend_walk(graph, path, epsilon, max_length, rng, |pos| {
        ((pos - first) % 2 == 0) == forward
    })
}

/// Picks the forced reroute target among a batch group's new edges, uniformly.
///
/// The single-edge case must not consume a random draw: it keeps `add_edge` and
/// `apply_arrivals(&[edge])` on identical RNG streams, which is what makes the batched
/// path a strict generalization of the sequential one (and is asserted by tests).
#[inline]
pub(crate) fn pick_new_target<R: Rng + ?Sized>(rng: &mut R, targets: &[NodeId]) -> NodeId {
    if targets.len() == 1 {
        targets[0]
    } else {
        targets[rng.gen_range(0..targets.len())]
    }
}

/// Empirical mean length of `samples` PageRank segments started from `start`; used by
/// tests to check the geometric-length property (`E[length] ≈ 1/ε` counted in steps,
/// i.e. `1 + (1-ε)/ε` visits on a graph with no dangling nodes).
pub fn mean_segment_length<G: GraphView + ?Sized, R: Rng + ?Sized>(
    graph: &G,
    start: NodeId,
    epsilon: f64,
    max_length: usize,
    samples: usize,
    rng: &mut R,
) -> f64 {
    let total: usize = (0..samples)
        .map(|_| {
            pagerank_segment(graph, start, epsilon, max_length, rng)
                .path
                .len()
        })
        .sum();
    total as f64 / samples as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppr_graph::generators::{complete_graph, directed_cycle, directed_path, star_outward};
    use ppr_graph::Edge;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn segment_starts_at_source_and_follows_edges() {
        let g = directed_cycle(10);
        let mut rng = SmallRng::seed_from_u64(1);
        for _ in 0..100 {
            let walk = pagerank_segment(&g, NodeId(3), 0.3, 1_000, &mut rng);
            assert_eq!(walk.path[0], NodeId(3));
            for pair in walk.path.windows(2) {
                assert!(g.has_edge(Edge {
                    source: pair[0],
                    target: pair[1]
                }));
            }
            assert_eq!(walk.steps as usize, walk.path.len() - 1);
        }
    }

    #[test]
    fn mean_length_matches_geometric_expectation() {
        // On a cycle there are no dangling nodes, so the number of *steps* is geometric:
        // E[steps] = (1-ε)/ε and E[visits] = 1 + (1-ε)/ε = 1/ε.  For ε = 0.2 that is 5.
        let g = directed_cycle(50);
        let mut rng = SmallRng::seed_from_u64(7);
        let mean = mean_segment_length(&g, NodeId(0), 0.2, 10_000, 20_000, &mut rng);
        let expected = 1.0 + (1.0 - 0.2) / 0.2;
        assert!(
            (mean - expected).abs() < 0.15,
            "mean visit count {mean}, expected ≈ {expected}"
        );
    }

    #[test]
    fn dangling_node_terminates_the_walk() {
        let g = directed_path(3); // 0 -> 1 -> 2, node 2 dangling
        let mut rng = SmallRng::seed_from_u64(3);
        for _ in 0..200 {
            let walk = pagerank_segment(&g, NodeId(0), 0.01, 1_000, &mut rng);
            assert!(walk.path.len() <= 3);
            assert_eq!(walk.path[0], NodeId(0));
        }
        // Starting on the dangling node itself gives a single-visit segment.
        let walk = pagerank_segment(&g, NodeId(2), 0.2, 1_000, &mut rng);
        assert_eq!(walk.path, vec![NodeId(2)]);
        assert_eq!(walk.steps, 0);
    }

    #[test]
    fn max_length_caps_the_segment() {
        let g = directed_cycle(4);
        let mut rng = SmallRng::seed_from_u64(11);
        let walk = pagerank_segment(&g, NodeId(0), 0.001, 8, &mut rng);
        assert!(walk.path.len() <= 8);
    }

    #[test]
    fn extend_walk_continues_from_last_node() {
        let g = complete_graph(5);
        let mut rng = SmallRng::seed_from_u64(5);
        let mut path = vec![NodeId(2)];
        let steps = extend_pagerank_walk(&g, &mut path, 0.5, 100, &mut rng);
        assert_eq!(path[0], NodeId(2));
        assert_eq!(steps as usize, path.len() - 1);
    }

    #[test]
    fn salsa_segment_alternates_directions() {
        // Outward star: centre 0 -> leaves.  A forward-start SALSA walk from the centre
        // must go centre -> leaf (forward along out-edge) -> centre (backward along the
        // leaf's only in-edge) -> leaf -> ...
        let g = star_outward(6);
        let mut rng = SmallRng::seed_from_u64(9);
        for _ in 0..50 {
            let walk = salsa_segment(&g, NodeId(0), true, 0.3, 1_000, &mut rng);
            for (i, &node) in walk.path.iter().enumerate() {
                if i % 2 == 0 {
                    assert_eq!(node, NodeId(0), "even positions must be the hub centre");
                } else {
                    assert_ne!(node, NodeId(0), "odd positions must be leaves");
                }
            }
        }
    }

    #[test]
    fn salsa_backward_start_uses_in_edges_first() {
        // Inward star: leaves -> centre.  A backward-start walk from the centre first
        // moves to a leaf along an in-edge.
        let g = ppr_graph::generators::star_inward(5);
        let mut rng = SmallRng::seed_from_u64(2);
        let walk = salsa_segment(&g, NodeId(0), false, 0.9, 4, &mut rng);
        assert_eq!(walk.path[0], NodeId(0));
        if walk.path.len() > 1 {
            assert_ne!(walk.path[1], NodeId(0));
        }
    }

    #[test]
    fn salsa_mean_length_is_roughly_double_pagerank() {
        // Resets only before forward steps: expected number of forward steps is
        // (1-ε)/ε, each followed by a backward step, so expected visits ≈ 1 + 2(1-ε)/ε.
        let g = complete_graph(20);
        let mut rng = SmallRng::seed_from_u64(21);
        let mut total = 0usize;
        let samples = 20_000;
        for _ in 0..samples {
            total += salsa_segment(&g, NodeId(0), true, 0.2, 10_000, &mut rng)
                .path
                .len();
        }
        let mean = total as f64 / samples as f64;
        let expected = 1.0 + 2.0 * (1.0 - 0.2) / 0.2;
        assert!(
            (mean - expected).abs() < 0.3,
            "mean SALSA length {mean}, expected ≈ {expected}"
        );
    }

    #[test]
    fn salsa_walk_stops_when_direction_has_no_edges() {
        // Path 0 -> 1: forward from 0 reaches 1; backward from 1 returns to 0; forward
        // from 0 reaches 1 again, etc.  But a backward-start walk from 0 stops at once
        // because 0 has no in-edges.
        let g = directed_path(2);
        let mut rng = SmallRng::seed_from_u64(4);
        let walk = salsa_segment(&g, NodeId(0), false, 0.2, 100, &mut rng);
        assert_eq!(walk.path, vec![NodeId(0)]);
    }
}
