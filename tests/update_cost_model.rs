//! The cost model as a contract: measured maintenance work against the paper's bounds.
//!
//! Theorem 4 (PageRank) and Theorem 6 (SALSA) bound the walk steps an arrival costs
//! under random-order arrivals; the engine's [`WorkCounter`](ppr_store::WorkCounter)
//! counts exactly those steps.  Those theorems charge an arrival only for the segments
//! it *reroutes*, so the search for them has to be proportional to the reroutes too:
//! [`BatchProfile::paths_read`](ppr_core::BatchProfile) — segment paths phase 1 opened —
//! must stay within a constant of the segments repaired plus one per group, however
//! many visits the pivots hold.  Both are held here before and after a mixed
//! arrival/deletion history, so neither can silently regress.

use fast_ppr::prelude::*;
use ppr_core::{bounds, PageRank, Salsa, WalkEngine, WalkKind};
use ppr_graph::generators::{preferential_attachment_edges, PreferentialAttachmentConfig};
use ppr_graph::stream::random_permutation;
use ppr_graph::Edge;

const NODES: usize = 3_000;
const OUT_DEGREE: usize = 5;
const R: usize = 4;
const EPSILON: f64 = 0.2;
const BATCH: usize = 32;

/// Paths phase 1 may read per segment an arrival batch repairs.  Beyond the repaired
/// segments it opens only those whose every head fell on an ineligible visit (wrong
/// step direction, or a terminal visit that ended on a reset) and those whose
/// candidate lost reconciliation.
const ARRIVAL_READS_PER_REPAIR: u64 = 3;
/// The same for a deletion batch.  Its candidates are the visitors of the deleted
/// edge's lighter endpoint, of which about one in `degree` took that very edge — a
/// constant of the graph's degrees, far below the hub-sized scans of a pivot-only
/// detection (several hundred paths per edge on this stream).
const DELETION_READS_PER_REPAIR: u64 = 20;

/// What one window of batches cost: work absorbed, search effort, and the model's
/// price for the same arrivals.
#[derive(Debug, Default)]
struct Window {
    walk_steps: u64,
    segments_updated: u64,
    paths_read: u64,
    /// Upper bound on the pivot groups formed (one per edge and direction).
    groups: u64,
    model_steps: f64,
}

impl Window {
    fn absorb(&mut self, other: Window) {
        self.walk_steps += other.walk_steps;
        self.segments_updated += other.segments_updated;
        self.paths_read += other.paths_read;
        self.groups += other.groups;
        self.model_steps += other.model_steps;
    }

    fn assert_search_is_proportional(&self, reads_per_repair: u64, context: &str) {
        assert!(
            self.paths_read <= reads_per_repair * self.segments_updated + self.groups,
            "{context}: phase 1 read {} paths to repair {} segments over {} groups",
            self.paths_read,
            self.segments_updated,
            self.groups
        );
    }
}

/// Applies one batch (arrivals when `arrive`, deletions otherwise) and returns what it
/// cost.  `model` prices one arrival as the `t`-th edge of the graph.
fn apply<K: WalkKind>(
    engine: &mut WalkEngine<K>,
    batch: &[Edge],
    arrive: bool,
    model: impl Fn(usize) -> f64,
) -> Window {
    engine.reset_work();
    engine.reset_batch_profile();
    let mut window = Window::default();
    if arrive {
        let present = engine.graph().edge_count();
        window.model_steps = (1..=batch.len()).map(|i| model(present + i)).sum();
        engine.apply_arrivals(batch);
    } else {
        engine.apply_deletions(batch);
    }
    let directions = if K::BACKWARD_GROUPS { 2 } else { 1 };
    window.groups = directions * batch.len() as u64;
    window.walk_steps = engine.work().walk_steps;
    window.segments_updated = engine.work().segments_updated;
    window.paths_read = engine.batch_profile().paths_read;
    window
}

/// Holds one walk kind to its theorem on a random-order preferential-attachment
/// stream: 70 % of it builds the graph, the rest arrives in three windows, the middle
/// one a mixed history in which every arrival batch is followed by the deletion of a
/// batch of older edges that then arrive again.  `model(t)` is the theorem's price of
/// the `t`-th arrival; the measured steps of the first and the last window must stay
/// within `[model / slack_below, 2 · model]`.
fn check_model<K: WalkKind>(seed: u64, slack_below: f64, model: impl Fn(usize) -> f64 + Copy) {
    let pa = PreferentialAttachmentConfig::new(NODES, OUT_DEGREE, seed);
    let edges = random_permutation(&preferential_attachment_edges(&pa), seed ^ 0x5eed);
    let initial = edges.len() * 7 / 10;
    let config = MonteCarloConfig::new(EPSILON, R).with_seed(seed + 1);
    let mut engine =
        WalkEngine::<K>::from_graph(DynamicGraph::from_edges(&edges[..initial], NODES), config);
    let batches: Vec<&[Edge]> = edges[initial..].chunks(BATCH).collect();
    let third = batches.len() / 3;
    let victims: Vec<Edge> = edges[..initial].iter().copied().step_by(7).collect();

    let arrivals = |engine: &mut WalkEngine<K>, batches: &[&[Edge]], context: &str| {
        let mut window = Window::default();
        for batch in batches {
            window.absorb(apply(engine, batch, true, model));
        }
        window.assert_search_is_proportional(ARRIVAL_READS_PER_REPAIR, context);
        let measured = window.walk_steps as f64;
        assert!(
            measured <= 2.0 * window.model_steps && measured >= window.model_steps / slack_below,
            "{context}: {measured} walk steps against a model of {:.0}",
            window.model_steps
        );
    };

    arrivals(
        &mut engine,
        &batches[..third],
        "arrivals on the built graph",
    );
    let mut deletions = Window::default();
    for (batch, gone) in batches[third..2 * third].iter().zip(victims.chunks(BATCH)) {
        apply(&mut engine, batch, true, model);
        deletions.absorb(apply(&mut engine, gone, false, model));
        apply(&mut engine, gone, true, model);
    }
    assert!(deletions.segments_updated > 0, "the history must delete");
    deletions.assert_search_is_proportional(DELETION_READS_PER_REPAIR, "deletions");
    arrivals(
        &mut engine,
        &batches[2 * third..],
        "arrivals after the mixed history",
    );
    engine.validate_segments().expect("segments stay valid");
}

#[test]
fn pagerank_update_work_tracks_theorem_4() {
    check_model::<PageRank>(601, 4.0, |t| {
        bounds::per_arrival_update_work(NODES, R, t, EPSILON)
    });
}

#[test]
fn salsa_update_work_tracks_theorem_6() {
    // Theorem 6 is a total over `m` arrivals; one arrival's share is its increment.
    // Its constant 16 is the proof's, not the walk's: the measured work sits well
    // under it, so the floor is looser than PageRank's.
    check_model::<Salsa>(607, 16.0, |t| {
        bounds::salsa_total_update_work(NODES, R, t, EPSILON)
            - bounds::salsa_total_update_work(NODES, R, t - 1, EPSILON)
    });
}
