//! Everything a workload feeds the system, generated from `--seed` alone: the
//! graph in random arrival order, the write script (arrival batches plus
//! deletions of edges present at that moment), and the query seeds.

use ppr_graph::generators::{preferential_attachment_edges, PreferentialAttachmentConfig};
use ppr_graph::{Edge, NodeId};
use std::ops::Range;

/// splitmix64: the benchmark's own generator, so its inputs do not depend on
/// which `rand` the workspace vendors.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..bound` (multiply-shift; the bias is below 2⁻³² here).
    pub fn below(&mut self, bound: usize) -> usize {
        (((self.next_u64() >> 32) * bound as u64) >> 32) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Edges per stratum of the arrival order.
const STRATUM: usize = 100;

/// The base graph — preferential attachment over `n` nodes with out-degree
/// `d` — in a seeded, *stratified* random order.
///
/// The paper's arrival model (§2.2) is a uniformly random order.  What an
/// arrival costs depends on how often its source is visited, and in this graph
/// that is decided by the source's age: the hundred-odd edges whose source is
/// one of the first nodes cost 50–100 ms each and make up half of all ingest
/// time.  Under a plain shuffle the number of them that falls inside a timed
/// window varies by a factor of two between seeds, and so does every write
/// metric.  So the generator's edges, which come grouped by source in order of
/// age, are cut into strata of 100, and each stratum's edges are dealt to
/// evenly spaced, jittered positions of the whole order: an edge's position is
/// still uniform, but every stretch of the order holds its proportional share
/// of every age group.  Two seeds differ in which edges arrive when, not in
/// how many expensive ones a window holds.
pub fn arrival_order(n: usize, d: usize, seed: u64) -> Vec<Edge> {
    let edges = preferential_attachment_edges(&PreferentialAttachmentConfig::new(n, d, seed));
    let mut rng = Rng::new(seed ^ 0x0a11_1fa1);
    let mut keyed: Vec<(f64, Edge)> = Vec::with_capacity(edges.len());
    for stratum in edges.chunks(STRATUM) {
        let mut slots: Vec<usize> = (0..stratum.len()).collect();
        rng.shuffle(&mut slots);
        for (edge, slot) in stratum.iter().zip(slots) {
            keyed.push(((slot as f64 + rng.unit()) / stratum.len() as f64, *edge));
        }
    }
    keyed.sort_by(|a, b| a.0.total_cmp(&b.0));
    keyed.into_iter().map(|(_, edge)| edge).collect()
}

/// One write of a script.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WriteOp {
    /// Commit `stream[range]` as one arrival batch.
    Arrive(Range<usize>),
    /// Commit these edges, all present at this point, as one deletion batch.
    Delete(Vec<Edge>),
}

/// Shape of a write script over the arrival stream.
#[derive(Debug, Clone, Copy)]
pub struct ScriptShape {
    /// Edges of the stream already in the graph before the script starts.
    pub initial: usize,
    /// Edges per arrival batch.
    pub batch: usize,
    /// Arrival batches wanted (the script stops early if the stream runs out).
    pub batches: usize,
    /// A deletion batch follows every `delete_every`-th arrival batch (0 = never).
    pub delete_every: usize,
    /// Edges per deletion batch.
    pub delete_size: usize,
}

/// Builds the write script and the set of edges live after it.
pub fn write_script(
    stream: &[Edge],
    shape: ScriptShape,
    rng: &mut Rng,
) -> (Vec<WriteOp>, Vec<Edge>) {
    let mut live: Vec<Edge> = stream[..shape.initial].to_vec();
    let mut ops = Vec::new();
    let mut next = shape.initial;
    for b in 0..shape.batches {
        let end = (next + shape.batch).min(stream.len());
        if end == next {
            break;
        }
        live.extend_from_slice(&stream[next..end]);
        ops.push(WriteOp::Arrive(next..end));
        next = end;
        if shape.delete_every > 0 && (b + 1) % shape.delete_every == 0 {
            let victims: Vec<Edge> = (0..shape.delete_size.min(live.len()))
                .map(|_| {
                    let at = rng.below(live.len());
                    live.swap_remove(at)
                })
                .collect();
            ops.push(WriteOp::Delete(victims));
        }
    }
    (ops, live)
}

impl WriteOp {
    pub fn edges<'a>(&'a self, stream: &'a [Edge]) -> &'a [Edge] {
        match self {
            WriteOp::Arrive(range) => &stream[range.clone()],
            WriteOp::Delete(edges) => edges,
        }
    }
}

/// Zipf(1.0) over a seeded permutation of the nodes: rank `i` is drawn with
/// probability ∝ `1/(i+1)` and mapped through the permutation, so the hot
/// seeds are not the generator's low-numbered hubs.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
    nodes: Vec<u32>,
}

impl Zipf {
    pub fn new(n: usize, rng: &mut Rng) -> Self {
        let mut nodes: Vec<u32> = (0..n as u32).collect();
        rng.shuffle(&mut nodes);
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for rank in 0..n {
            acc += 1.0 / (rank + 1) as f64;
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf, nodes }
    }

    pub fn rank(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }

    pub fn sample(&self, rng: &mut Rng) -> NodeId {
        NodeId(self.nodes[self.rank(rng)])
    }
}

/// `count` personalization seeds: Zipf(1.0) or uniform over the nodes.
pub fn query_seeds(n: usize, count: usize, zipf: bool, rng: &mut Rng) -> Vec<NodeId> {
    if zipf {
        let dist = Zipf::new(n, rng);
        (0..count).map(|_| dist.sample(rng)).collect()
    } else {
        (0..count).map(|_| NodeId(rng.below(n) as u32)).collect()
    }
}

/// FNV-1a over a script and a query-seed list: equal digests mean equal inputs.
pub fn digest(stream: &[Edge], ops: &[WriteOp], seeds: &[NodeId]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut fold = |v: u64| {
        h = (h ^ v).wrapping_mul(0x0000_0100_0000_01b3);
    };
    for op in ops {
        fold(matches!(op, WriteOp::Delete(_)) as u64);
        for e in op.edges(stream) {
            fold((e.source.0 as u64) << 32 | e.target.0 as u64);
        }
    }
    for s in seeds {
        fold(s.0 as u64);
    }
    h
}

/// Open-loop accounting: request `i` is due at `i · period`; the generator
/// fires it at `max(due, previous done)` and the request is timed **from its
/// due time**, so a commit that overruns its slot charges the wait to every
/// request queued behind it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpenLoopSample {
    /// How late the generator fired (`fire − due`).
    pub lateness_ns: u64,
    /// Due time to completion (`done − due`).
    pub lag_ns: u64,
}

pub fn open_loop_sample(due_ns: u64, fire_ns: u64, done_ns: u64) -> OpenLoopSample {
    OpenLoopSample {
        lateness_ns: fire_ns.saturating_sub(due_ns),
        lag_ns: done_ns.saturating_sub(due_ns),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn shape(initial: usize) -> ScriptShape {
        ScriptShape {
            initial,
            batch: 16,
            batches: 36,
            delete_every: 3,
            delete_size: 5,
        }
    }

    fn inputs(seed: u64) -> (Vec<Edge>, Vec<WriteOp>, Vec<NodeId>) {
        let stream = arrival_order(300, 4, seed);
        let mut rng = Rng::new(seed ^ 1);
        let (ops, _) = write_script(&stream, shape(stream.len() / 2), &mut rng);
        let seeds = query_seeds(300, 200, true, &mut rng);
        (stream, ops, seeds)
    }

    #[test]
    fn the_same_seed_gives_the_same_inputs_and_another_seed_does_not() {
        let (s1, o1, q1) = inputs(11);
        let (s2, o2, q2) = inputs(11);
        assert_eq!(digest(&s1, &o1, &q1), digest(&s2, &o2, &q2));
        assert_eq!((&s1, &o1, &q1), (&s2, &o2, &q2));
        let (s3, o3, q3) = inputs(12);
        assert_ne!(digest(&s1, &o1, &q1), digest(&s3, &o3, &q3));
    }

    #[test]
    fn the_order_is_a_permutation_of_the_generated_graph() {
        let generated =
            preferential_attachment_edges(&PreferentialAttachmentConfig::new(300, 4, 5));
        let ordered = arrival_order(300, 4, 5);
        assert_ne!(generated, ordered, "the order must be shuffled");
        let a: HashSet<Edge> = generated.into_iter().collect();
        let b: HashSet<Edge> = ordered.iter().copied().collect();
        assert_eq!(a, b);
        assert_eq!(b.len(), ordered.len(), "edges are distinct");
    }

    #[test]
    fn every_stretch_of_the_order_holds_its_share_of_each_age_group() {
        // The oldest stratum (the first 100 generated edges, the expensive
        // ones) must be spread evenly: each tenth of the order gets 10 ± 2.
        let config = |seed| PreferentialAttachmentConfig::new(2_000, 10, seed);
        for seed in [9u64, 10] {
            let generated = preferential_attachment_edges(&config(seed));
            let oldest: HashSet<Edge> = generated[..STRATUM].iter().copied().collect();
            let ordered = arrival_order(2_000, 10, seed);
            for tenth in 0..10 {
                let from = tenth * ordered.len() / 10;
                let to = (tenth + 1) * ordered.len() / 10;
                let held = ordered[from..to]
                    .iter()
                    .filter(|e| oldest.contains(e))
                    .count();
                assert!(
                    (8..=12).contains(&held),
                    "seed {seed}, tenth {tenth}: {held}"
                );
            }
        }
        // A plain shuffle of the same edges does not hold that.
        let mut shuffled = preferential_attachment_edges(&config(9));
        let oldest: HashSet<Edge> = shuffled[..STRATUM].iter().copied().collect();
        let mut worst = 10;
        for trial in 0..20 {
            Rng::new(trial).shuffle(&mut shuffled);
            let held = shuffled[..shuffled.len() / 10]
                .iter()
                .filter(|e| oldest.contains(e))
                .count();
            worst = worst.max(held);
        }
        assert!(worst > 12, "a uniform shuffle strays further: {worst}");
    }

    #[test]
    fn deletions_only_name_edges_present_at_that_moment() {
        let stream = arrival_order(300, 4, 21);
        let initial = stream.len() / 2;
        let (ops, live) = write_script(&stream, shape(initial), &mut Rng::new(3));
        let mut present: HashSet<Edge> = stream[..initial].iter().copied().collect();
        let mut deletions = 0;
        for op in &ops {
            match op {
                WriteOp::Arrive(range) => {
                    for e in &stream[range.clone()] {
                        assert!(present.insert(*e), "an edge arrives once");
                    }
                }
                WriteOp::Delete(edges) => {
                    deletions += 1;
                    assert_eq!(edges.len(), 5);
                    for e in edges {
                        assert!(present.remove(e), "{e:?} deleted while absent");
                    }
                }
            }
        }
        assert_eq!(deletions, 36 / 3);
        assert_eq!(present, live.into_iter().collect::<HashSet<_>>());
    }

    #[test]
    fn the_script_stops_when_the_stream_runs_out() {
        let stream = arrival_order(50, 2, 1);
        let wanted = ScriptShape {
            initial: stream.len() - 20,
            batch: 16,
            batches: 10,
            delete_every: 0,
            delete_size: 0,
        };
        let (ops, live) = write_script(&stream, wanted, &mut Rng::new(1));
        assert_eq!(ops.len(), 2);
        assert_eq!(ops[1], WriteOp::Arrive(stream.len() - 4..stream.len()));
        assert_eq!(live.len(), stream.len());
    }

    #[test]
    fn zipf_mass_follows_one_over_rank() {
        let n = 1_000;
        let mut rng = Rng::new(99);
        let dist = Zipf::new(n, &mut rng);
        let draws = 200_000;
        let mut by_rank = vec![0u32; n];
        for _ in 0..draws {
            by_rank[dist.rank(&mut rng)] += 1;
        }
        let harmonic: f64 = (1..=n).map(|r| 1.0 / r as f64).sum();
        let share = |lo: usize, hi: usize| -> f64 {
            by_rank[lo..hi].iter().sum::<u32>() as f64 / draws as f64
        };
        let expect = |lo: usize, hi: usize| -> f64 {
            (lo + 1..=hi).map(|r| 1.0 / r as f64).sum::<f64>() / harmonic
        };
        assert!((share(0, 1) - expect(0, 1)).abs() < 0.005, "rank 1 mass");
        assert!((share(0, 10) - expect(0, 10)).abs() < 0.01, "top-10 mass");
        assert!(
            (share(100, 1_000) - expect(100, 1_000)).abs() < 0.01,
            "tail mass"
        );
        // The permutation decouples rank from node number.
        assert_ne!(dist.nodes[..10], (0..10u32).collect::<Vec<_>>()[..]);
    }

    #[test]
    fn uniform_seeds_cover_the_node_range() {
        let seeds = query_seeds(64, 10_000, false, &mut Rng::new(4));
        let distinct: HashSet<u32> = seeds.iter().map(|s| s.0).collect();
        assert_eq!(distinct.len(), 64);
    }

    #[test]
    fn an_overrunning_commit_charges_its_wait_to_the_requests_behind_it() {
        // Period 10, service times 4, 25, 4, 4: the second commit overruns two
        // slots, so requests 2 and 3 fire late and their lag includes the wait.
        let period = 10u64;
        let service = [4u64, 25, 4, 4];
        let mut done = 0u64;
        let mut samples = Vec::new();
        for (i, s) in service.iter().enumerate() {
            let due = i as u64 * period;
            let fire = due.max(done);
            done = fire + s;
            samples.push(open_loop_sample(due, fire, done));
        }
        let lags: Vec<u64> = samples.iter().map(|s| s.lag_ns).collect();
        let late: Vec<u64> = samples.iter().map(|s| s.lateness_ns).collect();
        assert_eq!(lags, vec![4, 25, 19, 13]);
        assert_eq!(late, vec![0, 0, 15, 9]);
        // Timing from the fire time instead would hide the stall entirely.
        assert!(lags[2] > service[2] && lags[3] > service[3]);
    }
}
