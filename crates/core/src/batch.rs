//! Batching machinery of [`crate::engine`]'s `apply_arrivals` / `apply_deletions`:
//! per-pivot grouping, the split-RNG seed derivation, the detection scans that decide
//! which segments a batch must open, and the candidate/reconcile plumbing the
//! deterministic reroute is built on.
//!
//! # The deterministic repair pipeline
//!
//! The engine processes a batch (of arrivals or of deletions) in three phases:
//!
//! 1. **Detection, then candidate generation.**  Groups are formed per pivot node, and
//!    each group first names the segments it *may* repair, as `Probes`, without
//!    reading a single path:
//!    * an **arrival** group flips its `k/(d₀+k)` coins by *skip sampling*
//!      (`sample_arrival_probes`): one **coin stream** per `(engine seed, batch,
//!      pivot, direction)` (`coin_seed`) draws the geometric gaps between heads over
//!      the pivot's visit slots — its postings in `SegmentId` order, each posting's
//!      occurrences in path order — and the scan *seeks* each head
//!      ([`ppr_store::postings::PostingsIter::seek`]), skipping whole blocks of
//!      postings by their visit sums: O(blocks + heads · block) per group, not
//!      O(postings).  Work is proportional to the heads, which is what Theorem 4
//!      charges, not to the visits; when the first gap already overshoots `W(pivot)`
//!      the group touches nothing — the `(1 − 1/d)^W` filter of Section 2.2;
//!    * a **deletion** group lists the segments visiting its *lighter endpoint*
//!      (`deletion_probes`): a segment traversing `pivot → t` visits both nodes, so
//!      whichever side has fewer visits is a complete candidate list.
//!
//!    Then, read-only, every probe opens its segment's *pre-batch* path and
//!    decides: an arrival probe maps its heads to path positions, drops the
//!    ineligible ones and reroutes at the first survivor; a deletion probe looks for
//!    the earliest traversal of a deleted edge.  On a hit the replacement path is
//!    generated against the post-batch graph from the **repair stream** of that
//!    `(engine seed, batch, pivot, segment, direction)` (`repair_seed`).  The coin
//!    stream depends only on the postings' logical content and every repair stream
//!    only on its own coordinates, so candidates can be computed in any order with
//!    bit-identical results.
//! 2. **Reconciliation** (sequential, cheap): when several groups claim the same
//!    segment, the candidate with the **smallest reroute position** wins.  Since a
//!    reroute keeps the prefix, this is exactly the fixed point the sequential
//!    limit-tracking loop reaches — a reroute at position `p` makes later groups skip
//!    positions `>= p`, so the surviving reroute is always the minimum over first-hit
//!    positions — but stated order-independently.
//! 3. **Apply** ([`ppr_store::WalkIndexMut::apply_rewrites`]): the store applies the
//!    winning rewrites, sorted by segment id.

use ppr_graph::{Edge, NodeId};
use ppr_store::{SegmentId, WalkIndex};
use rand::rngs::SmallRng;
use rand::Rng;
use std::collections::HashMap;
use std::time::Duration;

/// One pivot node's share of a batch.  Forward groups key on edge sources (the steps
/// leaving the pivot along out-edges changed), backward groups on edge targets (SALSA's
/// steps leaving the pivot along in-edges).
#[derive(Debug, PartialEq, Eq)]
pub(crate) struct Group {
    pub pivot: NodeId,
    /// The pivot's degree in the group's direction from *before* the batch (arrival
    /// groups only; deletion repairs are deterministic and never read it).
    pub prior_degree: usize,
    /// The far endpoints of the pivot's batch edges, in batch order.
    pub targets: Vec<NodeId>,
    pub forward: bool,
}

/// Groups a batch of edges by pivot node — the source when `forward`, the target
/// otherwise — in first-occurrence order, keeping multiplicity, and stamping each group
/// with `prior_degree(pivot)`.
///
/// For arrivals this must be called **before** any edge of the batch is inserted:
/// the captured degree (out-degree for forward groups, in-degree for backward) is the
/// pivot's degree with no batch edge applied, which is what the `k/(d₀+k)` reservoir
/// composition of the per-edge coins needs.  Deletions group the *successfully
/// removed* edges and need no degree: a segment reroutes iff it traverses an edge
/// that no longer exists after the batch.
pub(crate) fn group_by_pivot(
    edges: &[Edge],
    forward: bool,
    prior_degree: impl Fn(NodeId) -> usize,
) -> Vec<Group> {
    let mut groups: Vec<Group> = Vec::new();
    let mut index: HashMap<NodeId, usize> = HashMap::new();
    for &edge in edges {
        let (pivot, target) = if forward {
            (edge.source, edge.target)
        } else {
            (edge.target, edge.source)
        };
        let slot = *index.entry(pivot).or_insert_with(|| {
            groups.push(Group {
                pivot,
                prior_degree: prior_degree(pivot),
                targets: Vec::new(),
                forward,
            });
            groups.len() - 1
        });
        groups[slot].targets.push(target);
    }
    groups
}

/// Derives the RNG seed of one `(batch, pivot, segment)` repair stream.
///
/// Seeding per repair stream makes each candidate independent of every other one
/// and of the order the candidates are computed in.  `backward` distinguishes
/// SALSA's two walk directions, which can both touch the same `(pivot, segment)`
/// pair in one batch.
pub(crate) fn repair_seed(
    seed: u64,
    batch: u64,
    pivot: NodeId,
    segment: SegmentId,
    backward: bool,
) -> u64 {
    split_seed(seed, batch, pivot, segment.index() as u64 + 1, backward)
}

/// Derives the RNG seed of one `(batch, pivot, direction)` arrival **coin stream** —
/// lane 0 of the split, which no repair stream uses (theirs are `segment + 1`), so
/// the coins that choose the reroute positions and the draws that regenerate a suffix
/// never share a stream.
pub(crate) fn coin_seed(seed: u64, batch: u64, pivot: NodeId, backward: bool) -> u64 {
    split_seed(seed, batch, pivot, 0, backward)
}

fn split_seed(seed: u64, batch: u64, pivot: NodeId, lane: u64, backward: bool) -> u64 {
    let mut x = seed
        ^ batch.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ (pivot.0 as u64 + 1).wrapping_mul(0xD1B5_4A32_D192_ED03)
        ^ lane.wrapping_mul(0x2545_F491_4F6C_DD1D)
        ^ ((backward as u64) << 63);
    // splitmix64 finalizer: decorrelates the streams of neighbouring ids.
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// One segment phase 1 must open: group `group` may repair `seg`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Probe {
    pub group: u32,
    pub seg: SegmentId,
    start: u32,
    len: u32,
}

/// The output of a batch's detection scans: every `(group, segment)` pair whose path
/// phase 1 has to read, plus — for arrival probes — the heads the coin stream drew
/// among that segment's visits to the pivot.  Buffers are reused across batches.
#[derive(Debug, Default)]
pub(crate) struct Probes {
    pub probes: Vec<Probe>,
    picks: Vec<u32>,
    /// Scratch for the deletion scan's sort + dedup.
    ids: Vec<SegmentId>,
    /// Postings entries — and, where a scan skipped whole blocks of them, block sums —
    /// the scans read (observability only).
    pub postings_scanned: u64,
}

impl Probes {
    pub fn clear(&mut self) {
        self.probes.clear();
        self.picks.clear();
        self.postings_scanned = 0;
    }

    /// The heads of an arrival probe: increasing indices into the segment's visits to
    /// the pivot, in path order (`0` = its first visit).  Empty for deletion probes.
    pub fn picks(&self, probe: &Probe) -> &[u32] {
        &self.picks[probe.start as usize..(probe.start + probe.len) as usize]
    }
}

/// Tails before the next head of a `Bernoulli(p)` coin stream, `ln_q = ln(1 − p)`:
/// `⌊ln U / ln(1 − p)⌋` for `U` uniform on `(0, 1]`.  At `p = 1` the quotient is `0`
/// for every `U`, so every slot is a head.
fn geometric_gap(rng: &mut SmallRng, ln_q: f64) -> u64 {
    let u = 1.0 - rng.gen_range(0.0..1.0);
    // The quotient is non-negative; the cast saturates on a gap past `u64::MAX`.
    (u.ln() / ln_q) as u64
}

/// The arrival scan of group `group`: flips an independent `Bernoulli(p)` coin on every
/// visit slot of `pivot` by drawing the gaps between heads from `coins`, and records a
/// [`Probe`] for each segment holding at least one head.  Slots are numbered along the
/// pivot's postings in `SegmentId` order — identical in every store layout — so the
/// heads are a pure function of the stream and the postings' logical content.  The
/// scan seeks from head to head, so the postings between them cost it nothing.
pub(crate) fn sample_arrival_probes<W: WalkIndex>(
    walks: &W,
    group: usize,
    pivot: NodeId,
    p: f64,
    coins: &mut SmallRng,
    out: &mut Probes,
) {
    let ln_q = (1.0 - p).ln();
    let visits = walks.visit_count(pivot);
    let mut head = geometric_gap(coins, ln_q);
    if head >= visits {
        return;
    }
    let mut cursor = walks.segments_visiting(pivot);
    while head < visits {
        let (seg, count, first) = cursor
            .seek(head)
            .expect("W(pivot) counts the visit slots of the pivot's postings");
        let end = first + count as u64;
        let start = out.picks.len() as u32;
        while head < end {
            out.picks.push((head - first) as u32);
            head = head
                .saturating_add(1)
                .saturating_add(geometric_gap(coins, ln_q));
        }
        out.probes.push(Probe {
            group: group as u32,
            seg,
            start,
            len: out.picks.len() as u32 - start,
        });
    }
    out.postings_scanned += cursor.scanned();
}

/// The deletion scan of group `group`, whose `targets` are the pivot's fully deleted
/// neighbours: records a [`Probe`] for every segment that can traverse a deleted edge.
/// Such a segment visits the pivot *and* a target, so the candidates are read off
/// whichever side `scan_targets(W(pivot), Σ W(target))` selects — the engine passes
/// "the lighter one"; detection itself then reads each candidate's path, so the choice
/// never changes which segments are repaired, or where.
pub(crate) fn deletion_probes<W: WalkIndex>(
    walks: &W,
    group: usize,
    pivot: NodeId,
    targets: &[NodeId],
    scan_targets: impl Fn(u64, u64) -> bool,
    out: &mut Probes,
) {
    let target_visits = targets.iter().map(|&t| walks.visit_count(t)).sum();
    let scanned = if scan_targets(walks.visit_count(pivot), target_visits) {
        targets
    } else {
        std::slice::from_ref(&pivot)
    };
    let mut ids = std::mem::take(&mut out.ids);
    ids.clear();
    for &node in scanned {
        ids.extend(walks.segments_visiting(node).map(|(seg, _)| seg));
    }
    out.postings_scanned += ids.len() as u64;
    // Several targets can share a visitor; one node's postings are already a set.
    ids.sort_unstable();
    ids.dedup();
    out.probes.extend(ids.iter().map(|&seg| Probe {
        group: group as u32,
        seg,
        start: 0,
        len: 0,
    }));
    out.ids = ids;
}

/// One proposed segment repair: group `group` reroutes `seg` at path position `pos`,
/// replacing its path with `start..start + len` of the [`CandidateSet`]'s flat path
/// buffer, at a cost of `steps` regenerated walk steps.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Candidate {
    pub seg: SegmentId,
    pub pos: u32,
    pub group: u32,
    pub steps: u64,
    start: u32,
    len: u32,
}

/// Phase 1's output: the candidates plus the flat buffer holding their replacement
/// paths.  Buffers are reused across batches.
#[derive(Debug, Default)]
pub(crate) struct CandidateSet {
    pub candidates: Vec<Candidate>,
    paths: Vec<NodeId>,
}

impl CandidateSet {
    pub fn clear(&mut self) {
        self.candidates.clear();
        self.paths.clear();
    }

    /// Records a candidate whose replacement path is currently in `path`.
    pub fn push(&mut self, seg: SegmentId, pos: usize, group: usize, steps: u64, path: &[NodeId]) {
        let start = self.paths.len() as u32;
        self.paths.extend_from_slice(path);
        self.candidates.push(Candidate {
            seg,
            pos: pos as u32,
            group: group as u32,
            steps,
            start,
            len: path.len() as u32,
        });
    }

    /// The replacement path of one of this set's candidates.
    pub fn path(&self, c: &Candidate) -> &[NodeId] {
        &self.paths[c.start as usize..(c.start + c.len) as usize]
    }
}

/// Wall-time breakdown of the update batches, accumulated per engine since
/// construction (or the last reset): the total time spent in `apply_arrivals` /
/// `apply_deletions` and the wall time of each repair phase (detection, candidate
/// generation, plan application).  Profiles are observability only — they never
/// influence results.
#[derive(Debug, Clone, Default)]
pub struct BatchProfile {
    /// Total wall time spent inside `apply_arrivals` (and `apply_deletions`).
    pub total: Duration,
    /// Wall time of the detection scans (phase 1a): postings only.
    pub detect: Duration,
    /// Wall time of candidate generation (phase 1b).
    pub candidates: Duration,
    /// Wall time of plan application (phase 3): arena writes plus the postings
    /// updates past each rewrite's kept prefix.
    pub apply: Duration,
    /// Arena compaction passes triggered by the profiled batches.  Compactions run
    /// inline on the apply path, so they are the latency-tail component the ROADMAP's
    /// "compaction policy tuning" item asks to measure.
    pub compactions: u64,
    /// Wall time spent inside those compaction passes (contained in
    /// [`BatchProfile::total`]; the pause the slowest batch actually felt).
    pub compaction_time: Duration,
    /// Live walk steps the compaction passes copied (4 bytes each).
    pub compaction_steps_moved: u64,
    /// Postings entries the detection scans stepped over to find the segments a
    /// batch might repair.
    pub postings_scanned: u64,
    /// Segment paths phase 1 read to decide (and, on a hit, start) a repair.  The
    /// distance between this and `WorkCounter::segments_updated` is how far phase 1
    /// is from the reroutes it found.
    pub paths_read: u64,
}

impl BatchProfile {
    /// Charges one batch's detection scans to the profile.
    pub(crate) fn record_scan(&mut self, probes: &Probes) {
        self.postings_scanned += probes.postings_scanned;
        self.paths_read += probes.probes.len() as u64;
    }

    /// Charges the arena-compaction delta of one batch (stats captured before and
    /// after the batch) to the profile.
    pub(crate) fn record_compactions(
        &mut self,
        before: &ppr_store::ArenaStats,
        after: &ppr_store::ArenaStats,
    ) {
        self.compactions += after.compactions - before.compactions;
        self.compaction_time +=
            Duration::from_nanos(after.compaction_nanos - before.compaction_nanos);
        self.compaction_steps_moved += after.compaction_steps_moved - before.compaction_steps_moved;
    }
}

/// Reconciles the candidates: for every segment claimed by more than one group, the
/// candidate with the smallest reroute position wins (positions are visits to
/// distinct pivots, so no tie is possible).  Returns the winners' candidate indices
/// sorted by segment id — a deterministic plan order whatever order phase 1 produced
/// them in.
pub(crate) fn reconcile_candidates(set: &CandidateSet) -> Vec<usize> {
    let mut best: HashMap<SegmentId, usize> = HashMap::new();
    for (ci, cand) in set.candidates.iter().enumerate() {
        match best.entry(cand.seg) {
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert(ci);
            }
            std::collections::hash_map::Entry::Occupied(mut e) => {
                let incumbent = set.candidates[*e.get()].pos;
                debug_assert_ne!(
                    incumbent, cand.pos,
                    "two groups claimed the same reroute position"
                );
                if cand.pos < incumbent {
                    e.insert(ci);
                }
            }
        }
    }
    let mut winners: Vec<usize> = best.into_values().collect();
    winners.sort_by_key(|&ci| set.candidates[ci].seg);
    winners
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppr_store::{SocialStore, WalkStore};

    fn group(pivot: u32, prior_degree: usize, targets: &[u32], forward: bool) -> Group {
        Group {
            pivot: NodeId(pivot),
            prior_degree,
            targets: targets.iter().map(|&t| NodeId(t)).collect(),
            forward,
        }
    }

    #[test]
    fn groups_preserve_first_arrival_order_and_pre_batch_degrees() {
        let mut store = SocialStore::new(4);
        store.add_edge(Edge::new(2, 0)); // node 2 has pre-batch out-degree 1
        let batch = [
            Edge::new(2, 1),
            Edge::new(0, 3),
            Edge::new(2, 3),
            Edge::new(0, 1),
        ];
        let groups = group_by_pivot(&batch, true, |n| store.out_degree(n));
        assert_eq!(
            groups,
            vec![group(2, 1, &[1, 3], true), group(0, 0, &[3, 1], true)]
        );
    }

    #[test]
    fn backward_key_groups_by_target_with_in_degrees() {
        let store = SocialStore::new(3);
        let batch = [Edge::new(0, 2), Edge::new(1, 2)];
        let groups = group_by_pivot(&batch, false, |n| store.in_degree(n));
        assert_eq!(groups, vec![group(2, 0, &[0, 1], false)]);
    }

    #[test]
    fn repair_seeds_are_distinct_across_every_axis() {
        let base = repair_seed(7, 0, NodeId(0), SegmentId(0), false);
        assert_ne!(base, repair_seed(8, 0, NodeId(0), SegmentId(0), false));
        assert_ne!(base, repair_seed(7, 1, NodeId(0), SegmentId(0), false));
        assert_ne!(base, repair_seed(7, 0, NodeId(1), SegmentId(0), false));
        assert_ne!(base, repair_seed(7, 0, NodeId(0), SegmentId(1), false));
        assert_ne!(base, repair_seed(7, 0, NodeId(0), SegmentId(0), true));
        // Deterministic: the same coordinates always give the same stream.
        assert_eq!(base, repair_seed(7, 0, NodeId(0), SegmentId(0), false));
        // The group's coin stream is none of its repair streams, and splits on the
        // same axes.
        let coins = coin_seed(7, 0, NodeId(0), false);
        assert!((0..64).all(|s| coins != repair_seed(7, 0, NodeId(0), SegmentId(s), false)));
        assert_ne!(coins, coin_seed(8, 0, NodeId(0), false));
        assert_ne!(coins, coin_seed(7, 1, NodeId(0), false));
        assert_ne!(coins, coin_seed(7, 0, NodeId(1), false));
        assert_ne!(coins, coin_seed(7, 0, NodeId(0), true));
    }

    /// `(segment, heads)` of every probe, in scan order.
    fn probe_list(probes: &Probes) -> Vec<(SegmentId, Vec<u32>)> {
        probes
            .probes
            .iter()
            .map(|p| (p.seg, probes.picks(p).to_vec()))
            .collect()
    }

    /// The scan [`sample_arrival_probes`] replaced, kept as its reference: adds up the
    /// count of every posting of the pivot until the last head is placed.
    fn sample_arrival_probes_linear<W: WalkIndex>(
        walks: &W,
        pivot: NodeId,
        p: f64,
        coins: &mut SmallRng,
    ) -> (Vec<(SegmentId, Vec<u32>)>, u64) {
        let ln_q = (1.0 - p).ln();
        let visits = walks.visit_count(pivot);
        let mut head = geometric_gap(coins, ln_q);
        let (mut probes, mut scanned, mut cum) = (Vec::new(), 0u64, 0u64);
        for (seg, count) in walks.segments_visiting(pivot) {
            if head >= visits {
                break;
            }
            scanned += 1;
            let end = cum + count as u64;
            let mut picks = Vec::new();
            while head < end {
                picks.push((head - cum) as u32);
                head = head
                    .saturating_add(1)
                    .saturating_add(geometric_gap(coins, ln_q));
            }
            if !picks.is_empty() {
                probes.push((seg, picks));
            }
            cum = end;
        }
        (probes, scanned)
    }

    #[test]
    fn arrival_probes_depend_on_the_postings_content_not_the_layout() {
        use rand::SeedableRng;
        // Node 0 is the pivot: first a handful of postings, then several blocks of
        // them (the seeking scan skips whole blocks; the linear one never did).
        for (nodes, r, ps) in [(8u32, 2, [0.05, 0.5, 1.0]), (4_000, 1, [0.001, 0.05, 1.0])] {
            let mut flat = WalkStore::new(nodes as usize, r);
            // The same walks in another arena geometry: written in reverse, every slot
            // relocated out of an outgrown first draft.
            let mut relocated = WalkStore::new(nodes as usize, r);
            let path = |node: u32, slot: usize| -> Vec<NodeId> {
                [node, 0, (node + slot as u32) % 8, 0, 3]
                    .iter()
                    .map(|&v| NodeId(v))
                    .collect()
            };
            for node in 0..nodes {
                for slot in 0..r {
                    flat.set_segment(SegmentId::new(NodeId(node), slot, r), &path(node, slot));
                }
            }
            for node in (0..nodes).rev() {
                for slot in 0..r {
                    let id = SegmentId::new(NodeId(node), slot, r);
                    relocated.set_segment(id, &[NodeId(node); 20]);
                    relocated.set_segment(id, &path(node, slot));
                }
            }
            assert!(flat.distinct_visitors(NodeId(0)) >= (nodes as usize).min(3 * 128));
            for p in ps {
                let coins = || SmallRng::seed_from_u64(coin_seed(3, 9, NodeId(0), false));
                let (mut a, mut b) = (Probes::default(), Probes::default());
                sample_arrival_probes(&flat, 4, NodeId(0), p, &mut coins(), &mut a);
                sample_arrival_probes(&relocated, 4, NodeId(0), p, &mut coins(), &mut b);
                assert_eq!(probe_list(&a), probe_list(&b), "p = {p}");
                let (linear, linear_scanned) =
                    sample_arrival_probes_linear(&flat, NodeId(0), p, &mut coins());
                assert_eq!(probe_list(&a), linear, "p = {p}");
                assert!(!linear.is_empty(), "p = {p}: the stream must place a head");
                if p == 0.001 {
                    // A handful of heads among 8 000 slots: some block sums and part
                    // of a block per head, against every posting up to the last one.
                    assert!(
                        a.postings_scanned * 2 <= linear_scanned,
                        "{} against {linear_scanned}",
                        a.postings_scanned
                    );
                }
                assert!(a.probes.iter().all(|probe| probe.group == 4));
                // Heads index a segment's visits to the pivot, increasing.
                for (seg, picks) in probe_list(&a) {
                    let visits = flat
                        .segments_visiting(NodeId(0))
                        .find(|v| v.0 == seg)
                        .unwrap()
                        .1;
                    assert!(picks.windows(2).all(|w| w[0] < w[1]));
                    assert!(picks.iter().all(|&i| i < visits), "{seg:?}: {picks:?}");
                }
                if p == 1.0 {
                    let heads: usize = linear.iter().map(|(_, picks)| picks.len()).sum();
                    assert_eq!(
                        heads as u64,
                        flat.visit_count(NodeId(0)),
                        "every slot is a head"
                    );
                }
            }
        }
    }

    #[test]
    fn deletion_probes_list_the_chosen_endpoints_visitors_once() {
        let mut store = WalkStore::new(6, 1);
        let seg = |n: u32| SegmentId::new(NodeId(n), 0, 1);
        let path = |nodes: &[u32]| nodes.iter().map(|&n| NodeId(n)).collect::<Vec<_>>();
        // Node 0 is a hub every segment passes; 4 and 5 are visited by two in all.
        for n in 0..6u32 {
            store.set_segment(seg(n), &path(&[n, 0]));
        }
        store.set_segment(seg(1), &path(&[1, 0, 4, 0, 5]));
        store.set_segment(seg(2), &path(&[2, 0, 5]));
        let targets = [NodeId(4), NodeId(5)];
        let lighter = |pivot_visits: u64, target_visits: u64| target_visits < pivot_visits;

        let mut probes = Probes::default();
        deletion_probes(&store, 2, NodeId(0), &targets, lighter, &mut probes);
        // W(0) = 8 against W(4) + W(5) = 5: the targets' visitors, each once.
        let segs: Vec<SegmentId> = probes.probes.iter().map(|p| p.seg).collect();
        assert_eq!(segs, vec![seg(1), seg(2), seg(4), seg(5)]);
        assert_eq!(probes.postings_scanned, 5);
        assert!(probes
            .probes
            .iter()
            .all(|p| p.group == 2 && probes.picks(p).is_empty()));

        // From the hub's side of the same edges the pivot is the lighter endpoint.
        probes.clear();
        deletion_probes(&store, 0, NodeId(4), &[NodeId(0)], lighter, &mut probes);
        let segs: Vec<SegmentId> = probes.probes.iter().map(|p| p.seg).collect();
        assert_eq!(segs, vec![seg(1), seg(4)]);
        assert_eq!(probes.postings_scanned, 2);
    }

    #[test]
    fn candidate_sets_round_trip_paths() {
        let mut set = CandidateSet::default();
        set.push(SegmentId(4), 2, 0, 5, &[NodeId(1), NodeId(2)]);
        set.push(SegmentId(9), 0, 1, 0, &[NodeId(3)]);
        assert_eq!(set.path(&set.candidates[0]), &[NodeId(1), NodeId(2)]);
        assert_eq!(set.path(&set.candidates[1]), &[NodeId(3)]);
        set.clear();
        assert!(set.candidates.is_empty());
    }

    #[test]
    fn reconcile_picks_minimum_position_and_sorts_by_segment() {
        let mut set = CandidateSet::default();
        set.push(SegmentId(5), 4, 0, 1, &[NodeId(0)]);
        set.push(SegmentId(5), 2, 1, 1, &[NodeId(1)]); // earlier position wins
        set.push(SegmentId(1), 7, 2, 1, &[NodeId(2)]);
        let winners = reconcile_candidates(&set);
        assert_eq!(winners, vec![2, 1]); // SegmentId(1) first, then (5)
    }

    #[test]
    fn deletion_groups_preserve_first_occurrence_order_and_multiplicity() {
        let batch = [
            Edge::new(5, 1),
            Edge::new(0, 3),
            Edge::new(5, 1), // parallel deletion
            Edge::new(5, 2),
        ];
        let groups = group_by_pivot(&batch, true, |_| 0);
        assert_eq!(
            groups,
            vec![group(5, 0, &[1, 1, 2], true), group(0, 0, &[3], true)]
        );
        assert!(group_by_pivot(&[], true, |_| 0).is_empty());
    }

    #[test]
    fn compaction_deltas_accumulate_into_the_profile() {
        let before = ppr_store::ArenaStats {
            compactions: 1,
            compaction_nanos: 500,
            compaction_steps_moved: 10,
            ..Default::default()
        };
        let after = ppr_store::ArenaStats {
            compactions: 3,
            compaction_nanos: 2_500,
            compaction_steps_moved: 250,
            ..Default::default()
        };
        let mut profile = BatchProfile::default();
        profile.record_compactions(&before, &after);
        profile.record_compactions(&after, &after); // no-op delta
        assert_eq!(profile.compactions, 2);
        assert_eq!(profile.compaction_time, Duration::from_nanos(2_000));
        assert_eq!(profile.compaction_steps_moved, 240);
    }
}
