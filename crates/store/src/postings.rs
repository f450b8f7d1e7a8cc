//! Compact visit postings: which segments visit a node, and how often.
//!
//! The paper's secondary index — "each segment is stored at every node that it passes
//! through" (Section 2.1) — is taken for granted to cost O(1) per stored step, and
//! Theorem 4 prices an arrival in rerouted steps.  Rerouted steps land on nodes in
//! proportion to their PageRank, so the index has to stay cheap exactly where `W(v)`
//! is largest.  [`VisitPostings`] stores the multiset as a **blocked sorted run** of
//! `(SegmentId, count)` entries — a two-level B-tree leaf list:
//!
//! * the smallest keys live in an inline **head** block, so a node with at most
//!   `CHUNK` postings is one sorted vector, two pointer hops from the store;
//! * further keys live in **tail** blocks of at most `CHUNK` entries behind a dense
//!   directory of 4-byte first keys, searched before any block is touched.
//!
//! An update ([`VisitPostings::record`]) is a directory search plus one in-block
//! `memmove`: O(log W(v) + `CHUNK`), with nothing merged and nothing reallocated
//! wholesale.  A full block splits in half (or, for a key past the node's last — the
//! ascending order every bulk producer inserts in — starts a new block and stays
//! packed), an emptied tail block is dropped, and a block's buffer grows an eighth at
//! a time, so the index idles about 6 % of its bytes.  Every block also carries the
//! sum of its counts, so a [`PostingsIter`] can [`seek`](PostingsIter::seek) to a
//! visit slot in O(blocks) sums plus one in-block scan instead of walking every
//! posting.
//!
//! The consuming [`crate::WalkStore`] keeps the exact `W(v)` totals in a separate dense
//! counter array, so the hot paths never sum a node's postings.

use crate::segment::SegmentId;

/// Entries per block — 1 KiB: an update's `memmove` stays inside sixteen cache lines,
/// and a hub's first-key directory is one line per 2 048 postings.
const CHUNK: usize = 128;

type Entry = (SegmentId, u32);

/// A node's blocks in key order: the head, then the tail.
type Blocks<'a> = std::iter::Chain<std::iter::Once<&'a Block>, std::slice::Iter<'a, Block>>;

/// The capacity a full buffer of `len < CHUNK` entries grows to: an eighth more (at
/// least four entries), never past one block.  Blocks settle between half full and
/// full, so a buffer left to double — or allocated whole — would idle a third of a
/// hub's index; this keeps the slack near 6 %.
fn grown_capacity(len: usize) -> usize {
    (len + (len / 8).max(4)).min(CHUNK)
}

/// One sorted run of at most `CHUNK` entries and the sum of their counts.
#[derive(Debug, Clone, Default)]
struct Block {
    /// Strictly increasing by `SegmentId`; counts are strictly positive.
    entries: Vec<Entry>,
    /// Σ counts of `entries`: what a seeking scan skips the block by.
    visits: u64,
}

impl Block {
    /// A block holding exactly `entries`, at their exact capacity.
    fn packed(entries: Vec<Entry>) -> Self {
        let visits = entries.iter().map(|&(_, count)| count as u64).sum();
        Block { entries, visits }
    }
}

/// The blocks past the head, with their directory.
#[derive(Debug, Clone)]
struct Tail {
    /// `first[b]` is the first key of `blocks[b]`.
    first: Vec<u32>,
    /// Never empty, and no block in it is.
    blocks: Vec<Block>,
}

/// What the updates of one node's postings cost (unit tests only).
#[cfg(test)]
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Cost {
    /// Non-zero `record` calls.
    pub records: u64,
    /// Entries shifted by in-block inserts and removals, or copied by splits.
    pub moved: u64,
    /// Full blocks that made room by splitting or by starting a new block.
    pub splits: u64,
    /// Block buffers allocated, or regrown by a step.
    pub allocations: u64,
}

#[cfg(test)]
impl Cost {
    fn charge(&mut self, moved: usize, splits: u64, allocations: u64) {
        self.moved += moved as u64;
        self.splits += splits;
        self.allocations += allocations;
    }
}

/// Sorted postings of the segments visiting one node.
#[derive(Debug, Clone, Default)]
pub struct VisitPostings {
    /// The smallest keys; the only block of most nodes.  May be empty while the tail
    /// is not.
    head: Block,
    tail: Option<Box<Tail>>,
    #[cfg(test)]
    pub(crate) cost: Cost,
}

// The per-node header every store pays `node_count` times over.
#[cfg(not(test))]
const _: () = assert!(std::mem::size_of::<VisitPostings>() <= 48);

impl VisitPostings {
    /// Creates empty postings.
    pub fn new() -> Self {
        VisitPostings::default()
    }

    /// Builds postings directly from a finished sorted run (the decode half of a
    /// snapshot round trip: the encode half is [`VisitPostings::iter`], which yields
    /// exactly this run).  Blocks are packed full, each at its exact capacity.
    ///
    /// Returns an error unless the run is strictly increasing by segment id with all
    /// counts positive — the invariant every update maintains.
    pub fn from_sorted_run(mut run: Vec<(SegmentId, u32)>) -> Result<Self, String> {
        for (i, &(id, count)) in run.iter().enumerate() {
            if count == 0 {
                return Err(format!("posting {id:?} has a zero count"));
            }
            if i > 0 && run[i - 1].0 >= id {
                return Err(format!("postings run not strictly increasing at {id:?}"));
            }
        }
        let mut postings = VisitPostings::new();
        if run.len() <= CHUNK {
            run.shrink_to_fit();
            postings.head = Block::packed(run);
            return Ok(postings);
        }
        let mut chunks = run.chunks(CHUNK).map(|chunk| Block::packed(chunk.to_vec()));
        postings.head = chunks.next().expect("the run is longer than one block");
        let blocks: Vec<Block> = chunks.collect();
        let first = blocks.iter().map(|block| block.entries[0].0 .0).collect();
        postings.tail = Some(Box::new(Tail { first, blocks }));
        Ok(postings)
    }

    /// Records `change` visits of segment `id` (negative to remove visits): one
    /// directory search and one in-block shift, O(log W(v) + `CHUNK`) however many
    /// segments visit the node.
    ///
    /// # Panics
    ///
    /// Panics when asked to remove more visits of `id` than the postings hold: the
    /// caller's idea of the segment's old path and this index have diverged, and no
    /// count recorded from here on could be trusted.
    pub fn record(&mut self, id: SegmentId, change: i32) {
        if change == 0 {
            return;
        }
        #[cfg(test)]
        {
            self.cost.records += 1;
        }
        let at = self.block_of(id);
        let block = self.block_mut(at);
        match block.entries.binary_search_by_key(&id, |&(seg, _)| seg) {
            Ok(i) => {
                let held = block.entries[i].1;
                let Some(count) = held.checked_add_signed(change) else {
                    panic!(
                        "cannot record {change} visits of {id:?} at a node whose postings hold \
                         {held} of it"
                    );
                };
                block.visits = block.visits.wrapping_add_signed(change as i64);
                if count > 0 {
                    block.entries[i].1 = count;
                } else {
                    self.remove_entry(at, i);
                }
            }
            Err(i) => {
                assert!(
                    change > 0,
                    "cannot remove {} visits of {id:?} from a node whose {} postings hold none \
                     of it",
                    change.unsigned_abs(),
                    self.distinct()
                );
                self.insert_entry(at, i, (id, change as u32));
            }
        }
    }

    /// The block a key belongs to: `0` is the head, `b + 1` is tail block `b` — the
    /// last one whose first key is not above `id`.
    fn block_of(&self, id: SegmentId) -> usize {
        match &self.tail {
            Some(tail) => tail.first.partition_point(|&first| first <= id.0),
            None => 0,
        }
    }

    fn block_mut(&mut self, at: usize) -> &mut Block {
        match at.checked_sub(1) {
            None => &mut self.head,
            Some(b) => &mut self.tail.as_mut().expect("tail block index").blocks[b],
        }
    }

    /// Inserts `entry` at position `i` of block `at`, making room first if it is full.
    fn insert_entry(&mut self, at: usize, i: usize, entry: Entry) {
        let last = self.tail.as_ref().map_or(0, |tail| tail.blocks.len());
        let block = self.block_mut(at);
        let len = block.entries.len();
        if len < CHUNK {
            let grow = len == block.entries.capacity();
            if grow {
                block.entries.reserve_exact(grown_capacity(len) - len);
            }
            block.entries.insert(i, entry);
            block.visits += entry.1 as u64;
            #[cfg(test)]
            self.cost.charge(len - i, 0, grow as u64);
            return;
        }

        // A full block.  A key past the node's last key starts a new block, so
        // ascending inserts leave every block behind them packed; any other key
        // splits the block in half.
        let append = at == last && i == CHUNK;
        let mut right = Vec::new();
        if append {
            right.reserve_exact(grown_capacity(0));
        } else {
            right.reserve_exact(grown_capacity(CHUNK / 2));
            right.extend_from_slice(&block.entries[CHUNK / 2..]);
            block.entries.truncate(CHUNK / 2);
            block.entries.shrink_to(grown_capacity(CHUNK / 2));
        }
        let mut right = Block::packed(right);
        block.visits -= right.visits;
        #[cfg(test)]
        let copied = right.entries.len();
        let (target, i) = if append {
            (&mut right, 0)
        } else if i > CHUNK / 2 {
            (&mut right, i - CHUNK / 2)
        } else {
            (block, i)
        };
        #[cfg(test)]
        let shifted = target.entries.len() - i;
        target.entries.insert(i, entry);
        target.visits += entry.1 as u64;
        #[cfg(test)]
        self.cost.charge(copied + shifted, 1, 1);
        let tail = self.tail.get_or_insert_with(|| {
            Box::new(Tail {
                first: Vec::new(),
                blocks: Vec::new(),
            })
        });
        tail.first.insert(at, right.entries[0].0 .0);
        tail.blocks.insert(at, right);
    }

    /// Removes entry `i` of block `at` (its count already taken off the block's sum),
    /// dropping a tail block it empties and keeping the directory on first keys.
    fn remove_entry(&mut self, at: usize, i: usize) {
        let block = self.block_mut(at);
        block.entries.remove(i);
        #[cfg(test)]
        let shifted = block.entries.len() - i;
        #[cfg(test)]
        self.cost.charge(shifted, 0, 0);
        let Some(b) = at.checked_sub(1) else {
            return;
        };
        let tail = self.tail.as_mut().expect("tail block index");
        match tail.blocks[b].entries.first() {
            Some(&(first, _)) => tail.first[b] = first.0,
            None => {
                tail.blocks.remove(b);
                tail.first.remove(b);
                if tail.blocks.is_empty() {
                    self.tail = None;
                }
            }
        }
    }

    fn tail_blocks(&self) -> &[Block] {
        self.tail.as_ref().map_or(&[][..], |tail| &tail.blocks[..])
    }

    fn blocks(&self) -> Blocks<'_> {
        std::iter::once(&self.head).chain(self.tail_blocks())
    }

    /// Iterates the postings as `(segment, count)` in increasing segment order.
    pub fn iter(&self) -> PostingsIter<'_> {
        PostingsIter {
            entries: [].iter(),
            blocks: self.blocks(),
            slot: 0,
            scanned: 0,
        }
    }

    /// Number of distinct segments with a positive count.
    pub fn distinct(&self) -> usize {
        self.blocks().map(|block| block.entries.len()).sum()
    }

    /// The visit count of one segment (0 when absent).
    pub fn count_of(&self, id: SegmentId) -> u32 {
        let block = match self.block_of(id).checked_sub(1) {
            None => &self.head,
            Some(b) => &self.tail_blocks()[b],
        };
        match block.entries.binary_search_by_key(&id, |&(seg, _)| seg) {
            Ok(i) => block.entries[i].1,
            Err(_) => 0,
        }
    }

    /// Sum of all counts (the node's `W(v)` as seen by this index).
    pub fn total(&self) -> u64 {
        self.blocks().map(|block| block.visits).sum()
    }

    /// `true` when no segment visits the node.
    pub fn is_empty(&self) -> bool {
        self.head.entries.is_empty() && self.tail.is_none()
    }

    /// Whether every block sits at its exact capacity and every block but the last
    /// is full — the shape [`Self::from_sorted_run`] builds.
    #[cfg(test)]
    pub(crate) fn is_packed(&self) -> bool {
        let blocks: Vec<&Block> = self.blocks().collect();
        blocks
            .iter()
            .all(|block| block.entries.capacity() == block.entries.len())
            && blocks[..blocks.len() - 1]
                .iter()
                .all(|block| block.entries.len() == CHUNK)
    }
}

/// Forward-only cursor over a [`VisitPostings`]: an iterator of `(segment, count)` in
/// increasing segment order that can also [`seek`](Self::seek) to a visit slot.
#[derive(Debug, Clone)]
pub struct PostingsIter<'a> {
    /// What is left of the block the cursor stands in.
    entries: std::slice::Iter<'a, Entry>,
    /// The blocks not entered yet.
    blocks: Blocks<'a>,
    /// Slot of the first visit of the next entry.
    slot: u64,
    scanned: u64,
}

impl PostingsIter<'_> {
    /// Skips to the posting holding visit slot `slot` and yields it as `(segment,
    /// count, first_slot)`, or `None` when the node has no such slot.  Slots number the
    /// node's visits along its postings: the posting of `segment` covers the `count`
    /// slots from `first_slot`.  Like [`Iterator::next`] this moves past the posting
    /// it yields, so `slot` must lie beyond every posting yielded so far.
    ///
    /// Whole blocks are skipped by their sums, so reaching `h` increasing slots costs
    /// O(blocks + h · `CHUNK`) however many postings lie between them.
    pub fn seek(&mut self, slot: u64) -> Option<(SegmentId, u32, u64)> {
        debug_assert!(slot >= self.slot, "the cursor only moves forward");
        loop {
            for &(segment, count) in self.entries.by_ref() {
                self.scanned += 1;
                let first = self.slot;
                self.slot += count as u64;
                if slot < self.slot {
                    return Some((segment, count, first));
                }
            }
            loop {
                let block = self.blocks.next()?;
                self.scanned += 1;
                if slot < self.slot + block.visits {
                    self.entries = block.entries.iter();
                    break;
                }
                self.slot += block.visits;
            }
        }
    }

    /// Postings the cursor has not yielded yet, in O(blocks) — what lets a writer
    /// put a run's count ahead of its entries without collecting them.
    pub fn remaining(&self) -> usize {
        let ahead: usize = self.blocks.clone().map(|b| b.entries.len()).sum();
        self.entries.len() + ahead
    }

    /// Block sums and postings [`Self::seek`] has read so far (observability only).
    pub fn scanned(&self) -> u64 {
        self.scanned
    }
}

impl Iterator for PostingsIter<'_> {
    type Item = (SegmentId, u32);

    fn next(&mut self) -> Option<(SegmentId, u32)> {
        loop {
            if let Some(&(segment, count)) = self.entries.next() {
                self.slot += count as u64;
                return Some((segment, count));
            }
            self.entries = self.blocks.next()?.entries.iter();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    fn seg(i: u32) -> SegmentId {
        SegmentId(i)
    }

    /// The structural invariants every update must leave behind.
    fn assert_well_formed(p: &VisitPostings) {
        if let Some(tail) = &p.tail {
            assert!(!tail.blocks.is_empty(), "an empty tail is dropped");
            assert_eq!(tail.first.len(), tail.blocks.len());
            for (first, block) in tail.first.iter().zip(&tail.blocks) {
                assert!(!block.entries.is_empty(), "an emptied block is dropped");
                assert_eq!(
                    *first, block.entries[0].0 .0,
                    "directory keys are first keys"
                );
            }
        }
        for block in p.blocks() {
            assert!(block.entries.len() <= CHUNK);
            assert!(
                block.entries.capacity() <= CHUNK,
                "a block never outgrows CHUNK"
            );
            assert!(block.entries.iter().all(|&(_, count)| count > 0));
            let sum: u64 = block.entries.iter().map(|&(_, count)| count as u64).sum();
            assert_eq!(block.visits, sum, "per-block sums are exact");
        }
        let keys: Vec<SegmentId> = p.blocks().flat_map(|b| &b.entries).map(|e| e.0).collect();
        assert!(keys.windows(2).all(|w| w[0] < w[1]), "strictly increasing");
    }

    /// Every read of `p` against the reference multiset, `seek` against the linear
    /// prefix sum over it.
    fn assert_matches_model(p: &VisitPostings, model: &BTreeMap<SegmentId, u32>) {
        assert_well_formed(p);
        let run: Vec<Entry> = model.iter().map(|(&id, &count)| (id, count)).collect();
        assert_eq!(p.iter().collect::<Vec<_>>(), run);
        assert_eq!(p.distinct(), run.len());
        let mut cursor = p.iter();
        for yielded in 0..=run.len() {
            assert_eq!(cursor.remaining(), run.len() - yielded);
            cursor.next();
        }
        assert_eq!(p.is_empty(), run.is_empty());
        let total: u64 = run.iter().map(|&(_, count)| count as u64).sum();
        assert_eq!(p.total(), total);
        for &(id, count) in &run {
            assert_eq!(p.count_of(id), count);
            assert_eq!(
                p.count_of(SegmentId(id.0 + 1)),
                *model.get(&SegmentId(id.0 + 1)).unwrap_or(&0)
            );
        }
        // A strided walk over the slots with one cursor, each seek beyond the posting
        // the last one yielded; then past the end.
        let stride = (total / 97).max(1);
        let mut cursor = p.iter();
        let (mut k, mut first) = (0usize, 0u64);
        let mut slot = 0u64;
        while slot < total {
            while first + run[k].1 as u64 <= slot {
                first += run[k].1 as u64;
                k += 1;
            }
            assert_eq!(
                cursor.seek(slot),
                Some((run[k].0, run[k].1, first)),
                "slot {slot}"
            );
            slot = (slot + stride).max(first + run[k].1 as u64);
        }
        assert_eq!(cursor.seek(total), None);
        // `next` carries on from the posting a seek yielded.
        if let [.., before_last, last] = run[..] {
            let mut cursor = p.iter();
            let slot = total - last.1 as u64 - 1;
            assert_eq!(cursor.seek(slot).map(|(id, _, _)| id), Some(before_last.0));
            assert_eq!(cursor.next(), Some(last));
            assert_eq!(cursor.next(), None);
        }
    }

    /// Applies `record(id, change)` to both sides, clamping a removal to what the
    /// model holds (over-removal is the `should_panic` tests' business).
    fn record_both(
        p: &mut VisitPostings,
        model: &mut BTreeMap<SegmentId, u32>,
        id: SegmentId,
        change: i32,
    ) {
        let held = model.get(&id).copied().unwrap_or(0);
        let change = change.max(-(held as i32));
        p.record(id, change);
        match held.checked_add_signed(change).unwrap() {
            0 => model.remove(&id),
            count => model.insert(id, count),
        };
    }

    #[test]
    fn record_and_iterate_in_segment_order() {
        let mut p = VisitPostings::new();
        p.record(seg(5), 2);
        p.record(seg(1), 1);
        p.record(seg(3), 4);
        let collected: Vec<_> = p.iter().collect();
        assert_eq!(collected, vec![(seg(1), 1), (seg(3), 4), (seg(5), 2)]);
        assert_eq!(p.distinct(), 3);
        assert_eq!(p.total(), 7);
        assert_eq!(p.count_of(seg(3)), 4);
        assert_eq!(p.count_of(seg(9)), 0);
    }

    #[test]
    fn negative_records_cancel_positive_ones() {
        let mut p = VisitPostings::new();
        p.record(seg(2), 3);
        p.record(seg(2), -1);
        assert_eq!(p.count_of(seg(2)), 2);
        p.record(seg(2), -2);
        assert_eq!(p.count_of(seg(2)), 0);
        assert!(p.is_empty());
        assert_eq!(p.iter().count(), 0);
    }

    #[test]
    #[should_panic(expected = "hold none of it")]
    fn removing_an_absent_posting_panics() {
        let mut p = VisitPostings::new();
        p.record(seg(1), 1);
        p.record(seg(2), -1);
    }

    #[test]
    #[should_panic(expected = "hold 2 of it")]
    fn removing_more_visits_than_held_panics() {
        let mut p = VisitPostings::new();
        p.record(seg(1), 2);
        p.record(seg(1), -3);
    }

    #[test]
    fn a_full_block_splits_and_every_posting_stays_visible() {
        // Descending inserts always land at the front of the (full) head: the worst
        // case for the split rule.  No update may touch more than one block's worth.
        let mut p = VisitPostings::new();
        let n = 4 * CHUNK as u32;
        for i in (0..n).rev() {
            let before = p.cost;
            p.record(seg(i), 1);
            assert!(p.cost.moved - before.moved <= CHUNK as u64 + 1);
        }
        assert_well_formed(&p);
        assert!(p.cost.splits >= 3, "{:?}", p.cost);
        assert_eq!(p.distinct(), n as usize);
        assert!((0..n).all(|i| p.count_of(seg(i)) == 1));
        assert_eq!(
            p.iter().map(|(id, _)| id.0).collect::<Vec<_>>(),
            (0..n).collect::<Vec<_>>()
        );
    }

    #[test]
    fn ascending_inserts_leave_packed_blocks_behind() {
        // The order engine construction, `ensure_nodes` and decode insert in.
        let mut p = VisitPostings::new();
        let n = 5 * CHUNK as u32 + 7;
        for i in 0..n {
            p.record(seg(i), 1);
        }
        assert_well_formed(&p);
        let lens: Vec<usize> = p.blocks().map(|b| b.entries.len()).collect();
        assert_eq!(lens, [CHUNK, CHUNK, CHUNK, CHUNK, CHUNK, 7]);
        assert_eq!(p.cost.moved, 0, "appends shift nothing");
        assert_eq!(p.cost.splits, 5);
        assert!(p
            .blocks()
            .all(|b| b.entries.capacity() - b.entries.len() <= CHUNK / 8));
    }

    #[test]
    fn interleaved_inserts_and_removals_read_exactly() {
        let mut p = VisitPostings::new();
        for i in (0..40u32).step_by(2) {
            p.record(seg(i), 2);
        }
        for i in (1..40u32).step_by(4) {
            p.record(seg(i), 1);
        }
        p.record(seg(0), -2);
        p.record(seg(10), -1);
        let collected: Vec<_> = p.iter().collect();
        assert!(collected.windows(2).all(|w| w[0].0 < w[1].0), "sorted");
        assert_eq!(p.count_of(seg(0)), 0);
        assert_eq!(p.count_of(seg(10)), 1);
        assert_eq!(p.count_of(seg(1)), 1);
        assert_eq!(p.count_of(seg(2)), 2);
        let total: u64 = collected.iter().map(|&(_, c)| c as u64).sum();
        assert_eq!(total, p.total());
    }

    #[test]
    fn from_sorted_run_round_trips_iter() {
        let mut p = VisitPostings::new();
        p.record(seg(4), 2);
        p.record(seg(1), 1);
        p.record(seg(9), 7);
        let run: Vec<_> = p.iter().collect();
        let rebuilt = VisitPostings::from_sorted_run(run.clone()).unwrap();
        assert_eq!(rebuilt.iter().collect::<Vec<_>>(), run);
        assert_eq!(rebuilt.total(), p.total());

        assert!(VisitPostings::from_sorted_run(vec![(seg(1), 0)]).is_err());
        assert!(VisitPostings::from_sorted_run(vec![(seg(2), 1), (seg(2), 1)]).is_err());
        assert!(VisitPostings::from_sorted_run(vec![(seg(3), 1), (seg(1), 1)]).is_err());
    }

    #[test]
    fn from_sorted_run_packs_blocks_at_exact_capacity() {
        for n in [0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK, 3 * CHUNK + 5] {
            let run: Vec<Entry> = (0..n as u32).map(|i| (seg(2 * i), 1 + i % 3)).collect();
            let mut slack = run.clone();
            slack.reserve(50);
            let p = VisitPostings::from_sorted_run(slack).unwrap();
            assert_well_formed(&p);
            assert_eq!(p.iter().collect::<Vec<_>>(), run, "n = {n}");
            for (b, block) in p.blocks().enumerate() {
                let len = CHUNK.min(n - b * CHUNK);
                assert_eq!((block.entries.len(), block.entries.capacity()), (len, len));
            }
        }
    }

    #[test]
    fn zero_change_is_a_noop() {
        let mut p = VisitPostings::new();
        p.record(seg(1), 0);
        assert!(p.is_empty());
        assert_eq!(p.cost, Cost::default());
    }

    #[test]
    fn the_head_may_empty_while_the_tail_remains() {
        let mut p = VisitPostings::new();
        let mut model = BTreeMap::new();
        let n = 3 * CHUNK as u32;
        for i in 0..n {
            record_both(&mut p, &mut model, seg(i + 10), 1);
        }
        for i in 0..CHUNK as u32 {
            record_both(&mut p, &mut model, seg(i + 10), -1);
        }
        assert!(p.head.entries.is_empty() && p.tail.is_some());
        assert_matches_model(&p, &model);
        // Keys below the tail's first refill the head; the last block can go too.
        record_both(&mut p, &mut model, seg(3), 2);
        for i in 2 * CHUNK as u32..n {
            record_both(&mut p, &mut model, seg(i + 10), -1);
        }
        assert_eq!(p.tail_blocks().len(), 1);
        assert_matches_model(&p, &model);
        for i in CHUNK as u32..2 * CHUNK as u32 {
            record_both(&mut p, &mut model, seg(i + 10), -1);
        }
        assert!(p.tail.is_none());
        assert_matches_model(&p, &model);
    }

    /// A tiny deterministic generator for the cost oracle's update stream.
    fn lcg(state: &mut u64) -> u64 {
        *state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        *state >> 33
    }

    #[test]
    fn updates_on_a_hub_move_and_allocate_at_most_one_block() {
        // 100 000 postings on even ids, then 10 000 random updates: visits of new odd
        // ids, bumps of old ones, and removals of visits added earlier.
        let run: Vec<Entry> = (0..100_000u32).map(|i| (seg(2 * i), 1)).collect();
        let mut p = VisitPostings::from_sorted_run(run).unwrap();
        let mut state = 7u64;
        let mut inserted = Vec::new();
        for step in 0..10_000 {
            let before = p.cost;
            match step % 4 {
                0 | 1 => {
                    let id = seg(2 * (lcg(&mut state) % 100_000) as u32 + 1);
                    p.record(id, 1);
                    inserted.push(id);
                }
                2 => p.record(seg(2 * (lcg(&mut state) % 100_000) as u32), 1),
                _ => {
                    let id = inserted.swap_remove(lcg(&mut state) as usize % inserted.len());
                    p.record(id, -1);
                }
            }
            let moved = p.cost.moved - before.moved;
            assert!(
                moved <= CHUNK as u64 + 1,
                "step {step} moved {moved} entries"
            );
        }
        assert_well_formed(&p);
        assert!(p.cost.splits > 0);
        // Every packed block a new id met split; only the one partial block the run
        // ended on could also grow in place (32 → 64 → 128 entries).
        assert!(p.cost.allocations <= p.cost.splits + 2, "{:?}", p.cost);
        assert_eq!(p.cost.records, 10_000);
    }

    #[derive(Debug, Clone)]
    enum Step {
        Record(u32, i32),
        Rebuild,
    }

    fn steps(keys: u32, len: usize) -> impl Strategy<Value = Vec<Step>> {
        proptest::collection::vec(
            prop_oneof![
                12 => (0..keys, 1u32..4).prop_map(|(k, c)| Step::Record(k, c as i32)),
                8 => (0..keys, 1u32..4).prop_map(|(k, c)| Step::Record(k, -(c as i32))),
                1 => Just(Step::Rebuild),
            ],
            0..len,
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Random `record(±k)` / `from_sorted_run` sequences against a `BTreeMap`
        /// reference, on key spaces that keep the postings around 0, 1, `CHUNK`,
        /// `CHUNK + 1` and several blocks.
        #[test]
        fn random_updates_match_a_btreemap_model(
            small in steps(3, 40),
            around_one_block in steps(CHUNK as u32 + 2, 600),
            several_blocks in steps(6 * CHUNK as u32, 2_500),
        ) {
            for script in [small, around_one_block, several_blocks] {
                let mut p = VisitPostings::new();
                let mut model = BTreeMap::new();
                for (i, step) in script.iter().enumerate() {
                    match *step {
                        Step::Record(key, change) => {
                            record_both(&mut p, &mut model, seg(key), change);
                            assert_well_formed(&p);
                        }
                        Step::Rebuild => {
                            p = VisitPostings::from_sorted_run(p.iter().collect()).unwrap();
                        }
                    }
                    if i % 64 == 0 {
                        assert_matches_model(&p, &model);
                    }
                }
                assert_matches_model(&p, &model);
            }
        }

        /// Ascending-only and descending-only runs, then draining from either end:
        /// the append rule, the front-split rule, and the emptied head / last block.
        #[test]
        fn monotone_runs_and_drains_match_the_model(
            n in 0u32..(4 * CHUNK as u32),
            ascending in 0u32..2,
            drain_front in 0u32..2,
            keep in 0u32..(CHUNK as u32),
        ) {
            let mut p = VisitPostings::new();
            let mut model = BTreeMap::new();
            for i in 0..n {
                let key = if ascending == 1 { i } else { n - 1 - i };
                record_both(&mut p, &mut model, seg(key), 1 + (key % 2) as i32);
                assert_well_formed(&p);
            }
            assert_matches_model(&p, &model);
            for i in 0..n.saturating_sub(keep) {
                let key = if drain_front == 1 { i } else { n - 1 - i };
                record_both(&mut p, &mut model, seg(key), -2);
                assert_well_formed(&p);
            }
            assert_matches_model(&p, &model);
        }
    }
}
