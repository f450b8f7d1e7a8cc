//! `O(walk)` query scratch: a node-keyed table and a partial top-`k` selection.
//!
//! The paper prices a personalized query in walk length and fetches (Equation 4,
//! Theorem 8 / Corollary 9) — nothing in that cost grows with the node count `n`.
//! The two helpers here keep the implementation on that model: a query touches at
//! most `walk_length` distinct nodes, so its working state is a table sized by
//! the nodes it actually saw, and ranking it is a selection over those nodes —
//! never an `n`-long array to zero, scan or sort.

use ppr_graph::NodeId;
use std::cmp::Ordering;

/// Smallest slot array ever allocated (a power of two).
const MIN_SLOTS: usize = 16;

/// One slot: `key` is the node id plus one, `0` marks a vacant slot.
#[derive(Debug, Clone, Copy, Default)]
struct Slot {
    key: u64,
    value: u64,
}

/// An open-addressed `NodeId → u64` table: linear probing over a power-of-two
/// slot array kept at most half full, indexed by one multiply-shift of the node
/// id (no SipHash on the per-step path).  It remembers which slots it filled, in
/// first-insertion order, so clearing and iterating cost `O(entries)` whatever
/// the capacity — a table reused across queries never pays for a bigger earlier
/// one, and its memory is bounded by four slots per entry of the largest query
/// it served.
///
/// Node ids come from the graph, so an adversarial id assignment can make many
/// keys share a probe run; that degrades one query towards `O(entries²)` — still
/// a function of its walk, not of `n`.
#[derive(Debug, Clone, Default)]
pub(crate) struct NodeTable {
    slots: Vec<Slot>,
    /// Indices of the filled slots, in first-insertion order.
    occupied: Vec<u32>,
    /// Slots reset by [`Self::clear`] over the table's lifetime.
    slots_reset: u64,
}

impl NodeTable {
    /// The slot a key's probe run starts at (Fibonacci hashing: the top bits of
    /// a multiply by 2⁶⁴/φ).  Requires a non-empty slot array.
    #[inline]
    fn home(&self, key: u64) -> usize {
        let bits = self.slots.len().trailing_zeros();
        (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - bits)) as usize
    }

    /// The value stored for `node`, if any.
    #[inline]
    pub(crate) fn get(&self, node: NodeId) -> Option<u64> {
        if self.slots.is_empty() {
            return None;
        }
        let key = u64::from(node.0) + 1;
        let mask = self.slots.len() - 1;
        let mut at = self.home(key);
        loop {
            let slot = self.slots[at];
            if slot.key == key {
                return Some(slot.value);
            }
            if slot.key == 0 {
                return None;
            }
            at = (at + 1) & mask;
        }
    }

    /// The value slot of `node`, inserted as `0` on first sight.
    #[inline]
    pub(crate) fn entry(&mut self, node: NodeId) -> &mut u64 {
        // At most half full, so every probe run ends at a vacant slot.
        if self.occupied.len() * 2 >= self.slots.len() {
            self.grow();
        }
        let key = u64::from(node.0) + 1;
        let mask = self.slots.len() - 1;
        let mut at = self.home(key);
        loop {
            let slot = &mut self.slots[at];
            if slot.key == key {
                break;
            }
            if slot.key == 0 {
                slot.key = key;
                self.occupied.push(at as u32);
                break;
            }
            at = (at + 1) & mask;
        }
        &mut self.slots[at].value
    }

    /// Doubles the slot array and re-seats every entry, keeping insertion order.
    #[cold]
    fn grow(&mut self) {
        let capacity = (self.slots.len() * 2).max(MIN_SLOTS);
        assert!(
            u32::try_from(capacity).is_ok(),
            "node table exceeds u32 slots"
        );
        let old = std::mem::replace(&mut self.slots, vec![Slot::default(); capacity]);
        let mask = capacity - 1;
        for i in 0..self.occupied.len() {
            let entry = old[self.occupied[i] as usize];
            let mut at = self.home(entry.key);
            while self.slots[at].key != 0 {
                at = (at + 1) & mask;
            }
            self.slots[at] = entry;
            self.occupied[i] = at as u32;
        }
    }

    /// Number of entries.
    pub(crate) fn len(&self) -> usize {
        self.occupied.len()
    }

    /// `(node, value)` pairs in first-insertion order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (NodeId, u64)> + '_ {
        self.occupied.iter().map(|&at| {
            let slot = self.slots[at as usize];
            (NodeId((slot.key - 1) as u32), slot.value)
        })
    }

    /// Empties the table in `O(entries)`, keeping its allocation.
    pub(crate) fn clear(&mut self) {
        for &at in &self.occupied {
            self.slots[at as usize] = Slot::default();
        }
        self.slots_reset += self.occupied.len() as u64;
        self.occupied.clear();
    }

    /// Slots reset by [`Self::clear`] over the table's lifetime — the whole cost
    /// of reuse, counted where it is paid.
    pub(crate) fn slots_reset(&self) -> u64 {
        self.slots_reset
    }

    /// Heap bytes held (capacity, not length).
    pub(crate) fn heap_bytes(&self) -> usize {
        self.slots.capacity() * std::mem::size_of::<Slot>()
            + self.occupied.capacity() * std::mem::size_of::<u32>()
    }
}

/// Reduces `items` to its first `k` elements under the **total** order `cmp`,
/// sorted: one `select_nth_unstable_by` partition plus a sort of the `k`
/// survivors instead of a full sort.  Because the order is total the result does
/// not depend on the input order — it is exactly `sort_by(cmp)` + `truncate(k)`.
pub(crate) fn select_top_k<T>(
    items: &mut Vec<T>,
    k: usize,
    mut cmp: impl FnMut(&T, &T) -> Ordering,
) {
    if k == 0 {
        items.clear();
        return;
    }
    if k < items.len() {
        items.select_nth_unstable_by(k - 1, &mut cmp);
        items.truncate(k);
    }
    items.sort_unstable_by(cmp);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_counts_grows_and_clears_sparsely() {
        let mut table = NodeTable::default();
        assert_eq!(table.get(NodeId(3)), None);
        // Ids that collide under any power-of-two mask, plus the extreme id.
        let ids = [0u32, 16, 32, 1 << 20, u32::MAX, 7, 16, 0, 0];
        for &id in &ids {
            *table.entry(NodeId(id)) += 1;
        }
        assert_eq!(table.len(), 6);
        assert_eq!(table.get(NodeId(0)), Some(3));
        assert_eq!(table.get(NodeId(16)), Some(2));
        assert_eq!(table.get(NodeId(u32::MAX)), Some(1));
        assert_eq!(table.get(NodeId(1)), None);
        let order: Vec<u32> = table.iter().map(|(node, _)| node.0).collect();
        assert_eq!(order, [0, 16, 32, 1 << 20, u32::MAX, 7], "insertion order");

        // Growth re-seats every entry and keeps the order.
        for id in 100..1_100u32 {
            *table.entry(NodeId(id)) = u64::from(id);
        }
        assert_eq!(table.len(), 1_006);
        assert_eq!(table.get(NodeId(0)), Some(3));
        assert_eq!(table.get(NodeId(1_099)), Some(1_099));
        assert_eq!(table.iter().nth(6), Some((NodeId(100), 100)));
        assert!(table.slots.len() >= 2 * table.len());

        // Clearing resets exactly the filled slots and keeps the allocation.
        let bytes = table.heap_bytes();
        table.clear();
        assert_eq!(table.slots_reset(), 1_006);
        assert_eq!(table.len(), 0);
        assert_eq!(table.get(NodeId(0)), None);
        assert!(table
            .slots
            .iter()
            .all(|slot| slot.key == 0 && slot.value == 0));
        assert_eq!(table.heap_bytes(), bytes);
        *table.entry(NodeId(5)) += 1;
        assert_eq!(table.iter().collect::<Vec<_>>(), [(NodeId(5), 1)]);
    }

    #[test]
    fn select_top_k_equals_sort_then_truncate() {
        let items: Vec<(u32, u32)> = (0..200u32).map(|i| (i, (i * 7919) % 13)).collect();
        let cmp = |a: &(u32, u32), b: &(u32, u32)| b.1.cmp(&a.1).then(a.0.cmp(&b.0));
        let mut sorted = items.clone();
        sorted.sort_by(cmp);
        for k in [0, 1, 10, 199, 200, 500] {
            let mut picked = items.clone();
            select_top_k(&mut picked, k, cmp);
            assert_eq!(picked, sorted[..k.min(sorted.len())], "k = {k}");
        }
    }
}
