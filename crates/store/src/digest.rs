//! Canonical PageRank-Store digests for differential testing.
//!
//! Every differential oracle in this workspace ends in the same comparison: two
//! stores must agree on node counts, segment counts, `total_visits`, per-node
//! visit counters, visit postings, and every stored segment path.  [`StoreDigest`]
//! folds all of that into one comparable value computed through the [`WalkIndex`]
//! surface, so harnesses that hold many final states (the scenario corpus runs one
//! reference plus a fault matrix per scenario) can compare them without keeping
//! whole stores alive.  The fold order is the store's own deterministic iteration
//! order, which every layout (flat, disk) already produces identically, whatever
//! its arena geometry — the digest is the compressed form of a field-by-field
//! comparison.
//!
//! A digest match is a fingerprint, not a proof: harnesses should still do one
//! full field-by-field comparison per configuration (collisions are astronomically
//! unlikely but the full compare produces a useful diff when something breaks).

use crate::index::WalkIndex;
use ppr_graph::NodeId;

/// FNV-1a offset basis / prime (64-bit).
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Folds one `u64` into an FNV-1a accumulator byte by byte.
fn fold(hash: u64, word: u64) -> u64 {
    let mut h = hash;
    for byte in word.to_le_bytes() {
        h = (h ^ byte as u64).wrapping_mul(FNV_PRIME);
    }
    h
}

/// A compact, comparable summary of one PageRank Store's full logical state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreDigest {
    /// Number of nodes the store addresses.
    pub node_count: usize,
    /// Walk segments per node (the paper's `R`).
    pub r: usize,
    /// Total stored visits across all segments.
    pub total_visits: u64,
    /// FNV-1a fold over visit counters, postings, and every segment path, in the
    /// store's deterministic iteration order.
    pub fingerprint: u64,
}

impl StoreDigest {
    /// Digests `store` through the `WalkIndex` read surface.  Two stores holding
    /// bit-identical logical state produce equal digests regardless of layout.
    pub fn of<W: WalkIndex + ?Sized>(store: &W) -> Self {
        let node_count = store.node_count();
        let mut fingerprint = FNV_OFFSET;
        for g in 0..node_count {
            let node = NodeId::from_index(g);
            fingerprint = fold(fingerprint, store.visit_count(node));
            for (id, count) in store.segments_visiting(node) {
                fingerprint = fold(fingerprint, id.index() as u64);
                fingerprint = fold(fingerprint, count as u64);
            }
            for id in store.segment_ids_of(node) {
                fingerprint = fold(fingerprint, store.segment_path(id).len() as u64);
                for &visit in store.segment_path(id) {
                    fingerprint = fold(fingerprint, visit.0 as u64);
                }
            }
        }
        StoreDigest {
            node_count,
            r: store.r(),
            total_visits: store.total_visits(),
            fingerprint,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::segment::SegmentId;
    use crate::walks::WalkStore;

    fn path(nodes: &[u32]) -> Vec<NodeId> {
        nodes.iter().map(|&n| NodeId(n)).collect()
    }

    #[test]
    fn identical_state_digests_identically_across_layouts() {
        let (n, r) = (10usize, 2usize);
        let mut flat = WalkStore::new(n, r);
        // The same walks written in reverse order, each after an outgrown first
        // draft: every slot relocates, so the arena geometry differs.
        let mut relocated = WalkStore::new(n, r);
        let p = |node: u32| path(&[node, (node + 1) % n as u32, (node + 5) % n as u32]);
        for node in 0..n as u32 {
            flat.set_segment(SegmentId::new(NodeId(node), 0, r), &p(node));
        }
        for node in (0..n as u32).rev() {
            let id = SegmentId::new(NodeId(node), 0, r);
            relocated.set_segment(id, &[NodeId(node); 20]);
            relocated.set_segment(id, &p(node));
        }
        assert_ne!(flat.arena_stats(), relocated.arena_stats());
        assert_eq!(StoreDigest::of(&flat), StoreDigest::of(&relocated));
    }

    #[test]
    fn any_state_difference_changes_the_digest() {
        let (n, r) = (6usize, 2usize);
        let mut a = WalkStore::new(n, r);
        let mut b = WalkStore::new(n, r);
        let id = SegmentId::new(NodeId(1), 1, r);
        a.set_segment(id, &path(&[1, 2, 3]));
        b.set_segment(id, &path(&[1, 2, 4]));
        let (da, db) = (StoreDigest::of(&a), StoreDigest::of(&b));
        assert_eq!(da.total_visits, db.total_visits);
        assert_ne!(da, db, "one differing visit must change the fingerprint");

        // Clearing the segment differs from never having set it only in arena
        // internals, not logical state: digests must agree with a fresh store.
        b.clear_segment(id);
        assert_eq!(StoreDigest::of(&b), StoreDigest::of(&WalkStore::new(n, r)));
    }
}
