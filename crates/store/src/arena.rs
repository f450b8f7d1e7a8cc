//! Flat step arena: the backing memory of the PageRank Store.
//!
//! Every stored walk segment used to own its path as a separate heap `Vec<NodeId>`,
//! which made the reroute hot path allocation-bound: each repair dropped one vector and
//! allocated another.  [`StepArena`] replaces that layout with **one shared step buffer**
//! plus a per-segment `(offset, len, cap)` slot:
//!
//! * a rewrite whose new path fits the slot's reserved capacity is a plain
//!   `copy_from_slice` into the shared buffer — **zero heap allocations**;
//! * a rewrite that outgrows its slot relocates the segment to the arena tail (amortised
//!   growth of the single shared vector) and leaves the old region behind as garbage;
//! * when the garbage exceeds the live data, the arena compacts in one linear pass,
//!   re-packing every slot with a fresh power-of-two reservation.
//!
//! Slot capacities are rounded up to powers of two (minimum [`MIN_SLOT_CAP`]), so in
//! steady state — segment lengths fluctuating around their geometric mean `1/ε` — almost
//! every reroute lands in place.  [`ArenaStats`] exposes the in-place/relocation split so
//! tests and benches can assert exactly that.

use ppr_graph::NodeId;

/// Smallest capacity reserved for a non-empty segment.  Expected segment length is
/// `1/ε` (5 visits at the paper's ε = 0.2) with a geometric tail, so 16 steps absorb all
/// but a few percent of segments outright.
pub const MIN_SLOT_CAP: usize = 16;

/// Filler value for reserved-but-unused arena cells (never read through a slot).
const FILLER: NodeId = NodeId(u32::MAX);

/// One segment's region of the arena.
#[derive(Debug, Clone, Copy, Default)]
struct Slot {
    offset: usize,
    len: u32,
    cap: u32,
}

/// Allocation-behaviour counters of a [`StepArena`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ArenaStats {
    /// Rewrites that fit their slot's existing capacity (no allocation, no new region).
    pub in_place_writes: u64,
    /// Rewrites that outgrew their slot and moved to the arena tail.
    pub relocations: u64,
    /// Number of whole-arena compaction passes performed.
    pub compactions: u64,
    /// Total wall time spent inside compaction passes, in nanoseconds.  Compactions
    /// run inline on the write path, so this is pure pause time as seen by callers —
    /// the number the ROADMAP's "compaction policy tuning" item needs.
    pub compaction_nanos: u64,
    /// Total live steps copied by compaction passes (the work a pass actually moves;
    /// 4 bytes per step).
    pub compaction_steps_moved: u64,
    /// Total live steps currently stored.
    pub live_steps: usize,
    /// Steps of garbage capacity left behind by relocations (reclaimed on compaction).
    pub dead_steps: usize,
    /// Total length of the shared step buffer (live + reserved + dead).
    pub buffer_len: usize,
}

/// A flat arena of walk steps with per-segment slots.
#[derive(Debug, Clone, Default)]
pub struct StepArena {
    steps: Vec<NodeId>,
    slots: Vec<Slot>,
    live: usize,
    dead: usize,
    in_place_writes: u64,
    relocations: u64,
    compactions: u64,
    compaction_nanos: u64,
    compaction_steps_moved: u64,
}

impl StepArena {
    /// Creates an arena with `slot_count` empty slots.
    pub fn new(slot_count: usize) -> Self {
        StepArena {
            slots: vec![Slot::default(); slot_count],
            ..StepArena::default()
        }
    }

    /// Number of slots (segments) addressed by the arena.
    #[inline]
    pub fn slot_count(&self) -> usize {
        self.slots.len()
    }

    /// Grows the arena to at least `n` slots; new slots start empty.
    pub fn ensure_slots(&mut self, n: usize) {
        if n > self.slots.len() {
            self.slots.resize(n, Slot::default());
        }
    }

    /// The stored path of slot `slot` (empty if never written or cleared).
    #[inline]
    pub fn path(&self, slot: usize) -> &[NodeId] {
        let s = self.slots[slot];
        &self.steps[s.offset..s.offset + s.len as usize]
    }

    /// Length of the stored path of slot `slot`.
    #[inline]
    pub fn len_of(&self, slot: usize) -> usize {
        self.slots[slot].len as usize
    }

    /// Replaces the path of slot `slot`.  Writes in place when the new path fits the
    /// slot's reserved capacity; relocates to the arena tail (and eventually compacts)
    /// otherwise.
    pub fn write(&mut self, slot: usize, path: &[NodeId]) {
        let s = self.slots[slot];
        self.live = self.live - s.len as usize + path.len();
        if path.len() <= s.cap as usize {
            self.steps[s.offset..s.offset + path.len()].copy_from_slice(path);
            self.slots[slot].len = path.len() as u32;
            self.in_place_writes += 1;
            return;
        }
        self.dead += s.cap as usize;
        // First fills get a tight reservation; growth relocations double it, so a slot
        // whose segment keeps drawing longer geometric suffixes relocates O(1) times
        // over its lifetime instead of on every record-length draw.
        let cap = if s.cap == 0 {
            Self::reservation(path.len())
        } else {
            Self::reservation(path.len() * 2)
        };
        let offset = self.steps.len();
        self.steps.extend_from_slice(path);
        self.steps.resize(offset + cap, FILLER);
        self.slots[slot] = Slot {
            offset,
            len: path.len() as u32,
            cap: cap as u32,
        };
        self.relocations += 1;
        self.maybe_compact();
    }

    /// Empties slot `slot`, keeping its reserved capacity for reuse.
    pub fn clear(&mut self, slot: usize) {
        self.live -= self.slots[slot].len as usize;
        self.slots[slot].len = 0;
    }

    /// Snapshot of the allocation-behaviour counters.
    pub fn stats(&self) -> ArenaStats {
        ArenaStats {
            in_place_writes: self.in_place_writes,
            relocations: self.relocations,
            compactions: self.compactions,
            compaction_nanos: self.compaction_nanos,
            compaction_steps_moved: self.compaction_steps_moved,
            live_steps: self.live,
            dead_steps: self.dead,
            buffer_len: self.steps.len(),
        }
    }

    /// Every slot's `(offset, len, cap)`: the layout two arenas are compared by.
    #[cfg(test)]
    pub(crate) fn geometry(&self) -> Vec<(usize, u32, u32)> {
        self.slots
            .iter()
            .map(|s| (s.offset, s.len, s.cap))
            .collect()
    }

    /// Capacity reserved for a path of `len` steps: next power of two, at least
    /// [`MIN_SLOT_CAP`].
    #[inline]
    fn reservation(len: usize) -> usize {
        len.next_power_of_two().max(MIN_SLOT_CAP)
    }

    /// Compacts when relocation garbage exceeds the live data — the classic half-dead
    /// rule: amortised O(1) per relocated step, and the buffer never exceeds ~2× its
    /// packed size for long.  A floor of `MIN_SLOT_CAP / 2` garbage steps per slot
    /// keeps tiny stores from compacting on every relocation.
    fn maybe_compact(&mut self) {
        if self.dead <= self.live.max(MIN_SLOT_CAP * self.slots.len() / 2) {
            return;
        }
        let started = std::time::Instant::now();
        let reserved: usize = self
            .slots
            .iter()
            .map(|s| Self::reservation(s.len as usize))
            .sum();
        let mut packed = Vec::with_capacity(reserved);
        for s in &mut self.slots {
            let cap = Self::reservation(s.len as usize);
            let offset = packed.len();
            packed.extend_from_slice(&self.steps[s.offset..s.offset + s.len as usize]);
            packed.resize(offset + cap, FILLER);
            s.offset = offset;
            s.cap = cap as u32;
        }
        self.steps = packed;
        self.dead = 0;
        self.compactions += 1;
        self.compaction_steps_moved += self.live as u64;
        self.compaction_nanos += started.elapsed().as_nanos() as u64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nodes(ids: &[u32]) -> Vec<NodeId> {
        ids.iter().map(|&i| NodeId(i)).collect()
    }

    #[test]
    fn write_and_read_roundtrip() {
        let mut arena = StepArena::new(3);
        arena.write(1, &nodes(&[4, 5, 6]));
        assert_eq!(arena.path(1), nodes(&[4, 5, 6]).as_slice());
        assert_eq!(arena.path(0), &[]);
        assert_eq!(arena.len_of(1), 3);
        assert_eq!(arena.stats().live_steps, 3);
    }

    #[test]
    fn rewrites_within_capacity_do_not_relocate() {
        let mut arena = StepArena::new(1);
        arena.write(0, &nodes(&[1, 2, 3]));
        let relocations = arena.stats().relocations;
        for round in 0..100u32 {
            // Lengths 1..=8 all fit the minimum 8-step reservation.
            let path: Vec<NodeId> = (0..(round % 8 + 1)).map(NodeId).collect();
            arena.write(0, &path);
        }
        let stats = arena.stats();
        assert_eq!(stats.relocations, relocations, "all rewrites fit in place");
        assert_eq!(stats.in_place_writes, 100);
    }

    #[test]
    fn outgrowing_a_slot_relocates_and_preserves_content() {
        let mut arena = StepArena::new(2);
        arena.write(0, &nodes(&[1, 2]));
        arena.write(1, &nodes(&[3]));
        let long: Vec<NodeId> = (0..50).map(NodeId).collect();
        arena.write(0, &long);
        assert_eq!(arena.path(0), long.as_slice());
        assert_eq!(arena.path(1), nodes(&[3]).as_slice());
        assert!(arena.stats().relocations >= 3);
    }

    #[test]
    fn clear_keeps_capacity_for_reuse() {
        let mut arena = StepArena::new(1);
        arena.write(0, &nodes(&[1, 2, 3]));
        arena.clear(0);
        assert_eq!(arena.path(0), &[]);
        assert_eq!(arena.stats().live_steps, 0);
        let before = arena.stats().relocations;
        arena.write(0, &nodes(&[7, 8]));
        assert_eq!(arena.stats().relocations, before, "cleared slot reused");
        assert_eq!(arena.path(0), nodes(&[7, 8]).as_slice());
    }

    #[test]
    fn compaction_reclaims_garbage_and_keeps_all_paths() {
        let mut arena = StepArena::new(8);
        // Lengths just past each power of two force a relocation per write, piling up
        // abandoned regions until the half-dead rule fires.
        for &len in &[9u32, 17, 33, 65] {
            for slot in 0..8 {
                let path: Vec<NodeId> = (0..len).map(NodeId).collect();
                arena.write(slot, &path);
            }
        }
        let stats = arena.stats();
        assert!(
            stats.compactions > 0,
            "garbage should have forced compaction"
        );
        assert!(
            stats.compaction_steps_moved >= stats.compactions * 8,
            "each pass moves at least the live steps of the 8 slots: {stats:?}"
        );
        assert!(
            stats.compaction_nanos > 0,
            "compaction pause time must be recorded: {stats:?}"
        );
        assert!(
            stats.dead_steps <= stats.live_steps.max(MIN_SLOT_CAP * 8 / 2),
            "compaction keeps garbage below the live data: {stats:?}"
        );
        for slot in 0..8 {
            let expect: Vec<NodeId> = (0..65).map(NodeId).collect();
            assert_eq!(arena.path(slot), expect.as_slice());
        }
    }

    #[test]
    fn ensure_slots_grows_but_never_shrinks() {
        let mut arena = StepArena::new(2);
        arena.write(1, &nodes(&[9]));
        arena.ensure_slots(5);
        assert_eq!(arena.slot_count(), 5);
        assert_eq!(arena.path(1), nodes(&[9]).as_slice());
        arena.ensure_slots(1);
        assert_eq!(arena.slot_count(), 5);
    }

    #[test]
    fn empty_write_into_fresh_slot_is_in_place() {
        let mut arena = StepArena::new(1);
        arena.write(0, &[]);
        assert_eq!(arena.stats().relocations, 0);
        assert_eq!(arena.stats().in_place_writes, 1);
        assert_eq!(arena.path(0), &[]);
    }
}
