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

/// Default garbage-to-live ratio of the compaction trigger: the classic half-dead
/// rule (compact when relocation garbage exceeds the live data).
pub const DEFAULT_COMPACT_RATIO: f64 = 1.0;

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
#[derive(Debug, Clone)]
pub struct StepArena {
    steps: Vec<NodeId>,
    slots: Vec<Slot>,
    live: usize,
    dead: usize,
    /// Garbage-to-live ratio above which a relocation triggers compaction (the
    /// half-dead rule generalized; see [`StepArena::set_compaction_threshold`]).
    compact_ratio: f64,
    in_place_writes: u64,
    relocations: u64,
    compactions: u64,
    compaction_nanos: u64,
    compaction_steps_moved: u64,
}

impl Default for StepArena {
    fn default() -> Self {
        StepArena {
            steps: Vec::new(),
            slots: Vec::new(),
            live: 0,
            dead: 0,
            compact_ratio: DEFAULT_COMPACT_RATIO,
            in_place_writes: 0,
            relocations: 0,
            compactions: 0,
            compaction_nanos: 0,
            compaction_steps_moved: 0,
        }
    }
}

impl StepArena {
    /// Creates an arena with `slot_count` empty slots.
    pub fn new(slot_count: usize) -> Self {
        StepArena {
            slots: vec![Slot::default(); slot_count],
            ..StepArena::default()
        }
    }

    /// Sets the garbage-to-live ratio above which a relocation triggers a compaction
    /// pass.  The default `1.0` is the classic half-dead rule (compact when garbage
    /// exceeds the live data); a tighter ratio trades more frequent compaction pauses
    /// for a smaller buffer — the [`ArenaStats`] counters measure both sides of that
    /// trade.  A small floor of `MIN_SLOT_CAP / 2` garbage steps per slot always
    /// applies, so tiny stores do not compact on every relocation.
    ///
    /// # Panics
    ///
    /// Panics unless `ratio` is finite and positive.
    pub fn set_compaction_threshold(&mut self, ratio: f64) {
        assert!(
            ratio.is_finite() && ratio > 0.0,
            "compaction threshold must be a positive ratio, got {ratio}"
        );
        self.compact_ratio = ratio;
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

    /// Compacts when relocation garbage exceeds `compact_ratio` times the live data
    /// (at the default ratio of 1.0 this is the classic half-dead rule: amortised O(1)
    /// per relocated step, and the buffer never exceeds ~2× its packed size for long).
    fn maybe_compact(&mut self) {
        let threshold = (self.live as f64 * self.compact_ratio)
            .max((MIN_SLOT_CAP * self.slots.len() / 2) as f64);
        if self.dead as f64 <= threshold {
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
    fn tighter_compaction_threshold_reduces_live_byte_waste_on_churn() {
        // The satellite regression for the `compaction_threshold` knob: the same
        // relocation-heavy churn (each write just past the previous power-of-two
        // cap abandons a region) run at the default half-dead rule and at a 4x
        // tighter ratio.  The tight arena must compact more often and carry strictly
        // less garbage — buying a smaller buffer with more (measured) pause time.
        let run = |ratio: f64| {
            let mut arena = StepArena::new(16);
            arena.set_compaction_threshold(ratio);
            for round in 0..6u32 {
                let len = 9 * (1 << round); // 9, 18, 36, ... always past the cap
                for slot in 0..16 {
                    let path: Vec<NodeId> = (0..len).map(NodeId).collect();
                    arena.write(slot, &path);
                }
            }
            arena.stats()
        };
        let default = run(DEFAULT_COMPACT_RATIO);
        let tight = run(0.25);
        assert_eq!(
            tight.live_steps, default.live_steps,
            "identical churn stores identical live data"
        );
        assert!(
            tight.compactions > default.compactions,
            "a tighter ratio must compact more often: {tight:?} vs {default:?}"
        );
        assert!(
            tight.dead_steps < default.dead_steps,
            "a tighter ratio must leave less garbage: {} vs {}",
            tight.dead_steps,
            default.dead_steps
        );
        // The knob's invariant: garbage stays below ratio * live (+ the slot floor).
        let floor = (MIN_SLOT_CAP * 16 / 2) as f64;
        assert!(
            tight.dead_steps as f64 <= (tight.live_steps as f64 * 0.25).max(floor),
            "tight arena exceeded its garbage bound: {tight:?}"
        );
    }

    #[test]
    #[should_panic(expected = "positive ratio")]
    fn compaction_threshold_rejects_zero() {
        StepArena::new(1).set_compaction_threshold(0.0);
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
