//! Instrumentation counters.
//!
//! The paper's efficiency claims are stated in terms of abstract work units — fetches
//! against the Social Store, walk segments rebuilt, walk steps re-simulated — rather
//! than wall-clock time on Twitter's hardware.  These counters make those quantities
//! observable so the experiments can compare measured work against the theoretical
//! bounds (Theorems 4, 6, 8; Proposition 5; Corollary 9).

use std::sync::atomic::{AtomicU64, Ordering};

/// Counters exposed by the [`crate::SocialStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StoreMetrics {
    /// Number of `fetch` operations (the quantity bounded by Theorem 8 / Corollary 9 and
    /// plotted in Figure 6).
    pub fetches: u64,
    /// Total number of adjacency entries returned by fetches.
    pub edges_returned: u64,
    /// Number of single-neighbour random samples served without a full fetch (the
    /// Remark 1 variant of the fetch operation).
    pub sampled_neighbor_queries: u64,
    /// Number of edge insertions applied to the store.
    pub edge_insertions: u64,
    /// Number of edge deletions applied to the store.
    pub edge_deletions: u64,
}

/// Generates the atomic counter block mirroring [`StoreMetrics`] from one field
/// list, so snapshot / reset / snapshot-and-reset can never drift out of sync
/// with the struct (the boilerplate they used to duplicate by hand).
///
/// Concurrency contract: every cell is an independent monotone accumulator
/// written with `Relaxed` adds — there is no cross-field invariant, so readers
/// may see a mid-batch mix of fields but never a torn or invented count.
/// `snapshot_and_reset` uses per-field `swap`, which makes each *field's*
/// reset atomic: an increment lands either in the returned snapshot or in the
/// next window, never in both and never lost (a plain load-then-store reset
/// could drop increments that race between the two).
macro_rules! define_atomic_store_metrics {
    ($($field:ident),+ $(,)?) => {
        /// Thread-safe counter block backing [`StoreMetrics`].
        #[derive(Debug, Default)]
        pub(crate) struct AtomicStoreMetrics {
            $(pub $field: AtomicU64,)+
        }

        impl AtomicStoreMetrics {
            pub(crate) fn snapshot(&self) -> StoreMetrics {
                StoreMetrics {
                    $($field: self.$field.load(Ordering::Relaxed),)+
                }
            }

            pub(crate) fn reset(&self) {
                $(self.$field.store(0, Ordering::Relaxed);)+
            }

            /// Atomically (per field) reads and zeroes the counters: the window
            /// boundary of interval-based samplers.  No increment is observable
            /// in both the returned snapshot and the post-reset counters.
            pub(crate) fn snapshot_and_reset(&self) -> StoreMetrics {
                StoreMetrics {
                    $($field: self.$field.swap(0, Ordering::Relaxed),)+
                }
            }
        }
    };
}

define_atomic_store_metrics!(
    fetches,
    edges_returned,
    sampled_neighbor_queries,
    edge_insertions,
    edge_deletions,
);

/// Accumulator for the update work performed by the incremental engines.
///
/// One unit of `walk_steps` corresponds to one random-walk step re-simulated, which is
/// the unit in which Theorem 4 states its `nR ln m / ε²` bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WorkCounter {
    /// Number of walk segments that were rerouted or rebuilt.
    pub segments_updated: u64,
    /// Number of random-walk steps executed while rerouting/rebuilding segments.
    pub walk_steps: u64,
    /// Number of edge arrivals processed.
    pub edges_processed: u64,
    /// Number of arrivals that were filtered out without touching the PageRank Store
    /// (the `1 - (1 - 1/d(v))^{W(v)}` pre-check of Section 2.2).
    pub arrivals_filtered: u64,
}

impl WorkCounter {
    /// Creates a zeroed counter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds another counter's totals into this one.
    pub fn merge(&mut self, other: &WorkCounter) {
        self.segments_updated += other.segments_updated;
        self.walk_steps += other.walk_steps;
        self.edges_processed += other.edges_processed;
        self.arrivals_filtered += other.arrivals_filtered;
    }

    /// [`Self::merge`] that leaves this counter untouched and returns `None` when a
    /// total would overflow (for counts read off disk).
    pub fn checked_merge(&mut self, other: &WorkCounter) -> Option<()> {
        *self = WorkCounter {
            segments_updated: self.segments_updated.checked_add(other.segments_updated)?,
            walk_steps: self.walk_steps.checked_add(other.walk_steps)?,
            edges_processed: self.edges_processed.checked_add(other.edges_processed)?,
            arrivals_filtered: self
                .arrivals_filtered
                .checked_add(other.arrivals_filtered)?,
        };
        Some(())
    }

    /// Total abstract work: walk steps plus one unit per segment touched.
    pub fn total_work(&self) -> u64 {
        self.walk_steps + self.segments_updated
    }

    /// Average walk steps per processed arrival; zero if nothing was processed.
    pub fn steps_per_edge(&self) -> f64 {
        if self.edges_processed == 0 {
            0.0
        } else {
            self.walk_steps as f64 / self.edges_processed as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn atomic_snapshot_and_reset() {
        let metrics = AtomicStoreMetrics::default();
        metrics.fetches.fetch_add(3, Ordering::Relaxed);
        metrics.edges_returned.fetch_add(10, Ordering::Relaxed);
        let snap = metrics.snapshot();
        assert_eq!(snap.fetches, 3);
        assert_eq!(snap.edges_returned, 10);
        assert_eq!(snap.edge_insertions, 0);
        metrics.reset();
        assert_eq!(metrics.snapshot(), StoreMetrics::default());
    }

    #[test]
    fn snapshot_and_reset_hands_over_every_count_exactly_once() {
        let metrics = AtomicStoreMetrics::default();
        metrics.fetches.fetch_add(7, Ordering::Relaxed);
        metrics.edge_deletions.fetch_add(2, Ordering::Relaxed);
        let window = metrics.snapshot_and_reset();
        assert_eq!(window.fetches, 7);
        assert_eq!(window.edge_deletions, 2);
        assert_eq!(metrics.snapshot(), StoreMetrics::default());
        metrics.fetches.fetch_add(1, Ordering::Relaxed);
        assert_eq!(metrics.snapshot_and_reset().fetches, 1);
    }

    #[test]
    fn work_counter_merge_and_totals() {
        let mut a = WorkCounter {
            segments_updated: 2,
            walk_steps: 10,
            edges_processed: 4,
            arrivals_filtered: 1,
        };
        let b = WorkCounter {
            segments_updated: 1,
            walk_steps: 5,
            edges_processed: 2,
            arrivals_filtered: 0,
        };
        a.merge(&b);
        assert_eq!(a.segments_updated, 3);
        assert_eq!(a.walk_steps, 15);
        assert_eq!(a.edges_processed, 6);
        assert_eq!(a.arrivals_filtered, 1);
        assert_eq!(a.total_work(), 18);
        assert!((a.steps_per_edge() - 2.5).abs() < 1e-12);

        let mut checked = b;
        assert_eq!(checked.checked_merge(&b), Some(()));
        let mut doubled = b;
        doubled.merge(&b);
        assert_eq!(checked, doubled);
        let full = WorkCounter {
            walk_steps: u64::MAX,
            ..b
        };
        assert_eq!(checked.checked_merge(&full), None, "one field overflows");
        assert_eq!(checked, doubled, "and nothing changed");
    }

    #[test]
    fn steps_per_edge_handles_zero_edges() {
        assert_eq!(WorkCounter::new().steps_per_edge(), 0.0);
    }
}
