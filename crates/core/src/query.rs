//! Split RNG streams for queries: the read-side analogue of the write path's
//! `repair_seed` streams.
//!
//! *Writes* are deterministic because every `(batch, pivot, segment)` repair draws
//! from its own RNG stream.  This module extends the same
//! contract to *reads*: a query draws from a stream derived purely from
//! `(query_seed, query_id)`, never from engine state or a walker's call history — so
//! the answer to a query is a function of the store generation it reads and nothing
//! else.  Which thread serves the query, how queries interleave with each other or
//! with write batches, and how many reader threads a deployment runs are all
//! irrelevant: the same `(generation, query_seed, query_id)` always produces the
//! bit-identical result, which is what `tests/concurrent_serving.rs` proves and the
//! experiment harness (`fig5`/`fig6`) relies on to parallelize its query loops.

use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Derives the seed of one query's RNG stream from `(query_seed, query_id)`.
///
/// `query_seed` identifies the workload (an experiment's master seed, a serving
/// session's seed); `query_id` identifies one query within it.  The splitmix64
/// finalizer decorrelates neighbouring ids, exactly like the write path's
/// `repair_seed`.
pub fn query_stream_seed(query_seed: u64, query_id: u64) -> u64 {
    let mut x =
        query_seed ^ query_id.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x5151_5151_5151_5151u64;
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The RNG of one query: a fresh generator on the `(query_seed, query_id)` stream.
pub fn query_rng(query_seed: u64, query_id: u64) -> SmallRng {
    SmallRng::seed_from_u64(query_stream_seed(query_seed, query_id))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn streams_are_distinct_and_reproducible() {
        let base = query_stream_seed(7, 0);
        assert_ne!(base, query_stream_seed(7, 1));
        assert_ne!(base, query_stream_seed(8, 0));
        assert_eq!(base, query_stream_seed(7, 0));
        let a: Vec<u64> = (0..8)
            .map(|_| query_rng(7, 3).gen_range(0..1u64 << 40))
            .collect();
        let b: Vec<u64> = (0..8)
            .map(|_| query_rng(7, 3).gen_range(0..1u64 << 40))
            .collect();
        assert_eq!(a, b, "the same stream always replays identically");
    }

    #[test]
    fn neighbouring_ids_decorrelate() {
        // Weak smoke check: the low bits of consecutive streams are not a counter.
        let bits: Vec<u64> = (0..64).map(|i| query_stream_seed(1, i) & 1).collect();
        let ones: u64 = bits.iter().sum();
        assert!((16..=48).contains(&ones), "low bits look biased: {ones}/64");
    }
}
