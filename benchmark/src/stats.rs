//! Order statistics the benchmark reports: nearest-rank percentiles, the
//! "ten samples beyond it" rule, and the quartile spread the acceptance check
//! uses (`statistics.quantiles(values, n=4)` as Python computes it).

/// Nearest-rank percentile `p` in `(0, 1]` of unsorted samples; 0 when empty.
pub fn percentile(samples: &[u64], p: f64) -> u64 {
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    nearest_rank(&sorted, p)
}

/// How many contiguous segments a run's samples are cut into, and the fewest
/// samples a segment may hold (a p50 over a handful of samples is noise).
pub const SEGMENTS: usize = 16;
const SEGMENT_MIN: usize = 24;

/// Which way a statistic improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// The contiguous segments, in recording order, [`best_stretch`] works on:
/// [`SEGMENTS`] of them, fewer when that would leave under 24 samples each.
pub fn segments<T>(items: &[T]) -> impl Iterator<Item = &[T]> {
    let count = SEGMENTS.min(items.len() / SEGMENT_MIN).max(1);
    (0..count).map(move |i| &items[i * items.len() / count..(i + 1) * items.len() / count])
}

/// `stat` over each segment of the run, and of those the second best (of 16;
/// with fewer segments, the best).
///
/// The box the benchmark runs on has two speeds: for seconds or minutes at a
/// time everything runs about 1.6 times slower, then recovers.  A statistic
/// over the whole run, or the median of per-segment statistics, lands on one
/// level or the other depending on which state held for most of the run, and
/// so reads ±30 % between identical runs.  The disturbance only ever slows
/// things down, so the second best segment reads the undisturbed level
/// whenever an eighth of the run was undisturbed — and being the second, not
/// the best, it is not one lucky stretch.  What it cannot see is a stall that
/// leaves two segments untouched; the per-layer
/// tails (`serve.commit_p99_us`, `persist.checkpoint_max_ms`) are there for
/// that.
pub fn best_stretch<T>(items: &[T], better: Better, stat: impl Fn(&[T]) -> f64) -> f64 {
    if items.is_empty() {
        return 0.0;
    }
    let mut per_segment: Vec<f64> = segments(items).map(stat).collect();
    per_segment.sort_by(f64::total_cmp);
    if better == Better::Higher {
        per_segment.reverse();
    }
    per_segment[(per_segment.len() - 1) / 8]
}

/// The best of a few repetitions of one operation (set-up, restart), for the
/// same reason: the repetitions are spread over the run, and the disturbance
/// only adds time.
pub fn best_of(values: &[f64]) -> f64 {
    values
        .iter()
        .copied()
        .fold(f64::INFINITY, f64::min)
        .min(f64::MAX)
}

/// Nearest-rank percentile of an ascending slice: the smallest value with at
/// least `p · n` samples at or below it.
pub fn nearest_rank(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The highest of p999/p99/p90/p50 that still has at least ten samples beyond
/// it in a bag of `n`; `None` when even the median does not.
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    // In whole per-mille, so that 100 samples do support p90.
    [999usize, 990, 900, 500]
        .into_iter()
        .find(|per_mille| n * (1_000 - per_mille) / 1_000 >= 10)
        .map(|per_mille| per_mille as f64 / 1_000.0)
}

/// Median of a float slice (mean of the middle pair for even lengths).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First and third quartile as `statistics.quantiles(values, n=4)` gives them
/// (the default "exclusive" method).  Needs at least two values.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(values.len() >= 2, "quartiles need at least two values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let len = v.len();
    let cut = |i: usize| {
        let m = len + 1;
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Distance between the quartiles as a share of the median — the spread the
/// acceptance check holds against each metric's bound.
pub fn quartile_spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    let mid = median(values);
    if mid == 0.0 {
        0.0
    } else {
        (q3 - q1) / mid.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_the_textbook_definition() {
        let sorted: Vec<u64> = (1..=100).collect();
        assert_eq!(nearest_rank(&sorted, 0.5), 50);
        assert_eq!(nearest_rank(&sorted, 0.9), 90);
        assert_eq!(nearest_rank(&sorted, 0.99), 99);
        assert_eq!(nearest_rank(&sorted, 1.0), 100);
        assert_eq!(nearest_rank(&[15, 20, 35, 40, 50], 0.3), 20);
        assert_eq!(nearest_rank(&[15, 20, 35, 40, 50], 0.4), 20);
        assert_eq!(nearest_rank(&[15, 20, 35, 40, 50], 0.41), 35);
        assert_eq!(nearest_rank(&[7], 0.999), 7);
        assert_eq!(nearest_rank(&[], 0.5), 0);
    }

    #[test]
    fn percentile_sorts_a_copy() {
        let samples = [40, 10, 30, 20];
        assert_eq!(percentile(&samples, 0.5), 20);
        assert_eq!(percentile(&samples, 1.0), 40);
        assert_eq!(samples, [40, 10, 30, 20]);
    }

    #[test]
    fn best_stretch_reads_the_undisturbed_level() {
        let p50 = |segment: &[u64]| percentile(segment, 0.5) as f64;
        let mean = |segment: &[u64]| segment.iter().sum::<u64>() as f64 / segment.len() as f64;
        // 1600 samples of 10; a disturbance raises 60 % of the run to 16.
        let mut samples = vec![10u64; 1_600];
        samples[300..1_260].fill(16);
        assert_eq!(best_stretch(&samples, Better::Lower, p50), 10.0);
        assert_eq!(best_stretch(&samples, Better::Lower, mean), 10.0);
        assert_eq!(
            percentile(&samples, 0.5),
            16,
            "the plain median lands on the slow level"
        );
        // A rate improves upwards: the same run as operations per unit time.
        let rate = |segment: &[u64]| 1_000.0 / mean(segment);
        assert_eq!(best_stretch(&samples, Better::Higher, rate), 100.0);
        // With a single undisturbed segment left it reads the disturbed level.
        samples[100..].fill(16);
        assert_eq!(best_stretch(&samples, Better::Lower, p50), 16.0);
        // Segments keep recording order and cover every sample exactly once.
        let lens: Vec<usize> = segments(&samples[..1_590]).map(<[u64]>::len).collect();
        assert_eq!(lens.len(), SEGMENTS);
        assert_eq!(lens.iter().sum::<usize>(), 1_590);
        assert!(lens.iter().all(|&len| len == 99 || len == 100));
        // Too few samples for sixteen segments of 24: fall back to fewer.
        assert_eq!(segments(&samples[..100]).count(), 4);
        assert_eq!(segments(&[1u64, 2, 3]).count(), 1);
        assert_eq!(best_stretch(&[1u64, 2, 3], Better::Lower, mean), 2.0);
        assert_eq!(best_stretch(&[] as &[u64], Better::Lower, mean), 0.0);
        assert_eq!(best_of(&[1.4, 1.2, 1.9]), 1.2);
    }

    #[test]
    fn ten_samples_beyond_rule_picks_the_highest_supported_percentile() {
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(20), Some(0.5));
        assert_eq!(highest_supported_percentile(99), Some(0.5));
        assert_eq!(highest_supported_percentile(100), Some(0.9));
        assert_eq!(highest_supported_percentile(999), Some(0.9));
        assert_eq!(highest_supported_percentile(1_000), Some(0.99));
        assert_eq!(highest_supported_percentile(10_000), Some(0.999));
    }

    #[test]
    fn quartiles_agree_with_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        assert_eq!(median(&v), 5.5);
        assert!((quartile_spread(&v) - 1.0).abs() < 1e-12);
        // statistics.quantiles([3, 1, 4, 1, 5], n=4) == [1.0, 3.0, 4.5]
        assert_eq!(quartiles(&[3.0, 1.0, 4.0, 1.0, 5.0]), (1.0, 4.5));
        // statistics.quantiles([2, 9], n=4) == [0.25, 5.5, 10.75]
        assert_eq!(quartiles(&[2.0, 9.0]), (0.25, 10.75));
    }
}
