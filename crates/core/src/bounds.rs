//! Closed-form bounds from the paper, used by tests and by the experiment harness to
//! draw the "theoretical" curves next to the measured ones.
//!
//! | Function | Paper statement |
//! |---|---|
//! | [`per_arrival_update_work`] | Theorem 4, per-arrival form `nR/(t ε²)` |
//! | [`total_update_work`] | Theorem 4, total form `nR·H_m/ε² ≤ nR ln m/ε²` |
//! | [`deletion_update_work`] | Proposition 5, `nR/(m ε²)` |
//! | [`salsa_total_update_work`] | Theorem 6, `16 nR ln m/ε²` |
//! | [`walk_length_for_top_k`] | Equation 4, `s_k = c·k·(n/k)^{1−α}/(1−α)` |
//! | [`expected_fetches`] | Theorem 8, `1 + (2(1−α)/nR)^{1/α−1}·s^{1/α}` |
//! | [`top_k_fetches`] | Corollary 9, `1 + c^{1/α} k / ((1−α)(R/2)^{1/α−1})` |
//!
//! Equation 4 and Corollary 9 together are the whole price of a personalized
//! query — `s_k` visits and that many fetches — and [`crate::personalized`] holds
//! its implementation to it: time `O(s + Σ fetched out-degree)`, scratch `O(s)`,
//! neither growing with `n` beyond what `s_k` itself asks for.

/// Expected walk-segment update work when the `t`-th edge arrives (Theorem 4):
/// `nR / (t ε²)` walk steps.
pub fn per_arrival_update_work(n: usize, r: usize, t: usize, epsilon: f64) -> f64 {
    assert!(t >= 1, "arrivals are numbered from 1");
    check_epsilon(epsilon);
    n as f64 * r as f64 / (t as f64 * epsilon * epsilon)
}

/// Expected total update work over `m` random-order arrivals (Theorem 4):
/// `nR·H_m/ε²`, which is at most `nR ln m/ε²` plus the `t = 1` term.
pub fn total_update_work(n: usize, r: usize, m: usize, epsilon: f64) -> f64 {
    check_epsilon(epsilon);
    let harmonic: f64 = (1..=m).map(|t| 1.0 / t as f64).sum();
    n as f64 * r as f64 * harmonic / (epsilon * epsilon)
}

/// Expected update work for deleting one uniformly random edge from a graph with `m`
/// edges (Proposition 5): `nR / (m ε²)`.
pub fn deletion_update_work(n: usize, r: usize, m: usize, epsilon: f64) -> f64 {
    assert!(m >= 1, "the graph must have at least one edge to delete");
    check_epsilon(epsilon);
    n as f64 * r as f64 / (m as f64 * epsilon * epsilon)
}

/// Expected total SALSA update work over `m` random-order arrivals (Theorem 6):
/// `16·nR·ln m/ε²`.
pub fn salsa_total_update_work(n: usize, r: usize, m: usize, epsilon: f64) -> f64 {
    check_epsilon(epsilon);
    16.0 * n as f64 * r as f64 * (m.max(2) as f64).ln() / (epsilon * epsilon)
}

/// Walk length needed to see each of the top `k` nodes `c` times in expectation under
/// the power-law model with exponent `alpha` over `n` nodes (Equation 4):
/// `s_k = c·k·(n/k)^{1−α}/(1−α)`.
pub fn walk_length_for_top_k(k: usize, c: f64, alpha: f64, n: usize) -> f64 {
    check_alpha(alpha);
    assert!(k >= 1 && n >= k, "need 1 <= k <= n");
    assert!(c > 0.0, "the target visit count must be positive");
    c / (1.0 - alpha) * k as f64 * (n as f64 / k as f64).powf(1.0 - alpha)
}

/// Expected number of fetches needed to take a stitched walk of length `s` when every
/// node caches `R` segments, under the power-law model with exponent `alpha` over `n`
/// nodes (Theorem 8): `1 + (2(1−α)/(nR))^{1/α − 1}·s^{1/α}`.
pub fn expected_fetches(s: f64, n: usize, r: usize, alpha: f64) -> f64 {
    check_alpha(alpha);
    assert!(s >= 0.0, "walk length must be non-negative");
    assert!(r >= 1, "at least one cached segment per node is required");
    let base = 2.0 * (1.0 - alpha) / (n as f64 * r as f64);
    1.0 + base.powf(1.0 / alpha - 1.0) * s.powf(1.0 / alpha)
}

/// Expected number of fetches needed to find the top `k` personalized nodes
/// (Corollary 9): `1 + c^{1/α}·k / ((1−α)·(R/2)^{1/α − 1})`.
pub fn top_k_fetches(k: usize, c: f64, alpha: f64, r: usize) -> f64 {
    check_alpha(alpha);
    assert!(k >= 1, "k must be positive");
    assert!(c > 0.0 && r >= 1);
    1.0 + c.powf(1.0 / alpha) * k as f64
        / ((1.0 - alpha) * (r as f64 / 2.0).powf(1.0 / alpha - 1.0))
}

fn check_epsilon(epsilon: f64) {
    assert!(
        epsilon > 0.0 && epsilon < 1.0,
        "epsilon must be in (0, 1), got {epsilon}"
    );
}

fn check_alpha(alpha: f64) {
    assert!(
        alpha > 0.0 && alpha < 1.0,
        "the power-law exponent must be in (0, 1), got {alpha}"
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_arrival_work_decays_like_one_over_t() {
        let w1 = per_arrival_update_work(1_000, 5, 1, 0.2);
        let w10 = per_arrival_update_work(1_000, 5, 10, 0.2);
        assert!((w1 / w10 - 10.0).abs() < 1e-9);
        assert!((w1 - 1_000.0 * 5.0 / 0.04).abs() < 1e-6);
    }

    #[test]
    fn total_work_is_harmonic_sum_of_per_arrival_work() {
        let n = 500;
        let r = 3;
        let m = 200;
        let eps = 0.25;
        let total = total_update_work(n, r, m, eps);
        let summed: f64 = (1..=m).map(|t| per_arrival_update_work(n, r, t, eps)).sum();
        assert!((total - summed).abs() < 1e-6);
        // And it is bounded by nR (ln m + 1) / ε².
        let upper = n as f64 * r as f64 * ((m as f64).ln() + 1.0) / (eps * eps);
        assert!(total <= upper);
    }

    #[test]
    fn deletion_work_matches_proposition_5() {
        let w = deletion_update_work(1_000, 5, 10_000, 0.2);
        assert!((w - 1_000.0 * 5.0 / (10_000.0 * 0.04)).abs() < 1e-9);
        // Deleting from a larger graph is cheaper.
        assert!(deletion_update_work(1_000, 5, 100_000, 0.2) < w);
    }

    #[test]
    fn salsa_work_is_sixteen_times_pagerank_leading_term() {
        let n = 1_000;
        let r = 5;
        let m = 10_000;
        let eps = 0.2;
        let pagerank_leading = n as f64 * r as f64 * (m as f64).ln() / (eps * eps);
        assert!((salsa_total_update_work(n, r, m, eps) / pagerank_leading - 16.0).abs() < 1e-9);
    }

    #[test]
    fn remark_2_walk_length_matches_the_paper() {
        // α = 0.75, c = 5, R = 10, k = 100, n = 10⁸: the paper reports s_k ≈ 632·k.
        let s_k = walk_length_for_top_k(100, 5.0, 0.75, 100_000_000);
        assert!(
            (s_k / 100.0 - 632.0).abs() < 1.0,
            "expected ≈ 632 steps per result, got {}",
            s_k / 100.0
        );
    }

    #[test]
    fn remark_2_fetch_bound_matches_the_paper() {
        // Same parameters: the paper reports ≈ 20·k = 2000 fetches.
        let fetches = top_k_fetches(100, 5.0, 0.75, 10);
        assert!(
            (fetches / 100.0 - 20.0).abs() < 0.2,
            "expected ≈ 20 fetches per result, got {}",
            fetches / 100.0
        );
    }

    #[test]
    fn corollary_9_is_theorem_8_evaluated_at_s_k() {
        // Plugging s_k (Eq. 4) into Theorem 8 must give Corollary 9 (up to the constant
        // "+1" bookkeeping the paper also keeps).
        let (k, c, alpha, r, n) = (50usize, 4.0, 0.7, 8usize, 1_000_000usize);
        let s_k = walk_length_for_top_k(k, c, alpha, n);
        let via_theorem8 = expected_fetches(s_k, n, r, alpha);
        let via_corollary9 = top_k_fetches(k, c, alpha, r);
        let rel = (via_theorem8 - via_corollary9).abs() / via_corollary9;
        assert!(
            rel < 1e-9,
            "Theorem 8 at s_k gives {via_theorem8}, Corollary 9 gives {via_corollary9}"
        );
    }

    #[test]
    fn fetches_grow_superlinearly_in_walk_length_but_shrink_with_r() {
        let base = expected_fetches(10_000.0, 1_000_000, 10, 0.75);
        assert!(expected_fetches(20_000.0, 1_000_000, 10, 0.75) > 2.0 * (base - 1.0));
        assert!(expected_fetches(10_000.0, 1_000_000, 20, 0.75) < base);
    }

    #[test]
    fn fetch_bound_is_far_below_the_walk_length() {
        // The whole point of stitching: the fetch bound is orders of magnitude smaller
        // than the number of walk steps (Remark 2 compares 63 200 steps to 2 000 fetches).
        let s = walk_length_for_top_k(100, 5.0, 0.75, 100_000_000);
        let fetches = expected_fetches(s, 100_000_000, 10, 0.75);
        assert!(fetches * 10.0 < s);
    }

    #[test]
    #[should_panic(expected = "power-law exponent must be in (0, 1)")]
    fn rejects_alpha_one() {
        let _ = walk_length_for_top_k(10, 5.0, 1.0, 100);
    }

    #[test]
    #[should_panic(expected = "epsilon must be in (0, 1)")]
    fn rejects_bad_epsilon() {
        let _ = total_update_work(10, 1, 10, 1.5);
    }

    #[test]
    #[should_panic(expected = "arrivals are numbered from 1")]
    fn rejects_zeroth_arrival() {
        let _ = per_arrival_update_work(10, 1, 0, 0.2);
    }
}
