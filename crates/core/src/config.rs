//! Configuration of the Monte Carlo engines: the paper's two parameters, the reset
//! probability ε and the segment count `R`, plus the RNG seed.  Everything else the
//! engines need is derived from these — the segment-length cap from ε, the repair
//! rule from Section 2.2 (reroute each invalidated segment from its update point).

/// Parameters of the Monte Carlo PageRank/SALSA engines.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MonteCarloConfig {
    /// Reset probability ε of the PageRank random walk.  The paper's experiments use
    /// `0.2`; every stored segment has expected length `1/ε`.
    pub epsilon: f64,
    /// Number of walk segments stored per node (`R`).  Theorem 1 shows `R = 1` already
    /// concentrates for above-average PageRank values and `R = Θ(ln n)` for all nodes.
    pub r: usize,
    /// RNG seed for reproducible experiments.
    pub seed: u64,
}

impl MonteCarloConfig {
    /// Creates a configuration with the given reset probability and segments per node.
    ///
    /// # Panics
    ///
    /// Panics if `epsilon` is not in `(0, 1)` or `r` is zero.
    pub fn new(epsilon: f64, r: usize) -> Self {
        assert!(
            epsilon > 0.0 && epsilon < 1.0,
            "epsilon must be in (0, 1), got {epsilon}"
        );
        assert!(r >= 1, "at least one walk segment per node is required");
        MonteCarloConfig {
            epsilon,
            r,
            seed: 0,
        }
    }

    /// The paper's experimental setting: ε = 0.2.
    pub fn paper_defaults(r: usize) -> Self {
        Self::new(0.2, r)
    }

    /// Sets the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Expected length of one stored segment, `1/ε`.
    pub fn expected_segment_length(&self) -> f64 {
        1.0 / self.epsilon
    }

    /// Expected total stored walk length, `nR/ε`, which is also the cost of initialising
    /// the walk store from scratch.
    pub fn expected_initialization_cost(&self, nodes: usize) -> f64 {
        nodes as f64 * self.r as f64 / self.epsilon
    }

    /// Hard cap on the length of a single stored segment: 60 expected lengths.  The
    /// probability of a geometric(ε) exceeding it is `(1-ε)^(60/ε) ≤ e^{-60}`, i.e.
    /// never in practice, so the cap does not bias the estimates while still bounding
    /// memory for adversarial RNG streams.
    pub fn max_segment_length(&self) -> usize {
        (60.0 / self.epsilon).ceil() as usize
    }
}

impl Default for MonteCarloConfig {
    fn default() -> Self {
        Self::paper_defaults(5)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_sets_all_fields() {
        let config = MonteCarloConfig::new(0.25, 7).with_seed(99);
        assert_eq!(config.epsilon, 0.25);
        assert_eq!(config.r, 7);
        assert_eq!(config.seed, 99);
    }

    #[test]
    fn paper_defaults_use_epsilon_point_two() {
        let config = MonteCarloConfig::paper_defaults(10);
        assert_eq!(config.epsilon, 0.2);
        assert_eq!(config.r, 10);
        assert_eq!(config.expected_segment_length(), 5.0);
    }

    #[test]
    fn expected_costs_follow_the_formulas() {
        let config = MonteCarloConfig::new(0.2, 4);
        assert_eq!(
            config.expected_initialization_cost(1_000),
            1_000.0 * 4.0 / 0.2
        );
        assert_eq!(config.max_segment_length(), 300);
        assert_eq!(MonteCarloConfig::new(0.9, 1).max_segment_length(), 67);
        assert_eq!(MonteCarloConfig::new(0.99, 1).max_segment_length(), 61);
    }

    #[test]
    fn default_is_paper_defaults_with_five_segments() {
        let d = MonteCarloConfig::default();
        assert_eq!(d.epsilon, 0.2);
        assert_eq!(d.r, 5);
    }

    #[test]
    #[should_panic(expected = "epsilon must be in (0, 1)")]
    fn rejects_epsilon_one() {
        let _ = MonteCarloConfig::new(1.0, 3);
    }

    #[test]
    #[should_panic(expected = "epsilon must be in (0, 1)")]
    fn rejects_epsilon_zero() {
        let _ = MonteCarloConfig::new(0.0, 3);
    }

    #[test]
    #[should_panic(expected = "at least one walk segment")]
    fn rejects_zero_r() {
        let _ = MonteCarloConfig::new(0.2, 0);
    }
}
