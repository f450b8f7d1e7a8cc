//! Baseline algorithms the paper compares against.
//!
//! * [`mod@power_iteration`] — the classic linear-algebraic PageRank computation (global
//!   and personalized), including the per-iteration work accounting used by the cost
//!   comparisons of Section 1.3.
//! * [`mod@salsa_exact`] — SALSA computed by iterating its degree-normalised equations
//!   (global and personalized), the exact counterpart of the Monte Carlo SALSA engine.
//! * [`mod@hits`] — HITS and the ε-personalized HITS variant of Appendix A.
//! * [`cosine`] — the COSINE neighbour-similarity recommender of Appendix A.
//! * [`naive_incremental`] — the "just recompute on every arrival" strategies whose total
//!   cost the paper's incremental algorithm improves upon (Ω(m²/ln(1/(1−ε))) for power
//!   iteration, Ω(mn/ε) for Monte Carlo from scratch).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![forbid(unsafe_code)]

pub mod cosine;
pub mod hits;
pub mod naive_incremental;
pub mod power_iteration;
pub mod salsa_exact;

pub use cosine::cosine_recommender;
pub use hits::{hits, personalized_hits, HitsScores};
pub use naive_incremental::{
    monte_carlo_recompute_work, power_iteration_recompute_work, NaiveRecompute,
};
pub use power_iteration::{
    personalized_power_iteration, power_iteration, PowerIterationConfig, PowerIterationResult,
};
pub use salsa_exact::{personalized_salsa_exact, salsa_exact, SalsaScores};
