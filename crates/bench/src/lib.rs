//! Experiment harness reproducing every table and figure of the paper.
//!
//! Each experiment lives in [`experiments`] as a pure function that takes an explicit
//! parameter struct and returns a structured result; the binaries in `src/bin/` are thin
//! wrappers that run an experiment at paper-like scale and print the same rows/series
//! the paper reports, and the Criterion benches in `benches/` time the same code paths
//! at a reduced scale.
//!
//! | Experiment | Paper artifact | Binary |
//! |---|---|---|
//! | [`experiments::fig1`] | Figure 1 + the §4.2 `m·E[π/d]` statistic | `fig1_arrival_cdf`, `stat_mx` |
//! | [`experiments::fig2`] | Figure 2 (in-degree / PageRank power laws) | `fig2_powerlaw` |
//! | [`experiments::personalized_powerlaw`] | Figures 3 and 4 | `fig3_personalized_powerlaw`, `fig4_exponents` |
//! | [`experiments::fig5`] | Figure 5 (11-point interpolated precision) | `fig5_precision` |
//! | [`experiments::fig6`] | Figure 6 (fetches vs. walk length) | `fig6_fetches` |
//! | [`experiments::table1`] | Table 1 (link prediction) | `table1_link_prediction` |
//! | [`experiments::cost`] | Theorem 4 / Prop. 5 / Theorem 6 / Example 1 cost claims | `incremental_cost`, `deletion_cost`, `salsa_cost`, `example1_adversarial` |
//! | [`experiments::concentration`] | Theorem 1 (estimator accuracy vs. R) | `concentration` |
//! | [`ppr_core::bounds`] | Remark 2 closed forms | `remark2_bounds` |

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![forbid(unsafe_code)]

pub mod experiments;
pub mod parallel;
pub mod workloads;

pub use parallel::{default_threads, par_map_indexed};
pub use workloads::{
    add_celebrity_core, mixed_attachment, personalization_seeds, power_law_workload,
    synthesize_future_follows, twitter_like, Workload,
};
