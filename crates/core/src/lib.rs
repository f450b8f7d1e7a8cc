//! The paper's contribution: Monte Carlo PageRank/SALSA with incremental walk-segment
//! maintenance and personalized top-k retrieval.
//!
//! *Fast Incremental and Personalized PageRank* (Bahmani, Chowdhury, Goel; VLDB 2010)
//! maintains `R` short random-walk segments per node (each run until its first ε-reset)
//! and shows that:
//!
//! 1. the visit counts of those segments give sharply concentrated PageRank estimates
//!    (Theorem 1) — [`estimator`];
//! 2. under random-permutation edge arrivals the segments can be kept up to date with
//!    only `O(nR ln m / ε²)` total work over `m` arrivals (Theorem 4), and deletions cost
//!    `O(nR/(m ε²))` each (Proposition 5) — [`engine`];
//! 3. the same machinery extends to SALSA with a constant-factor overhead (Theorem 6) —
//!    the same [`engine`] under a second [`WalkKind`], queried through [`salsa`];
//! 4. the cached segments can be stitched into long personalized walks that find the
//!    top-k personalized PageRank nodes with `O(k / R^{(1−α)/α})` fetches against the
//!    social store under a power-law score model (Theorem 8, Corollary 9) —
//!    [`personalized`];
//! 5. the closed-form bounds themselves — [`bounds`].

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![forbid(unsafe_code)]

pub mod batch;
pub mod bounds;
pub mod config;
pub mod durable;
pub mod engine;
pub mod estimator;
pub mod incremental;
pub mod personalized;
pub mod query;
pub mod salsa;
mod sparse;
pub mod telem;
pub mod walker;

pub use batch::BatchProfile;
pub use config::MonteCarloConfig;
pub use durable::{DurablePageRank, PersistError, PersistResult};
pub use engine::{PageRank, Salsa, UpdateStats, WalkEngine, WalkKind};
pub use estimator::PageRankEstimates;
pub use incremental::IncrementalPageRank;
pub use personalized::{PersonalizedWalkResult, PersonalizedWalker, TopKScratch, WalkScratch};
pub use query::{query_rng, query_stream_seed};
pub use salsa::{IncrementalSalsa, SalsaEstimates};
