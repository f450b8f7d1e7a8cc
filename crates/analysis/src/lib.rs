//! Analysis toolkit used by the experiment harness.
//!
//! Everything in this crate operates on plain `f64`/`usize` slices so that it stays
//! independent of the graph and walk representations:
//!
//! * [`powerlaw`] — rank/value power-law fitting (Figures 2–4 of the paper).
//! * [`cdf`] — degree cumulative distribution functions (Figure 1).
//! * [`precision`] — 11-point interpolated average precision and related retrieval
//!   metrics (Figure 5, Table 1).
//! * [`ranking`] — top-k extraction and overlap utilities shared by the recommenders.
//! * [`stats`] — small statistical helpers (mean, standard deviation, harmonic numbers).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![forbid(unsafe_code)]

pub mod cdf;
pub mod powerlaw;
pub mod precision;
pub mod ranking;
pub mod stats;

pub use cdf::{arrival_degree_cdf, existing_degree_cdf, CdfPoint};
pub use powerlaw::{fit_power_law, rank_series, PowerLawFit};
pub use precision::{
    eleven_point_interpolated_precision, interpolated_average_precision, precision_at_k,
};
pub use ranking::{hits_in_top_k, top_k_indices, top_k_overlap};
pub use stats::{harmonic_number, mean, std_dev, Summary};
