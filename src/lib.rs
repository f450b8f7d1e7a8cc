//! # fast-ppr
//!
//! Façade crate for the `fast-ppr` workspace: a Rust reproduction of
//! *Fast Incremental and Personalized PageRank* (Bahmani, Chowdhury, Goel; VLDB 2010).
//!
//! The workspace is organised as follows:
//!
//! * [`graph`] ([`ppr_graph`]) — directed dynamic/static graphs, synthetic social-graph
//!   generators, and edge-arrival streams.
//! * [`store`] ([`ppr_store`]) — the Social Store (FlockDB stand-in) and the PageRank
//!   Store holding cached walk segments, both with explicit fetch/work accounting.  The
//!   PageRank Store is backed by a flat step arena plus blocked visit postings, and
//!   every engine consumes it through the `WalkIndex` API layer.
//! * [`persist`] ([`ppr_persist`]) — durability: checksummed generation snapshots, an
//!   edge-event write-ahead log, and the file-backed `DiskWalkStore`; the engines'
//!   `create_durable` / `open` / `checkpoint` APIs live in `ppr_core::durable`.
//! * [`core`] ([`ppr_core`]) — the paper's contribution: Monte Carlo PageRank/SALSA with
//!   incremental walk-segment maintenance and personalized top-k retrieval by walk
//!   stitching (Algorithm 1).
//! * [`serve`] ([`ppr_serve`]) — snapshot-isolated concurrent query serving: a
//!   single-writer/many-readers `QueryEngine` publishing epoch-pinned generation views,
//!   so personalized top-k, global-rank, and SALSA queries run lock-free on reader
//!   threads while write batches commit.
//! * [`scenario`] ([`ppr_scenario`]) — a deterministic workload simulator and chaos
//!   harness: seeded scenario DSL (flash crowds, celebrity joins, spam waves, query
//!   tides) compiled to event traces and replayed through any engine/store layout
//!   with fault injection (torn WAL, torn snapshot pages, slow-disk stalls).
//! * [`baselines`] ([`ppr_baselines`]) — power iteration, exact SALSA, HITS, COSINE and
//!   naive incremental recomputation baselines.
//! * [`analysis`] ([`ppr_analysis`]) — power-law fitting, CDFs, and ranking metrics used
//!   by the experiment harness.
//!
//! ## Quickstart
//!
//! ```
//! use fast_ppr::prelude::*;
//!
//! // Build a small synthetic social graph.
//! let graph = preferential_attachment(1_000, 5, 42);
//!
//! // Maintain R = 4 walk segments per node with reset probability 0.2.
//! let config = MonteCarloConfig::new(0.2, 4).with_seed(7);
//! let mut engine = IncrementalPageRank::from_graph(&graph, config);
//!
//! // Global PageRank estimates for every node.
//! let scores = engine.scores();
//! assert_eq!(scores.len(), graph.node_count());
//!
//! // Personalized top-10 for node 0 using the cached walk segments.
//! let top = engine.personalized_top_k(NodeId(0), 10, 2_000);
//! assert!(top.len() <= 10);
//!
//! // Edge arrivals can be applied one by one or as a batch (grouped per source node).
//! engine.add_edge(Edge::new(0, 500));
//! engine.apply_arrivals(&[Edge::new(1, 600), Edge::new(1, 700), Edge::new(2, 600)]);
//! assert!(engine.validate_segments().is_ok());
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![forbid(unsafe_code)]

pub use ppr_analysis as analysis;
pub use ppr_baselines as baselines;
pub use ppr_core as core;
pub use ppr_graph as graph;
pub use ppr_persist as persist;
pub use ppr_scenario as scenario;
pub use ppr_serve as serve;
pub use ppr_store as store;
pub use ppr_telemetry as telemetry;

/// Commonly used items, re-exported for convenience.
pub mod prelude {
    pub use ppr_analysis::powerlaw::fit_power_law;
    pub use ppr_analysis::precision::interpolated_average_precision;
    pub use ppr_baselines::hits::{hits, personalized_hits};
    pub use ppr_baselines::power_iteration::{personalized_power_iteration, power_iteration};
    pub use ppr_baselines::salsa_exact::salsa_exact;
    pub use ppr_core::config::MonteCarloConfig;
    pub use ppr_core::durable::DurablePageRank;
    pub use ppr_core::incremental::IncrementalPageRank;
    pub use ppr_core::personalized::PersonalizedWalker;
    pub use ppr_core::salsa::IncrementalSalsa;
    pub use ppr_graph::dynamic::DynamicGraph;
    pub use ppr_graph::generators::preferential_attachment;
    pub use ppr_graph::view::GraphView;
    pub use ppr_graph::{Edge, NodeId};
    pub use ppr_scenario::{ChaosPlan, Scenario, ScenarioRunner, Trace};
    pub use ppr_serve::{QueryEngine, ReaderPool, ServeHandle};
    pub use ppr_store::index::{WalkIndex, WalkIndexMut, WalkIndexView};
    pub use ppr_store::social::SocialStore;
    pub use ppr_store::view::{FrozenGraph, FrozenWalks};
    pub use ppr_store::walks::WalkStore;
    pub use ppr_telemetry::{Telemetry, TelemetrySnapshot};
}
