//! Storage substrates for the `fast-ppr` workspace.
//!
//! The paper assumes two stores:
//!
//! * the **Social Store** ("FlockDB" at Twitter): the social graph held in distributed
//!   shared memory, supporting random access to a node's adjacency.  The cost the paper
//!   charges to the personalization algorithm is the number of *fetches* made against
//!   this store, so [`social::SocialStore`] instruments every access.
//! * the **PageRank Store**: for every node, `R` cached random-walk segments plus two
//!   counters — `W(v)`, the number of walk-segment visits to `v`, and `d(v)`, the
//!   out-degree of `v` — which drive both the Monte Carlo estimator and the
//!   `1 - (1 - 1/d(v))^{W(v)}` filter that decides whether an arriving edge needs to
//!   touch the PageRank Store at all.  This is [`walks::WalkStore`], built from a flat
//!   step [`arena`] (one shared buffer of walk steps with per-segment slots) and
//!   visit [`postings`] (blocked sorted `(SegmentId, count)` runs: O(log W(v) + block)
//!   per recorded step, O(blocks + heads · block) per arrival scan).
//!
//! Engines consume the PageRank Store exclusively through the API layer in
//! [`index`]: read-only queries through [`index::WalkIndexView`], maintenance reads
//! through [`index::WalkIndex`], writes through [`index::WalkIndexMut`] — so the
//! memory layout can keep evolving without touching them.  [`walks::WalkStore`] is
//! the one in-memory layout; the file-backed store of `ppr-persist` wraps it.  The
//! [`view`] module adds the serving side: [`view::FrozenWalks`] / [`view::FrozenGraph`] are
//! epoch-pinned, chunked copy-on-write snapshots of the two stores that readers on
//! other threads query lock-free while a writer keeps mutating the live layout.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![forbid(unsafe_code)]

pub mod arena;
pub mod digest;
pub mod index;
pub mod metrics;
pub mod postings;
pub mod segment;
pub mod social;
pub mod telem;
pub mod view;
pub mod walks;

pub use arena::ArenaStats;
pub use digest::StoreDigest;
pub use index::{SegmentRewrites, WalkIndex, WalkIndexMut, WalkIndexView};
pub use metrics::{StoreMetrics, WorkCounter};
pub use postings::VisitPostings;
pub use segment::SegmentId;
pub use social::SocialStore;
pub use view::{AdjacencyFetch, FrozenGraph, FrozenWalks, SpineCopyStats, TouchedChunks};
pub use walks::{WalkLoader, WalkStore};
