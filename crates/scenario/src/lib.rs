//! `ppr-scenario`: a deterministic workload simulator and chaos harness for the
//! fast-ppr stack.
//!
//! The workspace's differential oracles (layout equivalence, restart equivalence,
//! serving fidelity) all prove the same shape of statement: *two executions that
//! should be equal, are, bit for bit*.  What they lacked was a shared source of
//! realistic executions.  This crate provides it:
//!
//! * [`dsl`] — a composable scenario language: seeded [`Scenario`]s made of
//!   [`Phase`]s (organic growth, a flash crowd on one hub, a celebrity-join
//!   cascade, a spam wave and its mass-unfollow, day/night query tides, checkpoint
//!   markers).  Every event is a pure function of `(scenario seed, phase, step)` —
//!   the same split-RNG discipline as the write path's `(batch, pivot, segment)`
//!   streams and the read path's `(query_seed, query_id)` streams.
//! * [`trace`] — [`Trace::compile`] expands a scenario into its deterministic
//!   event list; event indices are the stable coordinates chaos plans target.
//! * [`runner`] — [`ScenarioRunner`] replays a trace through any engine/store
//!   layout via the `ppr-serve` commit path, fanning queries over a reader pool
//!   and invoking [`ReplayHooks`] at checkpoints and fault points.
//! * [`chaos`] — [`ChaosPlan`] schedules faults (torn-WAL crash, torn snapshot
//!   page, slow-disk stalls through the `ppr-persist` I/O shim) at trace indices;
//!   [`DurableChaos`] executes them against durable engines with real
//!   crash-and-recover cycles.
//! * [`corpus`] — the named scenarios every harness shares
//!   (`tests/scenario_corpus.rs`, the `recover-smoke` bin, the benches).
//!
//! The contract the whole crate exists to check: a fault-injected replay of any
//! corpus scenario produces **bit-identical** final scores, store state, and served
//! answers to its clean single-threaded replay — at any thread count, on any store
//! layout.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![forbid(unsafe_code)]

pub mod chaos;
pub mod corpus;
pub mod dsl;
pub mod runner;
pub mod trace;

pub use chaos::{ChaosPlan, DurableChaos, Fault};
pub use dsl::{Phase, PhaseKind, Scenario};
pub use runner::{
    NoHooks, ReplayHooks, RunOutcome, ScenarioAnswer, ScenarioRunner, TelemetrySampler,
};
pub use trace::{Event, Trace, TraceEvent};
