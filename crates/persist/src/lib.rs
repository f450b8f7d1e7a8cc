//! Durable storage for the `fast-ppr` workspace (`ppr-persist`).
//!
//! The paper's premise is that Monte Carlo walk segments are *stored state*: they are
//! generated once at `nR/ε` cost and then maintained incrementally as edges arrive.
//! That premise is only real if the state survives the process — otherwise every
//! restart repays the full initialization cost that incremental maintenance exists
//! to avoid.  This crate is the durability layer that closes that gap:
//!
//! * [`snapshot`] — a versioned, sectioned, checksummed **snapshot container**,
//!   streamed section by section and published atomically per generation (temp
//!   file + rename), holding the engine metadata, the Social Store's graph
//!   ([`graph`]), and the PageRank Store's walk paths packed into checksummed
//!   pages ([`layout`]) — every byte through the [`crc`] kernel once;
//! * [`wal`] — an append-only, CRC-framed **write-ahead log** of the
//!   `&[Edge]` batches the engines consume together with their effects (growth
//!   segments, reconciled rewrites, engine cursors), fsynced per batch, with
//!   torn-tail truncation on recovery.  Installing the logged paths over the
//!   snapshot reproduces the engine **bit-identically** without re-running a
//!   reroute;
//! * [`disk`] — [`disk::DiskWalkStore`], a file-backed `WalkIndex`/`WalkIndexMut`
//!   implementation that demand-faults its paths through a page cache ([`pager`])
//!   and whose checkpoints copy the paths nothing rewrote out of the previous
//!   generation's heap;
//! * [`dir`] — the generation-numbered store directory with its atomically published
//!   `CURRENT` pointer and previous-generation fallback;
//! * [`lock`] — the `LOCK` file enforcing the single-writer-per-directory contract
//!   across processes, with stale-lock stealing after a crash;
//! * [`shim`] — an injectable I/O shim on the WAL/snapshot write paths, the seam
//!   the scenario chaos harness uses to inject slow-disk stalls (timing faults
//!   that must never change a bit of what is written).
//!
//! The engine-facing `open`/`checkpoint` APIs live in `ppr-core::durable`, built on
//! the [`layout::PersistentWalkStore`] trait this crate implements for the flat and
//! the disk-backed store layouts.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod crc;
pub mod dir;
pub mod disk;
pub mod graph;
pub mod io;
pub mod layout;
pub mod lock;
pub mod pager;
pub mod shim;
pub mod snapshot;
pub mod telem;
pub mod tempdir;
pub mod wal;

pub use crc::crc32;
pub use dir::StoreDir;
pub use disk::{set_thread_page_budget, DiskStoreStats, DiskWalkStore, PageBudget, ResidencyStats};
pub use io::{PersistError, PersistResult};
pub use layout::{PagedWalks, PersistentWalkStore};
pub use lock::StoreLock;
pub use pager::PagerStats;
pub use shim::{IoOp, IoShim, ShimGuard, SlowDisk};
pub use snapshot::{AtomicFile, SnapshotFile, SnapshotWriter};
pub use tempdir::TempDir;
pub use wal::{BatchRecord, WalCursors, WalEffects, WalOp, WalRecord, WalStats, WalWriter};
