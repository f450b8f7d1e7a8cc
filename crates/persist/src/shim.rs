//! Injectable I/O shim: failpoint-style observation hooks on the durability hot
//! paths (WAL appends and syncs, snapshot writes).
//!
//! The scenario chaos harness (`ppr-scenario`) needs to inject *slow-disk stalls*
//! into a running durable engine without changing a single bit of what the engine
//! writes or reads — stalls move timing, never data, and the differential oracles
//! assert exactly that.  This module is the seam: the WAL writer calls `notify`
//! immediately before each physical write/sync, the snapshot writer once per
//! generation, before the fsync + rename that publish it, and any
//! number of installed [`IoShim`]s observe the call (counting it, sleeping in it,
//! or both) before the I/O proceeds.
//!
//! The registry is process-global but **additive**: [`install`] pushes a shim and
//! returns a [`ShimGuard`] that removes exactly that shim on drop, so concurrent
//! tests can each install their own shim without clobbering one another.  With no
//! shims installed, `notify` is a single relaxed atomic load — the production
//! hot path pays nothing.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Duration;

/// The durability operation about to be performed when a shim is notified.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoOp {
    /// A WAL record frame is about to be written.
    WalAppend,
    /// A WAL `fdatasync` is about to run (fsync-on-batch contract).
    WalSync,
    /// A snapshot generation, streamed to its temp sibling, is about to be made
    /// durable and renamed into place (bytes = the file's length).
    SnapshotWrite,
}

/// An installed observer of durability I/O.  Called synchronously on the I/O
/// thread immediately before the operation; sleeping here stalls the writer,
/// which is the point of the slow-disk fault.
pub trait IoShim: Send + Sync {
    /// Observes one imminent operation of `bytes` payload bytes (0 for syncs).
    fn before_io(&self, op: IoOp, bytes: usize);
}

/// Count of installed shims, readable without the registry lock so the no-shim
/// fast path is one atomic load.
static INSTALLED: AtomicUsize = AtomicUsize::new(0);

type ShimRegistry = Mutex<Vec<(u64, Arc<dyn IoShim>)>>;

fn registry() -> &'static ShimRegistry {
    static REGISTRY: OnceLock<ShimRegistry> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Vec::new()))
}

/// Installs `shim` into the process-global registry.  Every durability I/O in the
/// process notifies it until the returned [`ShimGuard`] is dropped.
pub fn install(shim: Arc<dyn IoShim>) -> ShimGuard {
    static NEXT_TOKEN: AtomicU64 = AtomicU64::new(1);
    let token = NEXT_TOKEN.fetch_add(1, Ordering::Relaxed);
    let mut shims = registry().lock().expect("I/O shim registry poisoned");
    shims.push((token, shim));
    INSTALLED.store(shims.len(), Ordering::Release);
    ShimGuard { token }
}

/// Removes its shim (and only its shim) from the registry on drop.
#[derive(Debug)]
pub struct ShimGuard {
    token: u64,
}

impl Drop for ShimGuard {
    fn drop(&mut self) {
        let mut shims = registry().lock().expect("I/O shim registry poisoned");
        shims.retain(|&(token, _)| token != self.token);
        INSTALLED.store(shims.len(), Ordering::Release);
    }
}

/// Notifies every installed shim of an imminent operation.  Free when nothing is
/// installed.
pub(crate) fn notify(op: IoOp, bytes: usize) {
    if INSTALLED.load(Ordering::Acquire) == 0 {
        return;
    }
    // Clone the Arcs out so shims run without holding the registry lock: a shim
    // that sleeps (the slow-disk fault) must not block install/uninstall.
    let shims: Vec<Arc<dyn IoShim>> = registry()
        .lock()
        .expect("I/O shim registry poisoned")
        .iter()
        .map(|(_, shim)| Arc::clone(shim))
        .collect();
    for shim in shims {
        shim.before_io(op, bytes);
    }
}

/// The slow-disk fault: stalls every `stall_every`-th operation by a fixed
/// duration and counts everything it observes.  Stalls shift *timing* only — the
/// bytes written are untouched — so a run under this shim must stay bit-identical
/// to one without it; the counters let tests assert the stalls actually landed on
/// the durability path.
#[derive(Debug)]
pub struct SlowDisk {
    stall_every: u64,
    stall: Duration,
    ops: AtomicU64,
    stalls: AtomicU64,
    bytes: AtomicU64,
}

impl SlowDisk {
    /// A shim that sleeps `stall` before every `stall_every`-th operation.
    pub fn new(stall_every: u64, stall: Duration) -> Arc<Self> {
        Arc::new(SlowDisk {
            stall_every: stall_every.max(1),
            stall,
            ops: AtomicU64::new(0),
            stalls: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
        })
    }

    /// Operations observed so far.
    pub fn ops(&self) -> u64 {
        self.ops.load(Ordering::Relaxed)
    }

    /// Stalls actually injected so far.
    pub fn stalls(&self) -> u64 {
        self.stalls.load(Ordering::Relaxed)
    }

    /// Payload bytes observed so far.
    pub fn bytes(&self) -> u64 {
        self.bytes.load(Ordering::Relaxed)
    }
}

impl IoShim for SlowDisk {
    fn before_io(&self, _op: IoOp, bytes: usize) {
        let seen = self.ops.fetch_add(1, Ordering::Relaxed) + 1;
        self.bytes.fetch_add(bytes as u64, Ordering::Relaxed);
        if seen % self.stall_every == 0 {
            self.stalls.fetch_add(1, Ordering::Relaxed);
            std::thread::sleep(self.stall);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn notify_reaches_every_installed_shim_and_stops_at_guard_drop() {
        let a = SlowDisk::new(1, Duration::ZERO);
        let b = SlowDisk::new(1, Duration::ZERO);
        let guard_a = install(a.clone());
        let guard_b = install(b.clone());
        notify(IoOp::WalAppend, 64);
        assert_eq!((a.ops(), b.ops()), (1, 1));
        assert_eq!((a.bytes(), b.bytes()), (64, 64));
        drop(guard_a);
        notify(IoOp::WalSync, 0);
        assert_eq!(a.ops(), 1, "a dropped guard must stop notifications");
        assert_eq!(b.ops(), 2, "sibling shims survive another guard's drop");
        drop(guard_b);
        notify(IoOp::SnapshotWrite, 128);
        assert_eq!(b.ops(), 2);
    }

    #[test]
    fn slow_disk_stalls_every_nth_operation() {
        let shim = SlowDisk::new(3, Duration::ZERO);
        for _ in 0..10 {
            shim.before_io(IoOp::WalAppend, 8);
        }
        assert_eq!(shim.ops(), 10);
        assert_eq!(shim.stalls(), 3, "ops 3, 6, 9 stall");
        assert_eq!(shim.bytes(), 80);
    }

    #[test]
    fn wal_appends_notify_the_shim() {
        let dir = crate::tempdir::TempDir::new("shim-wal");
        let shim = SlowDisk::new(1, Duration::ZERO);
        let _guard = install(shim.clone());
        let path = dir.path().join("wal.log");
        let mut writer = crate::wal::WalWriter::create(&path).unwrap();
        writer
            .append(
                0,
                crate::wal::WalOp::Arrivals,
                &[ppr_graph::Edge::new(0, 1)],
            )
            .unwrap();
        // One append frame + one fdatasync.
        assert!(shim.ops() >= 2, "append must notify write and sync");
        assert!(shim.bytes() > 0);
    }
}
