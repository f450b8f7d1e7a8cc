//! The chaos layer: deterministic fault plans and the durable-engine hooks that
//! execute them.
//!
//! A [`ChaosPlan`] names fault points by **trace event index** — the stable
//! coordinate [`crate::trace::Trace::compile`] guarantees — so the same plan
//! replayed against the same trace injects the same faults at the same logical
//! instants, on every layout and thread count.  [`DurableChaos`] is the hook set
//! that executes the faults against a durable PageRank engine:
//!
//! * [`Fault::CrashTornWal`] — the SIGKILL-mid-append fault: drop the whole
//!   serving session (abandoning in-memory state and releasing the store lock),
//!   append garbage to the live WAL the way a torn tail looks after power loss,
//!   then recover through the ordinary `open` path and resume serving.
//! * [`Fault::TornSnapshotPage`] — flip a byte mid-snapshot of the current
//!   generation and recover; the checksum rejects the snapshot and recovery falls
//!   back a generation, replaying its sealed WAL forward.  Only meaningful once a
//!   checkpoint has produced a fallback generation; the hook skips the corruption
//!   (still crashing and recovering) while the store is on generation 0.
//! * [`Fault::SlowDisk`] — install a [`SlowDisk`] I/O shim that stalls every few
//!   durability operations for the rest of the run.  Pure timing: the differential
//!   oracle asserts the run stays bit-identical anyway.
//!
//! The invariant all three exist to test: **faulted replay ≡ clean replay**, in
//! final scores, store digests, and every served answer.

use crate::runner::ReplayHooks;
use crate::trace::Trace;
use ppr_core::IncrementalPageRank;
use ppr_persist::{shim, PersistentWalkStore, SlowDisk, StoreDir};
use ppr_serve::QueryEngine;
use ppr_store::WalkIndexMut;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

/// One injectable fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// SIGKILL-equivalent crash leaving a torn WAL tail, then recovery.
    CrashTornWal,
    /// A flipped byte in the current snapshot, then crash and fallback recovery.
    TornSnapshotPage,
    /// Install a slow-disk I/O shim for the rest of the run.
    SlowDisk,
}

/// A deterministic fault schedule: `(event index, fault)` pairs, applied after the
/// named event replays.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ChaosPlan {
    faults: Vec<(usize, Fault)>,
}

impl ChaosPlan {
    /// The empty plan (a clean run).
    pub fn none() -> Self {
        ChaosPlan::default()
    }

    /// A plan with a single crash-with-torn-WAL after event `index`.
    pub fn crash_at(index: usize) -> Self {
        ChaosPlan {
            faults: vec![(index, Fault::CrashTornWal)],
        }
    }

    /// Adds a fault after event `index` (keeps the schedule sorted by index).
    pub fn with_fault(mut self, index: usize, fault: Fault) -> Self {
        self.faults.push((index, fault));
        self.faults.sort_by_key(|&(i, _)| i);
        self
    }

    /// The scheduled faults.
    pub fn faults(&self) -> &[(usize, Fault)] {
        &self.faults
    }

    /// The faults to inject after event `index` replays, in schedule order.
    pub fn faults_after(&self, index: usize) -> impl Iterator<Item = &Fault> {
        self.faults
            .iter()
            .filter(move |&&(i, _)| i == index)
            .map(|(_, f)| f)
    }

    /// Derives a full fault schedule for `trace` from `chaos_seed`, deterministic
    /// in `(trace, chaos_seed)`:
    ///
    /// * a slow-disk shim from the first event,
    /// * one torn-WAL crash in the first half of the trace,
    /// * one torn snapshot page after the first checkpoint (if the trace has one).
    pub fn for_trace(trace: &Trace, chaos_seed: u64) -> Self {
        let len = trace.events.len();
        let mut rng = SmallRng::seed_from_u64(chaos_seed ^ 0xC0A5_7A17_C0A5_7A17);
        let mut plan = ChaosPlan::none().with_fault(0, Fault::SlowDisk);
        if len >= 2 {
            plan = plan.with_fault(rng.gen_range(0..len / 2), Fault::CrashTornWal);
        }
        if let Some(&first_ckpt) = trace.checkpoint_indices().first() {
            plan = plan.with_fault(rng.gen_range(first_ckpt..len), Fault::TornSnapshotPage);
        }
        plan
    }
}

/// Appends garbage bytes to the live WAL of `root`'s current generation — what a
/// torn tail looks like after power loss mid-append.
fn tear_wal_tail(root: &Path) {
    use std::io::Write;
    let dir = StoreDir::open(root.to_path_buf()).expect("store dir must exist to tear");
    let gen = dir.current_gen().expect("CURRENT must be readable");
    let mut wal = std::fs::OpenOptions::new()
        .append(true)
        .open(dir.wal_path(gen))
        .expect("live WAL must exist");
    wal.write_all(&[0xEE; 9]).expect("torn-tail append");
}

/// Flips one byte in the middle of the current generation's snapshot.  Returns
/// `false` (leaving the file untouched) while the store is on generation 0, where
/// no fallback generation exists to recover into.
fn tear_snapshot_page(root: &Path) -> bool {
    let dir = StoreDir::open(root.to_path_buf()).expect("store dir must exist to tear");
    let gen = dir.current_gen().expect("CURRENT must be readable");
    if gen == 0 {
        return false;
    }
    let path = dir.snapshot_path(gen);
    let mut bytes = std::fs::read(&path).expect("current snapshot must exist");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xFF;
    std::fs::write(&path, bytes).expect("snapshot corruption write");
    true
}

/// Chaos hooks for durable PageRank engines over any persistent store layout:
/// checkpoints on [`crate::trace::Event::Checkpoint`], crash/corrupt/recover on
/// plan faults, slow-disk stalls through the `ppr-persist` I/O shim.
#[derive(Debug, Default)]
pub struct DurableChaos {
    root: PathBuf,
    slow_disk: Option<(shim::ShimGuard, Arc<SlowDisk>)>,
    crashes: usize,
    snapshot_tears: usize,
}

impl DurableChaos {
    /// Hooks operating on the durable store directory at `root`.
    pub fn new(root: impl Into<PathBuf>) -> Self {
        DurableChaos {
            root: root.into(),
            slow_disk: None,
            crashes: 0,
            snapshot_tears: 0,
        }
    }

    /// Crash-recoveries executed so far (both fault kinds crash).
    pub fn crashes(&self) -> usize {
        self.crashes
    }

    /// Snapshot corruptions that actually landed (skipped on generation 0).
    pub fn snapshot_tears(&self) -> usize {
        self.snapshot_tears
    }

    /// Stalls the slow-disk shim has injected (0 when no [`Fault::SlowDisk`] ran).
    pub fn slow_disk_stalls(&self) -> u64 {
        self.slow_disk.as_ref().map_or(0, |(_, sd)| sd.stalls())
    }

    /// Durability operations the slow-disk shim observed.
    pub fn slow_disk_ops(&self) -> u64 {
        self.slow_disk.as_ref().map_or(0, |(_, sd)| sd.ops())
    }
}

impl<W> ReplayHooks<IncrementalPageRank<W>> for DurableChaos
where
    W: WalkIndexMut + PersistentWalkStore,
{
    fn on_checkpoint(
        &mut self,
        mut serving: QueryEngine<IncrementalPageRank<W>>,
    ) -> QueryEngine<IncrementalPageRank<W>> {
        serving
            .engine_mut()
            .checkpoint()
            .expect("scenario checkpoint must succeed");
        serving
    }

    fn on_fault(
        &mut self,
        fault: &Fault,
        serving: QueryEngine<IncrementalPageRank<W>>,
    ) -> QueryEngine<IncrementalPageRank<W>> {
        match fault {
            Fault::SlowDisk => {
                if self.slow_disk.is_none() {
                    let sd = SlowDisk::new(5, Duration::from_millis(1));
                    let guard = shim::install(sd.clone());
                    self.slow_disk = Some((guard, sd));
                }
                serving
            }
            Fault::CrashTornWal => {
                let query_seed = serving.handle().query_seed();
                drop(serving.into_engine());
                self.crashes += 1;
                tear_wal_tail(&self.root);
                let engine = IncrementalPageRank::<W>::open(&self.root)
                    .expect("torn-WAL recovery must succeed");
                QueryEngine::new(engine, query_seed)
            }
            Fault::TornSnapshotPage => {
                let query_seed = serving.handle().query_seed();
                drop(serving.into_engine());
                self.crashes += 1;
                if tear_snapshot_page(&self.root) {
                    self.snapshot_tears += 1;
                }
                let engine = IncrementalPageRank::<W>::open(&self.root)
                    .expect("torn-snapshot fallback recovery must succeed");
                QueryEngine::new(engine, query_seed)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus;
    use crate::trace::Event;

    #[test]
    fn plans_are_deterministic_and_respect_checkpoint_ordering() {
        let trace = Trace::compile(&corpus::spam_wave());
        let a = ChaosPlan::for_trace(&trace, 7);
        let b = ChaosPlan::for_trace(&trace, 7);
        assert_eq!(a, b);
        assert_ne!(a, ChaosPlan::for_trace(&trace, 8));
        let first_ckpt = trace.checkpoint_indices()[0];
        for &(index, fault) in a.faults() {
            assert!(index < trace.events.len());
            if fault == Fault::TornSnapshotPage {
                assert!(
                    index >= first_ckpt,
                    "snapshot tears only after a checkpoint created a fallback"
                );
            }
            if fault == Fault::CrashTornWal {
                assert!(
                    index < trace.events.len() / 2,
                    "crash lands in the first half"
                );
            }
        }
    }

    #[test]
    fn faults_after_filters_by_index_in_order() {
        let plan = ChaosPlan::none()
            .with_fault(3, Fault::CrashTornWal)
            .with_fault(3, Fault::SlowDisk)
            .with_fault(5, Fault::TornSnapshotPage);
        let at3: Vec<&Fault> = plan.faults_after(3).collect();
        assert_eq!(at3, vec![&Fault::CrashTornWal, &Fault::SlowDisk]);
        assert_eq!(plan.faults_after(4).count(), 0);
        assert_eq!(plan.faults_after(5).count(), 1);
    }

    #[test]
    fn every_corpus_trace_gets_a_crash_and_a_snapshot_tear() {
        for scenario in corpus::corpus() {
            let trace = Trace::compile(&scenario);
            assert!(
                trace
                    .events
                    .iter()
                    .any(|e| matches!(e.event, Event::Checkpoint)),
                "{}: corpus scenarios must contain a checkpoint",
                scenario.name
            );
            let plan = ChaosPlan::for_trace(&trace, 1);
            let kinds: Vec<Fault> = plan.faults().iter().map(|&(_, f)| f).collect();
            assert!(kinds.contains(&Fault::CrashTornWal), "{}", scenario.name);
            assert!(
                kinds.contains(&Fault::TornSnapshotPage),
                "{}",
                scenario.name
            );
            assert!(kinds.contains(&Fault::SlowDisk), "{}", scenario.name);
        }
    }
}
