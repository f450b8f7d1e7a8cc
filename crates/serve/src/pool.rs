//! A small fixed-size reader pool for serving queries.
//!
//! Workers pull boxed jobs off a shared channel; [`ReaderPool::serve_all`] fans a
//! query batch out over the pool and returns the answers in submission order.
//! Because every answer is a pure function of `(pinned generation, query_seed,
//! query_id)`, the pool's scheduling — which worker runs which query, in which
//! order, overlapping which commits — can never change a result, only its latency.

use crate::batch::{QueryBatch, QueryScratch};
use crate::engine::ServeHandle;
use crate::generation::{Query, Served};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

type Job = Box<dyn FnOnce() + Send + 'static>;

/// A fixed pool of reader threads answering queries from a [`ServeHandle`].
#[derive(Debug)]
pub struct ReaderPool {
    tx: Option<Sender<Job>>,
    workers: Vec<JoinHandle<()>>,
}

impl ReaderPool {
    /// Spawns `threads` reader workers.
    pub fn new(threads: usize) -> Self {
        assert!(threads >= 1, "need at least one reader thread");
        let (tx, rx) = channel::<Job>();
        let rx = Arc::new(Mutex::new(rx));
        let workers = (0..threads)
            .map(|i| {
                let rx: Arc<Mutex<Receiver<Job>>> = Arc::clone(&rx);
                std::thread::Builder::new()
                    .name(format!("ppr-reader-{i}"))
                    .spawn(move || loop {
                        let job = rx.lock().expect("reader queue poisoned").recv();
                        match job {
                            Ok(job) => job(),
                            Err(_) => break, // pool dropped: drain and exit
                        }
                    })
                    .expect("spawn reader thread")
            })
            .collect();
        ReaderPool {
            tx: Some(tx),
            workers,
        }
    }

    /// Number of reader threads.
    pub fn threads(&self) -> usize {
        self.workers.len()
    }

    /// Submits one job to the pool.
    pub fn execute(&self, job: impl FnOnce() + Send + 'static) {
        self.tx
            .as_ref()
            .expect("pool is shutting down")
            .send(Box::new(job))
            .expect("reader pool workers gone");
    }

    /// Serves `queries` — `(query_id, query)` pairs — across the pool, each query
    /// pinning the handle's current generation when a worker picks it up.  Returns
    /// the answers in submission order.
    pub fn serve_all(&self, handle: &ServeHandle, queries: &[(u64, Query)]) -> Vec<Served> {
        let (done_tx, done_rx) = channel::<(usize, Served)>();
        for (slot, (query_id, query)) in queries.iter().enumerate() {
            let handle = handle.clone();
            let done = done_tx.clone();
            let query = query.clone();
            let query_id = *query_id;
            self.execute(move || {
                let served = handle.serve(query_id, &query);
                let _ = done.send((slot, served));
            });
        }
        drop(done_tx);
        let mut out: Vec<Option<Served>> = vec![None; queries.len()];
        for (slot, served) in done_rx {
            out[slot] = Some(served);
        }
        out.into_iter()
            .map(|s| s.expect("every submitted query reports back"))
            .collect()
    }

    /// Serves a [`QueryBatch`] across the pool under **one** generation pin.
    ///
    /// The batch is split into `min(threads, len)` lanes by the deterministic
    /// assignment `lane = slot % lanes` — which worker answers which query is
    /// fixed by the batch shape, never by scheduling.  Each lane runs its
    /// queries through one pooled per-query scratch, and answers return in
    /// submission order.  Because each answer is a pure function of `(pinned
    /// generation, query_seed, query_id)`, the results are bit-identical to [`ReaderPool::serve_all`] and to
    /// [`ServeHandle::serve_batch`] — lanes change which thread runs which
    /// query, never any answer (absent an expiring deadline).
    pub fn serve_batch(&self, handle: &ServeHandle, batch: &QueryBatch) -> Vec<Served> {
        let spans = handle.query_spans().map(Arc::clone);
        if let Some(s) = spans.as_deref() {
            s.batch_size.record(batch.len() as u64);
        }
        let view = {
            let _pin = spans.as_deref().map(|s| s.tele.time(&s.pin));
            handle.pin()
        };
        let lanes = self.threads().min(batch.len().max(1));
        let (done_tx, done_rx) = channel::<(Vec<(usize, Served)>, QueryScratch)>();
        for lane in 0..lanes {
            let jobs: Vec<(usize, u64, Query)> = batch
                .jobs
                .iter()
                .enumerate()
                .filter(|(slot, _)| slot % lanes == lane)
                .map(|(slot, (query_id, query))| (slot, *query_id, query.clone()))
                .collect();
            let view = view.clone();
            let deadline = batch.deadline.clone();
            let spans = spans.clone();
            let query_seed = handle.query_seed();
            let mut ctx = handle.scratch_pool().take();
            let done = done_tx.clone();
            self.execute(move || {
                let spans = spans.as_deref();
                let mut results = Vec::with_capacity(jobs.len());
                for (slot, query_id, query) in jobs {
                    let _latency = spans.map(|s| s.tele.time(&s.latency));
                    let served = view.answer_in_context(
                        query_seed,
                        query_id,
                        &query,
                        &mut ctx,
                        deadline.as_ref(),
                        spans,
                    );
                    results.push((slot, served));
                }
                let _ = done.send((results, ctx));
            });
        }
        drop(done_tx);
        let mut out: Vec<Option<Served>> = vec![None; batch.len()];
        for (results, ctx) in done_rx {
            handle.scratch_pool().put(ctx);
            for (slot, served) in results {
                out[slot] = Some(served);
            }
        }
        out.into_iter()
            .map(|s| s.expect("every batch lane reports back"))
            .collect()
    }
}

impl Drop for ReaderPool {
    fn drop(&mut self) {
        drop(self.tx.take()); // close the queue; workers drain and exit
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}
