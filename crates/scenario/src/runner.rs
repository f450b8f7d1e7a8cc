//! Replaying a compiled [`Trace`] through a serving engine.
//!
//! [`ScenarioRunner`] is the single replay path every harness shares: it wraps the
//! engine in a [`QueryEngine`], commits the trace's write events through the
//! serving commit path (so the published generations track the live store exactly),
//! fans query batches out over a [`ReaderPool`], and invokes [`ReplayHooks`] at
//! checkpoint events and chaos fault points.  Because the hooks take the whole
//! serving session by value and hand one back, a hook can *tear the session down
//! entirely* — drop the engine mid-WAL, corrupt a snapshot on disk, reopen from the
//! store directory — and the runner just keeps replaying into whatever came back.
//! That is what makes "SIGKILL anywhere, recover, resume ≡ never crashed" a
//! replayable property instead of a bespoke test.

use crate::chaos::{ChaosPlan, Fault};
use crate::trace::{Event, Trace};
use ppr_serve::{
    Answer, Query, QueryBatch, QueryEngine, ReaderPool, ServeEngine, ServeHandle, Served,
};
use ppr_telemetry::{JsonlAppender, Telemetry};
use std::io::{self, Write};

/// One served answer, in trace order, stripped to its replay-stable fields.
///
/// `epoch` is deliberately absent: a crash-and-reopen hook rebuilds the serving
/// session, resetting its epoch counter, so epochs differ between a faulted and a
/// clean replay even though every answer's *content* is bit-identical.  The
/// differential oracles compare exactly the fields that must survive faults.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioAnswer {
    /// The query's trace-assigned id.
    pub query_id: u64,
    /// Social Store fetches the walk made.
    pub fetches: u64,
    /// Whether the Corollary 9 fetch budget cut the walk short.
    pub budget_exhausted: bool,
    /// Whether a per-query deadline budget cut the walk short (batched serving).
    pub deadline_exhausted: bool,
    /// The answer itself.
    pub answer: Answer,
}

impl From<Served> for ScenarioAnswer {
    fn from(s: Served) -> Self {
        ScenarioAnswer {
            query_id: s.query_id,
            fetches: s.fetches,
            budget_exhausted: s.budget_exhausted,
            deadline_exhausted: s.deadline_exhausted,
            answer: s.answer,
        }
    }
}

/// Aggregate statistics of one replay.
#[derive(Debug, Clone, Default)]
pub struct RunOutcome {
    /// Every served answer, in trace order.
    pub answers: Vec<ScenarioAnswer>,
    /// Total edges arrived.
    pub arrivals: usize,
    /// Total edges deleted.
    pub deletions: usize,
    /// Checkpoint events replayed.
    pub checkpoints: usize,
    /// Faults injected.
    pub faults: usize,
    /// How many answers had their fetch budget exhausted.
    pub budget_exhausted: usize,
}

/// Hooks a replay invokes at checkpoint events and chaos fault points.  Both take
/// the serving session by value and return the session to continue with — possibly
/// a brand-new one reopened from durable storage.
pub trait ReplayHooks<E: ServeEngine> {
    /// Called at every [`Event::Checkpoint`].  The default is a no-op (in-memory
    /// engines have nothing to checkpoint).
    fn on_checkpoint(&mut self, serving: QueryEngine<E>) -> QueryEngine<E> {
        serving
    }

    /// Called after the event at a fault point designated by the [`ChaosPlan`].
    /// The default ignores the fault.
    fn on_fault(&mut self, fault: &Fault, serving: QueryEngine<E>) -> QueryEngine<E> {
        let _ = fault;
        serving
    }
}

/// The no-op hooks: checkpoints and faults leave the session untouched.
#[derive(Debug, Default)]
pub struct NoHooks;

impl<E: ServeEngine> ReplayHooks<E> for NoHooks {}

/// The telemetry side-channel of [`ScenarioRunner::replay_sampled`]: the
/// registry the serving session records into, plus the JSONL sink receiving one
/// labeled whole-stack snapshot per sampled point.
#[derive(Debug)]
pub struct TelemetrySampler<'a, W: Write> {
    tele: &'a Telemetry,
    out: &'a mut JsonlAppender<W>,
}

impl<'a, W: Write> TelemetrySampler<'a, W> {
    /// A sampler recording through `tele` and appending to `out`.
    pub fn new(tele: &'a Telemetry, out: &'a mut JsonlAppender<W>) -> Self {
        TelemetrySampler { tele, out }
    }

    /// Appends one labeled snapshot of the serving session's whole stack.
    fn sample<E: ServeEngine>(&mut self, serving: &QueryEngine<E>, label: &str) -> io::Result<()> {
        let snap = serving
            .telemetry_snapshot()
            .expect("replay_sampled always attaches its registry")
            .with_label(label);
        self.out.append(&snap)
    }
}

/// Replays traces through serving sessions.
#[derive(Debug, Clone, Copy)]
pub struct ScenarioRunner {
    /// Seed of the serving session's query streams.
    pub query_seed: u64,
    /// Reader threads serving each query batch.
    pub readers: usize,
    /// Batched-serving width: query tides are chunked into [`QueryBatch`]es of
    /// this many queries and served via [`ReaderPool::serve_batch`] (0 = the
    /// per-query [`ReaderPool::serve_all`] path).  Answers are bit-identical at
    /// every width — that is the batched-execution invariant the corpus
    /// harness checks.
    pub batch_width: usize,
}

impl ScenarioRunner {
    /// A runner serving with `readers` reader threads; query streams are keyed by
    /// the scenario's own seed at replay time.  The batch width defaults to the
    /// `PPR_BATCH_WIDTH` environment variable (CI sweeps it), else 0.
    pub fn new(readers: usize) -> Self {
        ScenarioRunner {
            query_seed: 0,
            readers,
            batch_width: std::env::var("PPR_BATCH_WIDTH")
                .ok()
                .and_then(|v| v.parse().ok())
                .unwrap_or(0),
        }
    }

    /// Overrides the query-stream seed (defaults to the scenario seed).
    pub fn with_query_seed(mut self, query_seed: u64) -> Self {
        self.query_seed = query_seed;
        self
    }

    /// Serves query tides in batches of `width` queries through the batched
    /// execution path (0 restores per-query serving).
    pub fn with_batch_width(mut self, width: usize) -> Self {
        self.batch_width = width;
        self
    }

    /// Serves one query tide: per query when `batch_width` is 0, else chunked
    /// through the one-pin-per-batch path.  Either way, answers come back in
    /// tide order.
    fn serve_jobs(
        &self,
        pool: &ReaderPool,
        handle: &ServeHandle,
        jobs: &[(u64, Query)],
    ) -> Vec<Served> {
        if self.batch_width == 0 {
            return pool.serve_all(handle, jobs);
        }
        let mut out = Vec::with_capacity(jobs.len());
        for chunk in jobs.chunks(self.batch_width) {
            out.extend(pool.serve_batch(handle, &QueryBatch::of(chunk)));
        }
        out
    }

    /// Replays `trace` through `engine` with no chaos and no checkpoint action.
    pub fn replay<E: ServeEngine>(&self, trace: &Trace, engine: E) -> (E, RunOutcome) {
        self.replay_with(trace, engine, &ChaosPlan::none(), &mut NoHooks)
    }

    /// Replays `trace` with telemetry attached: the serving session's commit and
    /// query lifecycles record into the sampler's registry, and one labeled
    /// whole-stack snapshot line is appended to its JSONL sink at every phase
    /// boundary plus a `"final"` sample after the last event.  Chaos- and
    /// hook-free (a crash hook rebuilds the serving session, which would detach
    /// the instruments mid-run); telemetry observes only, so answers and final
    /// store state are bit-identical to [`ScenarioRunner::replay`].
    pub fn replay_sampled<E: ServeEngine, W: Write>(
        &self,
        trace: &Trace,
        engine: E,
        sampler: &mut TelemetrySampler<'_, W>,
    ) -> io::Result<(E, RunOutcome)> {
        let query_seed = if self.query_seed != 0 {
            self.query_seed
        } else {
            trace.scenario.seed
        };
        let mut serving = QueryEngine::new(engine, query_seed).with_telemetry(sampler.tele);
        let pool = ReaderPool::new(self.readers.max(1));
        let mut outcome = RunOutcome::default();
        let mut current_phase = None;
        for event in &trace.events {
            if let Some(prev) = current_phase {
                if prev != event.phase {
                    sampler.sample(&serving, &format!("phase{prev}"))?;
                }
            }
            current_phase = Some(event.phase);
            match &event.event {
                Event::Arrivals(edges) => {
                    if !edges.is_empty() {
                        serving.commit_arrivals(edges);
                        outcome.arrivals += edges.len();
                    }
                }
                Event::Deletions(edges) => {
                    if !edges.is_empty() {
                        serving.commit_deletions(edges);
                        outcome.deletions += edges.len();
                    }
                }
                Event::Queries(jobs) => {
                    if !jobs.is_empty() {
                        let handle = serving.handle();
                        for served in self.serve_jobs(&pool, &handle, jobs) {
                            if served.budget_exhausted {
                                outcome.budget_exhausted += 1;
                            }
                            outcome.answers.push(served.into());
                        }
                    }
                }
                Event::Checkpoint => outcome.checkpoints += 1,
            }
        }
        sampler.sample(&serving, "final")?;
        Ok((serving.into_engine(), outcome))
    }

    /// Replays `trace` through `engine`, invoking `hooks` at checkpoint events and
    /// at the fault points `plan` designates.  Returns the final engine (whatever
    /// engine the last hook left serving) and the run's outcome.
    pub fn replay_with<E: ServeEngine, H: ReplayHooks<E>>(
        &self,
        trace: &Trace,
        engine: E,
        plan: &ChaosPlan,
        hooks: &mut H,
    ) -> (E, RunOutcome) {
        let query_seed = if self.query_seed != 0 {
            self.query_seed
        } else {
            trace.scenario.seed
        };
        let mut serving = QueryEngine::new(engine, query_seed);
        let pool = ReaderPool::new(self.readers.max(1));
        let mut outcome = RunOutcome::default();
        for (index, event) in trace.events.iter().enumerate() {
            match &event.event {
                Event::Arrivals(edges) => {
                    if !edges.is_empty() {
                        serving.commit_arrivals(edges);
                        outcome.arrivals += edges.len();
                    }
                }
                Event::Deletions(edges) => {
                    if !edges.is_empty() {
                        serving.commit_deletions(edges);
                        outcome.deletions += edges.len();
                    }
                }
                Event::Queries(jobs) => {
                    if !jobs.is_empty() {
                        // Re-acquire the handle each batch: a crash hook may have
                        // replaced the whole serving session since the last one.
                        let handle = serving.handle();
                        for served in self.serve_jobs(&pool, &handle, jobs) {
                            if served.budget_exhausted {
                                outcome.budget_exhausted += 1;
                            }
                            outcome.answers.push(served.into());
                        }
                    }
                }
                Event::Checkpoint => {
                    serving = hooks.on_checkpoint(serving);
                    outcome.checkpoints += 1;
                }
            }
            for fault in plan.faults_after(index) {
                serving = hooks.on_fault(fault, serving);
                outcome.faults += 1;
            }
        }
        (serving.into_engine(), outcome)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus;
    use crate::trace::Trace;
    use ppr_core::IncrementalPageRank;
    use ppr_store::{StoreDigest, WalkStore};

    #[test]
    fn replay_is_reader_count_invariant_and_pure() {
        let scenario = corpus::steady_mix();
        let trace = Trace::compile(&scenario);
        let make = || {
            IncrementalPageRank::<WalkStore>::new_empty(scenario.nodes, scenario.engine_config())
        };
        let (e1, o1) = ScenarioRunner::new(1).replay(&trace, make());
        let (e4, o4) = ScenarioRunner::new(4).replay(&trace, make());
        assert_eq!(o1.answers, o4.answers, "answers are pool-width invariant");
        assert_eq!(
            StoreDigest::of(e1.walk_store()),
            StoreDigest::of(e4.walk_store()),
        );
        assert_eq!(e1.scores(), e4.scores());
        assert!(o1.arrivals > 0);
        assert_eq!(o1.answers.len(), trace.query_count());
    }

    #[test]
    fn sampled_replay_exports_valid_jsonl_and_matches_the_plain_replay() {
        let scenario = corpus::steady_mix();
        let trace = Trace::compile(&scenario);
        let make = || {
            IncrementalPageRank::<WalkStore>::new_empty(scenario.nodes, scenario.engine_config())
        };
        let (plain_engine, plain) = ScenarioRunner::new(2).replay(&trace, make());

        let tele = ppr_telemetry::Telemetry::new();
        let mut out = ppr_telemetry::JsonlAppender::new(Vec::new());
        let mut sampler = TelemetrySampler::new(&tele, &mut out);
        let (sampled_engine, sampled) = ScenarioRunner::new(2)
            .replay_sampled(&trace, make(), &mut sampler)
            .expect("in-memory sink never fails");

        assert_eq!(plain.answers, sampled.answers, "telemetry observes only");
        assert_eq!(
            StoreDigest::of(plain_engine.walk_store()),
            StoreDigest::of(sampled_engine.walk_store()),
        );

        let phases = trace.scenario.phases.len();
        assert_eq!(out.lines(), phases as u64, "one line per phase + final");
        let exported = out.into_inner().expect("flushing a Vec cannot fail");
        let exported = String::from_utf8(exported).expect("JSONL is UTF-8");
        for line in exported.lines() {
            ppr_telemetry::json::validate(line)
                .unwrap_or_else(|(at, what)| panic!("invalid JSONL at byte {at}: {what}"));
        }
        assert!(exported.contains("\"label\":\"final\""));
        assert!(exported.contains("commit.commits"));
        assert!(exported.contains("query.latency"));
    }
}
