//! The repo's benchmark.  See `benchmark/README.md`.
//!
//! Two ways to run it:
//!
//! * **one run** — `--workload W --seed N --seconds S --trace 0|1` runs one
//!   workload in this process and prints, as the last line of standard output,
//!   the JSON result the contract in `BENCHMARK.json` describes;
//! * **a set** — without `--trace`, every workload (or the one named) runs in
//!   its own child process, `--runs` times, and the medians are printed and
//!   written to the results file.  `--calibrate K` runs K sets on K seeds and
//!   reports each end-to-end metric's spread against its bound.

mod checks;
mod inputs;
mod iso;
mod manifest;
mod procfs;
mod report;
mod spans;
mod stats;
mod suite;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;
use workloads::{PassMode, RunConfig};

#[derive(Debug, Clone)]
pub struct Args {
    pub workload: Option<&'static str>,
    pub seed: u64,
    pub seconds: f64,
    pub trace: Option<bool>,
    pub dir: PathBuf,
    pub out: PathBuf,
    pub runs: usize,
    pub traced: bool,
    pub smoke: bool,
    pub calibrate: usize,
    pub emit_manifest: bool,
}

const USAGE: &str = "usage: run.sh [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
              [--dir PATH] [--out PATH] [--runs K] [--traced] [--smoke]
              [--calibrate K] [--emit-manifest]";

fn parse_args(raw: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: manifest::RUN_SECONDS as f64,
        trace: None,
        dir: PathBuf::from("benchmark/out/stores"),
        out: PathBuf::from("benchmark/out"),
        runs: 1,
        traced: false,
        smoke: false,
        calibrate: 0,
        emit_manifest: false,
    };
    let mut raw = raw;
    while let Some(flag) = raw.next() {
        let mut value = |what: &str| raw.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                let known = manifest::WORKLOADS.iter().find(|w| w.name == name);
                args.workload = Some(known.ok_or(format!("unknown workload {name}"))?.name);
            }
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".to_string());
                }
            }
            "--trace" => {
                args.trace = Some(match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            "--dir" => args.dir = PathBuf::from(value("a path")?),
            "--out" => args.out = PathBuf::from(value("a path")?),
            "--runs" => {
                args.runs = value("a number")?
                    .parse()
                    .map_err(|e| format!("--runs: {e}"))?
            }
            "--calibrate" => {
                args.calibrate = value("a number")?
                    .parse()
                    .map_err(|e| format!("--calibrate: {e}"))?
            }
            "--traced" => args.traced = true,
            "--smoke" => args.smoke = true,
            "--emit-manifest" => args.emit_manifest = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.smoke && args.seconds == manifest::RUN_SECONDS as f64 {
        args.seconds = 1.0;
    }
    Ok(args)
}

/// One workload in this process; the result line goes last.
fn run_one(args: &Args, workload: &'static str, traced: bool) -> ExitCode {
    let started = Instant::now();
    let cfg = RunConfig {
        workload,
        seed: args.seed,
        seconds: args.seconds,
        dir: args.dir.clone(),
        smoke: args.smoke,
    };
    println!(
        "# {workload}: seed {} seconds {} trace {} | epsilon {} R {} engine_seed {:#x} query_seed {} | k {} walk_length {} | WAL flush: fdatasync per batch (default DurabilityOptions) | threads available {}",
        cfg.seed,
        cfg.seconds,
        traced as u8,
        workloads::EPSILON,
        workloads::R,
        workloads::ENGINE_SEED,
        workloads::QUERY_SEED,
        workloads::K,
        workloads::WALK_LENGTH,
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );
    let origin = Instant::now();
    let mut off = spans::Recorder::new(false, origin, 0);
    let (values, attempted, failed, notes) = if traced {
        // The untraced pass first, so the traced one has a window to be held
        // against; one set-up and one restart each.
        let once = PassMode {
            traced: false,
            setup_reps: 1,
            recovery_reps: 1,
        };
        let plain = workloads::run_pass(&cfg, once, &mut off);
        let mut rec = spans::Recorder::new(true, origin, 1 << 20);
        let mut m = workloads::run_pass(
            &cfg,
            PassMode {
                traced: true,
                ..once
            },
            &mut rec,
        );
        let values = report::per_layer(&plain, &mut m, &rec);
        let trace = args.out.join(format!("{workload}.trace.jsonl"));
        match rec.write_jsonl(&trace) {
            Ok(()) => println!(
                "# {} spans written to {}",
                rec.spans().len(),
                trace.display()
            ),
            Err(e) => m.attempt(false, || format!("cannot write {}: {e}", trace.display())),
        }
        for (name, totals) in rec.totals() {
            println!(
                "# span {name} {workload}: n={} total {:.3} ms self {:.3} ms",
                totals.count,
                totals.total_ns as f64 / 1e6,
                totals.self_ns as f64 / 1e6
            );
        }
        let attempted = plain.attempted + m.attempted;
        let failed = plain.failed + m.failed;
        let notes: Vec<String> = plain.notes.into_iter().chain(m.notes).collect();
        (values, attempted, failed, notes)
    } else {
        let repeated = PassMode {
            traced: false,
            setup_reps: 3,
            recovery_reps: 5,
        };
        let m = workloads::run_pass(&cfg, repeated, &mut off);
        println!(
            "# inputs {:#018x} | window {:.3} s | peak-RSS watermark reset: {}",
            m.input_digest,
            m.window_ns() as f64 / 1e9,
            m.peak_was_reset
        );
        report::print_tails(workload, &m);
        (report::end_to_end(&m), m.attempted, m.failed, m.notes)
    };
    report::print_values(workload, &values);
    for note in &notes {
        println!("# FAILED {workload}: {note}");
    }
    println!(
        "failed_share {workload} {} ratio n={attempted}",
        report::fmt_value(failed as f64 / attempted.max(1) as f64)
    );
    println!(
        "# {workload} took {:.1} s in all",
        started.elapsed().as_secs_f64()
    );
    println!("{}", report::result_line(&values, attempted, failed));
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(2)
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(64);
        }
    };
    if args.emit_manifest {
        print!("{}", manifest::benchmark_json());
        return ExitCode::SUCCESS;
    }
    match (args.trace, args.workload) {
        (Some(traced), Some(workload)) => run_one(&args, workload, traced),
        (Some(_), None) => {
            eprintln!("--trace needs --workload\n{USAGE}");
            ExitCode::from(64)
        }
        (None, _) if args.calibrate > 0 => suite::calibrate(&args),
        (None, _) => suite::run_set(&args),
    }
}
