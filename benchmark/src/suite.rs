//! Sets of runs: every workload in its own child process, medians over
//! `--runs`, the results file, and `--calibrate`.

use crate::manifest::{END_TO_END, WORKLOADS};
use crate::report::{fmt_value, parse_result_line};
use crate::stats::{median, quartile_spread};
use crate::Args;
use std::collections::BTreeMap;
use std::io::Write;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

/// One child run's verdict and metrics.
struct ChildResult {
    ok: bool,
    metrics: Vec<(String, f64)>,
}

/// Runs one workload once in a child process, echoing its report lines.
fn run_child(args: &Args, workload: &str, seed: u64, traced: bool) -> ChildResult {
    let exe = std::env::current_exe().expect("cannot locate the benchmark binary");
    let mut command = Command::new(exe);
    command
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .arg("--dir")
        .arg(&args.dir)
        .arg("--out")
        .arg(&args.out)
        .stdout(Stdio::piped());
    if args.smoke {
        command.arg("--smoke");
    }
    let output = command
        .spawn()
        .and_then(|child| child.wait_with_output())
        .expect("cannot run the benchmark binary");
    let text = String::from_utf8_lossy(&output.stdout);
    let mut lines: Vec<&str> = text.lines().collect();
    let parsed = lines.pop().and_then(parse_result_line);
    for line in lines {
        println!("{line}");
    }
    match parsed {
        Some(line) => ChildResult {
            ok: output.status.success() && line.correct && line.failed == 0,
            metrics: line.metrics,
        },
        None => {
            println!(
                "# FAILED {workload}: no result line (exit {:?})",
                output.status.code()
            );
            ChildResult {
                ok: false,
                metrics: Vec::new(),
            }
        }
    }
}

fn selected(args: &Args) -> Vec<&'static str> {
    WORKLOADS
        .iter()
        .map(|w| w.name)
        .filter(|name| args.workload.is_none_or(|only| only == *name))
        .collect()
}

/// `(workload, metric) → one value per run`.
type Table = BTreeMap<(String, String), Vec<f64>>;

/// Runs one child and files its metrics; `false` if any of its checks failed.
fn run_into(table: &mut Table, args: &Args, workload: &str, seed: u64, traced: bool) -> bool {
    let run = run_child(args, workload, seed, traced);
    for (metric, value) in run.metrics {
        table
            .entry((workload.to_string(), metric))
            .or_default()
            .push(value);
    }
    run.ok
}

fn write_results(args: &Args, file: &str, seeds: &[u64], table: &Table, ok: bool) {
    let path = args.out.join(file);
    let mut text = format!(
        "{{\n  \"seconds\": {},\n  \"seeds\": {seeds:?},\n  \"correct\": {ok},\n  \"values\": [\n",
        fmt_value(args.seconds)
    );
    let rows: Vec<String> = table
        .iter()
        .map(|((workload, metric), values)| {
            let list: Vec<String> = values.iter().map(|v| fmt_value(*v)).collect();
            format!(
                "    {{\"workload\": \"{workload}\", \"metric\": \"{metric}\", \"median\": {}, \"runs\": [{}]}}",
                fmt_value(median(values)),
                list.join(", ")
            )
        })
        .collect();
    text.push_str(&rows.join(",\n"));
    text.push_str("\n  ]\n}\n");
    let written = std::fs::create_dir_all(&args.out)
        .and_then(|()| std::fs::File::create(&path))
        .and_then(|mut f| f.write_all(text.as_bytes()));
    match written {
        Ok(()) => println!("# results written to {}", path.display()),
        Err(e) => println!("# cannot write {}: {e}", path.display()),
    }
}

/// One set: each selected workload `--runs` times untraced on `--seed`, once
/// more traced with `--traced`; prints the medians and writes the results file.
pub fn run_set(args: &Args) -> ExitCode {
    let started = Instant::now();
    let mut table = Table::new();
    let mut ok = true;
    for workload in selected(args) {
        for _ in 0..args.runs.max(1) {
            ok &= run_into(&mut table, args, workload, args.seed, false);
        }
        if args.traced {
            ok &= run_into(&mut table, args, workload, args.seed, true);
        }
    }
    println!(
        "# medians over {} run(s) on seed {}",
        args.runs.max(1),
        args.seed
    );
    for ((workload, metric), values) in &table {
        println!(
            "{metric} {workload} {} n={}",
            fmt_value(median(values)),
            values.len()
        );
    }
    write_results(args, "results.json", &[args.seed], &table, ok);
    println!(
        "# set of {} workload(s) took {:.1} s; {}",
        selected(args).len(),
        started.elapsed().as_secs_f64(),
        if ok {
            "every check held"
        } else {
            "SOME CHECK FAILED"
        }
    );
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(2)
    }
}

/// `--calibrate K`: K untraced sets on seeds `--seed .. --seed + K`, then per
/// end-to-end metric and workload the min / median / max and the quartile
/// spread as a share of the median, flagged where it exceeds the bound.
pub fn calibrate(args: &Args) -> ExitCode {
    let started = Instant::now();
    let seeds: Vec<u64> = (0..args.calibrate as u64).map(|i| args.seed + i).collect();
    let mut table = Table::new();
    let mut ok = true;
    for &seed in &seeds {
        for workload in selected(args) {
            ok &= run_into(&mut table, args, workload, seed, false);
        }
    }
    println!("# calibration over seeds {seeds:?}: spread = (q3 - q1) / median");
    println!("# metric workload min median max spread bound verdict");
    let mut over = 0;
    for ((workload, metric), values) in &table {
        let Some(def) = END_TO_END.iter().find(|m| m.name == metric) else {
            continue;
        };
        let spread = if values.len() >= 2 {
            quartile_spread(values)
        } else {
            0.0
        };
        let min = values.iter().copied().fold(f64::INFINITY, f64::min);
        let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let verdict = if spread > def.bound {
            over += 1;
            "OVER-BOUND"
        } else if spread > def.bound / 3.0 {
            "above-a-third"
        } else {
            "ok"
        };
        println!(
            "{metric} {workload} {} {} {} {:.4} {} {verdict}",
            fmt_value(min),
            fmt_value(median(values)),
            fmt_value(max),
            spread,
            def.bound
        );
    }
    write_results(args, "calibration.json", &seeds, &table, ok);
    println!(
        "# {} set(s) took {:.1} s; {over} metric(s) over their bound; {}",
        seeds.len(),
        started.elapsed().as_secs_f64(),
        if ok {
            "every check held"
        } else {
            "SOME CHECK FAILED"
        }
    );
    if ok && over == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(2)
    }
}
