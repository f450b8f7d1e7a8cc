//! Turns what a run measured into the named metrics of the manifest, prints
//! them as `name workload value unit`, and renders the result line.

use crate::manifest::{END_TO_END, PER_LAYER};
use crate::spans::Recorder;
use crate::stats::{
    best_of, best_stretch, highest_supported_percentile, median, percentile, segments, Better,
};
use crate::workloads::{Measured, Write};
use std::collections::BTreeMap;

/// One named value with the number of samples behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Value {
    pub value: f64,
    pub samples: usize,
}

pub type Values = BTreeMap<&'static str, Value>;

fn put(values: &mut Values, name: &'static str, value: f64, samples: usize) {
    values.insert(name, Value { value, samples });
}

fn mean_ns(calls: &[u64]) -> f64 {
    calls.iter().sum::<u64>() as f64 / calls.len().max(1) as f64
}

fn p_us(p: f64) -> impl Fn(&[u64]) -> f64 {
    move |calls| percentile(calls, p) as f64 / 1e3
}

/// Edges committed per second spent inside commit calls, with the box's slow
/// stretches taken out.
///
/// A few commits in a hundred cost fifty times the median (an edge out of an
/// old, much-visited node) and make up half of all commit time, so the rate
/// has to be taken over the whole run: no single segment holds a fair share of
/// them.  But over the whole run it moves with every disturbance of the box.
/// So each segment's busy time is first scaled by `reference p50 ÷ that
/// segment's p50`, the reference being the second best segment's — the
/// segment's own median commit is the yardstick for how disturbed it was, and
/// an undisturbed run is left as measured.
fn edges_per_s(writes: &[Write]) -> f64 {
    let call_ns: Vec<u64> = writes.iter().map(|w| w.call_ns).collect();
    let reference = best_stretch(&call_ns, Better::Lower, p_us(0.5));
    let busy_ns: f64 = segments(&call_ns)
        .map(|segment| {
            let busy: u64 = segment.iter().sum();
            busy as f64 * (reference / p_us(0.5)(segment).max(1e-3)).min(1.0)
        })
        .sum();
    let edges: u64 = writes.iter().map(|w| w.edges as u64).sum();
    edges as f64 / (busy_ns.max(1.0) / 1e9)
}

/// The end-to-end metrics of one untraced pass.  Every timing and rate is the
/// second best of sixteen contiguous segments of the run (see
/// [`crate::stats::best_stretch`]); set-up and restart, the best of their
/// repetitions.
pub fn end_to_end(m: &Measured) -> Values {
    use Better::{Higher, Lower};
    let mut out = Values::new();
    put(&mut out, "setup_s", best_of(&m.setup_s), m.setup_s.len());
    put(
        &mut out,
        "ingest_edges_per_s",
        edges_per_s(&m.writes),
        m.writes.len(),
    );
    let commits: Vec<u64> = m.arrival_commits().map(|w| w.client_ns).collect();
    put(
        &mut out,
        "commit_p50_us",
        best_stretch(&commits, Lower, p_us(0.5)),
        commits.len(),
    );
    put(
        &mut out,
        "recovery_s",
        best_of(&m.recovery_s),
        m.recovery_s.len(),
    );
    let calls = &m.query_call_ns;
    let width = m.query_width as f64;
    put(
        &mut out,
        "query_qps",
        best_stretch(calls, Higher, |segment| {
            width * 1e9 / mean_ns(segment).max(1.0)
        }),
        m.queries as usize,
    );
    put(
        &mut out,
        "query_p50_us",
        best_stretch(calls, Lower, p_us(0.5)),
        calls.len(),
    );
    put(
        &mut out,
        "query_p90_us",
        best_stretch(calls, Lower, p_us(0.9)),
        calls.len(),
    );
    put(
        &mut out,
        "resident_bytes_per_node",
        m.peak_resident_bytes as f64 / m.nodes.max(1) as f64,
        1,
    );
    debug_assert!(END_TO_END
        .iter()
        .all(|metric| out.contains_key(metric.name)));
    out
}

/// What `weights`' operation counts would cost at `m`'s undisturbed per-call
/// means (writes and query calls weighed separately).
fn undisturbed_ns(m: &Measured, weights: &Measured) -> f64 {
    let writes: Vec<u64> = m.writes.iter().map(|w| w.call_ns).collect();
    weights.writes.len() as f64 * best_stretch(&writes, Better::Lower, mean_ns)
        + weights.query_call_ns.len() as f64
            * best_stretch(&m.query_call_ns, Better::Lower, mean_ns)
}

/// The per-layer metrics of a traced run: `plain` is the untraced pass made
/// first in the same process, `traced` the pass with telemetry and spans on.
pub fn per_layer(plain: &Measured, traced: &mut Measured, rec: &Recorder) -> Values {
    let totals = rec.totals();
    let span_mean_ms = |name: &str| {
        totals
            .get(name)
            .map_or(0.0, |t| t.total_ns as f64 / t.count.max(1) as f64 / 1e6)
    };
    let mut layer = std::mem::take(&mut traced.layer);
    let iso_query_us = layer.remove("_iso_query_us").unwrap_or(0.0);
    let mut set = |name: &'static str, value: f64| {
        layer.insert(name, value);
    };

    let edges: u64 = traced.writes.iter().map(|w| w.edges as u64).sum();
    set(
        "persist.bytes_written_per_edge",
        traced.window_bytes_written as f64 / edges.max(1) as f64,
    );
    set("persist.checkpoint_s", median(&traced.checkpoint_s));
    let worst = traced.checkpoint_s.iter().copied().fold(0.0, f64::max);
    set("persist.checkpoint_max_ms", worst * 1e3);
    let bytes: Vec<f64> = traced.checkpoint_bytes.iter().map(|&b| b as f64).collect();
    set("persist.checkpoint_bytes", median(&bytes));
    let open_ms = span_mean_ms("persist.open");
    set("persist.open_ms", open_ms);
    // Snapshot load and WAL replay cannot be told apart from outside `open`,
    // so this is the tail over the whole call: a floor on the replay rate.
    let replay = if open_ms > 0.0 {
        traced.replay_edges as f64 / (open_ms / 1e3)
    } else {
        0.0
    };
    set("persist.replay_edges_per_s", replay);
    set(
        "persist.disk_bytes_per_edge",
        traced.disk_bytes as f64 / traced.disk_live_edges.max(1) as f64,
    );
    set("serve.mirror_seed_ms", span_mean_ms("serve.mirror_seed"));

    let calls: Vec<u64> = traced.arrival_commits().map(|w| w.call_ns).collect();
    let waits: Vec<u64> = traced.arrival_commits().map(|w| w.client_ns).collect();
    set("serve.commit_call_p50_us", p_us(0.5)(&calls));
    set("serve.commit_p99_us", p_us(0.99)(&calls));
    set("serve.visibility_lag_p99_us", p_us(0.99)(&waits));
    set("serve.query_p99_us", p_us(0.99)(&traced.query_call_ns));
    set("serve.query_p999_us", p_us(0.999)(&traced.query_call_ns));
    set("serve.global_topk_us", p_us(0.5)(&traced.global_ns));
    let queries = traced.queries.max(1) as f64;
    set("serve.fetches_per_query", traced.fetches as f64 / queries);
    if iso_query_us > 0.0 {
        let serve_us = mean_ns(&traced.query_call_ns) / traced.query_width as f64 / 1e3;
        set("serve.query_overhead_us", serve_us - iso_query_us);
    }

    // Instrument health.  The two passes run minutes apart on a box with two
    // speeds, so their windows cannot be compared directly: compare what the
    // same operations cost in each pass's undisturbed stretches.
    let overhead = undisturbed_ns(traced, plain) / undisturbed_ns(plain, plain).max(1.0) - 1.0;
    set("trace.overhead_share", overhead);
    let covered: u64 = traced
        .windows
        .iter()
        .map(|&(from, to)| rec.covered_ns(from, to))
        .sum();
    set(
        "trace.unattributed_share",
        1.0 - covered as f64 / traced.window_ns().max(1) as f64,
    );
    set("proc.cpu_user_s", traced.cpu_user_s);
    set("proc.cpu_sys_s", traced.cpu_sys_s);
    set("gen.build_s", traced.gen_build_s);
    set("gen.lateness_p99_us", p_us(0.99)(&traced.lateness_ns));

    // Every name of the manifest is emitted; one this workload does not
    // exercise reads 0.
    PER_LAYER
        .iter()
        .map(|metric| {
            let value = layer.get(metric.name).copied().unwrap_or(0.0);
            (metric.name, Value { value, samples: 1 })
        })
        .collect()
}

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        .find(|(n, _)| *n == name)
        .map_or("", |(_, unit)| unit)
}

/// `name workload value unit n=samples`, one line per metric.
pub fn print_values(workload: &str, values: &Values) {
    for (name, v) in values {
        println!(
            "{name} {workload} {} {} n={}",
            fmt_value(v.value),
            unit_of(name),
            v.samples
        );
    }
}

/// Whole-run timing tails beside the segment medians, each at the highest
/// percentile its sample supports.
pub fn print_tails(workload: &str, m: &Measured) {
    let commits: Vec<u64> = m.arrival_commits().map(|w| w.client_ns).collect();
    for (what, samples) in [("commit", &commits), ("query", &m.query_call_ns)] {
        let n = samples.len();
        if let Some(p) = highest_supported_percentile(n) {
            println!(
                "# {what} tail {workload}: p{} = {:.1} us (highest percentile with ten samples beyond it, n={n})",
                p * 100.0,
                percentile(samples, p) as f64 / 1e3
            );
        }
        // Where in the run a disturbance fell, if one did.
        let by_segment: Vec<String> = segments(samples)
            .map(|segment| format!("{:.0}", p_us(0.5)(segment)))
            .collect();
        println!(
            "# {what} p50 by segment {workload} (us): {}",
            by_segment.join(" ")
        );
    }
}

/// All digits, no exponent: the result line must parse as plain JSON numbers.
pub fn fmt_value(value: f64) -> String {
    if !value.is_finite() {
        return "0".to_string();
    }
    let text = format!("{value:.6}");
    if text.contains('.') {
        text.trim_end_matches('0').trim_end_matches('.').to_string()
    } else {
        text
    }
}

/// The last line of a run: `correct`, `attempted`, `failed`, `metrics`.
pub fn result_line(values: &Values, attempted: u64, failed: u64) -> String {
    let metrics: Vec<String> = values
        .iter()
        .map(|(name, v)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                fmt_value(v.value),
                unit_of(name)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        attempted.max(1),
        metrics.join(", ")
    )
}

/// A result line read back.
#[derive(Debug, PartialEq)]
pub struct ResultLine {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(String, f64)>,
}

/// Reads a result line back (the set runner's side of [`result_line`]).
pub fn parse_result_line(line: &str) -> Option<ResultLine> {
    let after = |key: &str| -> Option<&str> {
        let at = line.find(key)? + key.len();
        Some(line[at..].trim_start())
    };
    let number = |text: &str| -> Option<f64> {
        let end = text
            .find(|c: char| !(c.is_ascii_digit() || "+-.eE".contains(c)))
            .unwrap_or(text.len());
        text[..end].parse().ok()
    };
    let correct = after("\"correct\":")?.starts_with("true");
    let attempted = number(after("\"attempted\":")?)? as u64;
    let failed = number(after("\"failed\":")?)? as u64;
    let mut metrics = Vec::new();
    let mut rest = after("\"metrics\":")?;
    while let Some(at) = rest.find("\": {\"value\":") {
        let name_start = rest[..at].rfind('"')? + 1;
        let name = rest[name_start..at].to_string();
        rest = rest[at + "\": {\"value\":".len()..].trim_start();
        metrics.push((name, number(rest)?));
    }
    Some(ResultLine {
        correct,
        attempted,
        failed,
        metrics,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_result_line_survives_a_round_trip() {
        let mut values = Values::new();
        put(&mut values, "setup_s", 1.250_000_4, 3);
        put(&mut values, "query_qps", 7_654.321, 50_000);
        put(&mut values, "core.topk_us", 0.0, 1);
        let line = result_line(&values, 1_000, 0);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 1000, \"failed\": 0,"));
        let parsed = parse_result_line(&line).unwrap();
        assert!(parsed.correct);
        assert_eq!((parsed.attempted, parsed.failed), (1_000, 0));
        assert_eq!(
            parsed.metrics,
            vec![
                ("core.topk_us".to_string(), 0.0),
                ("query_qps".to_string(), 7_654.321),
                ("setup_s".to_string(), 1.25),
            ]
        );
        let failing = result_line(&values, 0, 2);
        let parsed = parse_result_line(&failing).unwrap();
        assert!(!parsed.correct);
        assert_eq!(
            (parsed.attempted, parsed.failed),
            (1, 2),
            "attempted is at least 1"
        );
    }

    #[test]
    fn values_print_with_all_their_digits_and_no_exponent() {
        assert_eq!(fmt_value(1.5), "1.5");
        assert_eq!(fmt_value(120.0), "120");
        assert_eq!(fmt_value(0.000_001_2), "0.000001");
        assert_eq!(fmt_value(12_345_678.912_345_6), "12345678.912346");
        assert_eq!(fmt_value(f64::NAN), "0");
    }
}
