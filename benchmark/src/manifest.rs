//! The benchmark's contract in one place: workloads, end-to-end metrics with
//! their fixed regression bounds, and per-layer metrics.  `BENCHMARK.json` at
//! the repository root is this table rendered by `--emit-manifest`; a self-test
//! holds the two equal.

/// Seconds one run measures (the sizes in `workloads.rs` are per second).
pub const RUN_SECONDS: u64 = 8;

pub struct WorkloadDef {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [WorkloadDef; 5] = [
    WorkloadDef {
        name: "ingest_stream",
        why: "Write path with the heap resident: reroute, arena, WAL, snapshot and mirror do most of their work here; walker, top-k and fetch cache run only in the short probe after the restart.",
    },
    WorkloadDef {
        name: "query_flood",
        why: "Read path on one warm generation: walker, top-k, pin and fetch cache do all the work; reroute, WAL and mirror run only in the short top-up before the flood.",
    },
    WorkloadDef {
        name: "mixed_tides",
        why: "Open-loop writer interleaved with a closed-loop batch reader: every commit publishes a generation, so the read caches restart cold 125 times a second; a commit is timed from when it was due.",
    },
    WorkloadDef {
        name: "paged_restart",
        why: "Store ten times larger than the page budget: restart, WAL replay, commits and uniform-seed queries all go through pager faults and evictions, which ingest_stream never does.",
    },
    WorkloadDef {
        name: "salsa_churn",
        why: "The second walk kind in memory, without persist: 2R alternating segments, per-edge deletions and SALSA queries, so an engine change is not masked by fsync.",
    },
];

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

pub const END_TO_END: [EndToEnd; 8] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "ingest_edges_per_s",
        unit: "edges/s",
        better: "higher",
        bound: 0.25,
    },
    EndToEnd {
        name: "commit_p50_us",
        unit: "us",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "recovery_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "query_qps",
        unit: "1/s",
        better: "higher",
        bound: 0.25,
    },
    EndToEnd {
        name: "query_p50_us",
        unit: "us",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "query_p90_us",
        unit: "us",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "resident_bytes_per_node",
        unit: "B",
        better: "lower",
        bound: 0.25,
    },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> PerLayer {
    PerLayer { name, unit, better }
}

pub const PER_LAYER: [PerLayer; 67] = [
    layer("graph.apply_ns_per_edge", "ns", "lower"),
    layer("store.arena_compactions", "count", "lower"),
    layer("store.arena_compaction_ms", "ms", "lower"),
    layer("store.arena_relocations", "count", "lower"),
    layer("store.arena_dead_fraction", "ratio", "lower"),
    layer("core.apply_ns_per_edge", "ns", "lower"),
    layer("core.delete_ns_per_edge", "ns", "lower"),
    layer("core.reroute_steps_per_arrival", "count", "lower"),
    layer("core.segments_per_arrival", "count", "lower"),
    layer("core.arrivals_filtered_share", "ratio", "higher"),
    layer("core.init_walks_s", "s", "lower"),
    layer("core.walk_ns_per_visit", "ns", "lower"),
    layer("core.topk_us", "us", "lower"),
    layer("core.visits_per_query", "count", "lower"),
    layer("core.salsa_apply_ns_per_edge", "ns", "lower"),
    layer("core.salsa_delete_ns_per_edge", "ns", "lower"),
    layer("core.salsa_steps_per_arrival", "count", "lower"),
    layer("persist.wal_append_us_per_batch", "us", "lower"),
    layer("persist.wal_bytes_per_edge", "B", "lower"),
    layer("persist.bytes_written_per_edge", "B", "lower"),
    layer("persist.checkpoint_s", "s", "lower"),
    layer("persist.checkpoint_max_ms", "ms", "lower"),
    layer("persist.checkpoint_bytes", "B", "lower"),
    layer("persist.pages_rewritten", "count", "lower"),
    layer("persist.pages_reused", "count", "higher"),
    layer("persist.open_ms", "ms", "lower"),
    layer("persist.replay_edges_per_s", "edges/s", "higher"),
    layer("persist.disk_bytes_per_edge", "B", "lower"),
    layer("persist.pager_loads", "count", "lower"),
    layer("persist.pager_hits", "count", "higher"),
    layer("persist.pager_hit_rate", "ratio", "higher"),
    layer("persist.pager_evictions", "count", "lower"),
    layer("persist.pager_refaults", "count", "lower"),
    layer("persist.pager_bytes_read", "B", "lower"),
    layer("persist.resident_page_bytes", "B", "lower"),
    layer("serve.commit_apply_ms", "ms", "lower"),
    layer("serve.commit_mirror_ms", "ms", "lower"),
    layer("serve.commit_wal_sync_ms", "ms", "lower"),
    layer("serve.commit_publish_ms", "ms", "lower"),
    layer("serve.commit_overhead_ratio", "ratio", "lower"),
    layer("serve.chunks_copied_per_commit", "count", "lower"),
    layer("serve.mirror_seed_ms", "ms", "lower"),
    layer("serve.commit_call_p50_us", "us", "lower"),
    layer("serve.commit_p99_us", "us", "lower"),
    layer("serve.visibility_lag_p99_us", "us", "lower"),
    layer("serve.query_pin_ns", "ns", "lower"),
    layer("serve.query_walk_us", "us", "lower"),
    layer("serve.query_topk_us", "us", "lower"),
    layer("serve.query_overhead_us", "us", "lower"),
    layer("serve.fetches_per_query", "count", "lower"),
    layer("serve.fetch_cache_hit_rate", "ratio", "higher"),
    layer("serve.batch_fetch_saved_per_query", "count", "higher"),
    layer("serve.query_p99_us", "us", "lower"),
    layer("serve.query_p999_us", "us", "lower"),
    layer("serve.global_topk_us", "us", "lower"),
    layer("model.thm4_steps_per_arrival", "count", "lower"),
    layer("model.reroute_vs_thm4", "ratio", "lower"),
    layer("model.eq4_fetches_per_query", "count", "lower"),
    layer("model.fetches_vs_eq4", "ratio", "lower"),
    layer("quality.pagerank_l1_error", "ratio", "lower"),
    layer("quality.topk_precision_at_10", "ratio", "higher"),
    layer("trace.overhead_share", "ratio", "lower"),
    layer("trace.unattributed_share", "ratio", "lower"),
    layer("proc.cpu_user_s", "s", "lower"),
    layer("proc.cpu_sys_s", "s", "lower"),
    layer("gen.build_s", "s", "lower"),
    layer("gen.lateness_p99_us", "us", "lower"),
];

/// One JSON array, an object per line.
fn rows<T>(items: &[T], row: impl Fn(&T) -> String) -> String {
    let lines: Vec<String> = items
        .iter()
        .map(|item| format!("    {}", row(item)))
        .collect();
    format!("[\n{}\n  ]", lines.join(",\n"))
}

/// Renders `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let workloads = rows(&WORKLOADS, |w| {
        format!("{{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why)
    });
    let end_to_end = rows(&END_TO_END, |m| {
        format!(
            "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
            m.name, m.unit, m.better, m.bound
        )
    });
    let per_layer = rows(&PER_LAYER, |m| {
        format!(
            "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
            m.name, m.unit, m.better
        )
    });
    format!(
        "{{\n  \"command\": [\"bash\", \"benchmark/run.sh\"],\n  \"paths\": [\"benchmark\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": {workloads},\n  \"end_to_end\": {end_to_end},\n  \"per_layer\": {per_layer}\n}}\n"
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn the_committed_manifest_is_the_rendered_table() {
        let committed = include_str!("../../BENCHMARK.json");
        assert_eq!(
            committed,
            benchmark_json(),
            "regenerate with `benchmark/run.sh --emit-manifest > BENCHMARK.json`"
        );
    }

    #[test]
    fn the_table_stays_inside_the_contract_limits() {
        let name_ok = |name: &str| {
            name.len() <= 64
                && name.starts_with(|c: char| c.is_ascii_alphanumeric())
                && name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let unit_ok = |unit: &str| {
            unit.len() <= 16
                && unit
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut seen = HashSet::new();
        for w in &WORKLOADS {
            assert!(name_ok(w.name) && seen.insert(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        for m in &END_TO_END {
            assert!(name_ok(m.name) && seen.insert(m.name), "{}", m.name);
            assert!(
                unit_ok(m.unit) && m.bound > 0.0 && m.bound <= 0.25,
                "{}",
                m.name
            );
            assert!(matches!(m.better, "lower" | "higher"));
        }
        for m in &PER_LAYER {
            assert!(name_ok(m.name) && seen.insert(m.name), "{}", m.name);
            assert!(unit_ok(m.unit), "{}", m.name);
            assert!(matches!(m.better, "lower" | "higher"));
        }
        let setup = &END_TO_END[0];
        assert_eq!(
            (setup.name, setup.unit, setup.better),
            ("setup_s", "s", "lower")
        );
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        assert!((2..=8).contains(&WORKLOADS.len()) && PER_LAYER.len() <= 128);
        assert!(benchmark_json().len() < 64 * 1024);
        assert!((1..=60).contains(&RUN_SECONDS));
    }
}
