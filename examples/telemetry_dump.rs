//! Telemetry dump: run a small serving session with the unified registry
//! attached, then print the full exposition snapshot — every layer's metrics in
//! one sorted view — in both Prometheus text format and as one JSONL sample.
//!
//! Run with: `cargo run --release --example telemetry_dump`

use fast_ppr::prelude::*;
use fast_ppr::telemetry::{render_jsonl_line, render_prometheus};
use ppr_graph::generators::{preferential_attachment_edges, PreferentialAttachmentConfig};
use ppr_serve::{Query, QueryBatch};

fn main() {
    // A synthetic follower graph arriving as an edge stream.
    let edges = preferential_attachment_edges(&PreferentialAttachmentConfig::new(2_000, 8, 42));
    let config = MonteCarloConfig::paper_defaults(4).with_seed(7);
    let engine = IncrementalPageRank::new_empty(2_000, config);

    // One registry observes the whole stack: attach it before the first commit
    // so the commit-stage spans (apply → mirror → publish) cover every published
    // generation.  This engine is in memory, so `commit.wal_sync` stays empty.
    let tele = Telemetry::new();
    let mut serving = QueryEngine::new(engine, 4242).with_telemetry(&tele);

    // Write path: commit the stream in 256-edge batches, each published inline.
    for chunk in edges.chunks(256) {
        serving.commit_arrivals(chunk);
    }

    // Read path: personalized top-k under a Corollary 9 fetch budget, so the
    // query spans, fetch histogram, and budget-exhausted counter all record.
    let handle = serving.handle();
    for qid in 0..64u64 {
        handle.serve(
            qid,
            &Query::PersonalizedTopK {
                seed: NodeId((qid * 31 % 2_000) as u32),
                k: 10,
                walk_length: 2_000,
                fetch_budget: Some(500),
            },
        );
    }

    // Batched read path: the same query shape through `QueryBatch`, pinning the
    // generation once per batch of 16 and reusing pooled scratch, so the
    // batch-size histogram records too.
    for group in 0..4u64 {
        let mut batch = QueryBatch::new();
        for slot in 0..16u64 {
            let qid = 64 + group * 16 + slot;
            batch.push(
                qid,
                Query::PersonalizedTopK {
                    seed: NodeId((qid * 31 % 2_000) as u32),
                    k: 10,
                    walk_length: 2_000,
                    fetch_budget: Some(500),
                },
            );
        }
        handle.serve_batch(&batch);
    }

    // One collect() sees every layer: store, walk arena, commit path, fetch
    // cache, query path, and the serve-level gauges.
    let snap = serving.telemetry_snapshot().expect("registry attached");
    println!("{}", render_prometheus(&snap));
    println!("# one JSONL time-series sample of the same snapshot:");
    println!("{}", render_jsonl_line(&snap.with_label("telemetry_dump")));
}
