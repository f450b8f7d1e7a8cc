//! Property-based tests over the core data structures and the incremental engine.
//!
//! The central invariant of the paper's method is that, whatever sequence of edge
//! insertions and deletions occurs, every stored walk segment remains a valid walk of
//! the *current* graph and the visit index stays in sync — that is exactly what makes
//! the O(nR ln m / ε²) maintenance argument sound.  These tests drive the system with
//! arbitrary operation sequences and check those invariants, plus structural properties
//! of the graph substrate and the analysis toolkit.

mod common;

use fast_ppr::prelude::*;
use ppr_graph::{CsrGraph, Edge};
use ppr_persist::layout::{PagedWalks, PersistentWalkStore};
use ppr_persist::snapshot::{SnapshotFile, SnapshotWriter};
use ppr_persist::TempDir;
use ppr_scenario::{ChaosPlan, DurableChaos, Phase, PhaseKind, ScenarioRunner};
use ppr_store::{SegmentId, StoreDigest};
use proptest::prelude::*;

/// An arbitrary edge among `n` nodes.
fn arb_edge(n: u32) -> impl Strategy<Value = Edge> {
    (0..n, 0..n).prop_map(|(s, t)| Edge::new(s, t))
}

/// An arbitrary insert/delete operation among `n` nodes.
#[derive(Debug, Clone)]
enum Op {
    Add(Edge),
    Remove(Edge),
}

fn arb_op(n: u32) -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => arb_edge(n).prop_map(Op::Add),
        1 => arb_edge(n).prop_map(Op::Remove),
    ]
}

/// An arbitrary direct store operation: rewrite a segment with a given path shape, or
/// clear it.  `path_seed` deterministically expands into a short path from the source.
#[derive(Debug, Clone)]
enum StoreOp {
    Set {
        node: u32,
        slot: usize,
        path_seed: u64,
    },
    Clear {
        node: u32,
        slot: usize,
    },
}

fn arb_store_op(n: u32, r: usize) -> impl Strategy<Value = StoreOp> {
    prop_oneof![
        4 => (0..n, 0..r, 0u64..u64::MAX).prop_map(|(node, slot, path_seed)| StoreOp::Set {
            node,
            slot,
            path_seed,
        }),
        1 => (0..n, 0..r).prop_map(|(node, slot)| StoreOp::Clear { node, slot }),
    ]
}

/// Expands a seed into a pseudo-random path of 0..=12 extra visits within `n` nodes,
/// starting at `node` (the walk-validity rules do not apply at the store layer; the
/// store only requires the first visit to be the source).
fn expand_path(node: u32, n: u32, mut seed: u64) -> Vec<NodeId> {
    let len = (seed % 13) as usize;
    let mut path = Vec::with_capacity(len + 1);
    path.push(NodeId(node));
    for _ in 0..len {
        seed = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        path.push(NodeId((seed >> 33) as u32 % n));
    }
    path
}

/// Recounts, from the stored paths alone, every index the store maintains; used to
/// check the blocked postings and the eager counters stay exact.
fn assert_store_matches_recount(store: &WalkStore, n: u32) {
    let mut counts = vec![0u64; n as usize];
    let mut postings = vec![std::collections::HashMap::<SegmentId, u32>::new(); n as usize];
    let mut total = 0u64;
    for node in 0..n {
        for id in store.segment_ids_of(NodeId(node)) {
            for &v in store.segment_path(id) {
                counts[v.index()] += 1;
                *postings[v.index()].entry(id).or_insert(0) += 1;
                total += 1;
            }
        }
    }
    assert_eq!(
        store.visit_counts(),
        counts.as_slice(),
        "W(v) counters drifted"
    );
    assert_eq!(store.total_visits(), total, "total_visits drifted");
    assert_eq!(
        store.total_visits(),
        store.visit_counts().iter().sum::<u64>(),
        "total_visits must equal the sum of per-node counts"
    );
    for node in 0..n {
        let from_store: std::collections::HashMap<SegmentId, u32> =
            store.segments_visiting(NodeId(node)).collect();
        assert_eq!(
            from_store, postings[node as usize],
            "postings for node {node} disagree with a from-scratch recount"
        );
        assert_eq!(
            store.distinct_visitors(NodeId(node)),
            postings[node as usize].len()
        );
    }
    assert!(store.check_consistency().is_ok());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The dynamic graph's out/in adjacency stay mirror images of each other under any
    /// operation sequence, and the CSR snapshot agrees with the dynamic representation.
    #[test]
    fn dynamic_graph_stays_consistent(ops in proptest::collection::vec(arb_op(24), 1..120)) {
        let mut graph = DynamicGraph::with_nodes(24);
        for op in &ops {
            match op {
                Op::Add(edge) => graph.add_edge(*edge),
                Op::Remove(edge) => { graph.remove_edge(*edge); },
            }
        }
        prop_assert!(graph.check_consistency().is_ok());
        let csr = CsrGraph::from_view(&graph);
        prop_assert_eq!(csr.edge_count(), graph.edge_count());
        for u in graph.nodes() {
            prop_assert_eq!(csr.out_degree(u), graph.out_degree(u));
            prop_assert_eq!(csr.in_degree(u), graph.in_degree(u));
        }
    }

    /// Whatever sequence of arrivals and deletions is applied, every stored walk segment
    /// remains a valid walk of the current graph, the walk store's indexes stay
    /// consistent, and the estimates remain a probability distribution.
    #[test]
    fn incremental_engine_invariants_hold_under_arbitrary_updates(
        ops in proptest::collection::vec(arb_op(16), 1..80),
        r in 1usize..5,
        seed in 0u64..1_000,
    ) {
        let mut engine = IncrementalPageRank::new_empty(
            16,
            MonteCarloConfig::new(0.2, r).with_seed(seed),
        );
        for op in &ops {
            match op {
                Op::Add(edge) => { engine.add_edge(*edge); },
                Op::Remove(edge) => { engine.remove_edge(*edge); },
            }
        }
        prop_assert!(engine.validate_segments().is_ok());
        let scores = engine.scores();
        let sum: f64 = scores.iter().sum();
        prop_assert!(scores.iter().all(|&s| s >= 0.0));
        prop_assert!((sum - 1.0).abs() < 1e-9 || sum == 0.0);
        // The raw estimator is bounded by the store's total capacity.
        let estimates = engine.estimates();
        prop_assert!(estimates.raw().iter().all(|&s| (0.0..=1.0 + 1e-9).contains(&s)));
    }

    /// The arena + postings walk store stays exactly consistent with a from-scratch
    /// recount of all stored segments under arbitrary interleaved set/clear sequences,
    /// and `total_visits == Σ visit_counts` always holds.
    #[test]
    fn walk_store_postings_match_recount_under_arbitrary_rewrites(
        ops in proptest::collection::vec(arb_store_op(10, 3), 1..150),
    ) {
        let n = 10u32;
        let r = 3usize;
        let mut store = WalkStore::new(n as usize, r);
        for op in &ops {
            match *op {
                StoreOp::Set { node, slot, path_seed } => {
                    let path = expand_path(node, n, path_seed);
                    store.set_segment(SegmentId::new(NodeId(node), slot, r), &path);
                }
                StoreOp::Clear { node, slot } => {
                    store.clear_segment(SegmentId::new(NodeId(node), slot, r));
                }
            }
        }
        assert_store_matches_recount(&store, n);
    }

    /// The same exact-recount invariant holds for the store *inside the engine* after
    /// arbitrary interleaved arrivals, deletions, and the reroutes they trigger — and
    /// equally when the arrivals are delivered through the batched path.
    #[test]
    fn engine_store_postings_survive_arbitrary_update_sequences(
        ops in proptest::collection::vec(arb_op(14), 1..60),
        r in 1usize..4,
        seed in 0u64..1_000,
        batch in 1usize..8,
    ) {
        let mut engine = IncrementalPageRank::new_empty(
            14,
            MonteCarloConfig::new(0.25, r).with_seed(seed),
        );
        let mut pending: Vec<Edge> = Vec::new();
        for op in &ops {
            match op {
                Op::Add(edge) => {
                    pending.push(*edge);
                    if pending.len() == batch {
                        engine.apply_arrivals(&pending);
                        pending.clear();
                    }
                }
                Op::Remove(edge) => {
                    engine.apply_arrivals(&pending);
                    pending.clear();
                    engine.remove_edge(*edge);
                }
            }
        }
        engine.apply_arrivals(&pending);
        prop_assert!(engine.validate_segments().is_ok());
        assert_store_matches_recount(engine.walk_store(), 14);
    }

    /// The SALSA engine maintains its alternating-walk invariant under arbitrary updates.
    #[test]
    fn salsa_engine_invariants_hold_under_arbitrary_updates(
        ops in proptest::collection::vec(arb_op(12), 1..50),
        seed in 0u64..1_000,
    ) {
        let mut engine = IncrementalSalsa::new_empty(
            12,
            MonteCarloConfig::new(0.25, 2).with_seed(seed),
        );
        for op in &ops {
            match op {
                Op::Add(edge) => { engine.add_edge(*edge); },
                Op::Remove(edge) => { engine.remove_edge(*edge); },
            }
        }
        prop_assert!(engine.validate_segments().is_ok());
        // One deletion batch over every edge the ops named (present, absent and
        // parallel alike) keeps the invariant too.
        let named: Vec<Edge> = ops
            .iter()
            .map(|op| match op {
                Op::Add(edge) | Op::Remove(edge) => *edge,
            })
            .collect();
        engine.apply_deletions(&named);
        prop_assert!(engine.validate_segments().is_ok());
        let estimates = engine.estimates();
        let hub_sum: f64 = estimates.hubs.iter().sum();
        let auth_sum: f64 = estimates.authorities.iter().sum();
        prop_assert!((hub_sum - 1.0).abs() < 1e-9 || hub_sum == 0.0);
        prop_assert!((auth_sum - 1.0).abs() < 1e-9 || auth_sum == 0.0);
    }

    /// Power iteration always returns a probability distribution whose mass respects the
    /// reset floor ε/n, on arbitrary graphs.
    #[test]
    fn power_iteration_returns_a_distribution(
        edges in proptest::collection::vec(arb_edge(20), 0..150),
        epsilon in 0.05f64..0.9,
    ) {
        let graph = DynamicGraph::from_edges(&edges, 20);
        let result = power_iteration(
            &graph,
            &ppr_baselines::power_iteration::PowerIterationConfig {
                epsilon,
                max_iterations: 100,
                tolerance: 1e-12,
            },
        );
        let sum: f64 = result.scores.iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-6);
        let floor = epsilon / 20.0;
        prop_assert!(result.scores.iter().all(|&s| s >= floor - 1e-9));
    }

    /// The Monte Carlo estimator agrees with power iteration in expectation: on random
    /// small graphs the total variation distance stays bounded (a coarse but fully
    /// generic accuracy property).
    #[test]
    fn estimator_is_never_wildly_wrong(
        edges in proptest::collection::vec(arb_edge(12), 10..80),
        seed in 0u64..500,
    ) {
        let graph = DynamicGraph::from_edges(&edges, 12);
        let engine = IncrementalPageRank::from_graph(
            &graph,
            MonteCarloConfig::new(0.2, 40).with_seed(seed),
        );
        let exact = power_iteration(
            &graph,
            &ppr_baselines::power_iteration::PowerIterationConfig::with_epsilon(0.2),
        );
        let tvd = engine.estimates().total_variation_distance(&exact.scores);
        prop_assert!(tvd < 0.25, "TVD {} too large for R = 40 on a 12-node graph", tvd);
    }

    /// Interpolated average precision is 1 for a perfect ranking, 0 when nothing
    /// relevant is retrieved, and always within [0, 1].
    #[test]
    fn interpolated_precision_is_well_behaved(
        relevant in proptest::collection::hash_set(0usize..50, 1..10),
        ranked in proptest::collection::vec(0usize..50, 0..50),
    ) {
        let ap = interpolated_average_precision(&ranked, &relevant);
        prop_assert!((0.0..=1.0).contains(&ap));
        let perfect: Vec<usize> = relevant.iter().copied().collect();
        prop_assert!((interpolated_average_precision(&perfect, &relevant) - 1.0).abs() < 1e-12);
        let miss: Vec<usize> = (50..60).collect();
        prop_assert_eq!(interpolated_average_precision(&miss, &relevant), 0.0);
    }

    /// Power-law fitting recovers the exponent of exact synthetic power laws for any
    /// exponent in the paper's range.
    #[test]
    fn power_law_fit_recovers_known_exponents(alpha in 0.1f64..0.99, n in 100usize..2_000) {
        let values: Vec<f64> = (1..=n).map(|i| (i as f64).powf(-alpha)).collect();
        let fit = fit_power_law(&values, 1..n + 1).expect("enough points");
        prop_assert!((fit.exponent - alpha).abs() < 1e-6);
        prop_assert!(fit.r_squared > 0.999);
    }
}

/// Drives an engine over an arbitrary interleaved arrival/deletion history (the same
/// operation model as the invariant properties above) and returns it for snapshot
/// round-trip checks.
fn engine_after_history<W: WalkIndexMut>(
    mut engine: IncrementalPageRank<W>,
    ops: &[SnapOp],
    batch: usize,
) -> IncrementalPageRank<W> {
    let mut pending: Vec<Edge> = Vec::new();
    for op in ops {
        match op {
            SnapOp::Add(edge) => {
                pending.push(*edge);
                if pending.len() == batch {
                    engine.apply_arrivals(&pending);
                    pending.clear();
                }
            }
            SnapOp::Remove(edges) => {
                engine.apply_arrivals(&pending);
                pending.clear();
                engine.apply_deletions(edges);
            }
        }
    }
    engine.apply_arrivals(&pending);
    engine
}

/// Operation model for the snapshot round-trip properties: single arrivals batched by
/// the driver, plus whole deletion batches (exercising `apply_deletions` directly).
#[derive(Debug, Clone)]
enum SnapOp {
    Add(Edge),
    Remove(Vec<Edge>),
}

fn arb_snap_op(n: u32) -> impl Strategy<Value = SnapOp> {
    prop_oneof![
        4 => arb_edge(n).prop_map(SnapOp::Add),
        1 => proptest::collection::vec(arb_edge(n), 1..6).prop_map(SnapOp::Remove),
    ]
}

/// Streams one store's walks section into a snapshot file at `path`.
fn write_walks_snapshot<W: PersistentWalkStore>(store: &mut W, path: &std::path::Path) {
    let mut writer = SnapshotWriter::new(std::io::Cursor::new(Vec::new())).expect("start");
    store.encode_walks(&mut writer).expect("encode");
    let file = writer.finish().expect("finish").into_inner();
    std::fs::write(path, file).expect("write snapshot");
}

/// Opens the walks section of the snapshot at `path` as a `W`, with no WAL tail to
/// install.
fn open_walks<W: PersistentWalkStore>(path: &std::path::Path) -> ppr_persist::PersistResult<W> {
    let walks = PagedWalks::open(path)?;
    let nodes = walks.header().node_count as usize;
    W::open_walks(walks, nodes, &ppr_store::SegmentRewrites::new())
}

/// Writes one store's walks section into a snapshot file and opens it back.
fn roundtrip_walks<W: PersistentWalkStore>(store: &mut W, tag: &str) -> W {
    let dir = TempDir::new(tag);
    let path = dir.path().join("snap.ppr");
    write_walks_snapshot(store, &path);
    open_walks(&path).expect("open walks")
}

/// Byte-identical store comparison over the `WalkIndex` surface.
fn assert_same_store<A: WalkIndex, B: WalkIndex>(a: &A, b: &B) {
    assert_eq!(a.node_count(), b.node_count());
    assert_eq!(a.r(), b.r());
    assert_eq!(a.total_visits(), b.total_visits());
    assert_eq!(a.visit_counts(), b.visit_counts());
    for g in 0..a.node_count() {
        let node = NodeId::from_index(g);
        let pa: Vec<_> = a.segments_visiting(node).collect();
        let pb: Vec<_> = b.segments_visiting(node).collect();
        assert_eq!(pa, pb, "postings of node {g}");
        for id in a.segment_ids_of(node) {
            assert_eq!(a.segment_path(id), b.segment_path(id), "path of {id:?}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Snapshot round trip: encode→decode over an arbitrary interleaved
    /// arrival/deletion history reproduces the flat `WalkStore` exactly — stored
    /// paths, postings (checked again against a from-scratch recount), and
    /// `total_visits`.
    #[test]
    fn snapshot_roundtrip_reproduces_flat_store(
        ops in proptest::collection::vec(arb_snap_op(14), 1..60),
        r in 1usize..4,
        seed in 0u64..1_000,
        batch in 1usize..8,
    ) {
        let engine = engine_after_history(
            IncrementalPageRank::new_empty(14, MonteCarloConfig::new(0.25, r).with_seed(seed)),
            &ops,
            batch,
        );
        let mut original = engine.walk_store().clone();
        let decoded = roundtrip_walks(&mut original, "prop-flat");
        assert_same_store(&decoded, engine.walk_store());
        assert_store_matches_recount(&decoded, 14);
    }

    /// Corruption detection: flipping any single byte of a snapshot makes both the
    /// full-file validation and the paged decode fail — never a silent wrong load.
    #[test]
    fn snapshot_byte_flips_are_always_detected(
        ops in proptest::collection::vec(arb_snap_op(10), 1..25),
        seed in 0u64..500,
        position in 0.0f64..1.0,
        bit in 0u32..8,
    ) {
        let engine = engine_after_history(
            IncrementalPageRank::new_empty(10, MonteCarloConfig::new(0.25, 2).with_seed(seed)),
            &ops,
            3,
        );
        let dir = TempDir::new("prop-corrupt");
        let path = dir.path().join("snap.ppr");
        write_walks_snapshot(&mut engine.walk_store().clone(), &path);

        let mut bytes = std::fs::read(&path).unwrap();
        let flip_at = ((bytes.len() - 1) as f64 * position) as usize;
        bytes[flip_at] ^= 1 << bit;
        std::fs::write(&path, &bytes).unwrap();

        prop_assert!(
            SnapshotFile::verify_all(&path).is_err(),
            "flip at byte {} bit {} survived full validation", flip_at, bit
        );
        let paged = open_walks::<WalkStore>(&path);
        prop_assert!(
            paged.is_err(),
            "flip at byte {} bit {} survived the paged decode", flip_at, bit
        );
    }

    /// Torn-tail recovery: truncating a WAL at any byte yields a clean prefix of its
    /// records (never an error, never a half-applied record).
    #[test]
    fn wal_truncation_always_recovers_a_record_prefix(
        batches in proptest::collection::vec(proptest::collection::vec(arb_edge(30), 0..10), 1..12),
        cut in 0.0f64..1.0,
    ) {
        use ppr_persist::wal::{read_records, WalOp, WalWriter};
        let dir = TempDir::new("prop-wal");
        let path = dir.path().join("wal.log");
        let mut writer = WalWriter::create(&path).unwrap();
        for (seq, batch) in batches.iter().enumerate() {
            let op = if seq % 2 == 0 { WalOp::Arrivals } else { WalOp::Deletions };
            writer.append(seq as u64, op, batch).unwrap();
        }
        drop(writer);
        let full = read_records(&path).unwrap();
        prop_assert_eq!(full.records.len(), batches.len());

        let bytes = std::fs::read(&path).unwrap();
        let keep = 16 + (((bytes.len() - 16) as f64) * cut) as usize; // never cut the header
        std::fs::write(&path, &bytes[..keep]).unwrap();
        let scan = read_records(&path).unwrap();
        prop_assert!(scan.records.len() <= full.records.len());
        for (a, b) in scan.records.iter().zip(&full.records) {
            prop_assert_eq!(a, b, "recovered record diverges from the original");
        }
        prop_assert!(scan.valid_len <= keep as u64);
        // A cut exactly on a frame boundary is a clean shorter log; anything else
        // must be flagged as a torn tail (valid data ends before the file does).
        prop_assert_eq!(scan.torn_tail, scan.valid_len < keep as u64);
    }
}

/// An arbitrary serving query: mostly personalized walks over a small seed space
/// (duplicate seeds within a batch are likely, on purpose — a lane then reuses
/// its pooled scratch across identical walks), plus some global-rank queries.
fn arb_query(n: u32) -> impl Strategy<Value = ppr_serve::Query> {
    prop_oneof![
        5 => (0..n, 1usize..6, 100usize..500, 0u64..40).prop_map(
            |(seed, k, walk_length, budget)| ppr_serve::Query::PersonalizedTopK {
                seed: NodeId(seed),
                k,
                walk_length,
                // budget 0 stands in for "unbudgeted" to keep the tuple flat.
                fetch_budget: if budget == 0 { None } else { Some(budget) },
            }
        ),
        1 => (1usize..8).prop_map(|k| ppr_serve::Query::GlobalTopK { k }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Batched execution is answer-invisible for *arbitrary* batch compositions:
    /// any mix of queries (duplicate seeds included), chopped into batches of any
    /// width, served same-thread or fanned over any pool width, returns exactly
    /// the per-query-serve answers.
    #[test]
    fn arbitrary_query_batches_serve_bit_identically(
        edges in proptest::collection::vec(arb_edge(18), 20..120),
        queries in proptest::collection::vec(arb_query(18), 1..40),
        seed in 0u64..1_000,
        width in 1usize..12,
        pool_threads in 1usize..5,
    ) {
        use ppr_serve::QueryBatch;
        let mut engine =
            IncrementalPageRank::new_empty(18, MonteCarloConfig::new(0.25, 2).with_seed(seed));
        engine.apply_arrivals(&edges);
        let serving = QueryEngine::new(engine, seed ^ 0xBA7C4);
        let handle = serving.handle();
        let jobs: Vec<(u64, ppr_serve::Query)> = queries
            .into_iter()
            .enumerate()
            .map(|(qid, q)| (qid as u64, q))
            .collect();
        let sequential: Vec<ppr_serve::Served> =
            jobs.iter().map(|(qid, q)| handle.serve(*qid, q)).collect();
        let batches: Vec<QueryBatch> = jobs.chunks(width).map(QueryBatch::of).collect();
        let same_thread: Vec<ppr_serve::Served> = batches
            .iter()
            .flat_map(|b| handle.serve_batch(b))
            .collect();
        prop_assert_eq!(&same_thread, &sequential, "same-thread batches diverge");
        let pool = ReaderPool::new(pool_threads);
        let fanned: Vec<ppr_serve::Served> = batches
            .iter()
            .flat_map(|b| pool.serve_batch(&handle, b))
            .collect();
        prop_assert_eq!(&fanned, &sequential, "fanned batches diverge");
    }
}

/// An arbitrary scenario phase kind, kept small enough to replay dozens of drawn
/// scenarios per property run.
fn arb_phase_kind() -> impl Strategy<Value = PhaseKind> {
    prop_oneof![
        3 => (2usize..8).prop_map(|batch| PhaseKind::Grow { batch }),
        2 => (1usize..4, 0u64..3).prop_map(|(queries_per_step, b)| PhaseKind::FlashCrowd {
            queries_per_step,
            k: 3,
            walk_length: 300,
            fetch_budget: if b == 0 { None } else { Some(b * 8) },
        }),
        2 => (2usize..6).prop_map(|fans_per_step| PhaseKind::CelebrityJoin { fans_per_step }),
        2 => (1usize..3, 2usize..4).prop_map(|(spammers, fanout)| PhaseKind::SpamWave {
            spammers,
            fanout,
        }),
        2 => (1usize..4, 1usize..3).prop_map(|(day_queries, night_queries)| {
            PhaseKind::QueryTides {
                day_queries,
                night_queries,
                k: 3,
                walk_length: 300,
            }
        }),
        1 => Just(PhaseKind::Checkpoint),
    ]
}

/// A whole arbitrary scenario: drawn phases with a checkpoint spliced in (so chaos
/// plans always have a fallback generation to aim at) and, whenever a spam wave was
/// drawn, a mass-unfollow of the *last* spam wave appended — exercising the
/// deletion-replay path against arbitrarily interleaved history.
fn arb_scenario() -> impl Strategy<Value = ppr_scenario::Scenario> {
    (
        proptest::collection::vec((arb_phase_kind(), 1usize..4), 1..6),
        0u64..1_000,
        12usize..32,
    )
        .prop_map(|(drawn, seed, nodes)| {
            let mut phases: Vec<Phase> = vec![Phase::new(PhaseKind::Grow { batch: 6 }, 2)];
            phases.extend(
                drawn
                    .into_iter()
                    .map(|(kind, steps)| Phase::new(kind, steps)),
            );
            phases.insert(1, Phase::new(PhaseKind::Checkpoint, 1));
            if let Some(wave) = phases
                .iter()
                .rposition(|p| matches!(p.kind, PhaseKind::SpamWave { .. }))
            {
                phases.push(Phase::new(PhaseKind::MassUnfollow { of_phase: wave }, 2));
            }
            ppr_scenario::Scenario {
                name: "arbitrary".into(),
                seed,
                nodes,
                epsilon: 0.25,
                r: 2,
                phases,
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// The scenario engine's differential contract holds for *arbitrary* scenarios,
    /// not just the curated corpus: compilation is pure, and a durable replay with
    /// a crash-and-recover injected at an arbitrary trace point, served at the
    /// matrix reader count, still matches the clean single-reader in-memory run
    /// exactly.
    #[test]
    fn arbitrary_scenarios_uphold_every_differential_oracle(
        scenario in arb_scenario(),
        crash_position in 0.0f64..1.0,
    ) {
        let trace = Trace::compile(&scenario);
        prop_assert_eq!(&trace, &Trace::compile(&scenario), "compilation must be pure");
        let config = scenario.engine_config();
        let n = scenario.nodes;

        // Clean in-memory flat reference.
        let (flat, clean) = ScenarioRunner::new(1).replay(
            &trace,
            IncrementalPageRank::<WalkStore>::new_empty(n, config),
        );
        let ref_digest = StoreDigest::of(flat.walk_store());

        // Durable flat replay with a crash at an arbitrary event index.
        let crash_at = ((trace.events.len() - 1) as f64 * crash_position) as usize;
        let plan = ChaosPlan::crash_at(crash_at);
        let dir = TempDir::new("prop-scenario");
        let root = dir.path().join("store");
        let engine = IncrementalPageRank::<WalkStore>::create_durable(
            &root,
            DynamicGraph::with_nodes(n),
            config,
        )
        .expect("create durable");
        let mut chaos = DurableChaos::new(&root);
        let readers = *common::thread_counts().last().expect("at least one width");
        let (durable, durable_out) =
            ScenarioRunner::new(readers).replay_with(&trace, engine, &plan, &mut chaos);
        prop_assert_eq!(chaos.crashes(), 1, "the crash must fire");
        prop_assert_eq!(&durable_out.answers, &clean.answers, "post-crash answers diverge");
        prop_assert_eq!(
            StoreDigest::of(durable.walk_store()),
            ref_digest,
            "post-crash store diverges"
        );
        prop_assert_eq!(durable.scores(), flat.scores(), "post-crash scores diverge");
    }
}
