//! Generations and pinned views: the read side of the serving layer.
//!
//! A [`Generation`] is one committed state of the serving engine: an epoch number, a
//! frozen PageRank Store view and a frozen Social-Store adjacency view, which every
//! query fetches from directly.  Everything reachable from a generation is
//! immutable, so a reader *pins* one by cloning an `Arc` and then runs whole queries
//! without acquiring any lock: no step of a walk, no score lookup, no top-k sort
//! synchronises with the writer or with other readers.
//!
//! Every query answer is a pure function of `(generation, query_seed, query_id)` —
//! the RNG stream comes from [`ppr_core::query::query_rng`], the data from the
//! pinned generation — so a result served concurrently with a write stream is
//! bit-identical to the same query replayed against the same generation on a single
//! thread.  `tests/concurrent_serving.rs` holds the layer to exactly that contract.

use crate::batch::{DeadlineBudget, QueryScratch};
use crate::telem::QuerySpans;
use ppr_core::query::query_rng;
use ppr_core::salsa::{personalized_authorities_into, salsa_estimates_from, top_k_scores};
use ppr_core::PersonalizedWalker;
use ppr_graph::{GraphView, NodeId};
use ppr_store::{FrozenGraph, FrozenWalks, WalkIndexView};
use std::collections::HashSet;
use std::sync::Arc;

/// Which engine family a generation snapshots — decides how its walk segments are
/// interpreted (plain PageRank segments vs `2R` alternating SALSA segments).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineKind {
    /// `R` PageRank walk segments per node: personalized top-k and global rank.
    PageRank,
    /// `2R` alternating SALSA segments per node: hub/authority queries.
    Salsa,
}

/// One committed, immutable state of the serving engine.
#[derive(Debug)]
pub struct Generation {
    pub(crate) epoch: u64,
    pub(crate) kind: EngineKind,
    pub(crate) epsilon: f64,
    pub(crate) walks: FrozenWalks,
    pub(crate) graph: FrozenGraph,
}

/// A reader's pinned generation: cheap to clone, lock-free to query.
#[derive(Debug, Clone)]
pub struct PinnedView(pub(crate) Arc<Generation>);

/// One query against a pinned generation.  All variants are answered from the
/// generation alone; results carry the epoch they were served from.
#[derive(Debug, Clone, PartialEq)]
pub enum Query {
    /// Personalized PageRank top-`k` by the stitched walker of Algorithm 1,
    /// excluding the seed and its direct friends, with an optional Corollary 9
    /// fetch budget (PageRank generations only).
    PersonalizedTopK {
        /// The personalization seed node.
        seed: NodeId,
        /// How many recommendations to return.
        k: usize,
        /// Walk length in visits (Equation 4 sets it from the target `k`).
        walk_length: usize,
        /// Optional cap on Social-Store fetches (Corollary 9 budget).
        fetch_budget: Option<u64>,
    },
    /// Global PageRank top-`k` by normalised visit counts (the Theorem 1
    /// estimator; PageRank generations only — SALSA rank is
    /// [`Query::HubAuthorityTopK`]).
    GlobalTopK {
        /// How many nodes to return.
        k: usize,
    },
    /// Personalized SALSA authorities for `seed`, excluding the seed and its
    /// friends (SALSA generations only).
    SalsaAuthorities {
        /// The personalization seed node.
        seed: NodeId,
        /// How many recommendations to return.
        k: usize,
        /// Walk length in visits of the direct alternating walk.
        walk_length: usize,
    },
    /// Global SALSA top hubs and authorities (SALSA generations only).
    HubAuthorityTopK {
        /// How many nodes per list.
        k: usize,
    },
}

/// The ranked payload of an answer.
#[derive(Debug, Clone, PartialEq)]
pub enum Answer {
    /// A single ranked `(node, score)` list.
    Ranked(Vec<(NodeId, f64)>),
    /// Two ranked lists: SALSA hubs and authorities.
    HubsAuthorities {
        /// Top hubs by normalised hub score.
        hubs: Vec<(NodeId, f64)>,
        /// Top authorities by normalised authority score.
        authorities: Vec<(NodeId, f64)>,
    },
}

/// One served query: the answer plus its serving metadata.
#[derive(Debug, Clone, PartialEq)]
pub struct Served {
    /// The query id whose stream the answer was drawn from.
    pub query_id: u64,
    /// The generation the query was pinned to.
    pub epoch: u64,
    /// Social-Store fetches the query spent (0 for non-walking queries).
    pub fetches: u64,
    /// Whether a fetch budget cut the walk short.
    pub budget_exhausted: bool,
    /// Whether a deadline budget cut the walk short (batched serving's per-query
    /// time budget; partial results carry the prefix the deadline paid for).
    pub deadline_exhausted: bool,
    /// The ranked result.
    pub answer: Answer,
}

impl PinnedView {
    /// The pinned generation number.
    pub fn epoch(&self) -> u64 {
        self.0.epoch
    }

    /// The engine family this generation snapshots.
    pub fn kind(&self) -> EngineKind {
        self.0.kind
    }

    /// The frozen PageRank Store view.
    pub fn walks(&self) -> &FrozenWalks {
        &self.0.walks
    }

    /// The frozen Social-Store adjacency view.
    pub fn graph(&self) -> &FrozenGraph {
        &self.0.graph
    }

    /// Rebuilds the seed node's exclusion set for recommender queries — itself
    /// plus its direct friends at this generation — into a reusable allocation.
    fn friends_exclude_into(&self, seed: NodeId, exclude: &mut HashSet<NodeId>) {
        exclude.clear();
        exclude.insert(seed);
        exclude.extend(self.0.graph.out_neighbors(seed).iter().copied());
    }

    /// Answers one query on the `(query_seed, query_id)` stream.  Pure in the
    /// pinned generation: any thread, any interleaving, same bits.  For callers
    /// holding only a view: the query runs in scratch of its own, which costs
    /// what the walk fills it with; a [`crate::ServeHandle`] reuses pooled scratch.
    pub fn answer(&self, query_seed: u64, query_id: u64, query: &Query) -> Served {
        let mut ctx = QueryScratch::default();
        self.answer_in_context(query_seed, query_id, query, &mut ctx, None, None)
    }

    /// The one execution path behind [`PinnedView::answer`] and every
    /// [`crate::ServeHandle`] / [`crate::ReaderPool`] entry point: answers one
    /// query in a [`QueryScratch`] (pooled per-query buffers), fetching adjacency
    /// straight from the pinned generation's graph, with an optional per-query
    /// [`DeadlineBudget`] and optional instruments (`query.walk` / `query.topk` /
    /// `query.global_topk` spans, served / fetch / exhaustion counters; they only
    /// observe).  Every buffer in `ctx` is reset before use, so the answer is a
    /// pure function of `(generation, query_seed, query_id)` whatever scratch
    /// serves it — unless the deadline actually expires, which (by construction)
    /// cannot happen with `deadline: None`.
    pub(crate) fn answer_in_context(
        &self,
        query_seed: u64,
        query_id: u64,
        query: &Query,
        ctx: &mut QueryScratch,
        deadline: Option<&DeadlineBudget>,
        spans: Option<&QuerySpans>,
    ) -> Served {
        let generation = &*self.0;
        let served = match *query {
            Query::PersonalizedTopK {
                seed,
                k,
                walk_length,
                fetch_budget,
            } => {
                assert_eq!(
                    generation.kind,
                    EngineKind::PageRank,
                    "personalized PageRank queries need a PageRank generation \
                     (SALSA generations store 2R alternating segments)"
                );
                let mut walker = PersonalizedWalker::new(
                    &generation.graph,
                    &generation.walks,
                    generation.epsilon,
                    0,
                );
                if let Some(budget) = fetch_budget {
                    walker = walker.with_fetch_budget(budget);
                }
                if let Some(deadline) = deadline {
                    walker = walker.with_deadline_budget(&*deadline.clock, deadline.budget_nanos);
                }
                {
                    let _walk = spans.map(|s| s.tele.time(&s.walk));
                    walker.walk_query_into(
                        seed,
                        walk_length,
                        query_seed,
                        query_id,
                        &mut ctx.walk,
                        &mut ctx.result,
                    );
                }
                let _topk = spans.map(|s| s.tele.time(&s.topk));
                self.friends_exclude_into(seed, &mut ctx.exclude);
                let answer = Answer::Ranked(ctx.result.top_k_with(k, &ctx.exclude, &mut ctx.topk));
                Served {
                    query_id,
                    epoch: generation.epoch,
                    fetches: ctx.result.fetches,
                    budget_exhausted: ctx.result.budget_exhausted,
                    deadline_exhausted: ctx.result.deadline_exhausted,
                    answer,
                }
            }
            Query::GlobalTopK { k } => {
                assert_eq!(
                    generation.kind,
                    EngineKind::PageRank,
                    "global-rank queries need a PageRank generation (for SALSA, \
                     hub/authority rank is HubAuthorityTopK)"
                );
                let _topk = spans.map(|s| s.tele.time(&s.global_topk));
                let counts = generation.walks.visit_counts();
                let total = generation.walks.total_visits().max(1) as f64;
                ctx.scores.clear();
                ctx.scores.extend(counts.iter().map(|&c| c as f64 / total));
                Served {
                    query_id,
                    epoch: generation.epoch,
                    fetches: 0,
                    budget_exhausted: false,
                    deadline_exhausted: false,
                    answer: Answer::Ranked(top_k_scores(&ctx.scores, &HashSet::new(), k)),
                }
            }
            Query::SalsaAuthorities {
                seed,
                k,
                walk_length,
            } => {
                assert_eq!(
                    generation.kind,
                    EngineKind::Salsa,
                    "SALSA queries need a SALSA generation"
                );
                let mut rng = query_rng(query_seed, query_id);
                {
                    let _walk = spans.map(|s| s.tele.time(&s.walk));
                    personalized_authorities_into(
                        &generation.graph,
                        seed,
                        walk_length,
                        generation.epsilon,
                        &mut rng,
                        &mut ctx.result,
                    );
                }
                let _topk = spans.map(|s| s.tele.time(&s.topk));
                self.friends_exclude_into(seed, &mut ctx.exclude);
                Served {
                    query_id,
                    epoch: generation.epoch,
                    fetches: 0,
                    budget_exhausted: false,
                    deadline_exhausted: false,
                    answer: Answer::Ranked(ctx.result.top_k_with(k, &ctx.exclude, &mut ctx.topk)),
                }
            }
            Query::HubAuthorityTopK { k } => {
                assert_eq!(
                    generation.kind,
                    EngineKind::Salsa,
                    "SALSA queries need a SALSA generation"
                );
                let _topk = spans.map(|s| s.tele.time(&s.global_topk));
                let estimates = salsa_estimates_from(&generation.walks);
                let nothing = HashSet::new();
                Served {
                    query_id,
                    epoch: generation.epoch,
                    fetches: 0,
                    budget_exhausted: false,
                    deadline_exhausted: false,
                    answer: Answer::HubsAuthorities {
                        hubs: top_k_scores(&estimates.hubs, &nothing, k),
                        authorities: top_k_scores(&estimates.authorities, &nothing, k),
                    },
                }
            }
        };
        if let Some(s) = spans {
            s.fetches.record(served.fetches);
            s.served.inc();
            if served.budget_exhausted {
                s.budget_exhausted.inc();
            }
            if served.deadline_exhausted {
                s.deadline_exhausted.inc();
            }
        }
        served
    }
}
