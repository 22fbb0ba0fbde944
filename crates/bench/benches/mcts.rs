//! Microbenchmark: MCTS search (§6.2) at a fixed iteration budget, plus the
//! design ablations: the variance (third) UCT term of Eq. 1, and reward
//! estimation cost.
//!
//! `mcts/*_30iters` time one whole search per iteration. Each search owns
//! its transposition tables, so every iteration evaluates its states again
//! (the difftree memos of the workload all iterations share, and the
//! process-wide mapping-artifact memo, stay warm).
//!
//! `mcts/reward_estimate_k5` reuses one `MappingContext`, so after its first
//! iteration it times a warm per-context safety memo.
//! `mcts/evaluate_state/filter` builds a fresh context per iteration, so its
//! memo starts cold as it does for every state a search evaluates (the
//! process-wide per-tree artifact cache is warm in both).
//! `mcts/reward_estimate/filter_x10` does the same on Filter duplicated to
//! 90 queries, so the §5 cost walks 90 input queries per priced interface.

use criterion::{criterion_group, criterion_main, Criterion};
use pi2_difftree::transform::canonicalize;
use pi2_difftree::Workload;
use pi2_interface::{CostParams, MappingContext};
use pi2_search::{estimate_reward, initial_state, mcts_search, MctsConfig};
use pi2_sql::parse_query;
use pi2_workloads::{catalog, log, logs::duplicated, LogKind};
use rand::SeedableRng;

fn workload(kind: LogKind) -> Workload {
    workload_of(log(kind))
}

fn workload_of(l: pi2_workloads::QueryLog) -> Workload {
    Workload::new(
        l.queries.iter().map(|q| parse_query(q).unwrap()).collect(),
        catalog(),
    )
}

fn bench_mcts(c: &mut Criterion) {
    let w = workload(LogKind::Explore);
    let fixed = MctsConfig {
        workers: 1,
        max_iterations: 30,
        early_stop: 30,
        ..MctsConfig::default()
    };

    c.bench_function("mcts/explore_30iters", |b| {
        b.iter(|| std::hint::black_box(mcts_search(&w, &fixed)))
    });
    let wa = workload(LogKind::Abstract);
    c.bench_function("mcts/abstract_30iters", |b| {
        b.iter(|| std::hint::black_box(mcts_search(&wa, &fixed)))
    });
    // Ablation: without the variance term (d = 0 and c unchanged).
    let no_variance = MctsConfig {
        d: 0.0,
        ..fixed.clone()
    };
    c.bench_function("mcts/explore_30iters_no_variance_term", |b| {
        b.iter(|| std::hint::black_box(mcts_search(&w, &no_variance)))
    });

    // Reward estimation (K = 5 mappings) on the initial state; the context
    // (and its safety memo) is shared by every iteration.
    let state = initial_state(&w);
    let ctx = MappingContext::build(&state, &w).unwrap();
    let params = CostParams::default();
    c.bench_function("mcts/reward_estimate_k5", |b| {
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        b.iter(|| std::hint::black_box(estimate_reward(&ctx, &mut rng, &params, 5)))
    });

    // What a search pays per evaluated state: context build plus reward
    // estimate on a fresh context, at the canonicalized initial state.
    let wf = workload(LogKind::Filter);
    let filter_state = canonicalize(&initial_state(&wf), &wf, 48);
    c.bench_function("mcts/evaluate_state/filter", |b| {
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        b.iter(|| {
            let ctx = MappingContext::build(&filter_state, &wf).unwrap();
            std::hint::black_box(estimate_reward(&ctx, &mut rng, &params, 5))
        })
    });

    // The same on the 90-query log, where the cost walk dominates.
    let wx = workload_of(duplicated(LogKind::Filter, 90));
    let x10_state = canonicalize(&initial_state(&wx), &wx, 48);
    c.bench_function("mcts/reward_estimate/filter_x10", |b| {
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        b.iter(|| {
            let ctx = MappingContext::build(&x10_state, &wx).unwrap();
            std::hint::black_box(estimate_reward(&ctx, &mut rng, &params, 5))
        })
    });
}

criterion_group!(benches, bench_mcts);
criterion_main!(benches);
