//! Microbenchmark: Algorithm 1 (V, M mapping generation), including the
//! ablation the design calls out — with and without the `G`-based
//! lower-bound pruning of line 27.
//!
//! Both benches reuse one `MappingContext`, so after the first iteration
//! they time a warm per-context safety memo; `mcts/evaluate_state/filter`
//! (benches/mcts.rs) is the cold-context number.

use criterion::{criterion_group, criterion_main, Criterion};
use pi2_difftree::transform::canonicalize;
use pi2_difftree::Workload;
use pi2_interface::MappingContext;
use pi2_search::{generate_top_k, initial_state, MappingOptions};
use pi2_sql::parse_query;
use pi2_workloads::{catalog, log, LogKind};

fn bench_mapping(c: &mut Criterion) {
    let l = log(LogKind::Filter);
    let w = Workload::new(
        l.queries.iter().map(|q| parse_query(q).unwrap()).collect(),
        catalog(),
    );
    // A realistic post-search state: clustered + canonicalized.
    let state = canonicalize(&initial_state(&w), &w, 48);
    let ctx = MappingContext::build(&state, &w).expect("mappable state");

    let with = MappingOptions::default();
    let without = MappingOptions {
        pruning: false,
        ..MappingOptions::default()
    };

    c.bench_function("mapping/algorithm1_pruned", |b| {
        b.iter(|| std::hint::black_box(generate_top_k(&ctx, &with)))
    });
    c.bench_function("mapping/algorithm1_unpruned", |b| {
        b.iter(|| std::hint::black_box(generate_top_k(&ctx, &without)))
    });
}

criterion_group!(benches, bench_mapping);
criterion_main!(benches);
