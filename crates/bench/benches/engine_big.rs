//! Big-tier benchmarks: the vectorized executor over the 10⁷-row
//! synthetic tier (`pi2_workloads::big`).
//!
//! Three shapes, one query each: `engine/exec_big_filter` (selective
//! scan and count), `engine/exec_big_agg` (dict-key grouping with null-aware
//! aggregates), `engine/exec_big_join` (sparse-int hash join).
//!
//! Three more entries measure the live path over the same tier, made
//! chunked by a run of appends first: `data/append_big` (one 500-row
//! plain-string append, as the wire delivers it, into the chunked
//! `covid_big`), `engine/ivm_build_big` (the chunk-at-a-time state build
//! of a filter + group + aggregate over it) and `engine/ivm_delta_big`
//! (clone the state, absorb one append's delta, finalize — what a read
//! after an append costs). Per-layer evidence for the O(delta) live path;
//! the end-to-end claim rests on the standing benchmark's `live_append`.
//!
//! `data/register_big` registers the four big-tier tables into a fresh
//! catalogue (`Catalog::add_table`: column statistics and the content
//! fingerprint), the setup every serving process pays before its first
//! event. No traced benchmark span covers registration, so this is its
//! per-layer number.
//!
//! This lives in its own bench binary (not `engine.rs`) because the
//! vendored criterion shim applies its CLI filter inside `bench_function`
//! — table construction in an unrelated bench binary would still pay the
//! 10⁷-row build. `PI2_BIG_BENCH_ROWS` scales the tier down (CI uses
//! this to bound job time); the committed flat baseline is measured at
//! the full [`BIG_ROWS`].

use criterion::{criterion_group, criterion_main, Criterion};
use pi2_data::{Catalog, DataType, Table, Value};
use pi2_engine::{execute, ExecContext, IvmState};
use pi2_sql::ast::Query;
use pi2_sql::parse_query;
use pi2_workloads::big::{big_catalog, big_tables, SplitMix64, BIG_ROWS};

fn tier_rows() -> usize {
    std::env::var("PI2_BIG_BENCH_ROWS")
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .filter(|&n| n > 0)
        .unwrap_or(BIG_ROWS)
}

/// The three big-tier shapes, as (name, query) pairs.
fn shapes() -> Vec<(&'static str, Query)> {
    let q = |sql: &str| parse_query(sql).unwrap();
    vec![
        (
            "exec_big_filter",
            q("SELECT count(*) FROM covid_big WHERE cases > 30000 AND deaths > 700"),
        ),
        (
            "exec_big_agg",
            q("SELECT state, count(*), sum(cases), avg(deaths) FROM covid_big GROUP BY state"),
        ),
        (
            "exec_big_join",
            q(
                "SELECT c.segment, count(*), sum(o.amount) FROM orders AS o, customers AS c \
               WHERE o.customer_id = c.id GROUP BY c.segment",
            ),
        ),
    ]
}

fn bench_big(c: &mut Criterion) {
    let cat = big_catalog(tier_rows());
    let ctx = ExecContext::new(&cat);
    for (name, query) in shapes() {
        c.bench_function(&format!("engine/{name}"), |b| {
            b.iter(|| std::hint::black_box(execute(&query, &ctx).unwrap()))
        });
    }
}

/// Append number `k`: 500 seeded rows in `covid_big`'s distribution, as
/// plain strings (the wire's `"values"` form).
fn covid_delta(k: u64) -> Table {
    let mut rng = SplitMix64::new(0xA99E_0D00 ^ k);
    let rows = (0..500)
        .map(|_| {
            let cases = rng.below(60_000) as i64;
            vec![
                Value::Str(["CA", "NY", "TX", "WA"][rng.below(4) as usize].to_string()),
                Value::Str(format!("county_{:03}", rng.below(240))),
                Value::Date(18_809 - rng.below(200) as i64),
                Value::Int(cases),
                Value::Int(cases / 50 + rng.below(20) as i64),
            ]
        })
        .collect();
    Table::from_rows(
        vec![
            ("state", DataType::Str),
            ("county", DataType::Str),
            ("date", DataType::Date),
            ("cases", DataType::Int),
            ("deaths", DataType::Int),
        ],
        rows,
    )
    .unwrap()
}

fn bench_live(c: &mut Criterion) {
    // A tier that has been appended to: the base chunk plus coalesced
    // tails.
    let mut live = big_catalog(tier_rows());
    for k in 0..16 {
        live = live.append_rows("covid_big", covid_delta(k)).unwrap();
    }
    let delta = covid_delta(16);
    c.bench_function("data/append_big", |b| {
        b.iter(|| std::hint::black_box(live.append_rows("covid_big", delta.clone()).unwrap()))
    });

    let query =
        parse_query("SELECT state, sum(cases) FROM covid_big WHERE deaths > 600 GROUP BY state")
            .unwrap();
    let ctx = ExecContext::new(&live);
    c.bench_function("engine/ivm_build_big", |b| {
        b.iter(|| std::hint::black_box(IvmState::build(&query, &ctx).unwrap()))
    });

    let state = IvmState::build(&query, &ctx).unwrap();
    let next = live.append_rows("covid_big", delta).unwrap();
    let appended = &next.delta().unwrap().tables["covid_big"].rows;
    let ctx = ExecContext::new(&next);
    c.bench_function("engine/ivm_delta_big", |b| {
        b.iter(|| {
            let mut state = state.clone();
            state.absorb(&query, appended, &ctx).unwrap();
            std::hint::black_box(state.finalize(&query, &ctx).unwrap())
        })
    });
}

fn bench_register(c: &mut Criterion) {
    // Built once: a clone shares the column storage behind `Arc`, so the
    // timed loop pays for registration only.
    let tables = big_tables(tier_rows());
    c.bench_function("data/register_big", |b| {
        b.iter(|| {
            let mut cat = Catalog::new();
            for (name, table, primary_key) in &tables {
                cat.add_table(*name, table.clone(), primary_key.clone());
            }
            std::hint::black_box(cat)
        })
    });
}

criterion_group!(benches, bench_big, bench_live, bench_register);
criterion_main!(benches);
