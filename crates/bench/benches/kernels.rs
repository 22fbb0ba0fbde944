//! Kernel-layer microbenchmarks: the `pi2_data::kernels` SIMD primitives
//! over 10⁷-element slices, isolated from the engine so regressions
//! attribute to the kernel itself rather than to planning or expression
//! dispatch.
//!
//! Four shapes, mirroring the big-tier hot loops: `data/kernels_filter`
//! (typed comparison → packed bools, i64 and f64 lanes),
//! `data/kernels_select` (bool column + null mask → selection vector),
//! `data/kernels_agg` (null-aware sum/min/max over an index), and
//! `data/kernels_dict_eq` (dict-code equality and small-set IN over `u32`
//! codes). All run at whatever level the host dispatches (AVX2 on the
//! baseline machine); `PI2_SIMD=0` reruns them on the portable fallback
//! for an apples-to-apples dispatch comparison.
//!
//! Own bench binary for the same reason as `engine_big.rs`: the vendored
//! criterion shim filters inside `bench_function`, so the 10⁷-element
//! array builds must not ride along with unrelated bench runs.
//! `PI2_BIG_BENCH_ROWS` scales the element count (verified up to 10⁸);
//! the committed baseline is measured at the default 10⁷.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pi2_data::column::NullMask;
use pi2_data::kernels::{self, CmpOp};
use pi2_workloads::big::BIG_ROWS;

fn tier_rows() -> usize {
    std::env::var("PI2_BIG_BENCH_ROWS")
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .filter(|&n| n > 0)
        .unwrap_or(BIG_ROWS)
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A ~1%-null mask matching the big tier's `deaths` column distribution.
fn sparse_nulls(n: usize, seed: u64) -> NullMask {
    let mut state = seed;
    let mut mask = NullMask::all_valid(0);
    for _ in 0..n {
        mask.push(splitmix(&mut state).is_multiple_of(100));
    }
    mask
}

fn bench_kernels(c: &mut Criterion) {
    let n = tier_rows();
    let mut state = 0x5EED_u64;
    // Value distributions mirror `covid_big`: cases-like i64s, a float
    // view of the same, and dict codes over 24 states.
    let ints: Vec<i64> = (0..n)
        .map(|_| (splitmix(&mut state) % 60_000) as i64)
        .collect();
    let floats: Vec<f64> = ints.iter().map(|&v| v as f64).collect();
    let codes: Vec<u32> = (0..n).map(|_| (splitmix(&mut state) % 24) as u32).collect();
    let nulls = sparse_nulls(n, 0xABCD);
    let all_valid = NullMask::all_valid(n);
    let idx: Vec<u32> = (0..n as u32).collect();

    let mut group = c.benchmark_group("data/kernels_filter");
    group.bench_with_input(BenchmarkId::from_parameter("i64_gt"), &ints, |b, v| {
        b.iter(|| std::hint::black_box(kernels::cmp_i64(v, 30_000.0, CmpOp::Gt)))
    });
    group.bench_with_input(BenchmarkId::from_parameter("f64_gt"), &floats, |b, v| {
        b.iter(|| std::hint::black_box(kernels::cmp_f64(v, 30_000.0, CmpOp::Gt)))
    });
    group.finish();

    // Selection build over a ~50%-selective bool column, with and without
    // nulls to pin both the word fast path and the masked path.
    let bools = kernels::cmp_i64(&ints, 30_000.0, CmpOp::Gt);
    let mut group = c.benchmark_group("data/kernels_select");
    group.bench_with_input(BenchmarkId::from_parameter("no_nulls"), &bools, |b, v| {
        b.iter(|| std::hint::black_box(kernels::bool_selection(v, &all_valid, 0)))
    });
    group.bench_with_input(
        BenchmarkId::from_parameter("sparse_nulls"),
        &bools,
        |b, v| b.iter(|| std::hint::black_box(kernels::bool_selection(v, &nulls, 0))),
    );
    group.finish();

    let mut group = c.benchmark_group("data/kernels_agg");
    group.bench_with_input(BenchmarkId::from_parameter("sum_i64"), &ints, |b, v| {
        b.iter(|| std::hint::black_box(kernels::sum_i64(v, &nulls, &idx)))
    });
    group.bench_with_input(
        BenchmarkId::from_parameter("min_max_f64"),
        &floats,
        |b, v| b.iter(|| std::hint::black_box(kernels::min_max_f64(v, &all_valid, &idx, true))),
    );
    group.finish();

    let mut group = c.benchmark_group("data/kernels_dict_eq");
    group.bench_with_input(BenchmarkId::from_parameter("eq"), &codes, |b, v| {
        b.iter(|| std::hint::black_box(kernels::cmp_u32(v, 7, CmpOp::Eq)))
    });
    group.bench_with_input(BenchmarkId::from_parameter("in_3"), &codes, |b, v| {
        b.iter(|| std::hint::black_box(kernels::in_set_u32(v, &[3, 7, 19])))
    });
    group.finish();
}

criterion_group!(benches, bench_kernels);
criterion_main!(benches);
