//! Differential property tests: the vectorized executor and the scalar
//! reference interpreter must return identical tables for every query, on
//! the seeded workload catalogs.
//!
//! Queries are generated structurally (projections, filters, grouping,
//! having, distinct, order/limit, joins) over the real workload tables, so
//! the typed fast paths (Int64/Float64/Utf8/Date64 comparisons, membership
//! sets, hash joins, group-key maps) all get exercised against the
//! row-at-a-time semantics they must reproduce. The paper's seven query
//! logs — including the Sales correlated-HAVING subqueries that exercise
//! the scalar fallback inside the vectorized engine — are pinned as a
//! deterministic case alongside, and fixed queries over a toy-scale
//! big-tier catalogue (`pi2_workloads::big`, the same data distribution as
//! the 10⁷-row tier) cover its filter, grouping, join and sort shapes at
//! every SIMD dispatch level.

use pi2_data::Catalog;
use pi2_engine::{execute, execute_scalar, ExecContext};
use pi2_sql::parse_query;
use pi2_workloads::big::big_catalog;
use pi2_workloads::{all_logs, catalog};
use proptest::prelude::*;

mod querygen;
use querygen::{build_query, TABLES};

fn assert_executors_agree(cat: &Catalog, sql: &str) {
    let ctx = ExecContext::new(cat);
    let q = parse_query(sql).unwrap_or_else(|e| panic!("generated bad SQL {sql}: {e}"));
    let vectorized = execute(&q, &ctx);
    let scalar = execute_scalar(&q, &ctx);
    match (vectorized, scalar) {
        (Ok(v), Ok(s)) => {
            assert_eq!(
                v.schema, s.schema,
                "schemas disagree on {sql}\nvectorized: {v}\nscalar: {s}"
            );
            assert_eq!(
                v, s,
                "tables disagree on {sql}\nvectorized: {v}\nscalar: {s}"
            );
        }
        (Err(ve), Err(se)) => assert_eq!(ve, se, "errors disagree on {sql}"),
        (v, s) => panic!("one executor failed on {sql}: vectorized {v:?}, scalar {s:?}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(160))]

    /// Generated single-table queries: identical output tables.
    #[test]
    fn vectorized_matches_scalar_on_generated_queries(
        tbl in 0usize..4,
        // bit 0: aggregate, bit 1: distinct
        flags in 0u8..4,
        n_atoms in 0usize..3,
        k1 in 0u8..8,
        k2 in 0u8..8,
        p1 in 0usize..8,
        p2 in 0usize..8,
        a in -20i64..1200,
        b in -20i64..1200,
        c in -20i64..1200,
        d in -20i64..1200,
        // order = ol % 6, limit = ol / 6
        ol in 0u8..48,
    ) {
        let t = &TABLES[tbl];
        let sql = build_query(
            t,
            flags & 1 == 1,
            flags & 2 == 2,
            n_atoms,
            (k1, k2),
            (p1, p2),
            (a, b, c, d),
            ol % 6,
            ol / 6,
        );
        assert_executors_agree(&catalog(), &sql);
    }

    /// Generated SDSS-shaped equijoins: identical output tables.
    #[test]
    fn vectorized_matches_scalar_on_joins(
        lo in 0i64..12,
        width in 1i64..10,
        distinct in 0u8..2,
        project_all in 0u8..2,
    ) {
        let ra_lo = 213.0 + lo as f64 / 10.0;
        let ra_hi = ra_lo + width as f64 / 10.0;
        let sel = if project_all == 1 {
            "gal.objID, gal.u, s.ra, s.dec"
        } else {
            "gal.objID, s.z"
        };
        let d = if distinct == 1 { "DISTINCT " } else { "" };
        let sql = format!(
            "SELECT {d}{sel} FROM galaxy AS gal, specObj AS s \
             WHERE s.bestObjID = gal.objID AND s.ra BETWEEN {ra_lo} AND {ra_hi}"
        );
        assert_executors_agree(&catalog(), &sql);
    }
}

/// Every query of the paper's seven logs (Sales' correlated HAVING
/// subqueries included) produces identical tables under both executors.
#[test]
fn vectorized_matches_scalar_on_all_workload_logs() {
    let cat = catalog();
    for log in all_logs() {
        for sql in &log.queries {
            assert_executors_agree(&cat, sql);
        }
    }
}

/// Scalability shape: the engine stays consistent on the duplicated Filter
/// log used by the §7.3 experiment.
#[test]
fn vectorized_matches_scalar_on_duplicated_filter_log() {
    use pi2_workloads::logs::{duplicated, LogKind};
    let cat = catalog();
    for sql in &duplicated(LogKind::Filter, 18).queries {
        assert_executors_agree(&cat, sql);
    }
}

/// Fixed queries over the big-tier catalogue at toy scale: selective
/// filters, dict-key and multi-key grouping with null-aware aggregates,
/// the sparse-integer hash join, ORDER BY with and without LIMIT, and
/// float-keyed grouping and DISTINCT.
#[test]
fn vectorized_matches_scalar_on_big_tier_shapes() {
    let cat = big_catalog(12_000);
    for sql in [
        "SELECT count(*) FROM covid_big WHERE cases > 30000",
        "SELECT state, date, cases FROM covid_big WHERE cases > 58000 AND deaths > 1100",
        // Dict-key grouping over a column with ~1% NULLs.
        "SELECT state, count(*), sum(cases), avg(deaths) FROM covid_big GROUP BY state",
        "SELECT city, product, sum(total) FROM sales_big \
         WHERE quantity >= 5 GROUP BY city, product",
        // Sparse customer ids force the hash-map join build.
        "SELECT c.segment, count(*), sum(o.amount) FROM orders AS o, customers AS c \
         WHERE o.customer_id = c.id GROUP BY c.segment",
        "SELECT o.id, o.amount, c.score FROM orders AS o, customers AS c \
         WHERE o.customer_id = c.id AND c.score > 95 AND o.amount > 4500",
        "SELECT state, cases FROM covid_big WHERE deaths > 900 ORDER BY cases DESC LIMIT 25",
        "SELECT product, sum(quantity) FROM sales_big GROUP BY product ORDER BY sum(quantity) DESC",
        // Float keys (cent-valued amounts and totals): bit patterns that
        // differ only in their high bits.
        "SELECT amount, count(*) FROM orders GROUP BY amount",
        "SELECT DISTINCT amount FROM orders",
        "SELECT region, amount, count(*) FROM orders GROUP BY region, amount",
        "SELECT total, count(*) FROM sales_big GROUP BY total HAVING count(*) > 1",
    ] {
        assert_executors_agree(&cat, sql);
    }
}

/// Every SIMD dispatch tier is bit-identical: the same queries return the
/// same tables with the kernels forced to the scalar fallback, SSE2 and
/// AVX2 (each clamped to what the host supports, so the sweep is safe on
/// any machine). Covers the typed comparison filters, dict equality/IN,
/// Kleene AND/OR, BETWEEN, IS NULL and the typed aggregation kernels —
/// including the order-pinned f64 sum.
#[test]
fn vectorized_matches_scalar_at_every_simd_level() {
    use pi2_data::kernels::{set_simd_level, SimdLevel};
    let cat = big_catalog(9_000);
    let queries = [
        "SELECT count(*) FROM covid_big WHERE cases > 30000 AND deaths > 600",
        "SELECT state, date FROM covid_big WHERE deaths IS NULL AND cases > 55000",
        "SELECT count(*) FROM customers WHERE score > 95.5 OR score < 1.5",
        "SELECT count(*) FROM covid_big WHERE state = 'California' OR state = 'Texas'",
        "SELECT count(*) FROM covid_big WHERE state IN ('California', 'Texas', 'Nowhere')",
        "SELECT count(*) FROM covid_big WHERE cases BETWEEN 10000 AND 40000",
        "SELECT state, count(*), sum(cases), min(deaths), max(deaths) \
         FROM covid_big GROUP BY state",
        "SELECT city, sum(total), avg(total), min(total), max(total) \
         FROM sales_big GROUP BY city",
    ];
    for forced in [SimdLevel::Scalar, SimdLevel::Sse2, SimdLevel::Avx2] {
        set_simd_level(Some(forced));
        for sql in queries {
            assert_executors_agree(&cat, sql);
        }
    }
    set_simd_level(None);
}

/// Grouped-expression evaluation: non-aggregate functions of grouped
/// values, and representative-row expressions (a correlated scalar
/// subquery per group).
#[test]
fn vectorized_grouped_expression_evaluation_matches_scalar() {
    let cat = big_catalog(5_000);
    for sql in [
        "SELECT state, abs(min(deaths) - max(deaths)) FROM covid_big GROUP BY state",
        "SELECT city, abs(sum(total) - 500000.0) FROM sales_big GROUP BY city",
        "SELECT state, (SELECT max(c2.cases) FROM covid_big AS c2 \
         WHERE c2.state = covid_big.state) FROM covid_big GROUP BY state",
    ] {
        assert_executors_agree(&cat, sql);
    }
}

/// Float64 join keys take the generic `Value`-typed probe arm: matches come
/// in ascending left-row order, with the scalar join's Int/Float
/// cross-type equality.
#[test]
fn vectorized_value_typed_join_matches_scalar() {
    let cat = big_catalog(4_000);
    for sql in [
        "SELECT count(*) FROM sales_big AS a, sales_big AS b \
         WHERE a.total = b.total AND a.quantity > 8 AND b.quantity > 8",
        "SELECT o.id, c.segment FROM orders AS o, customers AS c \
         WHERE o.amount = c.score",
    ] {
        assert_executors_agree(&cat, sql);
    }
}
