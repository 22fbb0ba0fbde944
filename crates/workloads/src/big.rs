//! The synthetic big-data tier: 10⁷-row scaled variants of the covid and
//! sales workloads plus an orders/customers join pair, all driven by a
//! seeded SplitMix64 generator so every run (and every machine) builds
//! bit-identical tables.
//!
//! The paper-scale tables in [`crate::datasets`] top out at a few thousand
//! rows. This tier measures the engine where data volume dominates:
//! scans, joins, grouping and sorts over [`BIG_ROWS`]-sized columns.
//! Tables build column-at-a-time into typed storage (10⁷ `Vec<Value>`
//! rows would dwarf the actual data), dictionary columns construct their
//! sorted dictionaries directly, and every generator takes a row count so
//! tests can run scaled-down variants of the exact same data distribution.

use pi2_data::{Catalog, Column, ColumnData, DataType, NullMask, Schema, Table};
use std::sync::Arc;

/// Rows in the full-size big tier (the paper-scale tables hold 10²–10³).
pub const BIG_ROWS: usize = 10_000_000;

/// Deterministic SplitMix64 stream: fast enough to fill 10⁷-row columns
/// without the generator dominating build time, and seeded so the tier is
/// reproducible everywhere.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A stream seeded with `seed`.
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64(seed)
    }

    /// Next raw value.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform draw from `0..bound` (`bound > 0`).
    #[inline]
    pub fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound
    }

    /// Uniform float in `[0, 1)`.
    #[inline]
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

fn table(cols: Vec<(&str, DataType, ColumnData)>) -> Table {
    let schema = Schema::new(cols.iter().map(|(n, t, _)| Column::new(*n, *t)).collect());
    Table::from_columns(schema, cols.into_iter().map(|(_, _, c)| c).collect())
        .expect("big-tier column lengths agree")
}

/// A dictionary column built directly from codes over a **sorted** label
/// list (the engine's sorted-dictionary invariant), skipping the 10⁷-row
/// string interning a `strs_dict` round trip would pay.
fn dict_col(labels: &[&str], codes: Vec<u32>) -> ColumnData {
    debug_assert!(labels.windows(2).all(|w| w[0] < w[1]), "labels sorted");
    let nulls = NullMask::all_valid(codes.len());
    ColumnData::Dict {
        codes,
        dict: Arc::new(labels.iter().map(|s| s.to_string()).collect()),
        nulls,
    }
}

/// US state codes for `covid_big` (sorted; 24 labels).
const STATES: &[&str] = &[
    "AZ", "CA", "CO", "FL", "GA", "IL", "IN", "MA", "MD", "MI", "MN", "MO", "NC", "NJ", "NY", "OH",
    "OR", "PA", "TN", "TX", "UT", "VA", "WA", "WI",
];

/// covid_big(state, county, date, cases, deaths): `rows` observations over
/// 24 states × 240 counties × 200 days ending at the engine's fixed
/// `today()` (2021-07-01). `deaths` carries ~1% NULLs (reporting gaps), so
/// the big tier exercises the null-aware kernels too.
pub fn covid_big(rows: usize) -> Table {
    let mut rng = SplitMix64::new(0xC051_DB16);
    let today = 18_809i64; // 2021-07-01, see ExecContext::new
    let counties: Vec<String> = (0..240).map(|i| format!("county_{i:03}")).collect();
    let county_labels: Vec<&str> = counties.iter().map(String::as_str).collect();
    let mut states = Vec::with_capacity(rows);
    let mut county_codes = Vec::with_capacity(rows);
    let mut dates = Vec::with_capacity(rows);
    let mut cases = Vec::with_capacity(rows);
    let mut deaths = Vec::with_capacity(rows);
    let mut death_nulls = NullMask::new();
    for _ in 0..rows {
        states.push(rng.below(STATES.len() as u64) as u32);
        county_codes.push(rng.below(240) as u32);
        dates.push(today - rng.below(200) as i64);
        let c = rng.below(60_000) as i64;
        cases.push(c);
        let missing = rng.below(100) == 0;
        deaths.push(if missing {
            0
        } else {
            c / 50 + rng.below(20) as i64
        });
        death_nulls.push(missing);
    }
    table(vec![
        ("state", DataType::Str, dict_col(STATES, states)),
        (
            "county",
            DataType::Str,
            dict_col(&county_labels, county_codes),
        ),
        ("date", DataType::Date, ColumnData::dates(dates)),
        ("cases", DataType::Int, ColumnData::ints(cases)),
        (
            "deaths",
            DataType::Int,
            ColumnData::Int64 {
                values: deaths,
                nulls: death_nulls,
            },
        ),
    ])
}

/// sales_big(city, product, date, total, quantity): `rows` transactions in
/// the supermarket-sales shape, scaled from 500 rows to the big tier
/// (12 cities × 96 product lines × Jan–Mar 2019).
pub fn sales_big(rows: usize) -> Table {
    let mut rng = SplitMix64::new(0x5A1E_5B16);
    let cities: Vec<String> = (0..12).map(|i| format!("city_{i:02}")).collect();
    let city_labels: Vec<&str> = cities.iter().map(String::as_str).collect();
    let products: Vec<String> = (0..96).map(|i| format!("product_{i:02}")).collect();
    let product_labels: Vec<&str> = products.iter().map(String::as_str).collect();
    let start = 17_897i64; // 2019-01-01
    let mut city_codes = Vec::with_capacity(rows);
    let mut product_codes = Vec::with_capacity(rows);
    let mut dates = Vec::with_capacity(rows);
    let mut totals = Vec::with_capacity(rows);
    let mut quantities = Vec::with_capacity(rows);
    for _ in 0..rows {
        city_codes.push(rng.below(12) as u32);
        product_codes.push(rng.below(96) as u32);
        dates.push(start + rng.below(90) as i64);
        totals.push((12.0 + rng.unit_f64() * 1038.0 * 100.0).round() / 100.0);
        quantities.push(1 + rng.below(10) as i64);
    }
    table(vec![
        ("city", DataType::Str, dict_col(&city_labels, city_codes)),
        (
            "product",
            DataType::Str,
            dict_col(&product_labels, product_codes),
        ),
        ("date", DataType::Date, ColumnData::dates(dates)),
        ("total", DataType::Float, ColumnData::floats(totals)),
        ("quantity", DataType::Int, ColumnData::ints(quantities)),
    ])
}

/// Customer ids are deliberately *sparse* (`index * 7919 + 13`): the span
/// far exceeds the row count, so the join build takes the hash-map path
/// instead of the dense direct-indexed array.
#[inline]
fn customer_id(index: u64) -> i64 {
    (index * 7919 + 13) as i64
}

/// orders(id, customer_id, amount, region): `rows` orders referencing
/// `customers` ids; the probe side of the big join.
pub fn orders_big(rows: usize, customers: usize) -> Table {
    let mut rng = SplitMix64::new(0x02DE_2B16);
    let regions = ["east", "north", "south", "west"];
    let mut ids = Vec::with_capacity(rows);
    let mut cust = Vec::with_capacity(rows);
    let mut amounts = Vec::with_capacity(rows);
    let mut region_codes = Vec::with_capacity(rows);
    for i in 0..rows {
        ids.push(i as i64 + 1);
        cust.push(customer_id(rng.below(customers.max(1) as u64)));
        amounts.push((rng.unit_f64() * 5000.0 * 100.0).round() / 100.0);
        region_codes.push(rng.below(4) as u32);
    }
    table(vec![
        ("id", DataType::Int, ColumnData::ints(ids)),
        ("customer_id", DataType::Int, ColumnData::ints(cust)),
        ("amount", DataType::Float, ColumnData::floats(amounts)),
        ("region", DataType::Str, dict_col(&regions, region_codes)),
    ])
}

/// customers(id, segment, score): the build side of the big join —
/// `rows` unique sparse ids (see [`orders_big`]).
pub fn customers_big(rows: usize) -> Table {
    let mut rng = SplitMix64::new(0x0C05_7B16);
    let segments = ["consumer", "corporate", "home_office", "smb", "startup"];
    let mut ids = Vec::with_capacity(rows);
    let mut segment_codes = Vec::with_capacity(rows);
    let mut scores = Vec::with_capacity(rows);
    for i in 0..rows {
        ids.push(customer_id(i as u64));
        segment_codes.push(rng.below(5) as u32);
        scores.push((rng.unit_f64() * 100.0 * 10.0).round() / 10.0);
    }
    table(vec![
        ("id", DataType::Int, ColumnData::ints(ids)),
        ("segment", DataType::Str, dict_col(&segments, segment_codes)),
        ("score", DataType::Float, ColumnData::floats(scores)),
    ])
}

/// The big-tier tables at `rows` scale, as (name, table, primary key)
/// triples in registration order: `covid_big` and `sales_big` at `rows`,
/// plus the `orders`/`customers` join pair (customers at `rows / 50`, a
/// 2·10⁵-row build side in the full tier).
pub fn big_tables(rows: usize) -> Vec<(&'static str, Table, Vec<&'static str>)> {
    let customers = (rows / 50).max(1);
    vec![
        ("covid_big", covid_big(rows), vec![]),
        ("sales_big", sales_big(rows), vec![]),
        ("orders", orders_big(rows, customers), vec!["id"]),
        ("customers", customers_big(customers), vec!["id"]),
    ]
}

/// The big-tier catalogue at `rows` scale: [`big_tables`], registered.
/// Use [`BIG_ROWS`] for the full tier; tests pass small counts for the
/// identical distribution at toy scale.
pub fn big_catalog(rows: usize) -> Catalog {
    let mut c = Catalog::new();
    for (name, table, primary_key) in big_tables(rows) {
        c.add_table(name, table, primary_key);
    }
    c
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let a = covid_big(1000);
        let b = covid_big(1000);
        assert_eq!(a.num_rows(), 1000);
        for i in 0..a.num_columns() {
            for row in 0..a.num_rows() {
                assert_eq!(
                    a.col(i).value(row),
                    b.col(i).value(row),
                    "col {i} row {row}"
                );
            }
        }
    }

    #[test]
    fn customers_ids_are_sparse_and_unique() {
        let t = customers_big(500);
        let ColumnData::Int64 { values, .. } = t.col(0) else {
            panic!("ids are ints");
        };
        let mut sorted = values.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 500);
        // Sparse: the id span dwarfs the dense-range build cutoff (4×rows).
        assert!((sorted[499] - sorted[0]) as usize > 4 * 500);
    }

    #[test]
    fn big_catalog_registers_all_tables() {
        let c = big_catalog(2000);
        for t in ["covid_big", "sales_big", "orders", "customers"] {
            assert!(c.table(t).is_some(), "{t} missing");
        }
        assert_eq!(c.table("customers").unwrap().table.num_rows(), 40);
    }
}
