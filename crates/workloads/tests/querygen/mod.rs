//! Shared structural SQL generation for the differential test suites:
//! table specs over the seeded workload catalog plus builders turning
//! generated choice integers into SELECTs (filters, grouping, having,
//! distinct, order/limit). Used by both the scalar-vs-vectorized suite and
//! the parallel-execution suite, so the two pin exactly the same query
//! space.

/// Table → (numeric columns, categorical/text equality columns with sample
/// literals, date column if any).
pub struct TableSpec {
    pub name: &'static str,
    pub nums: &'static [&'static str],
    pub cats: &'static [(&'static str, &'static [&'static str])],
    pub date: Option<&'static str>,
}

pub const TABLES: &[TableSpec] = &[
    TableSpec {
        name: "flights",
        nums: &["hour", "delay", "dist"],
        cats: &[],
        date: None,
    },
    TableSpec {
        name: "covid",
        nums: &["cases", "deaths"],
        cats: &[("state", &["CA", "NY", "WA", "TX", "ZZ"])],
        date: Some("date"),
    },
    TableSpec {
        name: "Cars",
        nums: &["id", "hp", "mpg", "disp"],
        cats: &[("origin", &["USA", "Europe", "Japan", "Mars"])],
        date: None,
    },
    TableSpec {
        name: "sales",
        nums: &["total"],
        cats: &[
            ("city", &["Yangon", "Mandalay", "Naypyitaw", "Nowhere"]),
            ("product", &["Food", "Sports", "Electronics"]),
        ],
        date: Some("date"),
    },
];

/// One WHERE atom over the chosen table, driven by generated integers.
/// String atoms (equality, ordering, IN lists, LIKE) run against the
/// dictionary-encoded categorical columns of the workload tables, so the
/// code-compare / code-membership / pattern-table fast paths are all in
/// the generated space alongside the numeric ones.
pub fn atom(t: &TableSpec, kind: u8, col_pick: usize, a: i64, b: i64) -> String {
    let num = t.nums[col_pick % t.nums.len()];
    let (lo, hi) = (a.min(b), a.max(b));
    match kind % 8 {
        0 => format!("{num} > {a}"),
        1 => format!("{num} BETWEEN {lo} AND {hi}"),
        2 => format!("{num} IN ({a}, {b}, {lo})"),
        3 if !t.cats.is_empty() => {
            let (c, vals) = &t.cats[col_pick % t.cats.len()];
            format!("{c} = '{}'", vals[a.unsigned_abs() as usize % vals.len()])
        }
        4 if t.date.is_some() => {
            let d = t.date.unwrap();
            // Dates compare against ISO string literals and date() exprs.
            if a % 2 == 0 {
                format!("{d} > date(today(), '-{} days')", a.unsigned_abs() % 200)
            } else {
                format!("{d} >= '2019-01-{:02}'", 1 + a.unsigned_abs() % 28)
            }
        }
        5 if !t.cats.is_empty() => {
            let (c, vals) = &t.cats[col_pick % t.cats.len()];
            let v = vals[a.unsigned_abs() as usize % vals.len()];
            match b.unsigned_abs() % 4 {
                // Ordering over strings (dict code-order fast path).
                0 => format!("{c} >= '{v}'"),
                1 => format!("{c} < '{v}'"),
                // Membership sets resolve to dictionary codes.
                2 => format!(
                    "{c} IN ('{v}', '{}')",
                    vals[b.unsigned_abs() as usize % vals.len()]
                ),
                _ => format!("{c} != '{v}'"),
            }
        }
        6 if !t.cats.is_empty() => {
            let (c, vals) = &t.cats[col_pick % t.cats.len()];
            let v = vals[a.unsigned_abs() as usize % vals.len()];
            // LIKE over a dictionary column: prefix / suffix / char classes.
            let first = v.chars().next().unwrap_or('x');
            match b.unsigned_abs() % 3 {
                0 => format!("{c} LIKE '{first}%'"),
                1 => format!("{c} LIKE '%{}'", v.chars().last().unwrap_or('x')),
                _ => format!("{c} LIKE '_{}%'", v.chars().nth(1).unwrap_or('x')),
            }
        }
        _ => format!("{num} <= {hi}"),
    }
}

/// Build a SELECT over `t` from generated choice integers. For an
/// aggregate, `distinct` drops the `GROUP BY` instead: the aggregates then
/// fold one implicit group — empty when the WHERE keeps no rows — beside
/// bare expressions over the group column, read from its representative
/// row.
#[allow(clippy::too_many_arguments)]
pub fn build_query(
    t: &TableSpec,
    aggregate: bool,
    distinct: bool,
    n_atoms: usize,
    kinds: (u8, u8),
    cols: (usize, usize),
    consts: (i64, i64, i64, i64),
    order: u8,
    limit: u8,
) -> String {
    let (k1, k2) = kinds;
    let (p1, p2) = cols;
    let (a, b, c, d) = consts;
    let mut sql = String::from("SELECT ");
    let group_col: String;
    if aggregate {
        // Group by one or two low-cardinality columns (two exercises the
        // exact-key multi-key grouping over dictionary codes), or the
        // first numeric when the table has no categorical column.
        group_col = if t.cats.len() >= 2 && k1 % 2 == 1 {
            format!("{}, {}", t.cats[0].0, t.cats[1].0)
        } else if let Some((g, _)) = t.cats.first() {
            (*g).to_string()
        } else {
            t.nums[p1 % t.nums.len()].to_string()
        };
        let shown = if distinct {
            let g = group_col.split(", ").next().unwrap_or_default();
            format!("{g}, {g} IS NULL")
        } else {
            group_col.clone()
        };
        let m = t.nums[p2 % t.nums.len()];
        sql.push_str(&format!(
            "{shown}, count(*), sum({m}), avg({m}), min({m}), max({m})"
        ));
        // Aggregates over a string column take the accumulators' generic
        // (untyped) arms: sums of no numbers, string extremes.
        if let Some((c, _)) = t.cats.last() {
            sql.push_str(&format!(", sum({c}), avg({c}), min({c}), max({c})"));
        }
    } else {
        group_col = String::new();
        if distinct {
            sql.push_str("DISTINCT ");
        }
        let c1 = t.nums[p1 % t.nums.len()];
        let c2 = t.nums[p2 % t.nums.len()];
        // Project a categorical (dictionary) column alongside the numeric
        // ones when available: DISTINCT / ORDER BY / output columns then
        // flow through dict storage and the lazy-selection gathers.
        match t.cats.first() {
            Some((cat, _)) if p1 % 2 == 1 => {
                sql.push_str(&format!("{cat}, {c1}, {c2}, {c1} + {c2} AS s"))
            }
            _ => sql.push_str(&format!("{c1}, {c2}, {c1} + {c2} AS s")),
        }
    }
    sql.push_str(&format!(" FROM {}", t.name));
    if n_atoms > 0 {
        sql.push_str(" WHERE ");
        sql.push_str(&atom(t, k1, p1, a, b));
        if n_atoms > 1 {
            let joiner = if k2 % 3 == 0 { " OR " } else { " AND " };
            sql.push_str(joiner);
            sql.push_str(&atom(t, k2, p2, c, d));
        }
    }
    if aggregate {
        if !distinct {
            sql.push_str(&format!(" GROUP BY {group_col}"));
        }
        if k2 % 3 == 0 {
            sql.push_str(&format!(" HAVING count(*) > {}", a.unsigned_abs() % 8));
        }
        if order.is_multiple_of(2) {
            sql.push_str(" ORDER BY count(*) DESC");
        }
    } else if !order.is_multiple_of(3) {
        // Order by a numeric column, or by a categorical (dictionary)
        // column when the table has one (string sort via code order).
        let oc = match t.cats.first() {
            Some((cat, _)) if order == 5 => *cat,
            _ => t.nums[p2 % t.nums.len()],
        };
        sql.push_str(&format!(
            " ORDER BY {oc}{}",
            if order.is_multiple_of(2) { " DESC" } else { "" }
        ));
    }
    if limit.is_multiple_of(4) {
        sql.push_str(&format!(" LIMIT {}", 1 + limit as u32 * 3));
    }
    sql
}
