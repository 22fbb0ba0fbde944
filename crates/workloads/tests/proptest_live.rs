//! Differential property tests for the live append path: a catalogue
//! whose tables were built as a flat prefix plus successive
//! [`Catalog::append_rows`] deltas (chunk sharing, dictionary remap,
//! incremental stats merge) must be indistinguishable, through the
//! executor, from the same rows loaded flat from scratch.
//!
//! The split point and delta count are generated, so the tests cover
//! empty bases (everything appended), empty tails (nothing appended),
//! one-row deltas, and multi-delta chains — against generated queries
//! and the paper's seven query logs.
//!
//! A second family pins the chunk-at-a-time fold against *scratch*
//! execution: generated append histories over a dictionary-encoded base
//! (plain-string deltas as the wire delivers them, chunks with different
//! dictionaries, floats summed across chunk boundaries, a poisoned row
//! that forces the fall-back) are maintained by `IvmState` and executed
//! over the chunked catalogue, and every version must equal the scalar
//! reference run over the same rows loaded flat — with no version's flat
//! view ever built.

use pi2_data::{Catalog, DataType, Table, Value};
use pi2_engine::{execute, execute_scalar, EngineError, ExecContext, IvmState};
use pi2_sql::parse_query;
use pi2_workloads::{all_logs, catalog};
use proptest::prelude::*;

mod querygen;
use querygen::{build_query, TABLES};

/// Rebuild every catalogue table through the live append path: keep a
/// `keep_pct`% prefix as the flat base, then append the remainder in
/// `n_deltas` successive `append_rows` calls.
fn chunked_catalog(keep_pct: usize, n_deltas: usize) -> Catalog {
    let flat = catalog();
    let names: Vec<String> = flat.table_names().map(str::to_string).collect();
    let mut live = flat.clone();
    for name in &names {
        let meta = flat.table(name).expect("known table");
        let total = meta.table.num_rows();
        let keep = total * keep_pct / 100;
        let pk: Vec<&str> = meta.primary_key.iter().map(String::as_str).collect();
        live.add_table(meta.name.clone(), meta.table.slice_rows(0, keep), pk);
        let per = (total - keep).div_ceil(n_deltas.max(1)).max(1);
        let mut lo = keep;
        while lo < total {
            let hi = (lo + per).min(total);
            live = live
                .append_rows(name, meta.table.slice_rows(lo, hi))
                .expect("append of a schema-identical delta");
            lo = hi;
        }
    }
    live
}

/// Two executions of `sql` agree: same schema and cells (floats by bit
/// pattern), or the same error.
fn assert_same_answer(
    sql: &str,
    what: &str,
    got: Result<Table, EngineError>,
    want: Result<Table, EngineError>,
) {
    match (got, want) {
        (Ok(g), Ok(w)) => {
            assert_eq!(g.schema, w.schema, "{what}: schemas disagree on {sql}");
            assert_eq!(
                g, w,
                "{what}: tables disagree on {sql}\ngot: {g}\nwant: {w}"
            );
        }
        (Err(ge), Err(we)) => assert_eq!(ge, we, "{what}: errors disagree on {sql}"),
        (g, w) => panic!("{what}: one side failed on {sql}: got {g:?}, want {w:?}"),
    }
}

/// Both catalogues answer `sql` identically (same table or same error).
fn assert_chunked_matches_flat(sql: &str, live: &Catalog) {
    let flat = catalog();
    let q = parse_query(sql).unwrap_or_else(|e| panic!("generated bad SQL {sql}: {e}"));
    assert_same_answer(
        sql,
        "chunked vs flat",
        execute(&q, &ExecContext::new(live)),
        execute(&q, &ExecContext::new(&flat)),
    );
}

// ---------------------------------------------------------------------------
// Generated append histories against scratch execution
// ---------------------------------------------------------------------------

const LIVE_COLS: [(&str, DataType); 5] = [
    ("k", DataType::Str),
    ("g", DataType::Int),
    ("x", DataType::Float),
    ("n", DataType::Int),
    ("d", DataType::Str),
];

/// `n` seeded rows of the `live` table, `k` drawn from `labels`. `x` holds
/// sevenths (inexact in binary, so float sums feel their association);
/// `n` is NULL one time in eight; `d` is an ISO date string.
fn live_rows(seed: &mut u64, n: usize, labels: &[&str]) -> Vec<Vec<Value>> {
    let mut next = move || {
        *seed ^= *seed << 13;
        *seed ^= *seed >> 7;
        *seed ^= *seed << 17;
        *seed
    };
    (0..n)
        .map(|_| {
            vec![
                Value::Str(labels[next() as usize % labels.len()].to_string()),
                Value::Int((next() % 4) as i64),
                Value::Float((next() % 2_000) as f64 / 7.0 - 100.0),
                match next() % 8 {
                    0 => Value::Null,
                    v => Value::Int((v * 37 % 50) as i64),
                },
                Value::Str(format!("2021-0{}-{:02}", 1 + next() % 9, 1 + next() % 28)),
            ]
        })
        .collect()
}

/// The rows as a flat table; with `dict`, `k` is dictionary-encoded the way
/// a loaded dataset's low-cardinality string column is.
fn live_table(rows: Vec<Vec<Value>>, dict: bool) -> Table {
    let plain = Table::from_rows(LIVE_COLS.to_vec(), rows).unwrap();
    if !dict {
        return plain;
    }
    let cols = (0..plain.num_columns())
        .map(|i| plain.col(i).clone().dict_encode())
        .collect();
    Table::from_columns(plain.schema.clone(), cols).unwrap()
}

/// One generated append history: the catalogue versions (version 0 holds
/// the base, each later one an append) and, per version, the same rows
/// loaded flat into a scratch catalogue.
struct History {
    live: Vec<Catalog>,
    scratch: Vec<Catalog>,
}

fn history(mut seed: u64, base_pick: usize, delta_picks: [usize; 3], poison: bool) -> History {
    seed |= 1;
    // Known labels only / a label sorting before every known one / labels
    // on both ends: the chunks of one history carry different dictionaries.
    const DELTA_LABELS: [&[&str]; 3] = [&["b", "c"], &["a", "d"], &["zz", "b", "a", "Zed"]];
    // 4200 rows outgrow the tail-coalescing cap, so the history has more
    // chunks than appends; the small sizes coalesce into a tail whose
    // dictionary is a union.
    const SIZES: [usize; 4] = [1, 7, 300, 4_200];
    let mut all = live_rows(&mut seed, [0, 6, 500][base_pick % 3], &["b", "c", "d"]);
    let mut live = vec![Catalog::new()];
    live[0].add_table("live", live_table(all.clone(), true), vec![]);
    let mut scratch = vec![live[0].clone()];
    for (j, pick) in delta_picks.into_iter().enumerate() {
        let mut rows = live_rows(&mut seed, SIZES[pick % 4], DELTA_LABELS[j]);
        if poison && j == 1 {
            // Not a date: `date(d)` errors on this delta's first row.
            rows[0][4] = Value::Str("oops".into());
        }
        let next = live[j]
            .append_rows("live", live_table(rows.clone(), false))
            .unwrap();
        live.push(next);
        all.extend(rows);
        let mut flat = Catalog::new();
        flat.add_table("live", live_table(all.clone(), false), vec![]);
        scratch.push(flat);
    }
    History { live, scratch }
}

/// IVM-shaped queries over `live`; `t` is a generated threshold.
fn live_query(pick: usize, t: i64) -> String {
    match pick % 10 {
        0 => "SELECT k, count(*), sum(x), avg(x), min(n), max(n) FROM live GROUP BY k".into(),
        1 => format!(
            "SELECT k, g, sum(x) FROM live WHERE n IS NOT NULL AND x > {t} GROUP BY k, g \
             HAVING count(*) > 1 ORDER BY sum(x) DESC LIMIT 5"
        ),
        2 => "SELECT min(k), max(k), count(n), avg(n) FROM live WHERE k >= 'b'".into(),
        3 => format!("SELECT k, x + n AS s FROM live WHERE k != 'c' AND x > {t}"),
        4 => "SELECT g, sum(x * 0.1), avg(x - n) FROM live GROUP BY g".into(),
        5 => format!("SELECT * FROM live WHERE n > {}", t.rem_euclid(50)),
        6 => "SELECT DISTINCT k FROM live GROUP BY k ORDER BY k".into(),
        // `date(d)` errors on a poisoned row: in a select expression …
        7 => "SELECT g, max(date(d)), count(*) FROM live GROUP BY g".into(),
        // An OR over aggregates in HAVING, and ORDER BY aggregates that
        // are not in the select list.
        8 => format!(
            "SELECT k, count(*) FROM live GROUP BY k HAVING count(*) > {} OR max(x) < {t} \
             ORDER BY avg(x), min(n) DESC",
            t.rem_euclid(400)
        ),
        // … and in one the reference only evaluates for groups HAVING
        // keeps, which the fold cannot know: it must fall back, not fail.
        _ => format!(
            "SELECT k, min(date(d)) FROM live GROUP BY k HAVING count(*) > {}",
            t.rem_euclid(400)
        ),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Generated single-table queries over a chunk-rebuilt catalogue:
    /// identical output tables at every split point.
    #[test]
    fn chunked_matches_flat_on_generated_queries(
        keep_pct in 0usize..=100,
        n_deltas in 1usize..4,
        tbl in 0usize..4,
        // bit 0: aggregate, bit 1: distinct
        flags in 0u8..4,
        n_atoms in 0usize..3,
        ks in (0u8..8, 0u8..8),
        ps in (0usize..8, 0usize..8),
        consts in (-20i64..1200, -20i64..1200, -20i64..1200, -20i64..1200),
        ol in 0u8..48,
    ) {
        let live = chunked_catalog(keep_pct, n_deltas);
        let t = &TABLES[tbl];
        let sql = build_query(
            t,
            flags & 1 == 1,
            flags & 2 == 2,
            n_atoms,
            ks,
            ps,
            consts,
            ol % 6,
            ol / 6,
        );
        assert_chunked_matches_flat(&sql, &live);
    }

    /// Generated append histories: `IvmState` (built on the base, one
    /// absorb per append) and `execute` over each chunked version equal
    /// scratch scalar execution at every version; an absorb that errors is
    /// answered the way `EvalCache::try_ivm` answers it — discard the
    /// state, execute in full; and nothing but
    /// that fall-back consolidates a live version.
    #[test]
    fn maintained_views_match_scratch_over_generated_histories(
        seed in 1u64..u64::MAX,
        base_pick in 0usize..3,
        delta_picks in (0usize..4, 0usize..4, 0usize..4),
        poison in 0u8..3,
        query_picks in (0usize..10, 0usize..10),
        t in -100i64..190,
    ) {
        let (d0, d1, d2) = delta_picks;
        let poisoned = poison == 0;
        let h = history(seed, base_pick, [d0, d1, d2], poisoned);
        for pick in [query_picks.0, query_picks.1] {
            let sql = live_query(pick, t);
            let q = parse_query(&sql).unwrap();
            let mut state = IvmState::build(&q, &ExecContext::new(&h.live[0])).ok();
            for (v, (live, scratch)) in h.live.iter().zip(&h.scratch).enumerate() {
                let ctx = ExecContext::new(live);
                if v > 0 {
                    let rows = &live.delta().unwrap().tables["live"].rows;
                    state = match state.take() {
                        Some(mut s) => s.absorb(&q, rows, &ctx).is_ok().then_some(s),
                        None => IvmState::build(&q, &ctx).ok(),
                    };
                }
                let maintained = match &state {
                    Some(s) => s.finalize(&q, &ctx),
                    None => execute(&q, &ctx),
                };
                // The reference: the scalar interpreter over the same rows
                // loaded flat.
                let want = execute_scalar(&q, &ExecContext::new(scratch));
                let what = format!("maintained view at version {v}");
                assert_same_answer(&sql, &what, maintained, want.clone());
                let what = format!("chunked execute at version {v}");
                assert_same_answer(&sql, &what, execute(&q, &ctx), want);
            }
        }
        // (The fall-back a poisoned row forces is the flat executor, which
        // does consolidate.)
        for live in h.live[1..].iter().filter(|_| !poisoned) {
            prop_assert!(
                !live.table("live").unwrap().table.has_flat_view(),
                "an IVM-shaped query consolidated a live version"
            );
        }
    }

    /// SDSS-shaped equijoins where *both* sides are chunk-rebuilt: the
    /// hash-join build and probe sides each consolidate chunked storage.
    #[test]
    fn chunked_matches_flat_on_joins(
        keep_pct in 0usize..=100,
        lo in 0i64..12,
        width in 1i64..10,
    ) {
        let live = chunked_catalog(keep_pct, 2);
        let ra_lo = 213.0 + lo as f64 / 10.0;
        let ra_hi = ra_lo + width as f64 / 10.0;
        let sql = format!(
            "SELECT gal.objID, gal.u, s.ra, s.dec FROM galaxy AS gal, specObj AS s \
             WHERE s.bestObjID = gal.objID AND s.ra BETWEEN {ra_lo} AND {ra_hi}"
        );
        assert_chunked_matches_flat(&sql, &live);
    }
}

/// Every query of the paper's seven logs answers identically over a
/// catalogue rebuilt through appends, at an empty-base split (the whole
/// table arrived live) and a mid-table split.
#[test]
fn chunked_matches_flat_on_all_workload_logs() {
    for keep_pct in [0, 60] {
        let live = chunked_catalog(keep_pct, 3);
        for log in all_logs() {
            for sql in &log.queries {
                assert_chunked_matches_flat(sql, &live);
            }
        }
    }
}
