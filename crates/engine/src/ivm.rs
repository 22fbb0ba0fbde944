//! The chunk-at-a-time fold: incremental view maintenance (IVM) over
//! append-only catalogues, and execution over tables stored in chunks.
//!
//! A live table is a list of immutable chunks ([`pi2_data::Table::chunks`]);
//! an append adds one. For the two query shapes that dominate generated
//! interfaces this module folds **one flat chunk at a time** into a carried
//! state, running the *vectorized* operators over the chunk (selection-
//! vector `WHERE`, vectorized group keys and aggregate arguments):
//!
//! - **Aggregates** (`GROUP BY` + `count/sum/count(*)/avg/min/max`, with
//!   `WHERE`/`HAVING`/`ORDER BY`/`LIMIT`/`DISTINCT`): groups in
//!   first-encounter order with their representative rows, and per
//!   aggregate site one accumulator per group that *continues* from its
//!   current value; `avg` is sum + count.
//! - **Projections** (`SELECT …  WHERE …` with no `DISTINCT`/`ORDER BY`/
//!   `LIMIT`): the filter is row-local, so each chunk's output rows append
//!   to the output so far (zero-copy, via [`Table::append_table`]).
//!
//! One routine, three callers: [`IvmState::build`] folds every chunk of
//! the table, [`IvmState::absorb`] folds an append's delta chunk, and
//! [`crate::execute`] of such a query over a chunked table is `build` +
//! [`IvmState::finalize`] — none of them consolidates the chunks. Chunks
//! may carry different dictionaries (or plain strings next to dictionary
//! codes): grouping inside a chunk runs in that chunk's code space, and
//! only one key per chunk-local group is looked up, by value, in the
//! carried group index.
//!
//! Everything else — joins, subqueries, `DISTINCT`/`ORDER BY`/`LIMIT`
//! projections — reports unsupported: IVM callers fall back to full
//! re-execution, and `execute` consolidates the chunked table (once per
//! table value) and runs the flat executor, as it always has.
//!
//! **The contract is byte-identity with the scalar reference executor**: for
//! a supported query, `build` + any sequence of `absorb`s + `finalize`
//! produces exactly the table `execute_scalar` produces over the fully
//! appended catalogue — same rows, same order, same cell values. That is
//! why accumulators continue rather than merge: float sums fold row by row
//! in ascending row order onto the carried total, `(s + d₁) + d₂`, never
//! `s + (d₁ + d₂)`. `min` keeps the first minimum and `max` the last
//! maximum. The fold evaluates every aggregate argument over every
//! surviving row, a superset of what the reference evaluates (which skips
//! groups `HAVING` drops), so an error inside it proves nothing: callers
//! discard the state and fall back, and an IVM bug can degrade performance
//! but never results. The differential tests below and
//! `crates/workloads/tests/proptest_live.rs` pin all of this.

use crate::analyze::analyze_query_cached;
use crate::error::EngineError;
use crate::eval::{
    apply_binary, apply_scalar_function, apply_unary, eval_between, eval_expr, eval_logical, Scope,
};
use crate::exec::{
    apply_filter, build_groups, coerce_row, derive_schema, exec_projection, group_key_columns,
    ExecContext,
};
use crate::vector::{aggregate_over, eval_vec, LazyCol, VecRelation};
use pi2_data::column::{ColumnData, NullMask};
use pi2_data::{DataType, Table, Value};
use pi2_sql::ast::{is_aggregate_function, BinOp, Expr, Query, SelectItem, TableRef};
use std::collections::{BTreeSet, HashMap, HashSet};
use std::sync::Arc;

/// Every base table the query reads, lowercased — including tables named
/// inside subqueries at any depth. A cached result for `query` stays valid
/// across an append exactly when the appended table is not in this set.
pub fn referenced_tables(query: &Query) -> BTreeSet<String> {
    fn walk_query(q: &Query, out: &mut BTreeSet<String>) {
        for tref in &q.from {
            match tref {
                TableRef::Table { name, .. } => {
                    out.insert(name.to_ascii_lowercase());
                }
                TableRef::Subquery { query, .. } => walk_query(query, out),
            }
        }
        let exprs = q
            .select
            .iter()
            .filter_map(|item| match item {
                SelectItem::Expr { expr, .. } => Some(expr),
                SelectItem::Star => None,
            })
            .chain(q.where_clause.iter())
            .chain(q.group_by.iter())
            .chain(q.having.iter())
            .chain(q.order_by.iter().map(|o| &o.expr));
        for e in exprs {
            walk_expr(e, out);
        }
    }
    fn walk_expr(e: &Expr, out: &mut BTreeSet<String>) {
        match e {
            Expr::Unary { expr, .. } | Expr::IsNull { expr, .. } => walk_expr(expr, out),
            Expr::Binary { left, right, .. } => {
                walk_expr(left, out);
                walk_expr(right, out);
            }
            Expr::Between {
                expr, low, high, ..
            } => {
                walk_expr(expr, out);
                walk_expr(low, out);
                walk_expr(high, out);
            }
            Expr::InList { expr, list, .. } => {
                walk_expr(expr, out);
                list.iter().for_each(|e| walk_expr(e, out));
            }
            Expr::Func { args, .. } => args.iter().for_each(|e| walk_expr(e, out)),
            Expr::InSubquery { expr, query, .. } => {
                walk_expr(expr, out);
                walk_query(query, out);
            }
            Expr::ScalarSubquery(q) => walk_query(q, out),
            Expr::Column { .. } | Expr::Literal(_) | Expr::Star => {}
        }
    }
    let mut out = BTreeSet::new();
    walk_query(query, &mut out);
    out
}

fn expr_has_subquery(e: &Expr) -> bool {
    match e {
        Expr::InSubquery { .. } | Expr::ScalarSubquery(_) => true,
        Expr::Unary { expr, .. } | Expr::IsNull { expr, .. } => expr_has_subquery(expr),
        Expr::Binary { left, right, .. } => expr_has_subquery(left) || expr_has_subquery(right),
        Expr::Between {
            expr, low, high, ..
        } => expr_has_subquery(expr) || expr_has_subquery(low) || expr_has_subquery(high),
        Expr::InList { expr, list, .. } => {
            expr_has_subquery(expr) || list.iter().any(expr_has_subquery)
        }
        Expr::Func { args, .. } => args.iter().any(expr_has_subquery),
        Expr::Column { .. } | Expr::Literal(_) | Expr::Star => false,
    }
}

/// The single base table an IVM-shaped query scans (lowercased), or `None`
/// when the query's *structure* rules IVM out: multi-table FROM, subqueries
/// anywhere, or (for non-aggregates) `DISTINCT`/`ORDER BY`/`LIMIT`, none of
/// which distribute over appends row-locally.
pub fn ivm_table(query: &Query) -> Option<String> {
    let [TableRef::Table { name, .. }] = query.from.as_slice() else {
        return None;
    };
    let exprs = query
        .select
        .iter()
        .filter_map(|item| match item {
            SelectItem::Expr { expr, .. } => Some(expr),
            SelectItem::Star => None,
        })
        .chain(query.where_clause.iter())
        .chain(query.group_by.iter())
        .chain(query.having.iter())
        .chain(query.order_by.iter().map(|o| &o.expr));
    for e in exprs {
        if expr_has_subquery(e) {
            return None;
        }
    }
    if query.is_aggregate() {
        // `SELECT *` under GROUP BY is an executor error; leave it to the
        // full path so both paths fail identically.
        if query.select.iter().any(|i| matches!(i, SelectItem::Star)) {
            return None;
        }
    } else if query.distinct || !query.order_by.is_empty() || query.limit.is_some() {
        return None;
    }
    Some(name.to_ascii_lowercase())
}

/// Whether IVM can maintain `query` against `catalog`: the shape qualifies
/// ([`ivm_table`]) *and* static analysis succeeds, which guarantees a stable
/// output schema across appends (appends never change column types).
pub fn supported(query: &Query, catalog: &pi2_data::Catalog) -> bool {
    ivm_table(query).is_some() && analyze_query_cached(query, catalog).is_ok()
}

/// Which aggregate an accumulator implements.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AggKind {
    CountStar,
    Count,
    Sum,
    Avg,
    Min,
    Max,
}

/// One aggregate call site in the query, in fixed traversal order.
struct AggSite<'q> {
    kind: AggKind,
    arg: Option<&'q Expr>,
}

/// Run `f` over the non-null slots of a typed column, ascending.
fn for_valid(nulls: &NullMask, len: usize, mut f: impl FnMut(usize)) {
    if nulls.null_count() == 0 {
        (0..len).for_each(f);
    } else {
        (0..len).filter(|&i| !nulls.is_null(i)).for_each(&mut f);
    }
}

/// What one chunk's surviving rows look like to the accumulators: the
/// chunk-local groups (row lists ascending, groups in first-encounter
/// order), the carried group each maps to, and per row the carried group
/// id — filled on first use, since only `count(x)`/`sum`/`avg` read it.
struct ChunkGroups {
    local: Vec<Vec<u32>>,
    local_gid: Option<Vec<u32>>,
    to_carried: Vec<u32>,
    row_gid: std::cell::OnceCell<Vec<u32>>,
}

impl ChunkGroups {
    fn row_gid(&self) -> &[u32] {
        self.row_gid.get_or_init(|| match &self.local_gid {
            Some(gid) => gid.iter().map(|&l| self.to_carried[l as usize]).collect(),
            None => {
                let mut out = vec![0u32; self.local.iter().map(Vec::len).sum()];
                for (l, idx) in self.local.iter().enumerate() {
                    for &i in idx {
                        out[i as usize] = self.to_carried[l];
                    }
                }
                out
            }
        })
    }
}

/// The accumulators of one aggregate site, one slot per group (parallel
/// to [`AggState::reprs`]). Folding mirrors `eval_aggregate` in
/// `crate::eval` exactly: NULL arguments are skipped everywhere,
/// `sum`/`avg` add `as_f64` values in row order onto the slot's running
/// total (so float results are bit-identical to the reference's
/// left-fold), `min` keeps the first minimal value and `max` the last
/// maximal one (matching `Iterator::min`/`max` tie-breaking), and `avg`
/// divides by the non-null count.
#[derive(Debug, Clone)]
enum SiteAcc {
    /// `count(*)` / `count(x)`: rows / non-null arguments seen.
    Count(Vec<i64>),
    /// `sum` / `avg`: the running total, the non-null count, and whether
    /// every non-null argument so far was an `Int` (then `sum` is one).
    Sum {
        total: Vec<f64>,
        n: Vec<i64>,
        all_int: Vec<bool>,
    },
    /// `min` / `max`: the extreme so far.
    Extreme(Vec<Option<Value>>),
}

impl SiteAcc {
    fn new(kind: AggKind) -> SiteAcc {
        match kind {
            AggKind::CountStar | AggKind::Count => SiteAcc::Count(Vec::new()),
            AggKind::Sum | AggKind::Avg => SiteAcc::Sum {
                total: Vec::new(),
                n: Vec::new(),
                all_int: Vec::new(),
            },
            AggKind::Min | AggKind::Max => SiteAcc::Extreme(Vec::new()),
        }
    }

    /// Open the slot of a group just encountered.
    fn push_group(&mut self) {
        match self {
            SiteAcc::Count(n) => n.push(0),
            SiteAcc::Sum { total, n, all_int } => {
                total.push(0.0);
                n.push(0);
                all_int.push(true);
            }
            SiteAcc::Extreme(v) => v.push(None),
        }
    }

    /// The aggregate's value for group `g`; `None` asks for the value over
    /// zero rows (the implicit single group of an empty input).
    fn value(&self, kind: AggKind, g: Option<usize>) -> Value {
        match (self, g) {
            (SiteAcc::Count(_), None) => Value::Int(0),
            (_, None) => Value::Null,
            (SiteAcc::Count(n), Some(g)) => Value::Int(n[g]),
            (SiteAcc::Sum { n, .. }, Some(g)) if n[g] == 0 => Value::Null,
            (SiteAcc::Sum { total, n, all_int }, Some(g)) => {
                if kind == AggKind::Avg {
                    Value::Float(total[g] / n[g] as f64)
                } else if all_int[g] {
                    Value::Int(total[g] as i64)
                } else {
                    Value::Float(total[g])
                }
            }
            (SiteAcc::Extreme(v), Some(g)) => v[g].clone().unwrap_or(Value::Null),
        }
    }

    /// Fold one chunk's surviving rows (`rel`) into the slots. One
    /// sequential pass in ascending row order for the order-sensitive
    /// accumulators — the same additions, in the same order, as folding
    /// the reference's per-group value lists.
    fn fold(
        &mut self,
        site: &AggSite<'_>,
        rel: &VecRelation,
        groups: &ChunkGroups,
        ctx: &ExecContext<'_>,
    ) -> Result<(), EngineError> {
        let add_group_sizes = |n: &mut [i64]| {
            for (l, idx) in groups.local.iter().enumerate() {
                n[groups.to_carried[l] as usize] += idx.len() as i64;
            }
        };
        if site.kind == AggKind::CountStar {
            let SiteAcc::Count(n) = self else {
                unreachable!("count(*) accumulates a count")
            };
            add_group_sizes(n);
            return Ok(());
        }
        let arg = site.arg.expect("AggState::new checked the argument");
        let col = eval_vec(arg, rel, ctx, None)?.into_column(rel.len);
        match self {
            SiteAcc::Count(n) if col.null_count() == 0 => add_group_sizes(n),
            SiteAcc::Count(n) => {
                let gid = groups.row_gid();
                (0..rel.len)
                    .filter(|&i| !col.is_null(i))
                    .for_each(|i| n[gid[i] as usize] += 1);
            }
            SiteAcc::Sum { total, n, all_int } => {
                let gid = groups.row_gid();
                match col.as_ref() {
                    ColumnData::Int64 { values, nulls } => for_valid(nulls, rel.len, |i| {
                        let g = gid[i] as usize;
                        total[g] += values[i] as f64;
                        n[g] += 1;
                    }),
                    // Date sums degrade to Float, like the reference's.
                    ColumnData::Date64 { values, nulls } => for_valid(nulls, rel.len, |i| {
                        let g = gid[i] as usize;
                        total[g] += values[i] as f64;
                        n[g] += 1;
                        all_int[g] = false;
                    }),
                    ColumnData::Float64 { values, nulls } => for_valid(nulls, rel.len, |i| {
                        let g = gid[i] as usize;
                        total[g] += values[i];
                        n[g] += 1;
                        all_int[g] = false;
                    }),
                    other => {
                        for (i, v) in other.iter().enumerate().filter(|(_, v)| !v.is_null()) {
                            let g = gid[i] as usize;
                            if let Some(f) = v.as_f64() {
                                total[g] += f;
                            }
                            n[g] += 1;
                            all_int[g] &= matches!(v, Value::Int(_));
                        }
                    }
                }
            }
            // Order-insensitive up to ties: each chunk-local group's
            // extreme (the kernels the flat executor uses) merges into the
            // carried one, earlier rows winning `min` ties and later rows
            // winning `max` ties.
            SiteAcc::Extreme(best) => {
                let name = if site.kind == AggKind::Min {
                    "min"
                } else {
                    "max"
                };
                for (l, idx) in groups.local.iter().enumerate() {
                    let v = aggregate_over(name, name, &col, idx)?;
                    if v.is_null() {
                        continue;
                    }
                    let slot = &mut best[groups.to_carried[l] as usize];
                    let replace = slot.as_ref().is_none_or(|cur| {
                        if site.kind == AggKind::Min {
                            v.cmp(cur).is_lt()
                        } else {
                            v.cmp(cur).is_ge()
                        }
                    });
                    if replace {
                        *slot = Some(v);
                    }
                }
            }
        }
        Ok(())
    }
}

/// All aggregate sites of the query plus, per clause, the index of its
/// first site — so finalize-time substitution can start its cursor at the
/// right offset regardless of clause evaluation order.
struct SitePlan<'q> {
    sites: Vec<AggSite<'q>>,
    select_offsets: Vec<usize>,
    having_offset: usize,
    order_offsets: Vec<usize>,
}

/// Collect aggregate sites in the exact positions `eval_grouped` treats as
/// aggregates: it recurses through unary/binary/BETWEEN operators and
/// non-aggregate function arguments, and stops at every other node (those
/// evaluate against the representative row). Sites hidden under stop nodes
/// are never collected — the reference evaluator errors on them, and so
/// does finalize, by taking the same `eval_expr` path.
fn site_plan(query: &Query) -> SitePlan<'_> {
    fn walk<'q>(e: &'q Expr, out: &mut Vec<AggSite<'q>>) {
        match e {
            Expr::Func { name, args } if is_aggregate_function(name) => {
                let lname = name.to_ascii_lowercase();
                if lname == "count" && matches!(args.first(), Some(Expr::Star) | None) {
                    out.push(AggSite {
                        kind: AggKind::CountStar,
                        arg: None,
                    });
                } else {
                    let kind = match lname.as_str() {
                        "count" => AggKind::Count,
                        "sum" => AggKind::Sum,
                        "avg" => AggKind::Avg,
                        "min" => AggKind::Min,
                        _ => AggKind::Max,
                    };
                    out.push(AggSite {
                        kind,
                        arg: args.first(),
                    });
                }
            }
            Expr::Unary { expr, .. } => walk(expr, out),
            Expr::Binary { left, right, .. } => {
                walk(left, out);
                walk(right, out);
            }
            Expr::Between {
                expr, low, high, ..
            } => {
                walk(expr, out);
                walk(low, out);
                walk(high, out);
            }
            Expr::Func { args, .. } => args.iter().for_each(|a| walk(a, out)),
            _ => {}
        }
    }
    let mut sites = Vec::new();
    let mut select_offsets = Vec::with_capacity(query.select.len());
    for item in &query.select {
        select_offsets.push(sites.len());
        if let SelectItem::Expr { expr, .. } = item {
            walk(expr, &mut sites);
        }
    }
    let having_offset = sites.len();
    if let Some(h) = &query.having {
        walk(h, &mut sites);
    }
    let mut order_offsets = Vec::with_capacity(query.order_by.len());
    for o in &query.order_by {
        order_offsets.push(sites.len());
        walk(&o.expr, &mut sites);
    }
    SitePlan {
        sites,
        select_offsets,
        having_offset,
        order_offsets,
    }
}

/// Number of aggregate sites inside `e` (for advancing the substitution
/// cursor past a short-circuited subtree).
fn count_sites(e: &Expr) -> usize {
    let mut v = Vec::new();
    fn collect<'q>(e: &'q Expr, out: &mut Vec<AggSite<'q>>) {
        match e {
            Expr::Func { name, .. } if is_aggregate_function(name) => out.push(AggSite {
                kind: AggKind::CountStar,
                arg: None,
            }),
            Expr::Unary { expr, .. } => collect(expr, out),
            Expr::Binary { left, right, .. } => {
                collect(left, out);
                collect(right, out);
            }
            Expr::Between {
                expr, low, high, ..
            } => {
                collect(expr, out);
                collect(low, out);
                collect(high, out);
            }
            Expr::Func { args, .. } => args.iter().for_each(|a| collect(a, out)),
            _ => {}
        }
    }
    collect(e, &mut v);
    v.len()
}

/// `eval_grouped` with accumulator substitution: aggregate sites yield their
/// accumulated value (advancing `cursor` in traversal order — including past
/// subtrees skipped by logical short-circuit), everything else mirrors the
/// reference evaluator against the group's representative row.
fn eval_ivm(
    e: &Expr,
    vals: &[Value],
    cursor: &mut usize,
    repr: &Scope<'_>,
    ctx: &ExecContext<'_>,
) -> Result<Value, EngineError> {
    match e {
        Expr::Func { name, .. } if is_aggregate_function(name) => {
            let v = vals[*cursor].clone();
            *cursor += 1;
            Ok(v)
        }
        Expr::Unary { op, expr } => {
            let v = eval_ivm(expr, vals, cursor, repr, ctx)?;
            apply_unary(*op, v)
        }
        Expr::Binary { left, op, right } => {
            if *op == BinOp::And || *op == BinOp::Or {
                let l = eval_ivm(left, vals, cursor, repr, ctx)?;
                let lb = if l.is_null() { None } else { l.as_bool() };
                // Mirror the reference's short-circuit, keeping the cursor
                // in sync with collection order by skipping the subtree.
                if (*op == BinOp::And && lb == Some(false))
                    || (*op == BinOp::Or && lb == Some(true))
                {
                    *cursor += count_sites(right);
                    return Ok(Value::Bool(*op == BinOp::Or));
                }
                return eval_logical(*op, l, || eval_ivm(right, vals, cursor, repr, ctx));
            }
            let l = eval_ivm(left, vals, cursor, repr, ctx)?;
            let r = eval_ivm(right, vals, cursor, repr, ctx)?;
            apply_binary(*op, l, r)
        }
        Expr::Between {
            expr,
            negated,
            low,
            high,
        } => {
            let v = eval_ivm(expr, vals, cursor, repr, ctx)?;
            let lo = eval_ivm(low, vals, cursor, repr, ctx)?;
            let hi = eval_ivm(high, vals, cursor, repr, ctx)?;
            eval_between(&v, &lo, &hi, *negated)
        }
        Expr::Func { name, args } => {
            let vs = args
                .iter()
                .map(|a| eval_ivm(a, vals, cursor, repr, ctx))
                .collect::<Result<Vec<_>, _>>()?;
            apply_scalar_function(name, &vs, ctx)
        }
        other => eval_expr(other, repr, ctx),
    }
}

/// How the fold sees the scanned table: the `(binding, column)` tags (as
/// `eval_from` assigns them: alias or table name) and storage types every
/// chunk shares.
#[derive(Debug, Clone)]
struct Scan {
    cols: Arc<Vec<(String, String)>>,
    types: Arc<Vec<DataType>>,
}

impl Scan {
    fn of(query: &Query, ctx: &ExecContext<'_>) -> Result<Scan, EngineError> {
        let [TableRef::Table { name, alias }] = query.from.as_slice() else {
            return Err(EngineError::Unsupported("IVM needs a single table".into()));
        };
        let schema = &ctx.catalog.require_table(name)?.table.schema;
        let binding = alias.as_ref().unwrap_or(name);
        Ok(Scan {
            cols: Arc::new(
                schema
                    .columns
                    .iter()
                    .map(|c| (binding.clone(), c.name.clone()))
                    .collect(),
            ),
            types: Arc::new(schema.columns.iter().map(|c| c.dtype).collect()),
        })
    }

    /// A relation over the scanned table's columns: `rows` rows of
    /// `columns` (which a zero-row relation may leave empty — nothing
    /// reads them).
    fn rel(&self, columns: Vec<LazyCol>, rows: usize) -> VecRelation {
        VecRelation {
            cols: Arc::clone(&self.cols),
            types: Arc::clone(&self.types),
            columns,
            len: rows,
        }
    }

    /// One flat chunk as a zero-copy relation, narrowed by the query's
    /// `WHERE` (a lazy selection vector; nothing is gathered until read).
    fn filtered(
        &self,
        query: &Query,
        chunk: &Table,
        ctx: &ExecContext<'_>,
    ) -> Result<VecRelation, EngineError> {
        let columns = (0..chunk.num_columns())
            .map(|i| LazyCol::dense(Arc::clone(chunk.col_arc(i))))
            .collect();
        let rel = self.rel(columns, chunk.num_rows());
        apply_filter(rel, query.where_clause.as_ref().as_slice(), ctx, None)
    }
}

/// Maintained state for an aggregate-shaped query: the groups seen so far,
/// in first-encounter order, and one accumulator column per aggregate site.
#[derive(Debug, Clone)]
pub struct AggState {
    scan: Scan,
    /// Group key values → position in `reprs`. Keyed by value, so chunks
    /// with different dictionaries (or none) meet in one index.
    index: HashMap<Vec<Value>, u32>,
    /// Each group's representative row: the first member encountered,
    /// exactly like the reference's group build.
    reprs: Vec<Vec<Value>>,
    /// Parallel to the query's aggregate sites; each `reprs.len()` slots.
    accs: Vec<SiteAcc>,
}

impl AggState {
    fn new(query: &Query, ctx: &ExecContext<'_>) -> Result<AggState, EngineError> {
        let sites = site_plan(query).sites;
        // The reference reports a missing argument even over zero rows,
        // which the fold would never look at.
        if let Some(site) = sites
            .iter()
            .find(|s| s.kind != AggKind::CountStar && s.arg.is_none())
        {
            return Err(EngineError::BadFunction(format!(
                "{:?} needs an argument",
                site.kind
            )));
        }
        Ok(AggState {
            scan: Scan::of(query, ctx)?,
            index: HashMap::new(),
            reprs: Vec::new(),
            accs: sites.iter().map(|s| SiteAcc::new(s.kind)).collect(),
        })
    }

    /// Fold one flat chunk: vectorized `WHERE`, group keys and grouping
    /// over the chunk (dictionary keys group on a dense code table built
    /// once for the chunk), then one carried-index lookup per chunk-local
    /// group, then every site's accumulators.
    fn fold(
        &mut self,
        query: &Query,
        chunk: &Table,
        ctx: &ExecContext<'_>,
    ) -> Result<(), EngineError> {
        let rel = self.scan.filtered(query, chunk, ctx)?;
        if rel.len == 0 {
            return Ok(());
        }
        let keycols = group_key_columns(query, &rel, ctx, None)?;
        let (local, local_gid) = build_groups(&keycols, rel.len);
        let mut to_carried = Vec::with_capacity(local.len());
        for idx in &local {
            let first = idx[0] as usize;
            let key: Vec<Value> = keycols.iter().map(|c| c.value(first)).collect();
            let g = match self.index.get(&key) {
                Some(&g) => g,
                None => {
                    let g = self.reprs.len() as u32;
                    self.index.insert(key, g);
                    self.reprs.push(rel.row(first));
                    self.accs.iter_mut().for_each(SiteAcc::push_group);
                    g
                }
            };
            to_carried.push(g);
        }
        let groups = ChunkGroups {
            local,
            local_gid,
            to_carried,
            row_gid: std::cell::OnceCell::new(),
        };
        for (site, acc) in site_plan(query).sites.iter().zip(&mut self.accs) {
            acc.fold(site, &rel, &groups, ctx)?;
        }
        Ok(())
    }

    fn finalize(&self, query: &Query, ctx: &ExecContext<'_>) -> Result<Table, EngineError> {
        let plan = site_plan(query);
        // The implicit single group: no GROUP BY and zero input rows still
        // aggregates (count(*) = 0, sum = NULL).
        let groups: Vec<Option<usize>> = if query.group_by.is_empty() && self.reprs.is_empty() {
            vec![None]
        } else {
            (0..self.reprs.len()).map(Some).collect()
        };
        let mut out_rows: Vec<(Vec<Value>, Vec<Value>)> = Vec::new();
        for g in groups {
            let vals: Vec<Value> = plan
                .sites
                .iter()
                .zip(&self.accs)
                .map(|(site, acc)| acc.value(site.kind, g))
                .collect();
            let repr = Scope {
                cols: &self.scan.cols,
                row: g.map_or(&[][..], |g| &self.reprs[g]),
                parent: None,
            };
            if let Some(h) = &query.having {
                let mut cursor = plan.having_offset;
                if eval_ivm(h, &vals, &mut cursor, &repr, ctx)?.as_bool() != Some(true) {
                    continue;
                }
            }
            let mut out = Vec::with_capacity(query.select.len());
            for (item, off) in query.select.iter().zip(&plan.select_offsets) {
                match item {
                    SelectItem::Star => {
                        return Err(EngineError::Unsupported("SELECT * with GROUP BY".into()))
                    }
                    SelectItem::Expr { expr, .. } => {
                        let mut cursor = *off;
                        out.push(eval_ivm(expr, &vals, &mut cursor, &repr, ctx)?);
                    }
                }
            }
            let keys = query
                .order_by
                .iter()
                .zip(&plan.order_offsets)
                .map(|(o, off)| {
                    let mut cursor = *off;
                    eval_ivm(&o.expr, &vals, &mut cursor, &repr, ctx)
                })
                .collect::<Result<Vec<_>, _>>()?;
            out_rows.push((out, keys));
        }
        if query.distinct {
            let mut seen = HashSet::new();
            out_rows.retain(|(row, _)| seen.insert(row.clone()));
        }
        if !query.order_by.is_empty() {
            let descs: Vec<bool> = query.order_by.iter().map(|o| o.desc).collect();
            out_rows.sort_by(|(_, ka), (_, kb)| {
                for (i, (a, b)) in ka.iter().zip(kb.iter()).enumerate() {
                    let ord = a.cmp(b);
                    let ord = if descs[i] { ord.reverse() } else { ord };
                    if ord != std::cmp::Ordering::Equal {
                        return ord;
                    }
                }
                std::cmp::Ordering::Equal
            });
        }
        if let Some(l) = query.limit {
            out_rows.truncate(l as usize);
        }
        let schema = derive_schema(
            query,
            ctx,
            &self.scan.cols,
            &self.scan.types,
            out_rows.first().map(|(r, _)| r.as_slice()),
        );
        let mut table = Table::new(schema);
        for (row, _) in out_rows {
            table.push_row(coerce_row(row, &table.schema))?;
        }
        Ok(table)
    }
}

/// Maintained state for a projection-shaped query: the output so far. The
/// filter/projection is row-local, so each chunk's output simply appends —
/// and the append is zero-copy chunk sharing, not a rebuild.
#[derive(Debug, Clone)]
pub struct ProjState {
    scan: Scan,
    table: Table,
}

impl ProjState {
    fn new(query: &Query, ctx: &ExecContext<'_>) -> Result<ProjState, EngineError> {
        let scan = Scan::of(query, ctx)?;
        // Zero rows evaluate nothing and yield the (statically derived)
        // output schema every chunk's output must share.
        let table = exec_projection(query, &scan.rel(Vec::new(), 0), ctx, None)?;
        Ok(ProjState { scan, table })
    }

    fn fold(
        &mut self,
        query: &Query,
        chunk: &Table,
        ctx: &ExecContext<'_>,
    ) -> Result<(), EngineError> {
        let rel = self.scan.filtered(query, chunk, ctx)?;
        if rel.len == 0 {
            return Ok(());
        }
        let out = exec_projection(query, &rel, ctx, None)?;
        if out.schema != self.table.schema {
            return Err(EngineError::Unsupported(
                "IVM projection schema drifted".into(),
            ));
        }
        self.table = self.table.append_table(&out, pi2_data::chunk_rows())?;
        Ok(())
    }
}

/// The flat pieces of a table, in row order: its chunks, or the table
/// itself when it is stored flat.
fn morsels(table: &Table) -> impl Iterator<Item = &Table> {
    let chunks = table.chunks();
    chunks
        .is_empty()
        .then_some(table)
        .into_iter()
        .chain(chunks.iter().map(Arc::as_ref))
}

/// Maintained state for one supported query: build once, absorb each
/// append's delta rows, finalize to the full result.
#[derive(Debug, Clone)]
pub enum IvmState {
    /// Aggregate shape (per-group accumulators).
    Aggregate(AggState),
    /// Projection shape (append-only output).
    Projection(ProjState),
}

impl IvmState {
    /// Build the state from the catalogue's current table contents, one
    /// chunk at a time. The query must satisfy [`supported`].
    pub fn build(query: &Query, ctx: &ExecContext<'_>) -> Result<IvmState, EngineError> {
        let name = ivm_table(query)
            .ok_or_else(|| EngineError::Unsupported("query shape not IVM-able".into()))?;
        let mut state = if query.is_aggregate() {
            IvmState::Aggregate(AggState::new(query, ctx)?)
        } else {
            IvmState::Projection(ProjState::new(query, ctx)?)
        };
        state.absorb(query, &ctx.catalog.require_table(&name)?.table, ctx)?;
        Ok(state)
    }

    /// Fold more rows of the scanned table (one append's delta) into the
    /// state. `ctx.catalog` must be the *post-append* catalogue. On error
    /// the state may be partially updated — clone before absorbing and
    /// discard the clone to fall back.
    pub fn absorb(
        &mut self,
        query: &Query,
        rows: &Table,
        ctx: &ExecContext<'_>,
    ) -> Result<(), EngineError> {
        for chunk in morsels(rows) {
            match self {
                IvmState::Aggregate(state) => state.fold(query, chunk, ctx)?,
                IvmState::Projection(state) => state.fold(query, chunk, ctx)?,
            }
        }
        Ok(())
    }

    /// Materialize the maintained result (byte-identical to full scalar
    /// execution over `ctx.catalog`).
    pub fn finalize(&self, query: &Query, ctx: &ExecContext<'_>) -> Result<Table, EngineError> {
        match self {
            IvmState::Aggregate(state) => state.finalize(query, ctx),
            IvmState::Projection(state) => Ok(state.table.clone()),
        }
    }
}

/// [`crate::execute`] of a [`supported`] query whose table is stored in
/// chunks: the state build over every chunk, finalized, with no
/// consolidation. `None` sends the caller to the flat executor: for every
/// other query, for flat tables, and for any error inside the fold — the
/// flat executor then reproduces the error, or succeeds where the fold
/// evaluated rows the reference never would.
pub(crate) fn execute_chunked(query: &Query, ctx: &ExecContext<'_>) -> Option<Table> {
    let [TableRef::Table { name, .. }] = query.from.as_slice() else {
        return None;
    };
    if ctx.catalog.table(name)?.table.chunks().is_empty() || !supported(query, ctx.catalog) {
        return None;
    }
    IvmState::build(query, ctx).ok()?.finalize(query, ctx).ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::execute_scalar;
    use pi2_data::wire::table_to_json;
    use pi2_data::{Catalog, Value};
    use pi2_sql::parse_query;

    fn base_catalog() -> Catalog {
        let mut c = Catalog::new();
        let t = Table::from_rows(
            vec![
                ("id", DataType::Int),
                ("region", DataType::Str),
                ("amount", DataType::Float),
                ("qty", DataType::Int),
            ],
            vec![
                vec![
                    Value::Int(1),
                    Value::Str("east".into()),
                    Value::Float(10.5),
                    Value::Int(3),
                ],
                vec![
                    Value::Int(2),
                    Value::Str("west".into()),
                    Value::Float(20.0),
                    Value::Null,
                ],
                vec![
                    Value::Int(3),
                    Value::Str("east".into()),
                    Value::Null,
                    Value::Int(7),
                ],
            ],
        )
        .unwrap();
        c.add_table("sales", t, vec!["id"]);
        c
    }

    fn delta_rows(rows: Vec<Vec<Value>>) -> Table {
        Table::from_rows(
            vec![
                ("id", DataType::Int),
                ("region", DataType::Str),
                ("amount", DataType::Float),
                ("qty", DataType::Int),
            ],
            rows,
        )
        .unwrap()
    }

    /// Build on the base, absorb two appends, and pin the finalized result
    /// byte-identical to full scalar execution over the appended catalogue.
    fn pin_ivm(sql: &str) {
        let c0 = base_catalog();
        let query = parse_query(sql).unwrap();
        assert!(supported(&query, &c0), "query must be IVM-supported: {sql}");
        let ctx0 = ExecContext::scalar(&c0);
        let mut state = IvmState::build(&query, &ctx0).unwrap();
        let d1 = delta_rows(vec![
            vec![
                Value::Int(4),
                Value::Str("north".into()),
                Value::Float(5.0),
                Value::Int(1),
            ],
            vec![
                Value::Int(5),
                Value::Str("east".into()),
                Value::Float(2.5),
                Value::Int(2),
            ],
        ]);
        let c1 = c0.append_rows("sales", d1.clone()).unwrap();
        let ctx1 = ExecContext::scalar(&c1);
        state.absorb(&query, &d1, &ctx1).unwrap();
        let d2 = delta_rows(vec![vec![
            Value::Int(6),
            Value::Str("west".into()),
            Value::Null,
            Value::Int(9),
        ]]);
        let c2 = c1.append_rows("sales", d2.clone()).unwrap();
        let ctx2 = ExecContext::scalar(&c2);
        state.absorb(&query, &d2, &ctx2).unwrap();
        let ivm = state.finalize(&query, &ctx2).unwrap();
        let full = execute_scalar(&query, &ctx2).unwrap();
        assert_eq!(
            table_to_json(&ivm),
            table_to_json(&full),
            "IVM diverged from full execution for: {sql}"
        );
    }

    #[test]
    fn grouped_aggregates_match_full_execution() {
        pin_ivm("SELECT region, count(*), sum(amount), avg(amount), min(qty), max(qty) FROM sales GROUP BY region");
    }

    #[test]
    fn where_having_order_limit_match() {
        pin_ivm(
            "SELECT region, sum(amount) AS total FROM sales WHERE qty IS NOT NULL \
             GROUP BY region HAVING count(*) >= 1 ORDER BY sum(amount) DESC LIMIT 2",
        );
    }

    #[test]
    fn implicit_single_group_matches() {
        pin_ivm("SELECT count(*), avg(qty) FROM sales WHERE amount > 100.0");
    }

    #[test]
    fn expression_over_aggregates_matches() {
        pin_ivm("SELECT region, sum(amount) / count(*) FROM sales GROUP BY region");
    }

    #[test]
    fn projection_shape_matches() {
        pin_ivm("SELECT id, amount FROM sales WHERE region = 'east'");
    }

    #[test]
    fn star_projection_matches() {
        pin_ivm("SELECT * FROM sales WHERE qty > 1");
    }

    #[test]
    fn unsupported_shapes_are_rejected() {
        let c = base_catalog();
        for sql in [
            "SELECT DISTINCT region FROM sales",
            "SELECT id FROM sales ORDER BY id",
            "SELECT id FROM sales LIMIT 3",
            "SELECT id FROM sales WHERE id IN (SELECT id FROM sales)",
            "SELECT s.id, t.id FROM sales AS s, sales AS t",
            "SELECT region FROM sales GROUP BY region HAVING sum(amount) > (SELECT avg(amount) FROM sales)",
        ] {
            let q = parse_query(sql).unwrap();
            assert!(!supported(&q, &c), "must reject: {sql}");
        }
        // DISTINCT over aggregates IS supported (finalize re-derives it).
        let q = parse_query("SELECT DISTINCT region FROM sales GROUP BY region").unwrap();
        assert!(supported(&q, &c));
        pin_ivm("SELECT DISTINCT region FROM sales GROUP BY region");
    }

    #[test]
    fn referenced_tables_sees_through_subqueries() {
        let q = parse_query(
            "SELECT id FROM sales WHERE qty > (SELECT avg(qty) FROM inventory) \
             AND id IN (SELECT id FROM orders)",
        )
        .unwrap();
        let tables = referenced_tables(&q);
        assert_eq!(
            tables.into_iter().collect::<Vec<_>>(),
            vec!["inventory", "orders", "sales"]
        );
    }

    #[test]
    fn an_error_inside_the_fold_means_fall_back_not_fail() {
        // `-region` errors on every row. The reference only evaluates it
        // for groups HAVING keeps — none — so the query succeeds; the
        // fold evaluates aggregate arguments for every surviving row, so
        // it must report the error (the caller discards the state) and
        // `execute` over the chunked table must still answer correctly.
        let q = parse_query(
            "SELECT region, min(-region) FROM sales GROUP BY region HAVING count(*) > 99",
        )
        .unwrap();
        let c0 = base_catalog();
        let d = delta_rows(vec![vec![
            Value::Int(4),
            Value::Str("east".into()),
            Value::Float(1.0),
            Value::Int(1),
        ]]);
        let c1 = c0.append_rows("sales", d.clone()).unwrap();
        let ctx = ExecContext::new(&c1);
        assert!(supported(&q, &c1));
        assert!(IvmState::build(&q, &ctx).is_err());
        let full = execute_scalar(&q, &ctx).unwrap();
        assert_eq!(full.num_rows(), 0);
        assert_eq!(crate::execute(&q, &ctx).unwrap(), full);
    }

    #[test]
    fn chunked_execution_reads_chunks_not_the_flat_view() {
        let q =
            parse_query("SELECT region, sum(amount), max(qty) FROM sales GROUP BY region").unwrap();
        let mut flat = base_catalog();
        let mut live = flat.clone();
        for id in 4..10 {
            let row = vec![
                Value::Int(id),
                Value::Str(["east", "north"][id as usize % 2].into()),
                Value::Float(id as f64 / 3.0),
                Value::Int(id % 3),
            ];
            live = live
                .append_rows("sales", delta_rows(vec![row.clone()]))
                .unwrap();
            let mut all = flat.table("sales").unwrap().table.clone();
            all.push_row(row).unwrap();
            flat.add_table("sales", all, vec!["id"]);
        }
        let got = crate::execute(&q, &ExecContext::new(&live)).unwrap();
        assert!(!live.table("sales").unwrap().table.has_flat_view());
        let want = execute_scalar(&q, &ExecContext::new(&flat)).unwrap();
        assert_eq!(table_to_json(&got), table_to_json(&want));
    }

    #[test]
    fn aliased_table_binding_matches() {
        pin_ivm("SELECT s.region, count(*) FROM sales AS s GROUP BY s.region");
    }
}
