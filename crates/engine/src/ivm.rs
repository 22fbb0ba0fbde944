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
//!   aggregate call one slot per group that *continues* from its current
//!   value.
//! - **Projections** (`SELECT …  WHERE …` with no `DISTINCT`/`ORDER BY`/
//!   `LIMIT`): the filter is row-local, so each chunk's output rows append
//!   to the output so far (zero-copy, via [`Table::append_table`]).
//!
//! **One accumulator shared with the flat executor.** The slots are
//! `AggSlots` (`crate::vector`), the accumulator the flat executor folds a
//! relation into; here each chunk folds into slots carried across chunks
//! and appends. [`IvmState::finalize`] hands one representative row per
//! group to the flat executor's output shaping (`shape_aggregate`:
//! `HAVING`, select list, `DISTINCT`, `ORDER BY`, `LIMIT`, schema), which
//! answers every aggregate call from its carried slots instead of folding
//! it. So grouped aggregation exists once besides the scalar reference.
//!
//! The fold has three callers: [`IvmState::build`] folds every chunk of
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
//! why slots continue rather than merge: float sums fold row by row in
//! ascending row order onto the carried total, `(s + d₁) + d₂`, never
//! `s + (d₁ + d₂)`. `min` keeps the first minimum and `max` the last
//! maximum. The fold evaluates every aggregate argument over every
//! surviving row, a superset of what the reference evaluates (which skips
//! groups `HAVING` drops), so an error inside it proves nothing: callers
//! discard the state and fall back, and an IVM bug can degrade performance
//! but never results. The differential tests below and
//! `crates/workloads/tests/proptest_live.rs` pin all of this.

use crate::analyze::analyze_query;
use crate::error::EngineError;
use crate::exec::{
    apply_filter, build_groups, exec_projection, group_key_columns, shape_aggregate, ExecContext,
};
use crate::vector::{eval_vec, AggSlots, LazyCol, VecRelation};
use pi2_data::column::ColumnData;
use pi2_data::{DataType, Table, Value};
use pi2_sql::ast::{is_aggregate_function, Expr, Query, SelectItem, TableRef};
use std::collections::hash_map::Entry;
use std::collections::{BTreeSet, HashMap};
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
    ivm_table(query).is_some() && analyze_query(query, catalog).is_ok()
}

/// Every aggregate call of the query (select list, then `HAVING`, then
/// `ORDER BY`), at exactly the positions `eval_grouped_vec` answers as
/// aggregates: it recurses through unary/binary/BETWEEN operators and
/// non-aggregate function arguments, and stops at every other node (those
/// evaluate against the representative row). Calls hidden under stop nodes
/// are never collected — both executors error on them, and so does
/// finalize, by taking the same path.
fn agg_calls(query: &Query) -> Vec<&Expr> {
    fn walk<'q>(e: &'q Expr, out: &mut Vec<&'q Expr>) {
        match e {
            Expr::Func { name, .. } if is_aggregate_function(name) => out.push(e),
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
    let mut out = Vec::new();
    let select = query.select.iter().filter_map(|item| match item {
        SelectItem::Expr { expr, .. } => Some(expr),
        SelectItem::Star => None,
    });
    for e in select
        .chain(query.having.iter())
        .chain(query.order_by.iter().map(|o| &o.expr))
    {
        walk(e, &mut out);
    }
    out
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
/// in first-encounter order, and each aggregate call's carried slots.
#[derive(Debug, Clone)]
pub struct AggState {
    scan: Scan,
    /// Group key values → group (slot) number. Keyed by value, so chunks
    /// with different dictionaries (or none) meet in one index.
    index: HashMap<Vec<Value>, u32>,
    /// Each group's representative row — its first member encountered,
    /// exactly like the reference's group build — stored as the scanned
    /// table's columns, one row per group in group order. Shared with the
    /// relation `finalize` shapes, so reading the view copies none of it.
    reprs: Vec<Arc<ColumnData>>,
    /// Parallel to [`agg_calls`]; each holds one slot per group.
    accs: Vec<AggSlots>,
}

impl AggState {
    fn new(query: &Query, ctx: &ExecContext<'_>) -> Result<AggState, EngineError> {
        let scan = Scan::of(query, ctx)?;
        // The reference reports a missing argument even over zero rows,
        // which the fold would never look at.
        let accs = agg_calls(query)
            .into_iter()
            .map(|call| AggSlots::of(call).map(|(slots, _)| slots))
            .collect::<Result<_, _>>()?;
        Ok(AggState {
            reprs: scan
                .types
                .iter()
                .map(|&t| Arc::new(ColumnData::new_typed(t)))
                .collect(),
            scan,
            index: HashMap::new(),
            accs,
        })
    }

    /// Fold one flat chunk: vectorized `WHERE`, group keys and grouping
    /// over the chunk (dictionary keys group on a dense code table built
    /// once for the chunk), then one carried-index lookup per chunk-local
    /// group, then every aggregate call's slots.
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
            let groups = self.index.len() as u32;
            let g = match self.index.entry(key) {
                Entry::Occupied(e) => *e.get(),
                Entry::Vacant(e) => {
                    for (c, col) in self.reprs.iter_mut().enumerate() {
                        Arc::make_mut(col).push(rel.cell(c, first))?;
                    }
                    *e.insert(groups)
                }
            };
            to_carried.push(g);
        }
        let row_slot: Option<Vec<u32>> =
            local_gid.map(|gid| gid.iter().map(|&l| to_carried[l as usize]).collect());
        for (call, slots) in agg_calls(query).into_iter().zip(&mut self.accs) {
            let (_, arg) = AggSlots::of(call)?;
            let col = arg
                .map(|a| eval_vec(a, &rel, ctx, None).map(|v| v.into_column(rel.len)))
                .transpose()?;
            slots.open(self.index.len());
            slots.fold(
                col.as_deref(),
                &local,
                Some(&to_carried),
                row_slot.as_deref(),
            );
        }
        Ok(())
    }

    /// The flat executor's output shaping over one representative row per
    /// group, every aggregate call answered from its carried slots.
    fn finalize(&self, query: &Query, ctx: &ExecContext<'_>) -> Result<Table, EngineError> {
        let n = self.index.len();
        let columns = self.reprs.iter().map(|c| LazyCol::dense(Arc::clone(c)));
        let rel = self.scan.rel(columns.collect(), n);
        // The implicit single group: no GROUP BY and zero input rows still
        // aggregates; its slot was never opened, so it reads as the value
        // over zero rows (count(*) = 0, sum = NULL).
        let groups = if query.group_by.is_empty() && n == 0 {
            vec![Vec::new()]
        } else {
            (0..n as u32).map(|g| vec![g]).collect()
        };
        let calls: Vec<(&Expr, &AggSlots)> = agg_calls(query).into_iter().zip(&self.accs).collect();
        shape_aggregate(query, &rel, groups, None, Some(&calls), ctx, None)
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
    fn having_short_circuits_over_aggregates_match() {
        pin_ivm("SELECT region, count(*) FROM sales GROUP BY region HAVING count(*) > 2 OR sum(amount) > 10.0");
        pin_ivm("SELECT region, sum(qty) FROM sales GROUP BY region HAVING count(*) > 1 AND max(qty) > 3");
        pin_ivm(
            "SELECT region, max(amount) FROM sales GROUP BY region \
             HAVING (count(*) > 1 OR min(qty) > 5) AND avg(amount) > 1.0",
        );
    }

    #[test]
    fn aggregates_only_in_order_by_match() {
        pin_ivm("SELECT region FROM sales GROUP BY region ORDER BY avg(amount) + min(qty)");
        pin_ivm("SELECT region, count(*) FROM sales GROUP BY region ORDER BY max(qty) DESC, sum(amount) LIMIT 2");
    }

    #[test]
    fn aggregate_inside_scalar_function_matches() {
        pin_ivm(
            "SELECT region, abs(sum(amount) - 20.0), date(max(qty)) FROM sales GROUP BY region",
        );
    }

    #[test]
    fn lazily_evaluated_having_reads_each_groups_own_aggregates() {
        // `date(qty)` errors on west's representative (qty NULL), which the
        // left operand short-circuits, so the right operand is evaluated
        // one group at a time; north (the third group, sum 5.0) must read
        // its own `sum(amount)`, not the first group's (east, 13.0).
        pin_ivm(
            "SELECT region, count(*) FROM sales GROUP BY region \
             HAVING region = 'west' OR (date(qty) IS NOT NULL AND sum(amount) > 10.0)",
        );
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
    fn sums_of_no_numbers_agree_bit_for_bit_on_every_path() {
        // Sums over strings add no numbers, and sums of -0.0s add only
        // zeros: every path must answer +0.0, the reference included. A
        // WHERE that keeps no rows leaves the implicit group empty: its bare
        // columns answer NULL on every path.
        let cols = vec![("k", DataType::Str), ("z", DataType::Float)];
        let rows: Vec<Vec<Value>> = (0..6)
            .map(|i| vec![Value::Str(["a", "b"][i % 2].into()), Value::Float(-0.0)])
            .collect();
        let table = |rows: &[Vec<Value>]| Table::from_rows(cols.clone(), rows.to_vec()).unwrap();
        let mut flat = Catalog::new();
        flat.add_table("t", table(&rows), vec![]);
        let mut live = Catalog::new();
        live.add_table("t", table(&rows[..2]), vec![]);
        let live = live.append_rows("t", table(&rows[2..])).unwrap();
        for sql in [
            "SELECT sum(k), avg(k), sum(z), avg(z) FROM t",
            "SELECT k, sum(k), avg(k), sum(z), avg(z) FROM t GROUP BY k",
            "SELECT k IS NULL, count(*) FROM t WHERE z > 5",
            "SELECT k, count(*) FROM t WHERE z > 5",
        ] {
            let q = parse_query(sql).unwrap();
            let want = execute_scalar(&q, &ExecContext::new(&flat)).unwrap();
            for r in 0..want.num_rows() {
                for c in 0..want.num_columns() {
                    if let Value::Float(f) = want.value(r, c) {
                        assert_eq!(f.to_bits(), 0, "reference answered -0.0 on {sql}");
                    }
                }
            }
            let flat_exec = crate::execute(&q, &ExecContext::new(&flat)).unwrap();
            assert_eq!(flat_exec, want, "flat execute on {sql}");
            let ctx = ExecContext::new(&live);
            assert_eq!(
                crate::execute(&q, &ctx).unwrap(),
                want,
                "chunked execute on {sql}"
            );
            let ivm = IvmState::build(&q, &ctx)
                .unwrap()
                .finalize(&q, &ctx)
                .unwrap();
            assert_eq!(ivm, want, "IVM on {sql}");
        }
    }

    #[test]
    fn aliased_table_binding_matches() {
        pin_ivm("SELECT s.region, count(*) FROM sales AS s GROUP BY s.region");
    }
}
