//! The row-at-a-time reference interpreter.
//!
//! This is the original tree-walking executor: tables are materialized into
//! `Vec<Row>`, predicates and projections evaluate per row through
//! [`crate::eval`], and grouping hashes `Vec<Value>` keys. It is kept as
//! the semantic reference for the vectorized executor in [`crate::exec`] —
//! the differential property tests pin `execute == execute_scalar` — and as
//! the per-row fallback the vectorized engine drops into for expressions it
//! cannot vectorize (correlated subqueries).
//!
//! Run it via [`crate::exec::execute_scalar`] or by setting
//! [`crate::exec::ExecContext::scalar_only`].

use crate::error::EngineError;
use crate::eval::{eval_expr, eval_grouped, GroupCtx, Scope};
use crate::exec::{derive_schema, equijoin_columns, execute_with_scope, ExecContext};
use pi2_data::{Table, Value};
use pi2_sql::ast::{Query, SelectItem, TableRef};
use std::collections::HashMap;

/// An intermediate relation during execution: tagged columns + rows.
struct Relation {
    /// `(binding, column)` pairs.
    cols: Vec<(String, String)>,
    rows: Vec<Vec<Value>>,
    /// Storage type per column (used to label untyped outputs).
    types: Vec<pi2_data::DataType>,
}

/// Execute a query with the scalar interpreter (optional outer scope for
/// correlated subqueries).
pub(crate) fn execute_scalar_with_scope(
    query: &Query,
    ctx: &ExecContext<'_>,
    outer: Option<&Scope<'_>>,
) -> Result<Table, EngineError> {
    // 1. FROM: build the (cross-product) input relation.
    let input = eval_from(query, ctx, outer)?;

    // 2. WHERE: filter rows.
    let mut kept: Vec<&Vec<Value>> = Vec::with_capacity(input.rows.len());
    if let Some(pred) = &query.where_clause {
        for row in &input.rows {
            let scope = Scope {
                cols: &input.cols,
                row,
                parent: outer,
            };
            let v = eval_expr(pred, &scope, ctx)?;
            if v.as_bool() == Some(true) {
                kept.push(row);
            }
        }
    } else {
        kept.extend(input.rows.iter());
    }

    // 3. Projection (+ GROUP BY / HAVING) with ORDER BY keys computed inline.
    let mut out_rows: Vec<(Vec<Value>, Vec<Value>)> = Vec::new(); // (row, sort keys)
    if query.is_aggregate() {
        // Group rows by the GROUP BY key (single group when absent).
        let mut group_index: HashMap<Vec<Value>, usize> = HashMap::new();
        let mut groups: Vec<(Vec<Value>, Vec<&Vec<Value>>)> = Vec::new();
        for row in kept {
            let scope = Scope {
                cols: &input.cols,
                row,
                parent: outer,
            };
            let key: Vec<Value> = query
                .group_by
                .iter()
                .map(|g| eval_expr(g, &scope, ctx))
                .collect::<Result<_, _>>()?;
            match group_index.get(&key) {
                Some(&i) => groups[i].1.push(row),
                None => {
                    group_index.insert(key.clone(), groups.len());
                    groups.push((key, vec![row]));
                }
            }
        }
        // An implicit single group (no GROUP BY) aggregates even zero rows.
        if query.group_by.is_empty() && groups.is_empty() {
            groups.push((vec![], vec![]));
        }
        for (_, rows) in &groups {
            let group = GroupCtx {
                cols: &input.cols,
                rows: rows.iter().map(|r| r.as_slice()).collect(),
                parent: outer,
            };
            if let Some(h) = &query.having {
                if eval_grouped(h, &group, ctx)?.as_bool() != Some(true) {
                    continue;
                }
            }
            let mut out = Vec::with_capacity(query.select.len());
            for item in &query.select {
                match item {
                    SelectItem::Star => {
                        return Err(EngineError::Unsupported("SELECT * with GROUP BY".into()))
                    }
                    SelectItem::Expr { expr, .. } => out.push(eval_grouped(expr, &group, ctx)?),
                }
            }
            let keys = query
                .order_by
                .iter()
                .map(|o| eval_grouped(&o.expr, &group, ctx))
                .collect::<Result<Vec<_>, _>>()?;
            out_rows.push((out, keys));
        }
    } else {
        for row in kept {
            let scope = Scope {
                cols: &input.cols,
                row,
                parent: outer,
            };
            let mut out = Vec::with_capacity(query.select.len());
            for item in &query.select {
                match item {
                    SelectItem::Star => out.extend(row.iter().cloned()),
                    SelectItem::Expr { expr, .. } => out.push(eval_expr(expr, &scope, ctx)?),
                }
            }
            let keys = query
                .order_by
                .iter()
                .map(|o| eval_expr(&o.expr, &scope, ctx))
                .collect::<Result<Vec<_>, _>>()?;
            out_rows.push((out, keys));
        }
    }

    // 4. DISTINCT.
    if query.distinct {
        let mut seen = std::collections::HashSet::new();
        out_rows.retain(|(row, _)| seen.insert(row.clone()));
    }

    // 5. ORDER BY.
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

    // 6. LIMIT.
    if let Some(l) = query.limit {
        out_rows.truncate(l as usize);
    }

    // 7. Build the output schema. Prefer static analysis; fall back to
    // each column's first non-NULL value type (correlated subqueries can
    // defeat analysis).
    let schema = derive_schema(query, ctx, &input.cols, &input.types, |k| {
        out_rows.iter().find_map(|(r, _)| r[k].data_type())
    });

    let mut table = Table::new(schema);
    for (row, _) in out_rows {
        table.push_row(row)?;
    }
    Ok(table)
}

/// Evaluate the FROM clause into a single relation. Two-table FROM clauses
/// with an equality conjunct between the tables (the SDSS `s.bestObjID =
/// gal.objID` shape) use a hash equijoin instead of a cross product.
fn eval_from(
    query: &Query,
    ctx: &ExecContext<'_>,
    outer: Option<&Scope<'_>>,
) -> Result<Relation, EngineError> {
    let mut parts: Vec<(String, Table)> = Vec::with_capacity(query.from.len());
    for tref in &query.from {
        let (binding, table) = match tref {
            TableRef::Table { name, alias } => {
                let meta = ctx.catalog.require_table(name)?;
                (
                    alias.clone().unwrap_or_else(|| name.clone()),
                    meta.table.clone(),
                )
            }
            TableRef::Subquery { query: subq, alias } => {
                let t = execute_with_scope(subq, ctx, outer)?;
                (alias.clone().unwrap_or_default(), t)
            }
        };
        parts.push((binding, table));
    }
    if parts.len() == 2 {
        let conjuncts = query
            .where_clause
            .as_ref()
            .map(crate::exec::split_conjuncts)
            .unwrap_or_default();
        if let Some((_, lc, rc)) = equijoin_columns(&conjuncts, &parts) {
            let (right_binding, right_table) = parts.pop().unwrap();
            let (left_binding, left_table) = parts.pop().unwrap();
            return Ok(hash_join(
                left_binding,
                left_table,
                lc,
                right_binding,
                right_table,
                rc,
            ));
        }
    }
    let mut rel = Relation {
        cols: vec![],
        rows: vec![vec![]],
        types: vec![],
    };
    for (binding, table) in parts {
        rel = cross_product(rel, binding, table);
    }
    Ok(rel)
}

/// Hash equijoin of two tables (NULL keys never match, per SQL semantics).
fn hash_join(
    left_binding: String,
    left: Table,
    left_col: usize,
    right_binding: String,
    right: Table,
    right_col: usize,
) -> Relation {
    let mut cols = Vec::with_capacity(left.num_columns() + right.num_columns());
    let mut types = Vec::with_capacity(cols.capacity());
    for c in &left.schema.columns {
        cols.push((left_binding.clone(), c.name.clone()));
        types.push(c.dtype);
    }
    for c in &right.schema.columns {
        cols.push((right_binding.clone(), c.name.clone()));
        types.push(c.dtype);
    }
    let right_rows: Vec<Vec<Value>> = right.to_rows();
    let mut index: HashMap<Value, Vec<usize>> = HashMap::new();
    for (i, row) in right_rows.iter().enumerate() {
        let key = &row[right_col];
        if !key.is_null() {
            index.entry(key.clone()).or_default().push(i);
        }
    }
    let mut rows = Vec::new();
    for lrow in left.iter_rows() {
        let key = &lrow[left_col];
        if key.is_null() {
            continue;
        }
        if let Some(matches) = index.get(key) {
            for &ri in matches {
                let mut row = lrow.clone();
                row.extend(right_rows[ri].iter().cloned());
                rows.push(row);
            }
        }
    }
    Relation { cols, rows, types }
}

fn cross_product(left: Relation, binding: String, right: Table) -> Relation {
    let mut cols = left.cols;
    let mut types = left.types;
    for c in &right.schema.columns {
        cols.push((binding.clone(), c.name.clone()));
        types.push(c.dtype);
    }
    let right_rows: Vec<Vec<Value>> = right.to_rows();
    let mut rows = Vec::with_capacity(left.rows.len() * right_rows.len().max(1));
    for l in &left.rows {
        for r in &right_rows {
            let mut row = l.clone();
            row.extend(r.iter().cloned());
            rows.push(row);
        }
    }
    Relation { cols, rows, types }
}
