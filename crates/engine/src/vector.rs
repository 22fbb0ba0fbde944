//! Vectorized expression evaluation over column slices.
//!
//! [`eval_vec`] evaluates a row-level expression against a whole
//! [`VecRelation`] at once, producing a [`Vector`] — either a column of
//! results or a broadcast constant. Typed fast paths cover the hot shapes
//! (numeric/string comparisons against literals, column-column arithmetic,
//! `IN` membership over integer/string sets); everything else falls back to
//! per-element evaluation through the *same* scalar kernels the row
//! interpreter uses ([`crate::eval`]), so both executors agree by
//! construction.
//!
//! Expressions containing **correlated subqueries** (detected by static
//! analysis failing to resolve their columns internally) cannot be
//! vectorized; they drop to a per-row scalar fallback that materializes one
//! row at a time — exactly what the row interpreter would have done.
//! Uncorrelated subqueries are hoisted: executed once and folded into a
//! constant (scalar subqueries) or a membership set (`IN`).
//!
//! [`eval_grouped_vec`] is the group-level counterpart: aggregates consume
//! dense argument columns through per-group selection indices; the
//! per-group combination logic (a few values per group) reuses the scalar
//! kernels.

use crate::error::EngineError;
use crate::eval::{
    self, apply_binary, apply_scalar_function, apply_unary, eval_between, eval_logical, like_match,
    literal_value, Scope,
};
use crate::exec::{execute_with_scope, ExecContext};
use pi2_data::column::{ColumnData, NullMask};
use pi2_data::kernels::{self, CmpOp, Kleene};
use pi2_data::{DataType, Value};
use pi2_sql::ast::{is_aggregate_function, BinOp, Expr, Query, UnaryOp};
use std::cmp::Ordering;
use std::sync::Arc;

/// A shared selection vector: row indices into a base column, deferred
/// until (and unless) the column is actually read.
pub(crate) type SelVec = Arc<Vec<u32>>;

/// One column of a [`VecRelation`], possibly behind a pending selection
/// vector. `WHERE`, joins, and HAVING compaction only *record* the row
/// mapping; the gather runs once, on first read, and only for columns a
/// projection/aggregate/predicate actually touches — wide relations with
/// selective predicates never pay one gather per untouched column.
pub(crate) struct LazyCol {
    /// The underlying storage (a base-table column or a prior result).
    base: Arc<ColumnData>,
    /// Pending row selection into `base`; `None` means the column is dense.
    sel: Option<SelVec>,
    /// The materialized (gathered) column, filled on first read.
    cache: std::cell::OnceCell<Arc<ColumnData>>,
}

impl LazyCol {
    /// A dense column (no pending selection).
    pub fn dense(base: Arc<ColumnData>) -> LazyCol {
        LazyCol {
            base,
            sel: None,
            cache: std::cell::OnceCell::new(),
        }
    }

    /// A column viewed through a selection vector.
    pub fn selected(base: Arc<ColumnData>, sel: SelVec) -> LazyCol {
        LazyCol {
            base,
            sel: Some(sel),
            cache: std::cell::OnceCell::new(),
        }
    }

    /// The materialized column (gathers through the pending selection
    /// once, then caches).
    fn get(&self) -> &Arc<ColumnData> {
        match &self.sel {
            None => &self.base,
            Some(sel) => self.cache.get_or_init(|| Arc::new(self.base.gather(sel))),
        }
    }

    /// One cell, without materializing the whole column.
    fn value(&self, i: usize) -> Value {
        if let Some(c) = self.cache.get() {
            return c.value(i);
        }
        match &self.sel {
            Some(sel) => self.base.value(sel[i] as usize),
            None => self.base.value(i),
        }
    }

    /// This column further restricted to `idx` (rows of the *current*
    /// view). Composes selection vectors without touching cell data;
    /// `memo` shares the composed vector between columns that share one.
    fn narrowed(&self, idx: &SelVec, memo: &mut ComposeMemo) -> LazyCol {
        if let Some(c) = self.cache.get() {
            // Already materialized: restart from the gathered column.
            return LazyCol::selected(Arc::clone(c), Arc::clone(idx));
        }
        match &self.sel {
            Some(sel) => {
                let composed = memo.compose(sel, idx);
                LazyCol::selected(Arc::clone(&self.base), composed)
            }
            None => LazyCol::selected(Arc::clone(&self.base), Arc::clone(idx)),
        }
    }
}

/// Memo for composing selection vectors during [`VecRelation::gather`]:
/// columns of one relation typically share a handful of selection vectors
/// (one per join side), so each composition runs once.
#[derive(Default)]
struct ComposeMemo {
    entries: Vec<(*const Vec<u32>, SelVec)>,
}

impl ComposeMemo {
    fn compose(&mut self, old: &SelVec, idx: &SelVec) -> SelVec {
        let key = Arc::as_ptr(old);
        if let Some((_, composed)) = self.entries.iter().find(|(k, _)| *k == key) {
            return Arc::clone(composed);
        }
        let composed: SelVec = Arc::new(idx.iter().map(|&i| old[i as usize]).collect());
        self.entries.push((key, Arc::clone(&composed)));
        composed
    }
}

/// A relation during vectorized execution: tagged, typed, `Arc`-shared
/// columns (scans of base tables are zero-copy) behind lazy selection
/// vectors (filters/joins defer their gathers until a column is read).
pub(crate) struct VecRelation {
    /// `(binding, column)` pairs (shared: narrowing a relation never
    /// re-allocates the name tags).
    pub cols: Arc<Vec<(String, String)>>,
    /// Storage type per column (used to label untyped outputs; shared like
    /// `cols`).
    pub types: Arc<Vec<DataType>>,
    /// The columns, parallel to `cols`.
    pub columns: Vec<LazyCol>,
    /// Row count (kept separately: a FROM-less relation has one row and no
    /// columns).
    pub len: usize,
}

impl VecRelation {
    /// Column index for a (possibly qualified) name, with the same
    /// first-match semantics as [`Scope::lookup`].
    pub fn lookup(&self, table: Option<&str>, name: &str) -> Option<usize> {
        self.cols.iter().position(|(b, c)| {
            c.eq_ignore_ascii_case(name) && table.is_none_or(|t| b.eq_ignore_ascii_case(t))
        })
    }

    /// The materialized column at `i` (runs the pending gather on first
    /// read).
    pub fn column(&self, i: usize) -> &Arc<ColumnData> {
        self.columns[i].get()
    }

    /// One cell of column `i`, read through any pending selection without
    /// materializing the column.
    pub fn cell(&self, col: usize, row: usize) -> Value {
        self.columns[col].value(row)
    }

    /// Materialize row `i` (reads through pending selections; used by the
    /// per-row scalar fallback and group representatives).
    pub fn row(&self, i: usize) -> Vec<Value> {
        self.columns.iter().map(|c| c.value(i)).collect()
    }

    /// The relation restricted to the given rows — lazily: selection
    /// vectors compose, no cell data moves until a column is read. Takes
    /// the selection by value: it becomes the shared selection vector
    /// without a copy.
    pub fn gather(&self, idx: Vec<u32>) -> VecRelation {
        let idx: SelVec = Arc::new(idx);
        let mut memo = ComposeMemo::default();
        VecRelation {
            cols: Arc::clone(&self.cols),
            types: Arc::clone(&self.types),
            columns: self
                .columns
                .iter()
                .map(|c| c.narrowed(&idx, &mut memo))
                .collect(),
            len: idx.len(),
        }
    }
}

/// A vectorized evaluation result: a column, or a constant broadcast over
/// the relation's rows.
#[derive(Clone)]
pub(crate) enum Vector {
    /// One value per row.
    Col(Arc<ColumnData>),
    /// The same value for every row.
    Const(Value),
}

impl Vector {
    pub(crate) fn owned(col: ColumnData) -> Vector {
        Vector::Col(Arc::new(col))
    }

    /// The value at row `i`.
    pub(crate) fn value(&self, i: usize) -> Value {
        match self {
            Vector::Col(c) => c.value(i),
            Vector::Const(v) => v.clone(),
        }
    }

    /// The vector as a full column of `n` rows.
    pub(crate) fn into_column(self, n: usize) -> Arc<ColumnData> {
        match self {
            Vector::Col(c) => c,
            Vector::Const(v) => Arc::new(ColumnData::broadcast(&v, n)),
        }
    }

    /// SQL truthiness at row `i` (matches `Value::as_bool` + NULL rules).
    fn truthy(&self, i: usize) -> bool {
        match self {
            Vector::Const(v) => v.as_bool() == Some(true),
            Vector::Col(c) => match c.as_ref() {
                ColumnData::Bool { values, nulls } => values[i] && !nulls.is_null(i),
                ColumnData::Int64 { values, nulls } => values[i] != 0 && !nulls.is_null(i),
                _ => false,
            },
        }
    }

    /// Three-valued boolean view at row `i`.
    fn bool3(&self, i: usize) -> Option<bool> {
        match self {
            Vector::Const(v) => v.as_bool(),
            Vector::Col(c) => match c.as_ref() {
                ColumnData::Bool { values, nulls } => (!nulls.is_null(i)).then(|| values[i]),
                ColumnData::Int64 { values, nulls } => (!nulls.is_null(i)).then(|| values[i] != 0),
                _ => None,
            },
        }
    }
}

/// Row indices where the predicate vector is true.
pub(crate) fn truthy_indices(v: &Vector, n: usize) -> Vec<u32> {
    match v {
        Vector::Const(c) => {
            if c.as_bool() == Some(true) {
                (0..n as u32).collect()
            } else {
                Vec::new()
            }
        }
        Vector::Col(c) => match c.as_ref() {
            // Word-level kernel: predicate bytes → bitmap, AND validity,
            // bits → indices (64 rows per step; see `pi2_data::kernels`).
            ColumnData::Bool { values, nulls } => {
                pi2_data::kernels::bool_selection(values, nulls, 0)
            }
            _ => (0..n as u32).filter(|&i| v.truthy(i as usize)).collect(),
        },
    }
}

/// Accumulates a nullable boolean column.
struct BoolBuilder {
    values: Vec<bool>,
    nulls: NullMask,
}

impl BoolBuilder {
    fn with_capacity(n: usize) -> BoolBuilder {
        BoolBuilder {
            values: Vec::with_capacity(n),
            nulls: NullMask::new(),
        }
    }

    #[inline]
    fn push(&mut self, v: Option<bool>) {
        self.values.push(v.unwrap_or(false));
        self.nulls.push(v.is_none());
    }

    fn finish(self) -> Vector {
        Vector::owned(ColumnData::Bool {
            values: self.values,
            nulls: self.nulls,
        })
    }
}

/// Evaluate a row-level expression over a relation.
pub(crate) fn eval_vec(
    expr: &Expr,
    rel: &VecRelation,
    ctx: &ExecContext<'_>,
    outer: Option<&Scope<'_>>,
) -> Result<Vector, EngineError> {
    match expr {
        Expr::Literal(l) => Ok(Vector::Const(literal_value(l))),
        Expr::Column { table, name } => match rel.lookup(table.as_deref(), name) {
            Some(i) => Ok(Vector::Col(Arc::clone(rel.column(i)))),
            None => outer
                .and_then(|s| s.lookup(table.as_deref(), name))
                .map(|v| Vector::Const(v.clone()))
                .ok_or_else(|| EngineError::UnresolvedColumn(expr.to_string())),
        },
        Expr::Star => Err(EngineError::Unsupported("bare * outside count(*)".into())),
        Expr::Unary { op, expr: inner } => {
            let v = eval_vec(inner, rel, ctx, outer)?;
            unary_vec(*op, v, rel.len)
        }
        Expr::Binary { left, op, right } => {
            if *op == BinOp::And || *op == BinOp::Or {
                let l = eval_vec(left, rel, ctx, outer)?;
                return logical_vec(*op, l, right, expr, rel, ctx, outer);
            }
            let l = eval_vec(left, rel, ctx, outer)?;
            let r = eval_vec(right, rel, ctx, outer)?;
            binary_vec(*op, &l, &r, rel.len)
        }
        Expr::Between {
            expr: inner,
            negated,
            low,
            high,
        } => {
            let v = eval_vec(inner, rel, ctx, outer)?;
            let lo = eval_vec(low, rel, ctx, outer)?;
            let hi = eval_vec(high, rel, ctx, outer)?;
            between_vec(&v, &lo, &hi, *negated, rel.len)
        }
        Expr::InList {
            expr: inner,
            negated,
            list,
        } => {
            let v = eval_vec(inner, rel, ctx, outer)?;
            let mut items = Vec::with_capacity(list.len());
            for item in list {
                match eval_vec(item, rel, ctx, outer) {
                    Ok(Vector::Const(c)) => items.push(c),
                    // Non-constant or failing items: evaluate the whole IN
                    // per row (preserves the interpreter's lazy item order).
                    _ => return eval_per_row(expr, rel, ctx, outer),
                }
            }
            Ok(membership_vec(&v, &items, *negated, rel.len))
        }
        Expr::InSubquery {
            expr: inner,
            negated,
            query,
        } => {
            if !is_uncorrelated(query, ctx) {
                return eval_per_row(expr, rel, ctx, outer);
            }
            let v = eval_vec(inner, rel, ctx, outer)?;
            let result = execute_with_scope(query, ctx, None)?;
            let items: Vec<Value> = if result.num_columns() > 0 {
                result.column_values(0).collect()
            } else {
                vec![Value::Null; result.num_rows()]
            };
            Ok(membership_vec(&v, &items, *negated, rel.len))
        }
        Expr::IsNull {
            expr: inner,
            negated,
        } => {
            let v = eval_vec(inner, rel, ctx, outer)?;
            Ok(match v {
                Vector::Const(c) => Vector::Const(Value::Bool(c.is_null() != *negated)),
                // IS [NOT] NULL comes straight off the null-bitmap words.
                Vector::Col(c) => Vector::owned(ColumnData::Bool {
                    values: kernels::null_flags(c.nulls(), *negated),
                    nulls: NullMask::all_valid(rel.len),
                }),
            })
        }
        Expr::Func { name, args } => {
            if is_aggregate_function(name) {
                return Err(EngineError::MisplacedAggregate(expr.to_string()));
            }
            let argv = args
                .iter()
                .map(|a| eval_vec(a, rel, ctx, outer))
                .collect::<Result<Vec<_>, _>>()?;
            if argv.iter().all(|v| matches!(v, Vector::Const(_))) {
                let vals: Vec<Value> = argv.iter().map(|v| v.value(0)).collect();
                return Ok(Vector::Const(apply_scalar_function(name, &vals, ctx)?));
            }
            let mut out = Vec::with_capacity(rel.len);
            for i in 0..rel.len {
                let vals: Vec<Value> = argv.iter().map(|v| v.value(i)).collect();
                out.push(apply_scalar_function(name, &vals, ctx)?);
            }
            Ok(Vector::owned(ColumnData::from_values(out, None)?))
        }
        Expr::ScalarSubquery(q) => {
            if !is_uncorrelated(q, ctx) {
                return eval_per_row(expr, rel, ctx, outer);
            }
            let result = execute_with_scope(q, ctx, None)?;
            if result.schema.len() != 1 {
                return Err(EngineError::NonScalarSubquery);
            }
            Ok(Vector::Const(if result.num_rows() > 0 {
                result.value(0, 0)
            } else {
                Value::Null
            }))
        }
    }
}

/// Whether a subquery's columns all resolve against its own FROM clause —
/// i.e. it can be hoisted out of the per-row loop. Analysis failing for any
/// reason keeps the (always-correct) per-row path.
fn is_uncorrelated(q: &Query, ctx: &ExecContext<'_>) -> bool {
    crate::analyze::analyze_query(q, ctx.catalog).is_ok()
}

/// Fallback: evaluate `expr` per row through the scalar interpreter,
/// materializing one row at a time (used for correlated subqueries and any
/// shape the vectorized kernels refuse).
fn eval_per_row(
    expr: &Expr,
    rel: &VecRelation,
    ctx: &ExecContext<'_>,
    outer: Option<&Scope<'_>>,
) -> Result<Vector, EngineError> {
    let mut out = Vec::with_capacity(rel.len);
    for i in 0..rel.len {
        let row = rel.row(i);
        let scope = Scope {
            cols: &rel.cols,
            row: &row,
            parent: outer,
        };
        out.push(eval::eval_expr(expr, &scope, ctx)?);
    }
    Ok(Vector::owned(ColumnData::from_values(out, None)?))
}

fn unary_vec(op: UnaryOp, v: Vector, n: usize) -> Result<Vector, EngineError> {
    match v {
        Vector::Const(c) => Ok(Vector::Const(apply_unary(op, c)?)),
        Vector::Col(c) => match (op, c.as_ref()) {
            (UnaryOp::Neg, ColumnData::Int64 { values, nulls }) => {
                Ok(Vector::owned(ColumnData::Int64 {
                    values: values.iter().map(|v| -v).collect(),
                    nulls: nulls.clone(),
                }))
            }
            (UnaryOp::Neg, ColumnData::Float64 { values, nulls }) => {
                Ok(Vector::owned(ColumnData::Float64 {
                    values: values.iter().map(|v| -v).collect(),
                    nulls: nulls.clone(),
                }))
            }
            (UnaryOp::Not, ColumnData::Bool { values, nulls }) => {
                Ok(Vector::owned(ColumnData::Bool {
                    values: values.iter().map(|v| !v).collect(),
                    nulls: nulls.clone(),
                }))
            }
            _ => {
                let mut out = Vec::with_capacity(n);
                for i in 0..n {
                    out.push(apply_unary(op, c.value(i))?);
                }
                Ok(Vector::owned(ColumnData::from_values(out, None)?))
            }
        },
    }
}

/// Numeric accessor classification for comparison/arithmetic fast paths.
enum NumSide<'a> {
    Col(&'a ColumnData),
    Const(Option<f64>),
}

impl NumSide<'_> {
    #[inline]
    fn get(&self, i: usize) -> Option<f64> {
        match self {
            NumSide::Col(c) => c.numeric(i),
            NumSide::Const(v) => *v,
        }
    }
}

/// Classify a vector as a numeric side for fast-path loops. Date columns
/// compared against ISO date string constants fold the parse to once.
fn numeric_side<'a>(v: &'a Vector, other_is_date: bool) -> Option<NumSide<'a>> {
    match v {
        Vector::Col(c) => match c.as_ref() {
            ColumnData::Int64 { .. }
            | ColumnData::Float64 { .. }
            | ColumnData::Date64 { .. }
            | ColumnData::Bool { .. } => Some(NumSide::Col(c)),
            _ => None,
        },
        Vector::Const(c) => match c {
            Value::Int(_) | Value::Float(_) | Value::Bool(_) | Value::Date(_) => {
                Some(NumSide::Const(c.as_f64()))
            }
            // `date_col > '2021-01-01'`: coerce the literal once.
            Value::Str(s) if other_is_date => Some(NumSide::Const(
                pi2_data::date::parse_iso_date(s).map(|d| d as f64),
            )),
            _ => None,
        },
    }
}

fn is_date_vector(v: &Vector) -> bool {
    match v {
        Vector::Col(c) => matches!(c.as_ref(), ColumnData::Date64 { .. }),
        Vector::Const(c) => matches!(c, Value::Date(_)),
    }
}

fn str_side<'a>(v: &'a Vector) -> Option<StrSide<'a>> {
    match v {
        Vector::Col(c) => match c.as_ref() {
            ColumnData::Utf8 { .. } | ColumnData::Dict { .. } => Some(StrSide::Col(c)),
            _ => None,
        },
        Vector::Const(Value::Str(s)) => Some(StrSide::Const(s)),
        _ => None,
    }
}

enum StrSide<'a> {
    Col(&'a ColumnData),
    Const(&'a str),
}

impl StrSide<'_> {
    #[inline]
    fn get(&self, i: usize) -> Option<&str> {
        match self {
            StrSide::Col(c) => c.str_at(i),
            StrSide::Const(s) => Some(s),
        }
    }
}

/// Numeric column vs. numeric constant: the comparison runs through the
/// SIMD filter kernels (`pi2_data::kernels`), with NULL slots knocked out
/// afterwards at word level — nullable columns take the same fast path as
/// null-free ones. `swapped` flips the operator when the constant is on
/// the left. Returns `None` when the shape doesn't fit (NaN anywhere,
/// non-numeric), deferring to the general paths: NaN comparisons are NULL
/// (not false) under the engine's `partial_cmp` semantics, which the IEEE
/// kernels cannot express.
fn cmp_const_fast(op: BinOp, col: &Vector, konst: &Vector, swapped: bool) -> Option<Vector> {
    let Vector::Const(c) = konst else { return None };
    let Vector::Col(col) = col else { return None };
    let c = match c {
        Value::Int(_) | Value::Float(_) | Value::Bool(_) | Value::Date(_) => c.as_f64()?,
        Value::Str(s) if matches!(col.as_ref(), ColumnData::Date64 { .. }) => {
            pi2_data::date::parse_iso_date(s)? as f64
        }
        _ => return None,
    };
    if c.is_nan() {
        return None;
    }
    let op = if swapped {
        match op {
            BinOp::Lt => BinOp::Gt,
            BinOp::LtEq => BinOp::GtEq,
            BinOp::Gt => BinOp::Lt,
            BinOp::GtEq => BinOp::LtEq,
            other => other,
        }
    } else {
        op
    };
    let kop = cmp_op_kernel(op)?;
    let (mut out, nulls) = match col.as_ref() {
        ColumnData::Int64 { values, nulls } | ColumnData::Date64 { values, nulls } => {
            (kernels::cmp_i64(values, c, kop), nulls)
        }
        ColumnData::Float64 { values, nulls } if !kernels::has_nan(values) => {
            (kernels::cmp_f64(values, c, kop), nulls)
        }
        _ => return None,
    };
    // NULL comparisons are NULL with a false placeholder, exactly what the
    // general per-row path produces.
    kernels::zero_nulls(&mut out, nulls);
    Some(Vector::owned(ColumnData::Bool {
        values: out,
        nulls: nulls.clone(),
    }))
}

/// The kernel operator for a SQL comparison, if it is one.
fn cmp_op_kernel(op: BinOp) -> Option<CmpOp> {
    Some(match op {
        BinOp::Eq => CmpOp::Eq,
        BinOp::NotEq => CmpOp::Ne,
        BinOp::Lt => CmpOp::Lt,
        BinOp::LtEq => CmpOp::Le,
        BinOp::Gt => CmpOp::Gt,
        BinOp::GtEq => CmpOp::Ge,
        _ => return None,
    })
}

/// Dictionary column vs. string constant: the constant resolves to a
/// dictionary code (or a partition point when absent) once, and the
/// comparison runs over integer codes — no string compares at all. The
/// sorted-dictionary invariant makes order predicates code-order
/// predicates. `swapped` flips the operator when the constant is on the
/// left.
fn dict_cmp_const_fast(op: BinOp, col: &Vector, konst: &Vector, swapped: bool) -> Option<Vector> {
    let Vector::Const(Value::Str(s)) = konst else {
        return None;
    };
    let Vector::Col(c) = col else { return None };
    let target = c.dict_code_of(s)?;
    let (codes, _, nulls) = c.dict_parts().expect("dict_code_of implies dict");
    let op = if swapped {
        match op {
            BinOp::Lt => BinOp::Gt,
            BinOp::LtEq => BinOp::GtEq,
            BinOp::Gt => BinOp::Lt,
            BinOp::GtEq => BinOp::LtEq,
            other => other,
        }
    } else {
        op
    };
    // `pt` = number of dictionary entries sorting strictly before `s`.
    let (present, pt) = match target {
        Ok(t) => (true, t),
        Err(p) => (false, p),
    };
    // An absent constant shifts the effective operator: `= absent` is
    // uniformly false, `<= absent` is `< partition point`, and so on. The
    // code compare itself is one SIMD u32-filter kernel call.
    let mut out = match op {
        BinOp::Eq if !present => vec![false; codes.len()],
        BinOp::NotEq if !present => vec![true; codes.len()],
        BinOp::Eq => kernels::cmp_u32(codes, pt, CmpOp::Eq),
        BinOp::NotEq => kernels::cmp_u32(codes, pt, CmpOp::Ne),
        BinOp::Lt => kernels::cmp_u32(codes, pt, CmpOp::Lt),
        BinOp::LtEq => kernels::cmp_u32(codes, pt, if present { CmpOp::Le } else { CmpOp::Lt }),
        BinOp::Gt => kernels::cmp_u32(codes, pt, if present { CmpOp::Gt } else { CmpOp::Ge }),
        BinOp::GtEq => kernels::cmp_u32(codes, pt, CmpOp::Ge),
        _ => return None,
    };
    kernels::zero_nulls(&mut out, nulls);
    Some(Vector::owned(ColumnData::Bool {
        values: out,
        nulls: nulls.clone(),
    }))
}

/// Dictionary column LIKE constant pattern: the pattern matches each
/// dictionary entry once; rows map codes through the precomputed table.
fn dict_like_fast(l: &Vector, r: &Vector) -> Option<Vector> {
    let Vector::Const(Value::Str(pattern)) = r else {
        return None;
    };
    let Vector::Col(c) = l else { return None };
    let (codes, dict, nulls) = c.dict_parts()?;
    let table: Vec<bool> = dict.iter().map(|s| like_match(s, pattern)).collect();
    let mut out = BoolBuilder::with_capacity(codes.len());
    for (i, &code) in codes.iter().enumerate() {
        out.push((!nulls.is_null(i)).then(|| table[code as usize]));
    }
    Some(out.finish())
}

/// A boolean column's value/null slices (any null count), for the
/// word-level three-valued kernels.
fn bool_col_parts(v: &Vector) -> Option<(&[bool], &NullMask)> {
    match v {
        Vector::Col(c) => match c.as_ref() {
            ColumnData::Bool { values, nulls } => Some((values, nulls)),
            _ => None,
        },
        _ => None,
    }
}

/// Both sides null-free boolean columns → direct slice combine.
fn bool_cols_fast<'a>(a: &'a Vector, b: &'a Vector) -> Option<(&'a [bool], &'a [bool])> {
    let get = |v: &'a Vector| match v {
        Vector::Col(c) => match c.as_ref() {
            ColumnData::Bool { values, nulls } if nulls.null_count() == 0 => {
                Some(values.as_slice())
            }
            _ => None,
        },
        _ => None,
    };
    Some((get(a)?, get(b)?))
}

#[inline]
fn cmp_result(op: BinOp, ord: Option<Ordering>) -> Option<bool> {
    ord.map(|o| match op {
        BinOp::Eq => o == Ordering::Equal,
        BinOp::NotEq => o != Ordering::Equal,
        BinOp::Lt => o == Ordering::Less,
        BinOp::LtEq => o != Ordering::Greater,
        BinOp::Gt => o == Ordering::Greater,
        BinOp::GtEq => o != Ordering::Less,
        _ => unreachable!("cmp_result on non-comparison"),
    })
}

/// Vectorized binary operator (comparisons, LIKE, arithmetic; logical ops
/// go through [`logical_vec`]). Matches `apply_binary` exactly; typed fast
/// paths cover numeric/string columns, everything else evaluates
/// element-wise through the scalar kernel.
pub(crate) fn binary_vec(
    op: BinOp,
    l: &Vector,
    r: &Vector,
    n: usize,
) -> Result<Vector, EngineError> {
    if let (Vector::Const(a), Vector::Const(b)) = (l, r) {
        return Ok(Vector::Const(apply_binary(op, a.clone(), b.clone())?));
    }
    if op.is_comparison() {
        // Hot path: a null-free numeric column against a numeric constant —
        // one tight slice loop with the comparison hoisted out.
        if let Some(v) = cmp_const_fast(op, l, r, false).or_else(|| cmp_const_fast(op, r, l, true))
        {
            return Ok(v);
        }
        // Dictionary column against a string constant: compare codes.
        if let Some(v) =
            dict_cmp_const_fast(op, l, r, false).or_else(|| dict_cmp_const_fast(op, r, l, true))
        {
            return Ok(v);
        }
        // Numeric × numeric (dates are numeric; date↔string coerces once).
        if let (Some(a), Some(b)) = (
            numeric_side(l, is_date_vector(r)),
            numeric_side(r, is_date_vector(l)),
        ) {
            let mut out = BoolBuilder::with_capacity(n);
            for i in 0..n {
                let ord = match (a.get(i), b.get(i)) {
                    (Some(x), Some(y)) => x.partial_cmp(&y),
                    _ => None,
                };
                out.push(cmp_result(op, ord));
            }
            return Ok(out.finish());
        }
        // String × string.
        if let (Some(a), Some(b)) = (str_side(l), str_side(r)) {
            let mut out = BoolBuilder::with_capacity(n);
            for i in 0..n {
                let ord = match (a.get(i), b.get(i)) {
                    (Some(x), Some(y)) => Some(x.cmp(y)),
                    _ => None,
                };
                out.push(cmp_result(op, ord));
            }
            return Ok(out.finish());
        }
        // Generic: element-wise through Value::sql_cmp.
        let mut out = BoolBuilder::with_capacity(n);
        for i in 0..n {
            out.push(cmp_result(op, l.value(i).sql_cmp(&r.value(i))));
        }
        return Ok(out.finish());
    }
    if op == BinOp::Like {
        if let Some(v) = dict_like_fast(l, r) {
            return Ok(v);
        }
        if let (Some(a), Some(b)) = (str_side(l), str_side(r)) {
            let mut out = BoolBuilder::with_capacity(n);
            for i in 0..n {
                // NULL propagates; non-string non-null is a type error,
                // which the str fast path cannot produce.
                let v = match (l.value_is_null(i), r.value_is_null(i)) {
                    (false, false) => match (a.get(i), b.get(i)) {
                        (Some(s), Some(p)) => Some(like_match(s, p)),
                        _ => None,
                    },
                    _ => None,
                };
                out.push(v);
            }
            return Ok(out.finish());
        }
        let mut out = Vec::with_capacity(n);
        for i in 0..n {
            out.push(apply_binary(op, l.value(i), r.value(i))?);
        }
        return Ok(Vector::owned(ColumnData::from_values(out, None)?));
    }
    // Arithmetic. Result typing follows the scalar kernel: date on the left
    // of +/- stays a date, int⊕int stays int for +,-,*, everything else is
    // float (division always).
    let l_int = is_int_vector(l);
    let r_int = is_int_vector(r);
    let l_date = is_date_vector(l);
    if let (Some(a), Some(b)) = (numeric_side(l, false), numeric_side(r, false)) {
        let mut values = Vec::with_capacity(n);
        let mut nulls = NullMask::new();
        for i in 0..n {
            match (a.get(i), b.get(i)) {
                (Some(x), Some(y)) => {
                    let v = match op {
                        BinOp::Add => Some(x + y),
                        BinOp::Sub => Some(x - y),
                        BinOp::Mul => Some(x * y),
                        BinOp::Div => (y != 0.0).then(|| x / y),
                        _ => unreachable!("non-arithmetic op"),
                    };
                    values.push(v.unwrap_or(0.0));
                    nulls.push(v.is_none());
                }
                _ => {
                    values.push(0.0);
                    nulls.push(true);
                }
            }
        }
        let col = if l_date && matches!(op, BinOp::Add | BinOp::Sub) {
            ColumnData::Date64 {
                values: values.iter().map(|v| *v as i64).collect(),
                nulls,
            }
        } else if l_int && r_int && matches!(op, BinOp::Add | BinOp::Sub | BinOp::Mul) {
            ColumnData::Int64 {
                values: values.iter().map(|v| *v as i64).collect(),
                nulls,
            }
        } else {
            ColumnData::Float64 { values, nulls }
        };
        return Ok(Vector::owned(col));
    }
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        out.push(apply_binary(op, l.value(i), r.value(i))?);
    }
    Ok(Vector::owned(ColumnData::from_values(out, None)?))
}

fn is_int_vector(v: &Vector) -> bool {
    match v {
        Vector::Col(c) => matches!(c.as_ref(), ColumnData::Int64 { .. }),
        Vector::Const(c) => matches!(c, Value::Int(_)),
    }
}

impl Vector {
    #[inline]
    fn value_is_null(&self, i: usize) -> bool {
        match self {
            Vector::Const(v) => v.is_null(),
            Vector::Col(c) => c.is_null(i),
        }
    }
}

/// Three-valued AND/OR. The left side is already evaluated; the right side
/// only evaluates when the left cannot short-circuit it away, and a right
/// side that fails to vectorize drops the whole expression to the per-row
/// path (preserving the interpreter's lazy short-circuit errors).
#[allow(clippy::too_many_arguments)]
fn logical_vec(
    op: BinOp,
    l: Vector,
    right: &Expr,
    whole: &Expr,
    rel: &VecRelation,
    ctx: &ExecContext<'_>,
    outer: Option<&Scope<'_>>,
) -> Result<Vector, EngineError> {
    if let Vector::Const(c) = &l {
        let lb = c.as_bool();
        match (op, lb) {
            (BinOp::And, Some(false)) => return Ok(Vector::Const(Value::Bool(false))),
            (BinOp::Or, Some(true)) => return Ok(Vector::Const(Value::Bool(true))),
            _ => {}
        }
    }
    let r = match eval_vec(right, rel, ctx, outer) {
        Ok(r) => r,
        Err(_) => return eval_per_row(whole, rel, ctx, outer),
    };
    if let Some((a, b)) = bool_cols_fast(&l, &r) {
        let values: Vec<bool> = match op {
            BinOp::And => a.iter().zip(b).map(|(&x, &y)| x && y).collect(),
            _ => a.iter().zip(b).map(|(&x, &y)| x || y).collect(),
        };
        return Ok(Vector::owned(ColumnData::Bool {
            values,
            nulls: NullMask::all_valid(rel.len),
        }));
    }
    // Nullable boolean columns: word-level Kleene kernel, 64 rows per step
    // (the per-row three-valued loop below only remains for Const/Int64
    // operands).
    if let (Some((av, an)), Some((bv, bn))) = (bool_col_parts(&l), bool_col_parts(&r)) {
        let k = if op == BinOp::And {
            Kleene::And
        } else {
            Kleene::Or
        };
        let (values, nulls) = kernels::kleene(k, av, an, bv, bn);
        return Ok(Vector::owned(ColumnData::Bool { values, nulls }));
    }
    let mut out = BoolBuilder::with_capacity(rel.len);
    for i in 0..rel.len {
        let a = l.bool3(i);
        let b = r.bool3(i);
        let v = match op {
            BinOp::And => match (a, b) {
                (Some(false), _) | (_, Some(false)) => Some(false),
                (Some(true), Some(true)) => Some(true),
                _ => None,
            },
            BinOp::Or => match (a, b) {
                (Some(true), _) | (_, Some(true)) => Some(true),
                (Some(false), Some(false)) => Some(false),
                _ => None,
            },
            _ => unreachable!("logical_vec on non-logical op"),
        };
        out.push(v);
    }
    Ok(out.finish())
}

/// `v BETWEEN lo AND hi`: NULL when either bound comparison is unknown,
/// else `(ge && le) != negated` — matching the scalar `eval_between`.
fn between_vec(
    v: &Vector,
    lo: &Vector,
    hi: &Vector,
    negated: bool,
    n: usize,
) -> Result<Vector, EngineError> {
    let ge = binary_vec(BinOp::GtEq, v, lo, n)?;
    let le = binary_vec(BinOp::LtEq, v, hi, n)?;
    if let (Vector::Const(a), Vector::Const(b)) = (&ge, &le) {
        return Ok(Vector::Const(eval_between_bools(
            a.as_bool(),
            b.as_bool(),
            negated,
        )));
    }
    if let Some((a, b)) = bool_cols_fast(&ge, &le) {
        let values: Vec<bool> = a
            .iter()
            .zip(b)
            .map(|(&x, &y)| (x && y) != negated)
            .collect();
        return Ok(Vector::owned(ColumnData::Bool {
            values,
            nulls: NullMask::all_valid(n),
        }));
    }
    // Nullable bound predicates: word-level BETWEEN combiner.
    if let (Some((av, an)), Some((bv, bn))) = (bool_col_parts(&ge), bool_col_parts(&le)) {
        let (values, nulls) = kernels::between_combine(av, an, bv, bn, negated);
        return Ok(Vector::owned(ColumnData::Bool { values, nulls }));
    }
    let mut out = BoolBuilder::with_capacity(n);
    for i in 0..n {
        match eval_between_bools(ge.bool3(i), le.bool3(i), negated) {
            Value::Bool(b) => out.push(Some(b)),
            _ => out.push(None),
        }
    }
    Ok(out.finish())
}

fn eval_between_bools(ge: Option<bool>, le: Option<bool>, negated: bool) -> Value {
    match (ge, le) {
        (Some(a), Some(b)) => Value::Bool((a && b) != negated),
        _ => Value::Null,
    }
}

/// Membership of each row of `v` in a constant item set: any match ⇒
/// `!negated`; otherwise NULL if any comparison was unknown, else
/// `negated`. Typed fast paths hash integer and string sets.
fn membership_vec(v: &Vector, items: &[Value], negated: bool, n: usize) -> Vector {
    use std::collections::HashSet;
    let any_null_item = items.iter().any(|c| c.is_null());
    // Fast path: integer-like column probed against an all-integer set
    // (bit-exact with the scalar f64 comparison: i64→f64 casts never
    // produce -0.0 or NaN).
    if let Vector::Col(c) = v {
        if let ColumnData::Int64 { values, nulls } | ColumnData::Date64 { values, nulls } =
            c.as_ref()
        {
            if items
                .iter()
                .all(|c| matches!(c, Value::Int(_) | Value::Date(_) | Value::Null))
            {
                // Date↔Int comparison is numeric in `sql_eq`, so a joint
                // f64-bits set is exact.
                let set: HashSet<u64> = items
                    .iter()
                    .filter_map(|c| c.as_f64())
                    .map(|f| f.to_bits())
                    .collect();
                let mut out = BoolBuilder::with_capacity(n);
                for (i, x) in values.iter().enumerate() {
                    if nulls.is_null(i) {
                        out.push(None);
                    } else if set.contains(&(*x as f64).to_bits()) {
                        out.push(Some(!negated));
                    } else if any_null_item {
                        out.push(None);
                    } else {
                        out.push(Some(negated));
                    }
                }
                return out.finish();
            }
        }
        if let ColumnData::Dict { codes, nulls, .. } = c.as_ref() {
            if items
                .iter()
                .all(|c| matches!(c, Value::Str(_) | Value::Null))
            {
                // Resolve each item to a dictionary code once; the probe
                // then tests integer codes only.
                let mut set: Vec<u32> = items
                    .iter()
                    .filter_map(|c| c.as_str())
                    .filter_map(|s| c.dict_code_of(s)?.ok())
                    .collect();
                set.sort_unstable();
                set.dedup();
                if !any_null_item {
                    // SIMD IN kernel: misses are plain `negated`, so the
                    // result is contains-XOR-negated with NULLs knocked out.
                    let mut out = kernels::in_set_u32(codes, &set);
                    if negated {
                        for v in out.iter_mut() {
                            *v = !*v;
                        }
                    }
                    kernels::zero_nulls(&mut out, nulls);
                    return Vector::owned(ColumnData::Bool {
                        values: out,
                        nulls: nulls.clone(),
                    });
                }
                let mut out = BoolBuilder::with_capacity(n);
                for (i, code) in codes.iter().enumerate() {
                    if nulls.is_null(i) {
                        out.push(None);
                    } else if set.binary_search(code).is_ok() {
                        out.push(Some(!negated));
                    } else {
                        // A NULL item makes every miss unknown.
                        out.push(None);
                    }
                }
                return out.finish();
            }
        }
        if let ColumnData::Utf8 { values, nulls } = c.as_ref() {
            if items
                .iter()
                .all(|c| matches!(c, Value::Str(_) | Value::Null))
            {
                let set: HashSet<&str> = items.iter().filter_map(|c| c.as_str()).collect();
                let mut out = BoolBuilder::with_capacity(n);
                for (i, x) in values.iter().enumerate() {
                    if nulls.is_null(i) {
                        out.push(None);
                    } else if set.contains(x.as_str()) {
                        out.push(Some(!negated));
                    } else if any_null_item {
                        out.push(None);
                    } else {
                        out.push(Some(negated));
                    }
                }
                return out.finish();
            }
        }
    }
    // Generic scan replicating the scalar IN loop.
    let one = |val: Value| -> Option<bool> {
        let mut saw_null = false;
        for item in items {
            match val.sql_eq(item) {
                Some(true) => return Some(!negated),
                Some(false) => {}
                None => saw_null = true,
            }
        }
        if saw_null {
            None
        } else {
            Some(negated)
        }
    };
    match v {
        Vector::Const(c) => match one(c.clone()) {
            Some(b) => Vector::Const(Value::Bool(b)),
            None => Vector::Const(Value::Null),
        },
        _ => {
            let mut out = BoolBuilder::with_capacity(n);
            for i in 0..n {
                out.push(one(v.value(i)));
            }
            out.finish()
        }
    }
}

// ---------------------------------------------------------------------------
// Group-level evaluation
// ---------------------------------------------------------------------------

/// Where [`eval_grouped_vec`] takes each aggregate call's per-group values.
#[derive(Clone, Copy)]
pub(crate) enum Aggs<'a> {
    /// Fold the call's argument over each group's rows.
    Fold,
    /// Read the call's carried slots (`crate::ivm`): a call is found by its
    /// address in the query, and group `g` reads slot `slot[g]`.
    Carried {
        calls: &'a [(&'a Expr, &'a AggSlots)],
        slot: &'a [u32],
    },
}

impl<'a> Aggs<'a> {
    /// Read `carried` through `slot` when given, else fold.
    pub(crate) fn new(carried: Option<&'a [(&'a Expr, &'a AggSlots)]>, slot: &'a [u32]) -> Self {
        carried.map_or(Aggs::Fold, |calls| Aggs::Carried { calls, slot })
    }

    /// The view of group `g` alone, renumbered to group 0.
    fn group(self, g: usize) -> Self {
        match self {
            Aggs::Fold => Aggs::Fold,
            Aggs::Carried { calls, slot } => Aggs::Carried {
                calls,
                slot: &slot[g..=g],
            },
        }
    }
}

/// Evaluate an expression in aggregate context, producing one value per
/// group. Aggregate arguments are evaluated densely over the whole
/// relation once and folded into fresh [`AggSlots`] (or, under
/// [`Aggs::Carried`], the values are read from carried slots); the
/// combination above the aggregates uses the scalar kernels (a few values
/// per group). Expressions the scalar interpreter evaluates against
/// the representative row — columns, literals, correlated subqueries —
/// do the same here.
pub(crate) fn eval_grouped_vec(
    expr: &Expr,
    rel: &VecRelation,
    groups: &[Vec<u32>],
    gid: Option<&[u32]>,
    aggs: Aggs<'_>,
    ctx: &ExecContext<'_>,
    outer: Option<&Scope<'_>>,
) -> Result<Vec<Value>, EngineError> {
    // No groups ⇒ the scalar interpreter's per-group loop never runs and
    // no sub-expression (even an erroring one) is evaluated.
    if groups.is_empty() {
        return Ok(Vec::new());
    }
    match expr {
        Expr::Func { name, .. } if is_aggregate_function(name) => match aggs {
            Aggs::Fold => eval_aggregate_vec(expr, rel, groups, gid, ctx, outer),
            Aggs::Carried { calls, slot } => {
                // Every call this arm reaches was collected with slots;
                // a miss would be a walk that disagrees with this one.
                let (_, slots) = calls
                    .iter()
                    .find(|(call, _)| std::ptr::eq(*call, expr))
                    .ok_or_else(|| EngineError::MisplacedAggregate(expr.to_string()))?;
                Ok(slot.iter().map(|&s| slots.value(s as usize)).collect())
            }
        },
        Expr::Unary { op, expr: inner } => {
            let vals = eval_grouped_vec(inner, rel, groups, gid, aggs, ctx, outer)?;
            vals.into_iter().map(|v| apply_unary(*op, v)).collect()
        }
        Expr::Binary { left, op, right } => {
            let lvals = eval_grouped_vec(left, rel, groups, gid, aggs, ctx, outer)?;
            if *op == BinOp::And || *op == BinOp::Or {
                // Eager right side when it evaluates cleanly; lazy per-group
                // fallback preserves short-circuit on errors.
                return match eval_grouped_vec(right, rel, groups, gid, aggs, ctx, outer) {
                    Ok(rvals) => lvals
                        .into_iter()
                        .zip(rvals)
                        .map(|(l, r)| eval_logical(*op, l, || Ok(r)))
                        .collect(),
                    Err(_) => lvals
                        .into_iter()
                        .enumerate()
                        .map(|(g, l)| {
                            eval_logical(*op, l, || {
                                // Evaluate the right side over THIS group's
                                // rows only: dense aggregate arguments must
                                // not touch rows of groups whose left side
                                // short-circuited (the scalar interpreter
                                // never evaluates them, and another group's
                                // row could be one that errors).
                                let sub = rel.gather(groups[g].clone());
                                let local: Vec<u32> = (0..sub.len as u32).collect();
                                let aggs = aggs.group(g);
                                eval_grouped_vec(right, &sub, &[local], None, aggs, ctx, outer)
                                    .map(|mut v| v.pop().expect("one group in, one value out"))
                            })
                        })
                        .collect(),
                };
            }
            let rvals = eval_grouped_vec(right, rel, groups, gid, aggs, ctx, outer)?;
            lvals
                .into_iter()
                .zip(rvals)
                .map(|(l, r)| apply_binary(*op, l, r))
                .collect()
        }
        Expr::Between {
            expr: inner,
            negated,
            low,
            high,
        } => {
            let v = eval_grouped_vec(inner, rel, groups, gid, aggs, ctx, outer)?;
            let lo = eval_grouped_vec(low, rel, groups, gid, aggs, ctx, outer)?;
            let hi = eval_grouped_vec(high, rel, groups, gid, aggs, ctx, outer)?;
            v.into_iter()
                .zip(lo.into_iter().zip(hi))
                .map(|(v, (lo, hi))| eval_between(&v, &lo, &hi, *negated))
                .collect()
        }
        Expr::Func { name, args } => {
            let argvals = args
                .iter()
                .map(|a| eval_grouped_vec(a, rel, groups, gid, aggs, ctx, outer))
                .collect::<Result<Vec<_>, _>>()?;
            (0..groups.len())
                .map(|g| {
                    let vals: Vec<Value> = argvals.iter().map(|a| a[g].clone()).collect();
                    apply_scalar_function(name, &vals, ctx)
                })
                .collect()
        }
        Expr::Literal(l) => Ok(vec![literal_value(l); groups.len()]),
        // A bare column reads its representative cell directly; the empty
        // implicit group takes the representative-row arm below.
        Expr::Column { table, name }
            if rel.lookup(table.as_deref(), name).is_some()
                && groups.iter().all(|idx| !idx.is_empty()) =>
        {
            let ci = rel.lookup(table.as_deref(), name).expect("checked");
            Ok(groups
                .iter()
                .map(|idx| rel.cell(ci, idx[0] as usize))
                .collect())
        }
        // Representative-row semantics (correlated subqueries, IN, IS NULL,
        // outer columns): one scalar evaluation per group. The empty
        // implicit group (no GROUP BY, no rows) evaluates over an all-NULL
        // row, so its bare columns answer NULL.
        other => groups
            .iter()
            .map(|idx| {
                let row = match idx.first() {
                    Some(&i) => rel.row(i as usize),
                    None => vec![Value::Null; rel.cols.len()],
                };
                let scope = Scope {
                    cols: &rel.cols,
                    row: &row,
                    parent: outer,
                };
                eval::eval_expr(other, &scope, ctx)
            })
            .collect(),
    }
}

fn eval_aggregate_vec(
    call: &Expr,
    rel: &VecRelation,
    groups: &[Vec<u32>],
    gid: Option<&[u32]>,
    ctx: &ExecContext<'_>,
    outer: Option<&Scope<'_>>,
) -> Result<Vec<Value>, EngineError> {
    let (mut slots, arg) = AggSlots::of(call)?;
    // Evaluate the argument densely, once for all groups.
    let col = arg
        .map(|a| eval_vec(a, rel, ctx, outer).map(|v| v.into_column(rel.len)))
        .transpose()?;
    slots.open(groups.len());
    slots.fold(col.as_deref(), groups, None, gid);
    Ok((0..groups.len()).map(|g| slots.value(g)).collect())
}

/// One aggregate call's accumulator, one slot per group: the single fold
/// behind grouped aggregation. The flat executor folds a relation into
/// fresh slots; `crate::ivm` folds each chunk of a table into slots it
/// carries across chunks and appends. Folding mirrors the reference's
/// `eval_aggregate`: NULL arguments are skipped, `sum`/`avg` add `as_f64`
/// values onto the slot's running total in ascending row order — `(s +
/// d₁) + d₂`, never `s + (d₁ + d₂)`, so float results are bit-identical to
/// the reference's left fold — `min` keeps the first minimum and `max` the
/// last maximum, and `avg` divides by the non-null count.
#[derive(Debug, Clone)]
pub(crate) enum AggSlots {
    /// `count(*)` / `count(x)`: rows / non-null arguments seen.
    Count(Vec<i64>),
    /// `sum` / `avg`: the running total, the non-null count, and whether
    /// every non-null argument so far was an `Int` (then `sum` is one).
    Sum {
        avg: bool,
        total: Vec<f64>,
        n: Vec<i64>,
        all_int: Vec<bool>,
    },
    /// `min` / `max`: the extreme so far (NULL before the first value).
    Extreme { min: bool, best: Vec<Value> },
}

impl AggSlots {
    /// No slots yet for the aggregate call `call`, and the argument its
    /// fold reads (`None` for `count(*)`).
    pub(crate) fn of(call: &Expr) -> Result<(AggSlots, Option<&Expr>), EngineError> {
        let Expr::Func { name, args } = call else {
            return Err(EngineError::MisplacedAggregate(call.to_string()));
        };
        let lname = name.to_ascii_lowercase();
        // count(*) counts rows including NULLs.
        if lname == "count" && matches!(args.first(), Some(Expr::Star) | None) {
            return Ok((AggSlots::Count(Vec::new()), None));
        }
        let arg = args
            .first()
            .ok_or_else(|| EngineError::BadFunction(format!("{name} needs an argument")))?;
        let slots = match lname.as_str() {
            "count" => AggSlots::Count(Vec::new()),
            "sum" | "avg" => AggSlots::Sum {
                avg: lname == "avg",
                total: Vec::new(),
                n: Vec::new(),
                all_int: Vec::new(),
            },
            "min" | "max" => AggSlots::Extreme {
                min: lname == "min",
                best: Vec::new(),
            },
            _ => return Err(EngineError::BadFunction(name.to_string())),
        };
        Ok((slots, Some(arg)))
    }

    /// Open fresh slots until there are `groups` of them.
    pub(crate) fn open(&mut self, groups: usize) {
        match self {
            AggSlots::Count(n) => n.resize(groups, 0),
            AggSlots::Sum {
                total, n, all_int, ..
            } => {
                total.resize(groups, 0.0);
                n.resize(groups, 0);
                all_int.resize(groups, true);
            }
            AggSlots::Extreme { best, .. } => best.resize(groups, Value::Null),
        }
    }

    /// The aggregate's value in slot `s`. A slot never opened holds the
    /// value over zero rows (the implicit single group of an empty input).
    pub(crate) fn value(&self, s: usize) -> Value {
        match self {
            AggSlots::Count(n) => Value::Int(n.get(s).copied().unwrap_or(0)),
            AggSlots::Sum {
                avg,
                total,
                n,
                all_int,
            } => match n.get(s) {
                None | Some(0) => Value::Null,
                Some(&count) if *avg => Value::Float(total[s] / count as f64),
                Some(_) if all_int[s] => Value::Int(total[s] as i64),
                Some(_) => Value::Float(total[s]),
            },
            AggSlots::Extreme { best, .. } => best.get(s).cloned().unwrap_or(Value::Null),
        }
    }

    /// Fold rows into the slots. `groups[l]` lists the rows of local group
    /// `l` ascending, and they fold into slot `slots[l]` (slot `l` when
    /// `slots` is `None`). `row_slot`, when given, is every row's slot:
    /// `sum`/`avg`/`count` then take all groups in ONE sequential pass over
    /// the column instead of one strided gather per group — the per-group
    /// gathers each touch cache lines spread across the whole column. `arg`
    /// is the argument column, `None` for `count(*)`.
    pub(crate) fn fold(
        &mut self,
        arg: Option<&ColumnData>,
        groups: &[Vec<u32>],
        slots: Option<&[u32]>,
        row_slot: Option<&[u32]>,
    ) {
        let slot = |l: usize| slots.map_or(l, |s| s[l] as usize);
        let Some(col) = arg else {
            let AggSlots::Count(n) = self else {
                unreachable!("only count(*) folds no argument")
            };
            for (l, idx) in groups.iter().enumerate() {
                n[slot(l)] += idx.len() as i64;
            }
            return;
        };
        match self {
            AggSlots::Count(n) => {
                let nulls = col.nulls();
                match row_slot {
                    Some(rs) => {
                        for (i, &s) in rs.iter().enumerate() {
                            n[s as usize] += !nulls.is_null(i) as i64;
                        }
                    }
                    None => {
                        for (l, idx) in groups.iter().enumerate() {
                            n[slot(l)] += kernels::count_valid(nulls, idx) as i64;
                        }
                    }
                }
            }
            AggSlots::Sum {
                total, n, all_int, ..
            } => {
                let acc = (&mut total[..], &mut n[..], &mut all_int[..]);
                match (col, row_slot) {
                    (ColumnData::Int64 { values, nulls }, Some(rs)) => {
                        add_rows::<_, true>(values, nulls, rs, |v| v as f64, acc)
                    }
                    // Date sums degrade to Float, like the reference's.
                    (ColumnData::Date64 { values, nulls }, Some(rs)) => {
                        add_rows::<_, false>(values, nulls, rs, |v| v as f64, acc)
                    }
                    (ColumnData::Float64 { values, nulls }, Some(rs)) => {
                        add_rows::<_, false>(values, nulls, rs, |v| v, acc)
                    }
                    _ => {
                        for (l, idx) in groups.iter().enumerate() {
                            let s = slot(l);
                            // A fresh slot takes the typed kernel's total:
                            // the kernels sum from 0.0 in row order (or
                            // prove the integer sum exact), which is what
                            // folding onto a fresh slot gives. A carried
                            // total continues row by row.
                            if n[s] == 0 {
                                if let Some((t, count)) = sum_kernel(col, idx) {
                                    total[s] = t;
                                    n[s] = count as i64;
                                    all_int[s] =
                                        count == 0 || matches!(col, ColumnData::Int64 { .. });
                                    continue;
                                }
                            }
                            for &i in idx {
                                let i = i as usize;
                                if col.is_null(i) {
                                    continue;
                                }
                                if let Some(f) = col.numeric(i) {
                                    total[s] += f;
                                }
                                n[s] += 1;
                                all_int[s] &= matches!(col, ColumnData::Int64 { .. });
                            }
                        }
                    }
                }
            }
            // Each group's extreme (SIMD kernels for typed columns) merges
            // into its slot, earlier rows winning `min` ties and later rows
            // winning `max` ties.
            AggSlots::Extreme { min, best } => {
                for (l, idx) in groups.iter().enumerate() {
                    let v = extreme(col, idx, *min);
                    let cur = &mut best[slot(l)];
                    let replace = !v.is_null()
                        && (cur.is_null()
                            || if *min {
                                v.cmp(cur).is_lt()
                            } else {
                                v.cmp(cur).is_ge()
                            });
                    if replace {
                        *cur = v;
                    }
                }
            }
        }
    }
}

/// Every valid row adds `as_f64(values[i])` onto its slot `rs[i]`, in row
/// order; `INT` says whether the values are `Int`s.
fn add_rows<T: Copy, const INT: bool>(
    values: &[T],
    nulls: &NullMask,
    rs: &[u32],
    as_f64: impl Fn(T) -> f64,
    (total, n, all_int): (&mut [f64], &mut [i64], &mut [bool]),
) {
    debug_assert_eq!(rs.len(), values.len());
    for (i, &v) in values.iter().enumerate() {
        if nulls.is_null(i) {
            continue;
        }
        let s = rs[i] as usize;
        total[s] += as_f64(v);
        n[s] += 1;
        if !INT {
            all_int[s] = false;
        }
    }
}

/// The typed SIMD kernels' `(total, non-null count)` over `idx`,
/// bit-identical to a fold from 0.0 in row order (the integer kernel only
/// skips the sequential f64 accumulation once a 2⁵³ bound proves it exact;
/// f64 sums are never reassociated). `None` for untyped columns.
fn sum_kernel(col: &ColumnData, idx: &[u32]) -> Option<(f64, usize)> {
    match col {
        ColumnData::Int64 { values, nulls } | ColumnData::Date64 { values, nulls } => {
            Some(kernels::sum_i64(values, nulls, idx))
        }
        ColumnData::Float64 { values, nulls } => Some(kernels::sum_f64(values, nulls, idx)),
        _ => None,
    }
}

/// The minimum (`min`) or maximum over one group's rows, NULL when every
/// row is NULL, with the reference's tie behaviour: `Iterator::min` keeps
/// the first minimum and `Iterator::max` the last maximum.
fn extreme(col: &ColumnData, idx: &[u32], min: bool) -> Value {
    match col {
        ColumnData::Int64 { values, nulls } => {
            kernels::min_max_i64(values, nulls, idx, min).map_or(Value::Null, Value::Int)
        }
        ColumnData::Date64 { values, nulls } => {
            kernels::min_max_i64(values, nulls, idx, min).map_or(Value::Null, Value::Date)
        }
        ColumnData::Float64 { values, nulls } => {
            kernels::min_max_f64(values, nulls, idx, min).map_or(Value::Null, Value::Float)
        }
        _ => {
            let mut best: Option<u32> = None;
            for &i in idx.iter().filter(|&&i| !col.is_null(i as usize)) {
                let replace = best.is_none_or(|b| {
                    let ord = col.cmp_at(i as usize, col, b as usize);
                    if min {
                        ord == Ordering::Less
                    } else {
                        ord != Ordering::Less
                    }
                });
                if replace {
                    best = Some(i);
                }
            }
            best.map_or(Value::Null, |i| col.value(i as usize))
        }
    }
}
