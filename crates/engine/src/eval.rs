//! Row-level and group-level expression evaluation.

use crate::error::EngineError;
use crate::exec::{execute_with_scope, ExecContext};
use pi2_data::date::parse_day_offset;
use pi2_data::Value;
use pi2_sql::ast::{is_aggregate_function, BinOp, Expr, Literal, UnaryOp};

/// A lexical scope for expression evaluation: the columns of the current row
/// (tagged with their binding name) plus a parent scope for correlated
/// subqueries.
pub struct Scope<'a> {
    /// `(binding, column)` pairs, parallel to `row`.
    pub cols: &'a [(String, String)],
    /// The row.
    pub row: &'a [Value],
    /// The parent.
    pub parent: Option<&'a Scope<'a>>,
}

impl<'a> Scope<'a> {
    /// Lookup.
    pub fn lookup(&self, table: Option<&str>, name: &str) -> Option<&Value> {
        let found = self.cols.iter().position(|(b, c)| {
            c.eq_ignore_ascii_case(name) && table.is_none_or(|t| b.eq_ignore_ascii_case(t))
        });
        match found {
            Some(i) => Some(&self.row[i]),
            None => self.parent.and_then(|p| p.lookup(table, name)),
        }
    }
}

/// Group context for aggregate evaluation: the member rows of one group.
pub struct GroupCtx<'a> {
    /// The cols.
    pub cols: &'a [(String, String)],
    /// The rows.
    pub rows: Vec<&'a [Value]>,
    /// The parent.
    pub parent: Option<&'a Scope<'a>>,
}

/// Evaluate a row-level expression (no aggregates).
pub fn eval_expr(
    expr: &Expr,
    scope: &Scope<'_>,
    ctx: &ExecContext<'_>,
) -> Result<Value, EngineError> {
    match expr {
        Expr::Literal(l) => Ok(literal_value(l)),
        Expr::Column { table, name } => scope
            .lookup(table.as_deref(), name)
            .cloned()
            .ok_or_else(|| EngineError::UnresolvedColumn(expr.to_string())),
        Expr::Star => Err(EngineError::Unsupported("bare * outside count(*)".into())),
        Expr::Unary { op, expr } => {
            let v = eval_expr(expr, scope, ctx)?;
            apply_unary(*op, v)
        }
        Expr::Binary { left, op, right } => {
            // Short-circuit logical operators with SQL three-valued logic.
            if *op == BinOp::And || *op == BinOp::Or {
                let l = eval_expr(left, scope, ctx)?;
                return eval_logical(*op, l, || eval_expr(right, scope, ctx));
            }
            let l = eval_expr(left, scope, ctx)?;
            let r = eval_expr(right, scope, ctx)?;
            apply_binary(*op, l, r)
        }
        Expr::Between {
            expr,
            negated,
            low,
            high,
        } => {
            let v = eval_expr(expr, scope, ctx)?;
            let lo = eval_expr(low, scope, ctx)?;
            let hi = eval_expr(high, scope, ctx)?;
            eval_between(&v, &lo, &hi, *negated)
        }
        Expr::InList {
            expr,
            negated,
            list,
        } => {
            let v = eval_expr(expr, scope, ctx)?;
            let mut any_null = false;
            for item in list {
                let iv = eval_expr(item, scope, ctx)?;
                match v.sql_eq(&iv) {
                    Some(true) => return Ok(Value::Bool(!negated)),
                    Some(false) => {}
                    None => any_null = true,
                }
            }
            if any_null {
                Ok(Value::Null)
            } else {
                Ok(Value::Bool(*negated))
            }
        }
        Expr::InSubquery {
            expr,
            negated,
            query,
        } => {
            let v = eval_expr(expr, scope, ctx)?;
            let result = execute_with_scope(query, ctx, Some(scope))?;
            let mut any_null = false;
            for i in 0..result.num_rows() {
                let item = if result.num_columns() > 0 {
                    result.value(i, 0)
                } else {
                    Value::Null
                };
                match v.sql_eq(&item) {
                    Some(true) => return Ok(Value::Bool(!negated)),
                    Some(false) => {}
                    None => any_null = true,
                }
            }
            if any_null {
                Ok(Value::Null)
            } else {
                Ok(Value::Bool(*negated))
            }
        }
        Expr::IsNull { expr, negated } => {
            let v = eval_expr(expr, scope, ctx)?;
            Ok(Value::Bool(v.is_null() != *negated))
        }
        Expr::Func { name, args } => {
            if is_aggregate_function(name) {
                return Err(EngineError::MisplacedAggregate(expr.to_string()));
            }
            let vals = args
                .iter()
                .map(|a| eval_expr(a, scope, ctx))
                .collect::<Result<Vec<_>, _>>()?;
            apply_scalar_function(name, &vals, ctx)
        }
        Expr::ScalarSubquery(q) => {
            let result = execute_with_scope(q, ctx, Some(scope))?;
            if result.schema.len() != 1 {
                return Err(EngineError::NonScalarSubquery);
            }
            Ok(if result.num_rows() > 0 {
                result.value(0, 0)
            } else {
                Value::Null
            })
        }
    }
}

/// Evaluate an expression in a group context (aggregates compute over the
/// group's rows; other columns come from the representative first row).
pub fn eval_grouped(
    expr: &Expr,
    group: &GroupCtx<'_>,
    ctx: &ExecContext<'_>,
) -> Result<Value, EngineError> {
    match expr {
        Expr::Func { name, args } if is_aggregate_function(name) => {
            eval_aggregate(name, args, group, ctx)
        }
        Expr::Unary { op, expr } => {
            let v = eval_grouped(expr, group, ctx)?;
            apply_unary(*op, v)
        }
        Expr::Binary { left, op, right } => {
            if *op == BinOp::And || *op == BinOp::Or {
                let l = eval_grouped(left, group, ctx)?;
                return eval_logical(*op, l, || eval_grouped(right, group, ctx));
            }
            let l = eval_grouped(left, group, ctx)?;
            let r = eval_grouped(right, group, ctx)?;
            apply_binary(*op, l, r)
        }
        Expr::Between {
            expr,
            negated,
            low,
            high,
        } => {
            let v = eval_grouped(expr, group, ctx)?;
            let lo = eval_grouped(low, group, ctx)?;
            let hi = eval_grouped(high, group, ctx)?;
            eval_between(&v, &lo, &hi, *negated)
        }
        Expr::Func { name, args } => {
            let vals = args
                .iter()
                .map(|a| eval_grouped(a, group, ctx))
                .collect::<Result<Vec<_>, _>>()?;
            apply_scalar_function(name, &vals, ctx)
        }
        // Columns, literals, subqueries, IN, IS NULL: evaluate against the
        // representative row (correlated subqueries see the group's values).
        // The empty implicit group (no GROUP BY, no rows) has none and
        // evaluates over an all-NULL row, so its bare columns answer NULL.
        other => {
            let nulls;
            let row = match group.rows.first() {
                Some(&row) => row,
                None => {
                    nulls = vec![Value::Null; group.cols.len()];
                    &nulls
                }
            };
            let repr = Scope {
                cols: group.cols,
                row,
                parent: group.parent,
            };
            eval_expr(other, &repr, ctx)
        }
    }
}

fn eval_aggregate(
    name: &str,
    args: &[Expr],
    group: &GroupCtx<'_>,
    ctx: &ExecContext<'_>,
) -> Result<Value, EngineError> {
    let lname = name.to_ascii_lowercase();
    // count(*) counts rows including NULLs.
    if lname == "count" && matches!(args.first(), Some(Expr::Star) | None) {
        return Ok(Value::Int(group.rows.len() as i64));
    }
    let arg = args
        .first()
        .ok_or_else(|| EngineError::BadFunction(format!("{name} needs an argument")))?;
    // Evaluate the argument per group row.
    let mut vals = Vec::with_capacity(group.rows.len());
    for row in &group.rows {
        let scope = Scope {
            cols: group.cols,
            row,
            parent: group.parent,
        };
        let v = eval_expr(arg, &scope, ctx)?;
        if !v.is_null() {
            vals.push(v);
        }
    }
    match lname.as_str() {
        "count" => Ok(Value::Int(vals.len() as i64)),
        "min" => Ok(vals.into_iter().min().unwrap_or(Value::Null)),
        "max" => Ok(vals.into_iter().max().unwrap_or(Value::Null)),
        "sum" | "avg" => {
            if vals.is_empty() {
                return Ok(Value::Null);
            }
            let all_int = vals.iter().all(|v| matches!(v, Value::Int(_)));
            // Not `Iterator::sum`: for f64 it starts from -0.0, so a sum of
            // no numbers (or of -0.0s) would come out -0.0, where every
            // other executor's fold starts from +0.0.
            let total = vals
                .iter()
                .filter_map(|v| v.as_f64())
                .fold(0.0, |acc, f| acc + f);
            if lname == "avg" {
                Ok(Value::Float(total / vals.len() as f64))
            } else if all_int {
                Ok(Value::Int(total as i64))
            } else {
                Ok(Value::Float(total))
            }
        }
        _ => Err(EngineError::BadFunction(name.to_string())),
    }
}

pub(crate) fn literal_value(l: &Literal) -> Value {
    match l {
        Literal::Int(i) => Value::Int(*i),
        Literal::Float(f) => Value::Float(*f),
        Literal::Str(s) => Value::Str(s.clone()),
        Literal::Bool(b) => Value::Bool(*b),
        Literal::Null => Value::Null,
    }
}

pub(crate) fn apply_unary(op: UnaryOp, v: Value) -> Result<Value, EngineError> {
    if v.is_null() {
        return Ok(Value::Null);
    }
    match op {
        UnaryOp::Neg => match v {
            Value::Int(i) => Ok(Value::Int(-i)),
            Value::Float(f) => Ok(Value::Float(-f)),
            other => Err(EngineError::TypeError(format!("cannot negate {other}"))),
        },
        UnaryOp::Not => match v.as_bool() {
            Some(b) => Ok(Value::Bool(!b)),
            None => Err(EngineError::TypeError("NOT on non-boolean".into())),
        },
    }
}

pub(crate) fn eval_logical(
    op: BinOp,
    left: Value,
    right: impl FnOnce() -> Result<Value, EngineError>,
) -> Result<Value, EngineError> {
    let l = if left.is_null() { None } else { left.as_bool() };
    match (op, l) {
        (BinOp::And, Some(false)) => Ok(Value::Bool(false)),
        (BinOp::Or, Some(true)) => Ok(Value::Bool(true)),
        _ => {
            let rv = right()?;
            let r = if rv.is_null() { None } else { rv.as_bool() };
            let out = match op {
                BinOp::And => match (l, r) {
                    (Some(false), _) | (_, Some(false)) => Some(false),
                    (Some(true), Some(true)) => Some(true),
                    _ => None,
                },
                BinOp::Or => match (l, r) {
                    (Some(true), _) | (_, Some(true)) => Some(true),
                    (Some(false), Some(false)) => Some(false),
                    _ => None,
                },
                _ => unreachable!("eval_logical called with non-logical op"),
            };
            Ok(out.map(Value::Bool).unwrap_or(Value::Null))
        }
    }
}

pub(crate) fn apply_binary(op: BinOp, l: Value, r: Value) -> Result<Value, EngineError> {
    use std::cmp::Ordering;
    if op.is_comparison() {
        let cmp = l.sql_cmp(&r);
        let out = match (op, cmp) {
            (_, None) => Value::Null,
            (BinOp::Eq, Some(o)) => Value::Bool(o == Ordering::Equal),
            (BinOp::NotEq, Some(o)) => Value::Bool(o != Ordering::Equal),
            (BinOp::Lt, Some(o)) => Value::Bool(o == Ordering::Less),
            (BinOp::LtEq, Some(o)) => Value::Bool(o != Ordering::Greater),
            (BinOp::Gt, Some(o)) => Value::Bool(o == Ordering::Greater),
            (BinOp::GtEq, Some(o)) => Value::Bool(o != Ordering::Less),
            _ => unreachable!(),
        };
        return Ok(out);
    }
    if op == BinOp::Like {
        if l.is_null() || r.is_null() {
            return Ok(Value::Null);
        }
        let (Some(s), Some(pat)) = (l.as_str(), r.as_str()) else {
            return Err(EngineError::TypeError("LIKE requires strings".into()));
        };
        return Ok(Value::Bool(like_match(s, pat)));
    }
    // Arithmetic.
    if l.is_null() || r.is_null() {
        return Ok(Value::Null);
    }
    let (Some(a), Some(b)) = (l.as_f64(), r.as_f64()) else {
        return Err(EngineError::TypeError(format!(
            "cannot apply {op} to {l} and {r}"
        )));
    };
    let result = match op {
        BinOp::Add => a + b,
        BinOp::Sub => a - b,
        BinOp::Mul => a * b,
        BinOp::Div => {
            if b == 0.0 {
                return Ok(Value::Null);
            }
            a / b
        }
        _ => unreachable!(),
    };
    // Preserve integer-ness (and date-ness for +/- day arithmetic).
    match (&l, &r, op) {
        (Value::Date(_), _, BinOp::Add | BinOp::Sub) => Ok(Value::Date(result as i64)),
        (Value::Int(_), Value::Int(_), BinOp::Add | BinOp::Sub | BinOp::Mul) => {
            Ok(Value::Int(result as i64))
        }
        _ => Ok(Value::Float(result)),
    }
}

pub(crate) fn eval_between(
    v: &Value,
    lo: &Value,
    hi: &Value,
    negated: bool,
) -> Result<Value, EngineError> {
    let ge = v.sql_cmp(lo).map(|o| o != std::cmp::Ordering::Less);
    let le = v.sql_cmp(hi).map(|o| o != std::cmp::Ordering::Greater);
    Ok(match (ge, le) {
        (Some(a), Some(b)) => Value::Bool((a && b) != negated),
        _ => Value::Null,
    })
}

/// SQL LIKE with `%` and `_` wildcards.
pub(crate) fn like_match(s: &str, pattern: &str) -> bool {
    fn inner(s: &[u8], p: &[u8]) -> bool {
        match p.first() {
            None => s.is_empty(),
            Some(b'%') => (0..=s.len()).any(|i| inner(&s[i..], &p[1..])),
            Some(b'_') => !s.is_empty() && inner(&s[1..], &p[1..]),
            Some(c) => s.first() == Some(c) && inner(&s[1..], &p[1..]),
        }
    }
    inner(s.as_bytes(), pattern.as_bytes())
}

pub(crate) fn apply_scalar_function(
    name: &str,
    args: &[Value],
    ctx: &ExecContext<'_>,
) -> Result<Value, EngineError> {
    match name.to_ascii_lowercase().as_str() {
        "today" => Ok(Value::Date(ctx.today)),
        "date" => {
            // date(d) coerces; date(d, '-30 days') offsets.
            let base = args
                .first()
                .ok_or_else(|| EngineError::BadFunction("date() needs an argument".into()))?;
            let base = base
                .coerce_to_date()
                .ok_or_else(|| EngineError::TypeError(format!("not a date: {base}")))?;
            let Value::Date(mut days) = base else {
                unreachable!()
            };
            if let Some(off) = args.get(1) {
                let s = off
                    .as_str()
                    .ok_or_else(|| EngineError::TypeError("date offset must be a string".into()))?;
                let delta = parse_day_offset(s)
                    .ok_or_else(|| EngineError::TypeError(format!("bad date offset: {s}")))?;
                days += delta;
            }
            Ok(Value::Date(days))
        }
        "abs" => {
            let v = args
                .first()
                .ok_or_else(|| EngineError::BadFunction("abs() needs an argument".into()))?;
            match v {
                Value::Int(i) => Ok(Value::Int(i.abs())),
                Value::Float(f) => Ok(Value::Float(f.abs())),
                Value::Null => Ok(Value::Null),
                other => Err(EngineError::TypeError(format!("abs of {other}"))),
            }
        }
        other => Err(EngineError::BadFunction(other.to_string())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pi2_data::Catalog;
    use pi2_sql::parse_expr;

    fn ctx_catalog() -> Catalog {
        Catalog::new()
    }

    fn eval_str(src: &str) -> Value {
        let catalog = ctx_catalog();
        let ctx = ExecContext {
            today: 18_000,
            ..ExecContext::new(&catalog)
        };
        let cols: Vec<(String, String)> = vec![("t".into(), "a".into()), ("t".into(), "b".into())];
        let row = vec![Value::Int(5), Value::Str("CA".into())];
        let scope = Scope {
            cols: &cols,
            row: &row,
            parent: None,
        };
        eval_expr(&parse_expr(src).unwrap(), &scope, &ctx).unwrap()
    }

    #[test]
    fn arithmetic() {
        assert_eq!(eval_str("1 + 2 * 3"), Value::Int(7));
        assert_eq!(eval_str("7 / 2"), Value::Float(3.5));
        assert_eq!(eval_str("1 / 0"), Value::Null);
        assert_eq!(eval_str("1.5 + 1"), Value::Float(2.5));
    }

    #[test]
    fn column_lookup_qualified_and_bare() {
        assert_eq!(eval_str("a + 1"), Value::Int(6));
        assert_eq!(eval_str("t.a"), Value::Int(5));
        assert_eq!(eval_str("b = 'CA'"), Value::Bool(true));
    }

    #[test]
    fn comparisons() {
        assert_eq!(eval_str("a BETWEEN 1 AND 10"), Value::Bool(true));
        assert_eq!(eval_str("a NOT BETWEEN 1 AND 10"), Value::Bool(false));
        assert_eq!(eval_str("a IN (1, 5, 9)"), Value::Bool(true));
        assert_eq!(eval_str("a NOT IN (1, 2)"), Value::Bool(true));
        assert_eq!(eval_str("a <> 5"), Value::Bool(false));
        assert_eq!(eval_str("a >= 5"), Value::Bool(true));
    }

    #[test]
    fn three_valued_logic() {
        assert_eq!(eval_str("NULL AND TRUE"), Value::Null);
        assert_eq!(eval_str("NULL AND FALSE"), Value::Bool(false));
        assert_eq!(eval_str("NULL OR TRUE"), Value::Bool(true));
        assert_eq!(eval_str("NULL OR FALSE"), Value::Null);
        assert_eq!(eval_str("NULL = 1"), Value::Null);
        assert_eq!(eval_str("a IS NULL"), Value::Bool(false));
        assert_eq!(eval_str("a IS NOT NULL"), Value::Bool(true));
    }

    #[test]
    fn in_list_with_null_is_unknown_not_false() {
        assert_eq!(eval_str("a IN (1, NULL)"), Value::Null);
        assert_eq!(eval_str("a IN (5, NULL)"), Value::Bool(true));
    }

    #[test]
    fn date_functions() {
        assert_eq!(eval_str("today()"), Value::Date(18_000));
        assert_eq!(eval_str("date(today(), '-30 days')"), Value::Date(17_970));
        assert_eq!(eval_str("date('1970-01-11')"), Value::Date(10));
        assert_eq!(
            eval_str("date('1970-01-11') > date('1970-01-01')"),
            Value::Bool(true)
        );
    }

    #[test]
    fn like_patterns() {
        assert!(like_match("hello", "h%o"));
        assert!(like_match("hello", "_ello"));
        assert!(!like_match("hello", "h_o"));
        assert!(like_match("", "%"));
        assert!(like_match("abc", "%"));
        assert!(!like_match("abc", "a"));
        assert_eq!(eval_str("b LIKE 'C%'"), Value::Bool(true));
    }

    #[test]
    fn unary_ops() {
        assert_eq!(eval_str("-a"), Value::Int(-5));
        assert_eq!(eval_str("NOT (a = 5)"), Value::Bool(false));
        assert_eq!(eval_str("abs(-3)"), Value::Int(3));
        assert_eq!(eval_str("abs(-2.5)"), Value::Float(2.5));
    }

    #[test]
    fn misplaced_aggregate_is_an_error() {
        let catalog = ctx_catalog();
        let ctx = ExecContext {
            today: 0,
            ..ExecContext::new(&catalog)
        };
        let cols: Vec<(String, String)> = vec![];
        let row: Vec<Value> = vec![];
        let scope = Scope {
            cols: &cols,
            row: &row,
            parent: None,
        };
        let e = parse_expr("sum(1)").unwrap();
        assert!(matches!(
            eval_expr(&e, &scope, &ctx),
            Err(EngineError::MisplacedAggregate(_))
        ));
    }

    #[test]
    fn aggregate_over_group() {
        let catalog = ctx_catalog();
        let ctx = ExecContext {
            today: 0,
            ..ExecContext::new(&catalog)
        };
        let cols: Vec<(String, String)> = vec![("t".into(), "x".into())];
        let rows: Vec<Vec<Value>> = vec![
            vec![Value::Int(1)],
            vec![Value::Int(2)],
            vec![Value::Null],
            vec![Value::Int(4)],
        ];
        let group = GroupCtx {
            cols: &cols,
            rows: rows.iter().map(|r| r.as_slice()).collect(),
            parent: None,
        };
        let agg = |src: &str| eval_grouped(&parse_expr(src).unwrap(), &group, &ctx).unwrap();
        assert_eq!(agg("count(*)"), Value::Int(4));
        assert_eq!(agg("count(x)"), Value::Int(3)); // NULL skipped
        assert_eq!(agg("sum(x)"), Value::Int(7));
        assert_eq!(agg("avg(x)"), Value::Float(7.0 / 3.0));
        assert_eq!(agg("min(x)"), Value::Int(1));
        assert_eq!(agg("max(x)"), Value::Int(4));
        assert_eq!(agg("sum(x) + count(*)"), Value::Int(11));
        assert_eq!(agg("sum(x) >= 7"), Value::Bool(true));
    }

    #[test]
    fn aggregates_over_empty_groups() {
        let catalog = ctx_catalog();
        let ctx = ExecContext {
            today: 0,
            ..ExecContext::new(&catalog)
        };
        let cols: Vec<(String, String)> = vec![("t".into(), "x".into())];
        let group = GroupCtx {
            cols: &cols,
            rows: vec![],
            parent: None,
        };
        let agg = |src: &str| eval_grouped(&parse_expr(src).unwrap(), &group, &ctx).unwrap();
        assert_eq!(agg("count(*)"), Value::Int(0));
        assert_eq!(agg("sum(x)"), Value::Null);
        assert_eq!(agg("min(x)"), Value::Null);
    }

    #[test]
    fn date_plus_days_stays_a_date() {
        assert_eq!(eval_str("today() + 5"), Value::Date(18_005));
        assert_eq!(eval_str("today() - 5"), Value::Date(17_995));
    }
}
