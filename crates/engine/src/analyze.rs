//! Static semantic analysis: output schemas with attribute provenance.
//!
//! PI2's result schemas (§3.2.2) and visualization mappings (§4.1) need to
//! know, for every output column of a query: its name, its storage type,
//! whether it traces back to a base-table attribute (an *attribute type* in
//! the paper's hierarchy), whether it is a group key, and its estimated
//! cardinality. [`analyze_query`] computes all of this without executing the
//! query.

use crate::error::EngineError;
use pi2_data::{Catalog, DataType};
use pi2_sql::ast::{
    is_aggregate_function, BinOp, Expr, Literal, Query, SelectItem, TableRef, UnaryOp,
};

/// The inferred type of an output column: either a fully-qualified base
/// table attribute (with its storage type) or a bare primitive.
#[derive(Debug, Clone, PartialEq, Eq)]
#[allow(missing_docs)] // inline variant fields are self-describing
pub enum ColType {
    /// Traces to base attribute `table.column`.
    /// The attr.
    Attr {
        table: String,
        column: String,
        dtype: DataType,
    },
    /// A computed value with no attribute provenance.
    Prim(DataType),
}

impl ColType {
    /// Dtype.
    pub fn dtype(&self) -> DataType {
        match self {
            ColType::Attr { dtype, .. } => *dtype,
            ColType::Prim(t) => *t,
        }
    }

    /// Fully-qualified attribute name `T.a`, if this is an attribute type.
    pub fn qualified_attr(&self) -> Option<String> {
        match self {
            ColType::Attr { table, column, .. } => Some(format!("{table}.{column}")),
            ColType::Prim(_) => None,
        }
    }
}

/// One output column of an analyzed query.
#[derive(Debug, Clone, PartialEq)]
pub struct OutCol {
    /// The name.
    pub name: String,
    /// The ty.
    pub ty: ColType,
    /// Whether this column is (or matches) a GROUP BY key.
    pub is_group_key: bool,
    /// Whether the column's values are known unique (candidate key).
    pub unique: bool,
    /// Estimated number of distinct values; `None` when unbounded/unknown.
    pub cardinality: Option<usize>,
}

/// Result of analyzing a query.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryInfo {
    /// The cols.
    pub cols: Vec<OutCol>,
    /// Whether the query aggregates (GROUP BY or aggregate projection).
    pub is_aggregate: bool,
    /// Indices of `cols` that are group keys.
    pub group_key_indices: Vec<usize>,
}

impl QueryInfo {
    /// §4.1: bar/line FD check — do the given columns functionally determine
    /// the rest of the row? True when the query is an aggregate and the
    /// columns include all group keys, or when one of them is unique.
    pub fn functionally_determines(&self, determinant_indices: &[usize]) -> bool {
        if self.is_aggregate
            && !self.group_key_indices.is_empty()
            && self
                .group_key_indices
                .iter()
                .all(|k| determinant_indices.contains(k))
        {
            return true;
        }
        determinant_indices
            .iter()
            .any(|&i| self.cols.get(i).is_some_and(|c| c.unique))
    }
}

/// A named relation visible inside a query (table alias or subquery alias).
#[derive(Debug, Clone)]
struct Binding {
    name: String,
    cols: Vec<OutCol>,
}

/// Analyze `query` against `catalog`.
pub fn analyze_query(query: &Query, catalog: &Catalog) -> Result<QueryInfo, EngineError> {
    analyze_with_outer(query, catalog, &[])
}

fn analyze_with_outer(
    query: &Query,
    catalog: &Catalog,
    outer: &[Binding],
) -> Result<QueryInfo, EngineError> {
    // Resolve FROM bindings.
    let mut bindings: Vec<Binding> = Vec::new();
    for tref in &query.from {
        match tref {
            TableRef::Table { name, alias } => {
                let meta = catalog.require_table(name)?;
                let cols = meta
                    .table
                    .schema
                    .columns
                    .iter()
                    .enumerate()
                    .map(|(i, c)| OutCol {
                        name: c.name.clone(),
                        ty: ColType::Attr {
                            table: meta.name.clone(),
                            column: c.name.clone(),
                            dtype: c.dtype,
                        },
                        is_group_key: false,
                        unique: meta.stats[i].unique
                            || meta.primary_key.len() == 1
                                && meta.primary_key[0].eq_ignore_ascii_case(&c.name),
                        cardinality: Some(meta.stats[i].distinct_count),
                    })
                    .collect();
                bindings.push(Binding {
                    name: alias.clone().unwrap_or_else(|| name.clone()),
                    cols,
                });
            }
            TableRef::Subquery { query: subq, alias } => {
                let info = analyze_with_outer(subq, catalog, outer)?;
                bindings.push(Binding {
                    name: alias.clone().unwrap_or_default(),
                    cols: info.cols,
                });
            }
        }
    }

    let scope = Scope {
        catalog,
        bindings: &bindings,
        outer,
    };

    // Which select items are group keys?
    let group_exprs = &query.group_by;
    let mut cols = Vec::new();
    let mut group_key_indices = Vec::new();
    for item in &query.select {
        match item {
            SelectItem::Star => {
                for b in &bindings {
                    for c in &b.cols {
                        cols.push(OutCol {
                            is_group_key: false,
                            ..c.clone()
                        });
                    }
                }
            }
            SelectItem::Expr { expr, alias } => {
                let mut col = scope.type_of(expr)?;
                col.name = alias.clone().unwrap_or_else(|| default_name(expr));
                col.is_group_key = group_exprs.iter().any(|g| exprs_match(g, expr));
                if col.is_group_key {
                    group_key_indices.push(cols.len());
                }
                cols.push(col);
            }
        }
    }

    let is_aggregate = query.is_aggregate();
    Ok(QueryInfo {
        cols,
        is_aggregate,
        group_key_indices,
    })
}

/// Structural match between a GROUP BY expression and a select expression,
/// tolerating qualification differences (`city` vs `s.city`).
fn exprs_match(a: &Expr, b: &Expr) -> bool {
    if a == b {
        return true;
    }
    match (a, b) {
        (Expr::Column { name: na, .. }, Expr::Column { name: nb, .. }) => {
            na.eq_ignore_ascii_case(nb)
        }
        _ => false,
    }
}

/// Output column name for an unaliased expression: bare column name,
/// function name, or the printed expression.
pub fn default_name(expr: &Expr) -> String {
    match expr {
        Expr::Column { name, .. } => name.clone(),
        Expr::Func { name, .. } => name.to_ascii_lowercase(),
        other => other.to_string(),
    }
}

struct Scope<'a> {
    catalog: &'a Catalog,
    bindings: &'a [Binding],
    outer: &'a [Binding],
}

impl Scope<'_> {
    fn lookup(&self, table: Option<&str>, name: &str) -> Option<OutCol> {
        let search = |bindings: &[Binding]| -> Option<OutCol> {
            match table {
                Some(t) => bindings
                    .iter()
                    .find(|b| b.name.eq_ignore_ascii_case(t))
                    .and_then(|b| {
                        b.cols
                            .iter()
                            .find(|c| c.name.eq_ignore_ascii_case(name))
                            .cloned()
                    }),
                None => bindings.iter().find_map(|b| {
                    b.cols
                        .iter()
                        .find(|c| c.name.eq_ignore_ascii_case(name))
                        .cloned()
                }),
            }
        };
        search(self.bindings).or_else(|| search(self.outer))
    }

    /// Infer the [`OutCol`] (type + provenance + stats) of an expression.
    fn type_of(&self, expr: &Expr) -> Result<OutCol, EngineError> {
        let prim = |t: DataType| OutCol {
            name: String::new(),
            ty: ColType::Prim(t),
            is_group_key: false,
            unique: false,
            cardinality: None,
        };
        match expr {
            Expr::Column { table, name } => self
                .lookup(table.as_deref(), name)
                .ok_or_else(|| EngineError::UnresolvedColumn(format!("{expr}"))),
            Expr::Literal(l) => Ok(match l {
                Literal::Int(_) => prim(DataType::Int),
                Literal::Float(_) => prim(DataType::Float),
                Literal::Str(_) => prim(DataType::Str),
                Literal::Bool(_) => OutCol {
                    cardinality: Some(2),
                    ..prim(DataType::Bool)
                },
                Literal::Null => prim(DataType::Str),
            }),
            Expr::Star => Ok(prim(DataType::Int)),
            Expr::Unary {
                op: UnaryOp::Not, ..
            } => Ok(OutCol {
                cardinality: Some(2),
                ..prim(DataType::Bool)
            }),
            Expr::Unary { expr, .. } => self.type_of(expr),
            Expr::Binary { left, op, right } => {
                if op.is_comparison() || op.is_logical() || *op == BinOp::Like {
                    Ok(OutCol {
                        cardinality: Some(2),
                        ..prim(DataType::Bool)
                    })
                } else {
                    // The types `eval::apply_binary` produces: a date moved
                    // by days stays a date, ints stay ints under `+ - *`,
                    // and everything else (`/` included) is a float.
                    let lt = self.type_of(left)?.ty.dtype();
                    let rt = self.type_of(right)?.ty.dtype();
                    Ok(prim(match (op, lt, rt) {
                        (BinOp::Add | BinOp::Sub, DataType::Date, _) => DataType::Date,
                        (BinOp::Add | BinOp::Sub | BinOp::Mul, DataType::Int, DataType::Int) => {
                            DataType::Int
                        }
                        _ => DataType::Float,
                    }))
                }
            }
            Expr::Between { .. }
            | Expr::IsNull { .. }
            | Expr::InList { .. }
            | Expr::InSubquery { .. } => Ok(OutCol {
                cardinality: Some(2),
                ..prim(DataType::Bool)
            }),
            Expr::Func { name, args } => {
                if name.eq_ignore_ascii_case("count") {
                    return Ok(prim(DataType::Int));
                }
                let arg_type = args
                    .first()
                    .filter(|a| !matches!(a, Expr::Star))
                    .map(|a| self.type_of(a))
                    .transpose()?;
                let arg_col = arg_type.clone();
                let dtype = self
                    .catalog
                    .function_return_type(name, arg_type.map(|c| c.ty.dtype()))
                    .ok_or_else(|| EngineError::BadFunction(name.clone()))?;
                // `sum` keeps an int argument's type and folds anything
                // else (bools, dates, strings) to a float.
                let dtype = if name.eq_ignore_ascii_case("sum") && dtype != DataType::Int {
                    DataType::Float
                } else {
                    dtype
                };
                // min/max preserve attribute provenance: their output values
                // come from the argument attribute's domain.
                if (name.eq_ignore_ascii_case("min") || name.eq_ignore_ascii_case("max"))
                    && is_aggregate_function(name)
                {
                    if let Some(OutCol {
                        ty:
                            ColType::Attr {
                                table,
                                column,
                                dtype,
                            },
                        ..
                    }) = arg_col
                    {
                        return Ok(OutCol {
                            name: String::new(),
                            ty: ColType::Attr {
                                table,
                                column,
                                dtype,
                            },
                            is_group_key: false,
                            unique: false,
                            cardinality: None,
                        });
                    }
                }
                Ok(prim(dtype))
            }
            Expr::ScalarSubquery(q) => {
                let info = analyze_with_outer(q, self.catalog, self.bindings)?;
                let col = info.cols.first().ok_or(EngineError::NonScalarSubquery)?;
                Ok(col.clone())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pi2_data::{Table, Value};
    use pi2_sql::parse_query;

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        let t = Table::from_rows(
            vec![
                ("p", DataType::Int),
                ("a", DataType::Int),
                ("b", DataType::Str),
                ("d", DataType::Date),
            ],
            vec![
                vec![
                    Value::Int(1),
                    Value::Int(10),
                    Value::Str("x".into()),
                    Value::Date(0),
                ],
                vec![
                    Value::Int(2),
                    Value::Int(20),
                    Value::Str("y".into()),
                    Value::Date(1),
                ],
                // a repeats so the non-key column is observably non-unique.
                vec![
                    Value::Int(3),
                    Value::Int(20),
                    Value::Str("y".into()),
                    Value::Date(2),
                ],
            ],
        )
        .unwrap();
        c.add_table("T", t, vec!["p"]);
        c
    }

    fn analyze(sql: &str) -> QueryInfo {
        analyze_query(&parse_query(sql).unwrap(), &catalog()).unwrap()
    }

    #[test]
    fn plain_projection_has_attribute_provenance() {
        let info = analyze("SELECT a, b FROM T");
        assert_eq!(info.cols.len(), 2);
        assert_eq!(
            info.cols[0].ty,
            ColType::Attr {
                table: "T".into(),
                column: "a".into(),
                dtype: DataType::Int
            }
        );
        assert_eq!(info.cols[0].ty.qualified_attr().unwrap(), "T.a");
        assert!(!info.is_aggregate);
    }

    #[test]
    fn count_star_is_int_aggregate() {
        let info = analyze("SELECT a, count(*) FROM T GROUP BY a");
        assert!(info.is_aggregate);
        assert_eq!(info.cols[1].name, "count");
        assert_eq!(info.cols[1].ty, ColType::Prim(DataType::Int));
        assert!(info.cols[0].is_group_key);
        assert_eq!(info.group_key_indices, vec![0]);
    }

    #[test]
    fn aliases_win_over_default_names() {
        let info = analyze("SELECT sum(a) AS total FROM T");
        assert_eq!(info.cols[0].name, "total");
        assert_eq!(info.cols[0].ty, ColType::Prim(DataType::Int));
        assert!(info.is_aggregate);
    }

    #[test]
    fn avg_is_float() {
        let info = analyze("SELECT avg(a) FROM T");
        assert_eq!(info.cols[0].ty, ColType::Prim(DataType::Float));
    }

    #[test]
    fn aliased_tables_resolve() {
        let info = analyze("SELECT t1.a FROM T AS t1");
        assert_eq!(info.cols[0].ty.qualified_attr().unwrap(), "T.a");
    }

    #[test]
    fn star_expands_all_columns() {
        let info = analyze("SELECT * FROM T");
        assert_eq!(info.cols.len(), 4);
        assert_eq!(info.cols[3].ty.dtype(), DataType::Date);
    }

    #[test]
    fn subquery_in_from_propagates_provenance() {
        let info = analyze("SELECT x FROM (SELECT a AS x FROM T) AS sq");
        assert_eq!(info.cols[0].ty.qualified_attr().unwrap(), "T.a");
        assert_eq!(info.cols[0].name, "x");
    }

    #[test]
    fn boolean_expressions_are_low_cardinality() {
        let info = analyze("SELECT a IN (1, 2) AS color FROM T");
        assert_eq!(info.cols[0].ty, ColType::Prim(DataType::Bool));
        assert_eq!(info.cols[0].cardinality, Some(2));
        assert_eq!(info.cols[0].name, "color");
    }

    #[test]
    fn unresolved_column_errors() {
        let err = analyze_query(&parse_query("SELECT zzz FROM T").unwrap(), &catalog());
        assert!(matches!(err, Err(EngineError::UnresolvedColumn(_))));
    }

    #[test]
    fn primary_key_columns_are_unique() {
        let info = analyze("SELECT p, a FROM T");
        assert!(info.cols[0].unique);
        assert!(!info.cols[1].unique);
    }

    #[test]
    fn fd_determination_for_group_by() {
        let info = analyze("SELECT a, count(*) FROM T GROUP BY a");
        assert!(info.functionally_determines(&[0]));
        assert!(!info.functionally_determines(&[1]));
    }

    #[test]
    fn fd_determination_via_uniqueness() {
        let info = analyze("SELECT p, a FROM T");
        assert!(info.functionally_determines(&[0]));
        assert!(!info.functionally_determines(&[1]));
    }

    #[test]
    fn group_key_matches_qualified_names() {
        let info = analyze("SELECT t1.a, count(*) FROM T AS t1 GROUP BY a");
        assert!(info.cols[0].is_group_key);
    }

    #[test]
    fn min_max_preserve_attribute_provenance() {
        let info = analyze("SELECT max(a) FROM T");
        assert_eq!(info.cols[0].ty.qualified_attr().unwrap(), "T.a");
        let info = analyze("SELECT sum(a) FROM T");
        assert_eq!(info.cols[0].ty.qualified_attr(), None);
    }

    #[test]
    fn correlated_having_subquery_resolves_outer_alias() {
        let mut c = catalog();
        let sales = Table::from_rows(
            vec![
                ("city", DataType::Str),
                ("product", DataType::Str),
                ("total", DataType::Float),
            ],
            vec![],
        )
        .unwrap();
        c.add_table("sales", sales, vec![]);
        let q = parse_query(
            "SELECT city, product, sum(total) FROM sales AS ss GROUP BY city, product \
             HAVING sum(total) >= (SELECT max(t) FROM (SELECT sum(total) AS t FROM sales AS s \
             WHERE s.city = ss.city GROUP BY s.city, s.product) AS m)",
        )
        .unwrap();
        let info = analyze_query(&q, &c).unwrap();
        assert_eq!(info.cols.len(), 3);
        assert_eq!(info.group_key_indices, vec![0, 1]);
    }
}
