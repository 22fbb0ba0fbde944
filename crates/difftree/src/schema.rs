//! Result schemas (§3.2.2).
//!
//! A Difftree's *result schema* describes its output table. It is defined
//! when all expressible ASTs are union-compatible; we compute it over the
//! resolved input queries the tree expresses, which is exactly the set the
//! paper's guarantee quantifies over.
//!
//! The paper's *node schemas* (§3.2.3) are used only in the flattened,
//! operational form `pi2-interface`'s `flat` module gives them.

use crate::types::{AttrId, AttrTable};
use pi2_data::DataType;
use pi2_engine::{ColType, QueryInfo};

/// One column of a Difftree's result schema: the union of the corresponding
/// columns across all expressible (input) queries.
#[derive(Debug, Clone, PartialEq)]
pub struct ResultCol {
    /// Unique attribute names, concatenated for display (`{T.a ∪ T.p}`).
    pub names: Vec<String>,
    /// Unioned storage type.
    pub dtype: DataType,
    /// Source attributes across all queries, sorted and deduplicated.
    pub attrs: Vec<AttrId>,
    /// Group key in every expressible query.
    pub is_group_key: bool,
    /// Unique in every expressible query.
    pub unique: bool,
    /// Maximum estimated cardinality; `None` when unbounded.
    pub cardinality: Option<usize>,
}

impl ResultCol {
    /// Display name.
    pub fn display_name(&self) -> String {
        self.names.join("∪")
    }

    /// §4.1 compatibility: quantitative visual variables accept numeric
    /// columns.
    pub fn is_quantitative(&self) -> bool {
        self.dtype.is_numeric() && self.dtype != DataType::Bool
    }

    /// §4.1 compatibility: categorical visual variables accept str and num
    /// columns whose cardinality is below 20.
    pub fn is_categorical(&self) -> bool {
        self.cardinality.is_some_and(|c| c > 0 && c < 20)
    }
}

/// A Difftree's result schema plus the aggregate structure shared by its
/// expressible queries.
#[derive(Debug, Clone, PartialEq)]
pub struct ResultSchema {
    /// The unioned output columns.
    pub cols: Vec<ResultCol>,
    /// Every expressible query aggregates.
    pub is_aggregate: bool,
    /// Column indices forming the shared group key (empty if queries disagree).
    pub group_key_indices: Vec<usize>,
}

impl ResultSchema {
    /// §4.1 FD check, delegated to the per-query structure: do the given
    /// columns functionally determine the rest?
    pub fn functionally_determines(&self, determinants: &[usize]) -> bool {
        if self.is_aggregate
            && !self.group_key_indices.is_empty()
            && self
                .group_key_indices
                .iter()
                .all(|k| determinants.contains(k))
        {
            return true;
        }
        determinants
            .iter()
            .any(|&i| self.cols.get(i).is_some_and(|c| c.unique))
    }
}

/// Whether the analyzed schemas union (§3.2.2): at least one query, one
/// arity, and a common storage type per column. [`result_schema`] is
/// `Some` exactly when this holds.
pub fn union_compatible(infos: &[&QueryInfo]) -> bool {
    arity(infos).is_some_and(|n| (0..n).all(|i| column_dtype(infos, i).is_some()))
}

/// The queries' common arity.
fn arity(infos: &[&QueryInfo]) -> Option<usize> {
    let n = infos.first()?.cols.len();
    infos.iter().all(|i| i.cols.len() == n).then_some(n)
}

/// The unioned storage type of column `i`.
fn column_dtype(infos: &[&QueryInfo], i: usize) -> Option<DataType> {
    let (first, rest) = infos.split_first()?;
    rest.iter().try_fold(first.cols[i].ty.dtype(), |d, info| {
        d.union(info.cols[i].ty.dtype())
    })
}

/// Union the analyzed schemas of every query a Difftree expresses
/// (§3.2.2), with source attributes interned through `attrs`. Returns
/// `None` when they are not union-compatible.
pub fn result_schema(infos: &[&QueryInfo], attrs: &AttrTable) -> Option<ResultSchema> {
    let first = infos.first()?;
    let arity = arity(infos)?;
    let mut cols = Vec::with_capacity(arity);
    for i in 0..arity {
        let dtype = column_dtype(infos, i)?;
        let mut names: Vec<String> = Vec::new();
        let mut ids: Vec<AttrId> = Vec::new();
        let mut is_group_key = true;
        let mut unique = true;
        let mut cardinality: Option<usize> = Some(0);
        for info in infos {
            let c = &info.cols[i];
            if !names.contains(&c.name) {
                names.push(c.name.clone());
            }
            if let ColType::Attr { table, column, .. } = &c.ty {
                if let Some(id) = attrs.lookup(table, column) {
                    if let Err(at) = ids.binary_search(&id) {
                        ids.insert(at, id);
                    }
                }
            }
            is_group_key &= c.is_group_key;
            unique &= c.unique;
            cardinality = match (cardinality, c.cardinality) {
                (Some(a), Some(b)) => Some(a.max(b)),
                _ => None,
            };
        }
        cols.push(ResultCol {
            names,
            dtype,
            attrs: ids,
            is_group_key,
            unique,
            cardinality,
        });
    }
    let is_aggregate = infos.iter().all(|i| i.is_aggregate);
    // Group keys must agree across queries for the FD inference to hold.
    let group_key_indices = if infos
        .iter()
        .all(|i| i.group_key_indices == first.group_key_indices)
    {
        first.group_key_indices.clone()
    } else {
        vec![]
    };
    Some(ResultSchema {
        cols,
        is_aggregate,
        group_key_indices,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pi2_data::{Catalog, Table, Value};
    use pi2_engine::analyze_query;
    use pi2_sql::parse_query;

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        let t = Table::from_rows(
            vec![
                ("p", DataType::Int),
                ("a", DataType::Int),
                ("b", DataType::Int),
            ],
            vec![
                vec![Value::Int(1), Value::Int(10), Value::Int(7)],
                vec![Value::Int(2), Value::Int(20), Value::Int(8)],
            ],
        )
        .unwrap();
        c.add_table("T", t, vec!["p"]);
        c
    }

    #[test]
    fn result_schema_unions_names_and_types() {
        let cat = catalog();
        let q1 = analyze_query(
            &parse_query("SELECT p, count(*) FROM T GROUP BY p").unwrap(),
            &cat,
        )
        .unwrap();
        let q2 = analyze_query(
            &parse_query("SELECT a, count(*) FROM T GROUP BY a").unwrap(),
            &cat,
        )
        .unwrap();
        let attrs = AttrTable::new(&cat);
        let rs = result_schema(&[&q1, &q2], &attrs).unwrap();
        assert_eq!(rs.cols.len(), 2);
        assert_eq!(rs.cols[0].display_name(), "p∪a");
        let sources: Vec<&str> = rs.cols[0]
            .attrs
            .iter()
            .map(|&a| attrs.get(a).column.as_str())
            .collect();
        assert_eq!(sources, ["a", "p"]);
        assert!(rs.cols[1].attrs.is_empty());
        assert!(rs.is_aggregate);
        assert_eq!(rs.group_key_indices, vec![0]);
        assert!(rs.functionally_determines(&[0]));
    }

    #[test]
    fn incompatible_schemas_are_undefined() {
        let cat = catalog();
        let q1 = analyze_query(&parse_query("SELECT p FROM T").unwrap(), &cat).unwrap();
        let q2 = analyze_query(&parse_query("SELECT p, a FROM T").unwrap(), &cat).unwrap();
        let attrs = AttrTable::new(&cat);
        assert!(result_schema(&[&q1, &q2], &attrs).is_none());
        assert!(!union_compatible(&[&q1, &q2]));
        assert!(union_compatible(&[&q1, &q1]));
        assert!(!union_compatible(&[]));
        // Str vs Int is also incompatible.
        let mut c2 = Catalog::new();
        let t = Table::from_rows(vec![("s", DataType::Str)], vec![]).unwrap();
        c2.add_table("U", t, vec![]);
        let q3 = analyze_query(&parse_query("SELECT s FROM U").unwrap(), &c2).unwrap();
        assert!(result_schema(&[&q1, &q3], &AttrTable::new(&c2)).is_none());
        assert!(!union_compatible(&[&q1, &q3]));
    }

    #[test]
    fn result_schema_categorical_and_quantitative() {
        let cat = catalog();
        let info = analyze_query(
            &parse_query("SELECT a, count(*) FROM T GROUP BY a").unwrap(),
            &cat,
        )
        .unwrap();
        let rs = result_schema(&[&info], &AttrTable::new(&cat)).unwrap();
        assert!(rs.cols[0].is_categorical()); // 2 distinct values
        assert!(rs.cols[0].is_quantitative()); // ints are also quantitative
        assert!(!rs.cols[1].is_categorical()); // counts are unbounded
        assert!(rs.cols[1].is_quantitative());
    }
}
