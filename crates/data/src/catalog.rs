//! The database catalogue.
//!
//! PI2 consults the catalogue for: fully-qualified attribute resolution and
//! domains (§3.2.1 type inference), function return types, cardinality
//! statistics (§4.1), and primary keys for functional-dependency checks
//! (Table 1 constraints).

use crate::error::DataError;
use crate::stats::ColumnStats;
use crate::table::Table;
use crate::types::DataType;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Metadata + data for one base table.
#[derive(Debug, Clone)]
pub struct TableMeta {
    /// The name.
    pub name: String,
    /// The table.
    pub table: Table,
    /// Column names forming the primary key (may be empty).
    pub primary_key: Vec<String>,
    /// Per-column statistics, parallel to `table.schema.columns`.
    pub stats: Vec<ColumnStats>,
}

/// Return-type signature for a SQL function known to the catalogue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FunctionSig {
    /// Always returns the given type (e.g. `count` → int).
    Fixed(DataType),
    /// Returns the type of its first argument (e.g. `min`, `max`, `sum`).
    SameAsArg,
    /// Numeric aggregate that returns float (e.g. `avg`).
    Float,
}

/// The rows one table gained in a single append, relative to a known base.
#[derive(Debug, Clone)]
pub struct TableDelta {
    /// Row count of the table *before* the append.
    pub base_rows: usize,
    /// The appended rows as a standalone (flat) table chunk.
    pub rows: Arc<Table>,
}

/// What changed between a catalogue version and its predecessor — enough
/// for incremental view maintenance to execute only the delta and for
/// caches to carry entries forward across an append that missed them.
#[derive(Debug, Clone)]
pub struct CatalogDelta {
    /// Fingerprint of the catalogue this delta was applied to.
    pub prev_fingerprint: u64,
    /// Epoch of the catalogue carrying this delta (predecessor epoch + 1).
    pub epoch: u64,
    /// Per-table appended rows, keyed by lowercased table name.
    pub tables: BTreeMap<String, TableDelta>,
}

/// An in-memory database catalogue: tables plus function signatures.
#[derive(Debug, Clone, Default)]
pub struct Catalog {
    tables: BTreeMap<String, TableMeta>,
    functions: BTreeMap<String, FunctionSig>,
    /// Cheap content fingerprint (names, schemas, row counts, domains) used
    /// to key cross-catalogue caches such as the executor's result cache.
    fingerprint: u64,
    /// Monotone append counter; bumped by [`Catalog::append_rows`] and
    /// folded into the fingerprint so every memo keyed on it invalidates
    /// for free.
    epoch: u64,
    /// What the latest [`Catalog::append_rows`] changed, or `None` when
    /// this catalogue version was not produced by an append.
    delta: Option<Arc<CatalogDelta>>,
}

impl Catalog {
    /// An empty catalogue pre-populated with the standard function library.
    pub fn new() -> Self {
        let mut c = Catalog {
            tables: BTreeMap::new(),
            functions: BTreeMap::new(),
            fingerprint: 0,
            epoch: 0,
            delta: None,
        };
        c.register_function("count", FunctionSig::Fixed(DataType::Int));
        c.register_function("sum", FunctionSig::SameAsArg);
        c.register_function("min", FunctionSig::SameAsArg);
        c.register_function("max", FunctionSig::SameAsArg);
        c.register_function("avg", FunctionSig::Float);
        c.register_function("abs", FunctionSig::SameAsArg);
        c.register_function("date", FunctionSig::Fixed(DataType::Date));
        c.register_function("today", FunctionSig::Fixed(DataType::Date));
        c
    }

    /// Register (or replace) a table, computing its statistics.
    pub fn add_table(&mut self, name: impl Into<String>, table: Table, primary_key: Vec<&str>) {
        let name = name.into();
        let stats = (0..table.num_columns())
            .map(|i| ColumnStats::compute(&table, i))
            .collect();
        let meta = TableMeta {
            name: name.clone(),
            table,
            primary_key: primary_key.into_iter().map(|s| s.to_string()).collect(),
            stats,
        };
        // Update the content fingerprint. Process-global caches (executed
        // results, mapping artifacts, type inference) key on it, so it must
        // distinguish catalogues by *data*, not just by schema summaries —
        // hash every cell. add_table already scans the table for statistics,
        // so this stays a constant number of passes over the data.
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        self.fingerprint.hash(&mut h);
        meta.name.hash(&mut h);
        meta.table.num_rows().hash(&mut h);
        for (i, c) in meta.table.schema.columns.iter().enumerate() {
            c.name.hash(&mut h);
            format!("{}", c.dtype).hash(&mut h);
            if let Some(stat) = meta.stats.get(i) {
                stat.distinct_count.hash(&mut h);
                if let (Some(min), Some(max)) = (&stat.min, &stat.max) {
                    min.hash(&mut h);
                    max.hash(&mut h);
                }
            }
        }
        for i in 0..meta.table.num_columns() {
            meta.table.col(i).hash_content(&mut h);
        }
        meta.primary_key.hash(&mut h);
        self.fingerprint = h.finish();
        // A wholesale (re)registration is not an append: deltas describe a
        // single append step and this isn't one.
        self.delta = None;
        self.tables.insert(name.to_ascii_lowercase(), meta);
    }

    /// Append `delta` rows to table `name`, returning the *next* catalogue
    /// version. The receiver is untouched (readers keep scanning their
    /// snapshot); the new version shares all existing chunk storage by
    /// `Arc`. A delta whose column count or types differ from the table's
    /// is rejected.
    ///
    /// Everything here costs O(appended rows) plus O(chunks + distinct
    /// values retained in the statistics), whatever the table's size: the
    /// delta is stored like the table stores its columns
    /// ([`Table::conform`]), its statistics are computed on its own and
    /// merged, the base's row and non-null counts come from per-chunk
    /// metadata, and only the delta's content is folded into the
    /// fingerprint. The table's consolidated flat view is never built
    /// here; see [`Table`]'s storage notes for which *queries* still build
    /// it, once per catalogue version. The fingerprint fold is
    /// content-based — two catalogues that apply identical appends
    /// converge to identical fingerprints, so every memo keyed on the
    /// fingerprint treats equal data as one catalogue.
    pub fn append_rows(&self, name: &str, delta: Table) -> Result<Catalog, DataError> {
        let meta = self.require_table(name)?;
        if delta.num_columns() != meta.table.num_columns() {
            return Err(DataError::ArityMismatch {
                expected: meta.table.num_columns(),
                found: delta.num_columns(),
            });
        }
        let delta = meta.table.conform(&delta);
        let base_rows = meta.table.num_rows();
        let appended = meta
            .table
            .append_table(&delta, crate::table::chunk_rows())?;
        // Per-column stats: one pass over the appended rows, then an
        // O(distinct) merge.
        let delta_stats: Vec<ColumnStats> = (0..delta.num_columns())
            .map(|i| ColumnStats::compute(&delta, i))
            .collect();
        let stats: Vec<ColumnStats> = meta
            .stats
            .iter()
            .zip(delta_stats.iter())
            .enumerate()
            .map(|(i, (base, extra))| {
                base.merge(extra, meta.table.non_null_count(i), delta.non_null_count(i))
            })
            .collect();
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        self.fingerprint.hash(&mut h);
        (self.epoch + 1).hash(&mut h);
        "append".hash(&mut h);
        let key = name.to_ascii_lowercase();
        key.hash(&mut h);
        appended.num_rows().hash(&mut h);
        for i in 0..delta.num_columns() {
            delta.col(i).hash_content(&mut h);
        }
        let mut next = self.clone();
        next.fingerprint = h.finish();
        next.epoch = self.epoch + 1;
        let delta = Arc::new(delta);
        next.delta = Some(Arc::new(CatalogDelta {
            prev_fingerprint: self.fingerprint,
            epoch: next.epoch,
            tables: BTreeMap::from([(
                key.clone(),
                TableDelta {
                    base_rows,
                    rows: Arc::clone(&delta),
                },
            )]),
        }));
        let slot = next.tables.get_mut(&key).expect("checked above");
        slot.table = appended;
        slot.stats = stats;
        Ok(next)
    }

    /// The catalogue's content fingerprint.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// The append epoch: 0 at registration, +1 per [`Catalog::append_rows`].
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// What the latest append changed, when this version came from one.
    pub fn delta(&self) -> Option<&Arc<CatalogDelta>> {
        self.delta.as_ref()
    }

    /// Case-insensitive table lookup.
    pub fn table(&self, name: &str) -> Option<&TableMeta> {
        self.tables.get(&name.to_ascii_lowercase())
    }

    /// Require table.
    pub fn require_table(&self, name: &str) -> Result<&TableMeta, DataError> {
        self.table(name)
            .ok_or_else(|| DataError::UnknownTable(name.to_string()))
    }

    /// Table names.
    pub fn table_names(&self) -> impl Iterator<Item = &str> {
        self.tables.values().map(|m| m.name.as_str())
    }

    /// Look up the type of `table.column`; `None` if either is unknown.
    pub fn column_type(&self, table: &str, column: &str) -> Option<DataType> {
        let meta = self.table(table)?;
        let idx = meta.table.schema.index_of(column)?;
        Some(meta.table.schema.columns[idx].dtype)
    }

    /// Statistics for `table.column`.
    pub fn column_stats(&self, table: &str, column: &str) -> Option<&ColumnStats> {
        let meta = self.table(table)?;
        let idx = meta.table.schema.index_of(column)?;
        meta.stats.get(idx)
    }

    /// Find the unique table containing an unqualified column name. Errors
    /// with `AmbiguousColumn` when several candidate tables define it.
    pub fn resolve_column(&self, column: &str) -> Result<(&TableMeta, usize), DataError> {
        let mut hit: Option<(&TableMeta, usize)> = None;
        for meta in self.tables.values() {
            if let Some(idx) = meta.table.schema.index_of(column) {
                if hit.is_some() {
                    return Err(DataError::AmbiguousColumn(column.to_string()));
                }
                hit = Some((meta, idx));
            }
        }
        hit.ok_or_else(|| DataError::UnknownColumn(column.to_string()))
    }

    /// Whether `columns` is a superset of some table's primary key — i.e.
    /// the projection is functionally determined by those columns.
    pub fn covers_primary_key(&self, table: &str, columns: &[&str]) -> bool {
        let Some(meta) = self.table(table) else {
            return false;
        };
        if meta.primary_key.is_empty() {
            return false;
        }
        meta.primary_key
            .iter()
            .all(|k| columns.iter().any(|c| c.eq_ignore_ascii_case(k)))
    }

    /// Register function.
    pub fn register_function(&mut self, name: &str, sig: FunctionSig) {
        // Function signatures feed type inference, whose results are cached
        // by catalogue fingerprint — fold registrations in too.
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        self.fingerprint.hash(&mut h);
        name.to_ascii_lowercase().hash(&mut h);
        format!("{sig:?}").hash(&mut h);
        self.fingerprint = h.finish();
        self.delta = None;
        self.functions.insert(name.to_ascii_lowercase(), sig);
    }

    /// Function.
    pub fn function(&self, name: &str) -> Option<FunctionSig> {
        self.functions.get(&name.to_ascii_lowercase()).copied()
    }

    /// Return type of `name(arg_type)` per the signature registry; `None`
    /// when the function is unknown.
    pub fn function_return_type(&self, name: &str, arg_type: Option<DataType>) -> Option<DataType> {
        match self.function(name)? {
            FunctionSig::Fixed(t) => Some(t),
            FunctionSig::SameAsArg => arg_type,
            FunctionSig::Float => Some(DataType::Float),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;

    fn catalog_with_t() -> Catalog {
        let mut c = Catalog::new();
        let t = Table::from_rows(
            vec![
                ("p", DataType::Int),
                ("a", DataType::Int),
                ("b", DataType::Int),
            ],
            vec![
                vec![Value::Int(1), Value::Int(10), Value::Int(100)],
                vec![Value::Int(2), Value::Int(20), Value::Int(200)],
            ],
        )
        .unwrap();
        c.add_table("T", t, vec!["p"]);
        c
    }

    #[test]
    fn lookup_is_case_insensitive() {
        let c = catalog_with_t();
        assert!(c.table("t").is_some());
        assert!(c.table("T").is_some());
        assert_eq!(c.table("T").unwrap().name, "T");
    }

    #[test]
    fn column_types_and_stats() {
        let c = catalog_with_t();
        assert_eq!(c.column_type("T", "a"), Some(DataType::Int));
        assert_eq!(c.column_type("T", "zzz"), None);
        let s = c.column_stats("t", "a").unwrap();
        assert_eq!(s.min, Some(Value::Int(10)));
        assert_eq!(s.max, Some(Value::Int(20)));
    }

    #[test]
    fn resolve_unqualified_column() {
        let c = catalog_with_t();
        let (meta, idx) = c.resolve_column("b").unwrap();
        assert_eq!(meta.name, "T");
        assert_eq!(idx, 2);
        assert_eq!(
            c.resolve_column("missing").unwrap_err(),
            DataError::UnknownColumn("missing".into())
        );
    }

    #[test]
    fn ambiguous_column_detected() {
        let mut c = catalog_with_t();
        let u = Table::from_rows(vec![("a", DataType::Int)], vec![]).unwrap();
        c.add_table("U", u, vec![]);
        assert_eq!(
            c.resolve_column("a").unwrap_err(),
            DataError::AmbiguousColumn("a".into())
        );
    }

    #[test]
    fn primary_key_coverage() {
        let c = catalog_with_t();
        assert!(c.covers_primary_key("T", &["p", "a"]));
        assert!(!c.covers_primary_key("T", &["a"]));
        assert!(!c.covers_primary_key("missing", &["p"]));
    }

    fn delta_rows(vals: &[(i64, i64, i64)]) -> Table {
        Table::from_rows(
            vec![
                ("p", DataType::Int),
                ("a", DataType::Int),
                ("b", DataType::Int),
            ],
            vals.iter()
                .map(|(p, a, b)| vec![Value::Int(*p), Value::Int(*a), Value::Int(*b)])
                .collect(),
        )
        .unwrap()
    }

    #[test]
    fn append_rows_is_functional_and_bumps_epoch() {
        let c0 = catalog_with_t();
        assert_eq!(c0.epoch(), 0);
        assert!(c0.delta().is_none());
        let c1 = c0.append_rows("t", delta_rows(&[(3, 30, 300)])).unwrap();
        assert_eq!(c0.table("T").unwrap().table.num_rows(), 2, "base untouched");
        assert_eq!(c1.table("T").unwrap().table.num_rows(), 3);
        assert_eq!(c1.epoch(), 1);
        assert_ne!(c0.fingerprint(), c1.fingerprint());
        let d = c1.delta().expect("append records a delta");
        assert_eq!(d.prev_fingerprint, c0.fingerprint());
        assert_eq!(d.tables["t"].base_rows, 2);
        assert_eq!(d.tables["t"].rows.num_rows(), 1);
    }

    #[test]
    fn append_rows_rejects_a_mistyped_delta() {
        let c0 = catalog_with_t();
        for (dtype, cell) in [
            (DataType::Str, Value::Str("x".into())),
            (DataType::Float, Value::Float(1.5)),
        ] {
            let delta = Table::from_rows(
                vec![("p", DataType::Int), ("a", DataType::Int), ("b", dtype)],
                vec![vec![Value::Int(3), Value::Int(30), cell]],
            )
            .unwrap();
            let err = c0.append_rows("T", delta).unwrap_err();
            assert_eq!(
                err,
                DataError::TypeMismatch {
                    expected: "int".into(),
                    found: dtype.to_string()
                }
            );
        }
        // Nothing moved: the next append is still epoch 1 over the same
        // fingerprint, and the column keeps its typed storage.
        let c1 = c0.append_rows("T", delta_rows(&[(3, 30, 300)])).unwrap();
        assert_eq!(c1.epoch(), 1);
        assert_eq!(c1.delta().unwrap().prev_fingerprint, c0.fingerprint());
        let t = &c1.table("T").unwrap().table;
        assert!(matches!(t.col(2), crate::ColumnData::Int64 { .. }));
    }

    #[test]
    fn append_fingerprint_is_content_deterministic() {
        // Two copies applying the same append to the same catalogue must
        // converge — the shared memos key on the fingerprint.
        let a = catalog_with_t()
            .append_rows("T", delta_rows(&[(3, 30, 300)]))
            .unwrap();
        let b = catalog_with_t()
            .append_rows("T", delta_rows(&[(3, 30, 300)]))
            .unwrap();
        assert_eq!(a.fingerprint(), b.fingerprint());
        let c = catalog_with_t()
            .append_rows("T", delta_rows(&[(3, 31, 300)]))
            .unwrap();
        assert_ne!(a.fingerprint(), c.fingerprint());
    }

    #[test]
    fn append_merges_stats_incrementally() {
        let c = catalog_with_t()
            .append_rows("T", delta_rows(&[(3, 5, 300), (4, 20, 999)]))
            .unwrap();
        let s = c.column_stats("T", "a").unwrap();
        assert_eq!(s.min, Some(Value::Int(5)));
        assert_eq!(s.max, Some(Value::Int(20)));
        assert_eq!(s.distinct_count, 3, "10, 20, 5 — 20 repeats");
        assert!(!s.unique);
        let p = c.column_stats("T", "p").unwrap();
        assert!(p.unique, "primary key stays unique through the merge");
        assert_eq!(p.distinct_count, 4);
    }

    #[test]
    fn appends_read_chunk_metadata_not_the_flat_view() {
        // A dictionary-encoded base, plain-string deltas (the wire form):
        // no catalogue version ever consolidates its table, deltas are
        // recorded dictionary-encoded, and the merged statistics still
        // see every row.
        let labels = ["x", "y", "z"];
        let base = Table::from_columns(
            crate::Schema::new(vec![crate::Column::new("k", DataType::Str)]),
            vec![crate::ColumnData::strs_dict(
                (0..9_000).map(|i| labels[i % 3].to_string()).collect(),
            )],
        )
        .unwrap();
        let mut c = Catalog::new();
        c.add_table("L", base, vec![]);
        let mut versions = vec![c];
        for k in ["y", "w", "x"] {
            let delta = Table::from_rows(
                vec![("k", DataType::Str)],
                vec![vec![Value::Str(k.into())], vec![Value::Null]],
            )
            .unwrap();
            let next = versions.last().unwrap().append_rows("L", delta).unwrap();
            let recorded = &next.delta().unwrap().tables["l"].rows;
            assert!(recorded.col(0).dict_parts().is_some());
            versions.push(next);
        }
        for v in &versions[1..] {
            assert!(!v.table("L").unwrap().table.has_flat_view());
        }
        let last = versions.last().unwrap();
        assert_eq!(last.table("L").unwrap().table.non_null_count(0), 9_003);
        assert_eq!(last.column_stats("L", "k").unwrap().distinct_count, 4);
    }

    #[test]
    fn append_validates_table_and_arity() {
        let c = catalog_with_t();
        assert!(c.append_rows("missing", delta_rows(&[])).is_err());
        let narrow = Table::from_rows(vec![("p", DataType::Int)], vec![]).unwrap();
        assert_eq!(
            c.append_rows("T", narrow).unwrap_err(),
            DataError::ArityMismatch {
                expected: 3,
                found: 1
            }
        );
    }

    #[test]
    fn registration_clears_the_delta() {
        let mut c1 = catalog_with_t()
            .append_rows("T", delta_rows(&[(3, 30, 300)]))
            .unwrap();
        assert!(c1.delta().is_some());
        let u = Table::from_rows(vec![("z", DataType::Int)], vec![]).unwrap();
        c1.add_table("U", u, vec![]);
        assert!(c1.delta().is_none(), "add_table is not an append");
    }

    #[test]
    fn function_signatures() {
        let c = Catalog::new();
        assert_eq!(c.function_return_type("COUNT", None), Some(DataType::Int));
        assert_eq!(
            c.function_return_type("sum", Some(DataType::Float)),
            Some(DataType::Float)
        );
        assert_eq!(
            c.function_return_type("avg", Some(DataType::Int)),
            Some(DataType::Float)
        );
        assert_eq!(c.function_return_type("today", None), Some(DataType::Date));
        assert_eq!(c.function_return_type("nope", None), None);
    }
}
