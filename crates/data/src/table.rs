//! In-memory relational tables over typed columnar storage.

use crate::column::{f64_ord_key, ColumnData};
use crate::error::DataError;
use crate::types::DataType;
use crate::value::Value;
use std::fmt;
use std::sync::{Arc, OnceLock};

/// Default append-chunk granularity (rows per chunk).
pub const DEFAULT_CHUNK_ROWS: usize = 65_536;

/// Appends smaller than this coalesce into the tail chunk instead of
/// starting a new one, so high-frequency single-row appends cannot grow
/// the chunk list unboundedly. The copy this implies is bounded by
/// `min(chunk_rows, COALESCE_CAP)` rows.
const COALESCE_CAP: usize = 4_096;

/// The configured append-chunk granularity: `PI2_CHUNK_ROWS` (clamped to
/// at least 16), default [`DEFAULT_CHUNK_ROWS`]. Read once per process.
pub fn chunk_rows() -> usize {
    static ROWS: OnceLock<usize> = OnceLock::new();
    *ROWS.get_or_init(|| {
        std::env::var("PI2_CHUNK_ROWS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .map(|n| n.max(16))
            .unwrap_or(DEFAULT_CHUNK_ROWS)
    })
}

/// A named, typed output column.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Column {
    /// The name.
    pub name: String,
    /// The dtype.
    pub dtype: DataType,
}

impl Column {
    /// New.
    pub fn new(name: impl Into<String>, dtype: DataType) -> Self {
        Column {
            name: name.into(),
            dtype,
        }
    }
}

/// An ordered list of columns.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Schema {
    /// The columns.
    pub columns: Vec<Column>,
}

impl Schema {
    /// New.
    pub fn new(columns: Vec<Column>) -> Self {
        Schema { columns }
    }

    /// Len.
    pub fn len(&self) -> usize {
        self.columns.len()
    }

    /// Is empty.
    pub fn is_empty(&self) -> bool {
        self.columns.is_empty()
    }

    /// Case-insensitive lookup of a column index by (optionally unqualified)
    /// name.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.columns
            .iter()
            .position(|c| c.name.eq_ignore_ascii_case(name))
    }

    /// Column.
    pub fn column(&self, idx: usize) -> Option<&Column> {
        self.columns.get(idx)
    }

    /// Names.
    pub fn names(&self) -> Vec<&str> {
        self.columns.iter().map(|c| c.name.as_str()).collect()
    }
}

/// A row of values; arity always matches the owning table's schema.
pub type Row = Vec<Value>;

/// `Ok` when `found` agrees with the schema's column types position by
/// position; otherwise the first disagreement.
fn check_types(schema: &Schema, found: impl Iterator<Item = DataType>) -> Result<(), DataError> {
    match schema
        .columns
        .iter()
        .zip(found)
        .find(|(c, t)| c.dtype != *t)
    {
        Some((c, t)) => Err(DataError::TypeMismatch {
            expected: c.dtype.to_string(),
            found: t.to_string(),
        }),
        None => Ok(()),
    }
}

/// Physical storage of a table: either one flat column vector, or — for
/// live (appendable) tables — a list of immutable `Arc`-shared chunks
/// with a lazily consolidated flat view.
///
/// What costs what on a chunked table:
///
/// - **O(delta)**: [`Table::append_table`] (every existing chunk is shared
///   by `Arc`; at most one small tail chunk is rewritten),
///   [`Table::num_rows`], [`Table::non_null_count`], [`Table::chunks`] —
///   everything an append and the engine's chunk-at-a-time fold
///   (single-table filter / group / aggregate and filter / project
///   queries) read. None of them builds the flat view.
/// - **O(table), once per table value**: anything that needs flat columns
///   — [`Table::col`], [`Table::row`], equality, the wire encoder, and in
///   the engine joins, subqueries and `DISTINCT` / `ORDER BY` / `LIMIT`
///   projections. The first such read concatenates the chunks into `flat`
///   and later reads of the *same* value reuse it. An append produces a
///   new value whose view starts empty, so a workload that keeps appending
///   *and* keeps running such queries pays one consolidation per catalogue
///   version.
#[derive(Debug, Clone)]
enum Repr {
    /// One flat column vector (every table starts here).
    Flat(Vec<Arc<ColumnData>>),
    /// Immutable chunks (each itself a flat table) plus the cached
    /// consolidated columns.
    Chunked {
        chunks: Vec<Arc<Table>>,
        flat: OnceLock<Vec<Arc<ColumnData>>>,
    },
}

impl Default for Repr {
    fn default() -> Repr {
        Repr::Flat(Vec::new())
    }
}

/// A column-oriented in-memory table: one typed [`ColumnData`] per schema
/// column, shared by `Arc` so cloning a table (or scanning it from the
/// query engine) never copies cell data. Tables grown by
/// [`Table::append_table`] hold their history as immutable chunks; see
/// the private `Repr` enum.
#[derive(Debug, Clone, Default)]
pub struct Table {
    /// The schema.
    pub schema: Schema,
    repr: Repr,
    len: usize,
}

impl PartialEq for Table {
    /// Value-level equality: same schema and same cell values, regardless
    /// of each column's storage representation (`Dict` vs `Utf8`, chunked
    /// vs flat).
    fn eq(&self, other: &Self) -> bool {
        self.schema == other.schema
            && self.len == other.len
            && self
                .cols()
                .iter()
                .zip(other.cols().iter())
                .all(|(a, b)| a.semantic_eq(b))
    }
}

impl Table {
    /// New.
    pub fn new(schema: Schema) -> Self {
        let cols = schema
            .columns
            .iter()
            .map(|c| Arc::new(ColumnData::new_typed(c.dtype)))
            .collect();
        Table {
            schema,
            repr: Repr::Flat(cols),
            len: 0,
        }
    }

    /// The flat column vector, consolidating chunks on first use (cached;
    /// concurrent scans consolidate once).
    fn cols(&self) -> &[Arc<ColumnData>] {
        match &self.repr {
            Repr::Flat(cols) => cols,
            Repr::Chunked { chunks, flat } => {
                flat.get_or_init(|| Self::consolidate(&self.schema, chunks))
            }
        }
    }

    /// Concatenate per-column storage across chunks (or empty typed
    /// columns when there are no chunks).
    fn consolidate(schema: &Schema, chunks: &[Arc<Table>]) -> Vec<Arc<ColumnData>> {
        if chunks.is_empty() {
            return schema
                .columns
                .iter()
                .map(|c| Arc::new(ColumnData::new_typed(c.dtype)))
                .collect();
        }
        if let [only] = chunks {
            return only.cols().to_vec();
        }
        (0..schema.len())
            .map(|i| {
                let parts: Vec<&ColumnData> = chunks.iter().map(|c| c.col(i)).collect();
                Arc::new(ColumnData::concat(&parts))
            })
            .collect()
    }

    /// Switch to flat storage in place (mutating paths need `&mut`
    /// columns; chunked history is consolidated and dropped).
    fn make_flat(&mut self) {
        if matches!(self.repr, Repr::Flat(_)) {
            return;
        }
        let cols = self.cols().to_vec();
        self.repr = Repr::Flat(cols);
    }

    /// The flat columns, mutably (consolidating first if chunked).
    fn cols_mut(&mut self) -> &mut Vec<Arc<ColumnData>> {
        self.make_flat();
        match &mut self.repr {
            Repr::Flat(cols) => cols,
            Repr::Chunked { .. } => unreachable!("make_flat just ran"),
        }
    }

    /// Number of storage chunks: 1 for flat tables (even empty ones),
    /// the chunk count for appended tables.
    pub fn num_chunks(&self) -> usize {
        match &self.repr {
            Repr::Flat(_) => 1,
            Repr::Chunked { chunks, .. } => chunks.len().max(1),
        }
    }

    /// The storage chunks of an appended table (empty slice for flat
    /// tables). Each chunk is itself a flat table.
    pub fn chunks(&self) -> &[Arc<Table>] {
        match &self.repr {
            Repr::Flat(_) => &[],
            Repr::Chunked { chunks, .. } => chunks,
        }
    }

    /// Whether flat columns exist without further work: always for a flat
    /// table, for a chunked one only once something has consolidated it.
    /// Appends and chunk-at-a-time scans must leave this `false`.
    pub fn has_flat_view(&self) -> bool {
        match &self.repr {
            Repr::Flat(_) => true,
            Repr::Chunked { flat, .. } => flat.get().is_some(),
        }
    }

    /// `delta` with its string columns stored the way this table stores
    /// them: a `Utf8` column whose counterpart in the first chunk is
    /// dictionary-encoded is encoded too (see
    /// [`ColumnData::dict_encode_like`]; O(delta)), so the columns of a
    /// live table never mix the two representations and consolidation
    /// stays in code space. Everything else is shared as is.
    pub fn conform(&self, delta: &Table) -> Table {
        let head = match &self.repr {
            Repr::Flat(cols) => Some(cols.as_slice()),
            Repr::Chunked { chunks, .. } => chunks.first().map(|c| c.cols()),
        };
        let Some(head) = head.filter(|h| h.len() == delta.num_columns()) else {
            return delta.clone();
        };
        let cols = head
            .iter()
            .zip(delta.cols())
            .map(|(base, col)| {
                base.dict_parts()
                    .and_then(|(_, dict, _)| col.dict_encode_like(dict))
                    .map_or_else(|| Arc::clone(col), Arc::new)
            })
            .collect();
        Table {
            schema: delta.schema.clone(),
            repr: Repr::Flat(cols),
            len: delta.len,
        }
    }

    /// The rows in `lo..hi` as a new flat table. Column storage is sliced
    /// per [`ColumnData::slice`]; dictionary columns share their
    /// dictionary `Arc`.
    pub fn slice_rows(&self, lo: usize, hi: usize) -> Table {
        let hi = hi.min(self.len);
        let lo = lo.min(hi);
        let cols = self
            .cols()
            .iter()
            .map(|c| Arc::new(c.slice(lo, hi)))
            .collect();
        Table {
            schema: self.schema.clone(),
            repr: Repr::Flat(cols),
            len: hi - lo,
        }
    }

    /// Append `delta`'s rows *without copying existing data*: prior
    /// storage is shared by `Arc` as immutable chunks and the delta lands
    /// as new chunk(s) split at `chunk_rows` boundaries. A small tail
    /// chunk (at most `min(chunk_rows, 4096)` rows after the merge) is
    /// coalesced with the incoming rows — the one bounded copy — so
    /// high-frequency single-row appends keep the chunk list short.
    /// Plain-string delta columns are dictionary-encoded first where the
    /// table's are ([`Table::conform`]); dictionary columns coalesce
    /// through [`ColumnData::concat`], which remaps codes against the
    /// sorted union of the dictionaries. The cost depends on the delta
    /// and the tail chunk only, never on the table's size. A delta whose
    /// column types differ from the table's is rejected.
    pub fn append_table(&self, delta: &Table, chunk_rows: usize) -> Result<Table, DataError> {
        if delta.num_columns() != self.num_columns() {
            return Err(DataError::ArityMismatch {
                expected: self.num_columns(),
                found: delta.num_columns(),
            });
        }
        check_types(&self.schema, delta.schema.columns.iter().map(|c| c.dtype))?;
        let delta = &self.conform(delta);
        let chunk_rows = chunk_rows.max(1);
        let mut chunks: Vec<Arc<Table>> = match &self.repr {
            Repr::Flat(_) if self.len == 0 => Vec::new(),
            Repr::Flat(_) => vec![Arc::new(self.clone())],
            Repr::Chunked { chunks, .. } => chunks.clone(),
        };
        let added = delta.num_rows();
        let cap = chunk_rows.min(COALESCE_CAP);
        let coalesce = added > 0
            && added <= cap
            && chunks
                .last()
                .is_some_and(|tail| tail.num_rows() + added <= cap);
        if coalesce {
            let tail = chunks.pop().expect("coalesce requires a tail");
            let merged_cols: Vec<Arc<ColumnData>> = (0..self.num_columns())
                .map(|i| Arc::new(ColumnData::concat(&[tail.col(i), delta.col(i)])))
                .collect();
            let merged = Table {
                schema: self.schema.clone(),
                repr: Repr::Flat(merged_cols),
                len: tail.num_rows() + added,
            };
            chunks.push(Arc::new(merged));
        } else {
            let mut lo = 0;
            while lo < added {
                let hi = (lo + chunk_rows).min(added);
                chunks.push(Arc::new(delta.slice_rows(lo, hi)));
                lo = hi;
            }
        }
        Ok(Table {
            schema: self.schema.clone(),
            repr: Repr::Chunked {
                chunks,
                flat: OnceLock::new(),
            },
            len: self.len + added,
        })
    }

    /// [`Table::append_table`] over materialized rows (arity-checked,
    /// value storage typed per the schema).
    pub fn append_rows(&self, rows: Vec<Row>, chunk_rows: usize) -> Result<Table, DataError> {
        let mut delta = Table::new(self.schema.clone());
        for row in rows {
            delta.push_row(row)?;
        }
        self.append_table(&delta, chunk_rows)
    }

    /// Build a table from `(name, type)` pairs and rows, validating arity.
    pub fn from_rows(columns: Vec<(&str, DataType)>, rows: Vec<Row>) -> Result<Self, DataError> {
        let schema = Schema::new(
            columns
                .into_iter()
                .map(|(n, t)| Column::new(n, t))
                .collect(),
        );
        let mut t = Table::new(schema);
        for row in rows {
            t.push_row(row)?;
        }
        Ok(t)
    }

    /// Build a table directly from columns, validating their count,
    /// lengths and types.
    pub fn from_columns(schema: Schema, cols: Vec<ColumnData>) -> Result<Self, DataError> {
        Self::from_arc_columns(schema, cols.into_iter().map(Arc::new).collect())
    }

    /// Like [`Table::from_columns`], but sharing already-`Arc`ed columns —
    /// a projection of unmodified base columns is zero-copy.
    pub fn from_arc_columns(schema: Schema, cols: Vec<Arc<ColumnData>>) -> Result<Self, DataError> {
        if cols.len() != schema.len() {
            return Err(DataError::ArityMismatch {
                expected: schema.len(),
                found: cols.len(),
            });
        }
        let len = cols.first().map(|c| c.len()).unwrap_or(0);
        if let Some(short) = cols.iter().find(|c| c.len() != len) {
            return Err(DataError::ArityMismatch {
                expected: len,
                found: short.len(),
            });
        }
        check_types(&schema, cols.iter().map(|c| c.dtype()))?;
        Ok(Table {
            schema,
            repr: Repr::Flat(cols),
            len,
        })
    }

    /// Append one row, each cell by [`ColumnData::push`]'s rule. A row
    /// with a cell that does not fit its column is rejected whole.
    pub fn push_row(&mut self, row: Row) -> Result<(), DataError> {
        if row.len() != self.schema.len() {
            return Err(DataError::ArityMismatch {
                expected: self.schema.len(),
                found: row.len(),
            });
        }
        let len = self.len;
        let cols = self.cols_mut();
        for (k, v) in row.into_iter().enumerate() {
            if let Err(e) = Arc::make_mut(&mut cols[k]).push(v) {
                for col in &mut cols[..k] {
                    Arc::make_mut(col).truncate(len);
                }
                return Err(e);
            }
        }
        self.len += 1;
        Ok(())
    }

    /// Num rows.
    pub fn num_rows(&self) -> usize {
        self.len
    }

    /// Num columns.
    pub fn num_columns(&self) -> usize {
        self.schema.len()
    }

    /// The storage column at `idx` (consolidating a chunked table's
    /// storage on first use).
    pub fn col(&self, idx: usize) -> &ColumnData {
        &self.cols()[idx]
    }

    /// The shared storage column at `idx` (cheap to clone into the engine's
    /// relations — scans are zero-copy).
    pub fn col_arc(&self, idx: usize) -> &Arc<ColumnData> {
        &self.cols()[idx]
    }

    /// The cell at (`row`, `col`), materialized.
    pub fn value(&self, row: usize, col: usize) -> Value {
        self.cols()[col].value(row)
    }

    /// Materialize row `i`.
    pub fn row(&self, i: usize) -> Row {
        self.cols().iter().map(|c| c.value(i)).collect()
    }

    /// Iterate materialized rows.
    pub fn iter_rows(&self) -> impl Iterator<Item = Row> + '_ {
        (0..self.len).map(move |i| self.row(i))
    }

    /// Materialize every row (convenience for tests and small tables).
    pub fn to_rows(&self) -> Vec<Row> {
        self.iter_rows().collect()
    }

    /// Keep only the first `n` rows.
    pub fn truncate(&mut self, n: usize) {
        if n >= self.len {
            return;
        }
        for col in self.cols_mut() {
            Arc::make_mut(col).truncate(n);
        }
        self.len = n;
    }

    /// All values in column `idx`, materialized.
    pub fn column_values(&self, idx: usize) -> impl Iterator<Item = Value> + '_ {
        self.cols()[idx].iter()
    }

    /// Number of non-NULL values in column `idx`: from the null bitmap of
    /// a flat table, summed over the chunks' bitmaps otherwise — never
    /// through the consolidated view.
    pub fn non_null_count(&self, idx: usize) -> usize {
        match &self.repr {
            Repr::Flat(cols) => self.len - cols[idx].null_count(),
            Repr::Chunked { chunks, .. } => chunks.iter().map(|c| c.non_null_count(idx)).sum(),
        }
    }

    /// Distinct non-null values in a column, sorted. Runs directly over the
    /// typed storage (no `Value` materialization until the result).
    pub fn distinct_values(&self, idx: usize) -> Vec<Value> {
        match self.cols()[idx].as_ref() {
            ColumnData::Int64 { values, nulls } => {
                let mut vals: Vec<i64> = values
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| !nulls.is_null(*i))
                    .map(|(_, v)| *v)
                    .collect();
                vals.sort_unstable();
                vals.dedup();
                vals.into_iter().map(Value::Int).collect()
            }
            ColumnData::Date64 { values, nulls } => {
                let mut vals: Vec<i64> = values
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| !nulls.is_null(*i))
                    .map(|(_, v)| *v)
                    .collect();
                vals.sort_unstable();
                vals.dedup();
                vals.into_iter().map(Value::Date).collect()
            }
            ColumnData::Float64 { values, nulls } => {
                let mut vals: Vec<f64> = values
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| !nulls.is_null(*i))
                    .map(|(_, v)| *v)
                    .collect();
                vals.sort_unstable_by_key(|v| f64_ord_key(*v));
                vals.dedup_by(|a, b| a.to_bits() == b.to_bits());
                vals.into_iter().map(Value::Float).collect()
            }
            ColumnData::Utf8 { values, nulls } => {
                let mut refs: Vec<&String> = values
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| !nulls.is_null(*i))
                    .map(|(_, v)| v)
                    .collect();
                refs.sort_unstable();
                refs.dedup();
                refs.into_iter().map(|s| Value::Str(s.clone())).collect()
            }
            ColumnData::Dict { codes, dict, nulls } => {
                // The dictionary is sorted, so marking the codes in use
                // yields the distinct values already ordered — no sort, no
                // string comparisons.
                let mut seen = vec![false; dict.len()];
                for (i, &c) in codes.iter().enumerate() {
                    if !nulls.is_null(i) {
                        seen[c as usize] = true;
                    }
                }
                dict.iter()
                    .enumerate()
                    .filter(|(c, _)| seen[*c])
                    .map(|(_, s)| Value::Str(s.clone()))
                    .collect()
            }
            ColumnData::Bool { values, nulls } => {
                let mut seen = [false, false];
                for (i, v) in values.iter().enumerate() {
                    if !nulls.is_null(i) {
                        seen[*v as usize] = true;
                    }
                }
                let mut out = Vec::new();
                if seen[0] {
                    out.push(Value::Bool(false));
                }
                if seen[1] {
                    out.push(Value::Bool(true));
                }
                out
            }
        }
    }

    /// (min, max) of a column's non-null values, if any.
    pub fn min_max(&self, idx: usize) -> Option<(Value, Value)> {
        fn typed<T: Copy, F: Fn(T, T) -> std::cmp::Ordering>(
            values: &[T],
            nulls: &crate::column::NullMask,
            cmp: F,
        ) -> Option<(T, T)> {
            let mut iter = values
                .iter()
                .enumerate()
                .filter(|(i, _)| !nulls.is_null(*i))
                .map(|(_, v)| *v);
            let first = iter.next()?;
            let (mut min, mut max) = (first, first);
            for v in iter {
                if cmp(v, min).is_lt() {
                    min = v;
                }
                if cmp(v, max).is_gt() {
                    max = v;
                }
            }
            Some((min, max))
        }
        match self.cols()[idx].as_ref() {
            ColumnData::Int64 { values, nulls } => {
                typed(values, nulls, |a, b| a.cmp(&b)).map(|(a, b)| (Value::Int(a), Value::Int(b)))
            }
            ColumnData::Date64 { values, nulls } => typed(values, nulls, |a, b| a.cmp(&b))
                .map(|(a, b)| (Value::Date(a), Value::Date(b))),
            ColumnData::Float64 { values, nulls } => {
                typed(values, nulls, |a, b| f64_ord_key(a).cmp(&f64_ord_key(b)))
                    .map(|(a, b)| (Value::Float(a), Value::Float(b)))
            }
            ColumnData::Bool { values, nulls } => typed(values, nulls, |a, b| a.cmp(&b))
                .map(|(a, b)| (Value::Bool(a), Value::Bool(b))),
            ColumnData::Utf8 { values, nulls } => {
                let mut iter = values
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| !nulls.is_null(*i))
                    .map(|(_, v)| v);
                let first = iter.next()?;
                let (mut min, mut max) = (first, first);
                for v in iter {
                    if v < min {
                        min = v;
                    }
                    if v > max {
                        max = v;
                    }
                }
                Some((Value::Str(min.clone()), Value::Str(max.clone())))
            }
            ColumnData::Dict { codes, dict, nulls } => {
                // Sorted dictionary: min/max string = min/max code in use.
                typed(codes, nulls, |a, b| a.cmp(&b)).map(|(a, b)| {
                    (
                        Value::Str(dict[a as usize].clone()),
                        Value::Str(dict[b as usize].clone()),
                    )
                })
            }
        }
    }

    /// Whether the values in the given column are unique (no duplicates among
    /// non-null values). Used to infer functional dependencies (§4.1).
    pub fn column_is_unique(&self, idx: usize) -> bool {
        use std::collections::HashSet;
        match self.cols()[idx].as_ref() {
            ColumnData::Int64 { values, nulls } | ColumnData::Date64 { values, nulls } => {
                let mut seen = HashSet::with_capacity(values.len());
                values
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| !nulls.is_null(*i))
                    .all(|(_, v)| seen.insert(*v))
            }
            ColumnData::Float64 { values, nulls } => {
                let mut seen = HashSet::with_capacity(values.len());
                values
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| !nulls.is_null(*i))
                    .all(|(_, v)| seen.insert(v.to_bits()))
            }
            ColumnData::Utf8 { values, nulls } => {
                let mut seen = HashSet::with_capacity(values.len());
                values
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| !nulls.is_null(*i))
                    .all(|(_, v)| seen.insert(v.as_str()))
            }
            ColumnData::Dict { codes, dict, nulls } => {
                let mut seen = vec![false; dict.len()];
                codes
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| !nulls.is_null(*i))
                    .all(|(_, &c)| !std::mem::replace(&mut seen[c as usize], true))
            }
            ColumnData::Bool { values, nulls } => {
                let mut seen = HashSet::new();
                values
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| !nulls.is_null(*i))
                    .all(|(_, v)| seen.insert(*v))
            }
        }
    }
}

impl fmt::Display for Table {
    /// Fixed-width text rendering, used by the table "visualization" and the
    /// example binaries. Widths are measured in characters, not bytes, so
    /// non-ASCII cells stay aligned.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn width(s: &str) -> usize {
            s.chars().count()
        }
        let mut widths: Vec<usize> = self.schema.columns.iter().map(|c| width(&c.name)).collect();
        let rendered: Vec<Vec<String>> = self
            .iter_rows()
            .map(|r| r.iter().map(|v| v.to_string()).collect())
            .collect();
        for row in &rendered {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(width(cell));
            }
        }
        let pad = |f: &mut fmt::Formatter<'_>, s: &str, w: usize| -> fmt::Result {
            write!(f, "{s}")?;
            for _ in width(s)..w {
                write!(f, " ")?;
            }
            Ok(())
        };
        for (i, c) in self.schema.columns.iter().enumerate() {
            if i > 0 {
                write!(f, " | ")?;
            }
            pad(f, &c.name, widths[i])?;
        }
        writeln!(f)?;
        for (i, w) in widths.iter().enumerate() {
            if i > 0 {
                write!(f, "-+-")?;
            }
            write!(f, "{}", "-".repeat(*w))?;
        }
        writeln!(f)?;
        for row in &rendered {
            for (i, cell) in row.iter().enumerate() {
                if i > 0 {
                    write!(f, " | ")?;
                }
                pad(f, cell, widths[i])?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        Table::from_rows(
            vec![("a", DataType::Int), ("name", DataType::Str)],
            vec![
                vec![Value::Int(1), Value::Str("x".into())],
                vec![Value::Int(2), Value::Str("y".into())],
                vec![Value::Int(2), Value::Str("z".into())],
                vec![Value::Null, Value::Str("w".into())],
            ],
        )
        .unwrap()
    }

    #[test]
    fn arity_is_validated() {
        let mut t = sample();
        let err = t.push_row(vec![Value::Int(1)]).unwrap_err();
        assert_eq!(
            err,
            DataError::ArityMismatch {
                expected: 2,
                found: 1
            }
        );
    }

    #[test]
    fn index_of_is_case_insensitive() {
        let t = sample();
        assert_eq!(t.schema.index_of("A"), Some(0));
        assert_eq!(t.schema.index_of("NAME"), Some(1));
        assert_eq!(t.schema.index_of("missing"), None);
    }

    #[test]
    fn distinct_skips_nulls_and_sorts() {
        let t = sample();
        assert_eq!(t.distinct_values(0), vec![Value::Int(1), Value::Int(2)]);
    }

    #[test]
    fn min_max() {
        let t = sample();
        assert_eq!(t.min_max(0), Some((Value::Int(1), Value::Int(2))));
        let empty = Table::from_rows(vec![("a", DataType::Int)], vec![]).unwrap();
        assert_eq!(empty.min_max(0), None);
    }

    #[test]
    fn uniqueness_check() {
        let t = sample();
        assert!(!t.column_is_unique(0)); // value 2 repeats
        assert!(t.column_is_unique(1));
    }

    #[test]
    fn display_renders_header_and_rows() {
        let t = sample();
        let s = t.to_string();
        assert!(s.contains("a"));
        assert!(s.contains("name"));
        assert!(s.contains("NULL"));
        assert_eq!(s.lines().count(), 2 + t.num_rows());
    }

    #[test]
    fn display_aligns_non_ascii_cells() {
        let t = Table::from_rows(
            vec![("city", DataType::Str), ("n", DataType::Int)],
            vec![
                vec![Value::Str("Zürich".into()), Value::Int(1)],
                vec![Value::Str("Geneva".into()), Value::Int(2)],
            ],
        )
        .unwrap();
        let s = t.to_string();
        // Both city names are 6 characters: every line must share one width.
        let widths: Vec<usize> = s
            .lines()
            .map(|l| l.chars().position(|c| c == '|' || c == '+').unwrap())
            .collect();
        assert!(
            widths.windows(2).all(|w| w[0] == w[1]),
            "separator column drifted: {widths:?}\n{s}"
        );
    }

    #[test]
    fn storage_is_typed_per_schema() {
        let t = sample();
        assert!(matches!(t.col(0), ColumnData::Int64 { .. }));
        assert!(matches!(t.col(1), ColumnData::Utf8 { .. }));
        assert_eq!(t.non_null_count(0), 3);
        assert_eq!(t.row(3), vec![Value::Null, Value::Str("w".into())]);
    }

    #[test]
    fn from_columns_validates_lengths() {
        let schema = Schema::new(vec![Column::new("a", DataType::Int)]);
        let t = Table::from_columns(schema.clone(), vec![ColumnData::ints(vec![1])]).unwrap();
        assert_eq!(t.num_rows(), 1);
        assert!(Table::from_columns(schema, vec![]).is_err());
    }

    #[test]
    fn from_columns_validates_types() {
        let schema = Schema::new(vec![Column::new("a", DataType::Int)]);
        let floats = vec![ColumnData::floats(vec![1.0])];
        assert!(matches!(
            Table::from_columns(schema, floats),
            Err(DataError::TypeMismatch { .. })
        ));
    }

    #[test]
    fn push_row_rejects_a_mistyped_row_whole() {
        let mut t = Table::from_rows(
            vec![("a", DataType::Int), ("s", DataType::Str)],
            vec![vec![Value::Int(1), Value::Str("x".into())]],
        )
        .unwrap();
        let err = t.push_row(vec![Value::Int(2), Value::Int(3)]).unwrap_err();
        assert!(matches!(err, DataError::TypeMismatch { .. }), "{err}");
        assert_eq!(t.num_rows(), 1);
        assert_eq!(t.col(0).len(), 1, "the fitting cell is rolled back");
        assert_eq!(t.to_rows(), [[Value::Int(1), Value::Str("x".into())]]);
    }

    #[test]
    fn equality_is_representation_agnostic() {
        let a = sample();
        let mut b = Table::new(a.schema.clone());
        for row in a.iter_rows() {
            b.push_row(row).unwrap();
        }
        assert_eq!(a, b);
        b.push_row(vec![Value::Int(9), Value::Str("q".into())])
            .unwrap();
        assert_ne!(a, b);
    }

    #[test]
    fn negative_floats_order_numerically() {
        // Regression: the float ordering key must place negatives below
        // positives and order negatives by value (the SDSS `dec` column is
        // entirely negative).
        let t = Table::from_rows(
            vec![("x", DataType::Float)],
            vec![
                vec![Value::Float(1.0)],
                vec![Value::Float(-5.0)],
                vec![Value::Float(-0.05)],
                vec![Value::Float(1.0)],
                vec![Value::Float(-5.0)],
            ],
        )
        .unwrap();
        assert_eq!(t.min_max(0), Some((Value::Float(-5.0), Value::Float(1.0))));
        assert_eq!(
            t.distinct_values(0),
            vec![Value::Float(-5.0), Value::Float(-0.05), Value::Float(1.0)]
        );
        assert!(!t.column_is_unique(0));
    }

    #[test]
    fn dict_profiling_matches_utf8() {
        let vals = ["NY", "LA", "NY", "SF", "LA", "NY"];
        let plain = Table::from_columns(
            Schema::new(vec![Column::new("city", DataType::Str)]),
            vec![ColumnData::strs(
                vals.iter().map(|s| s.to_string()).collect(),
            )],
        )
        .unwrap();
        let dict = Table::from_columns(
            Schema::new(vec![Column::new("city", DataType::Str)]),
            vec![ColumnData::strs_dict(
                vals.iter().map(|s| s.to_string()).collect(),
            )],
        )
        .unwrap();
        assert!(matches!(dict.col(0), ColumnData::Dict { .. }));
        assert_eq!(dict.distinct_values(0), plain.distinct_values(0));
        assert_eq!(dict.min_max(0), plain.min_max(0));
        assert_eq!(dict.column_is_unique(0), plain.column_is_unique(0));
        assert_eq!(dict.non_null_count(0), plain.non_null_count(0));
        let mut with_null = dict.clone();
        with_null.push_row(vec![Value::Null]).unwrap();
        assert_eq!(with_null.non_null_count(0), 6);
        assert_eq!(with_null.distinct_values(0).len(), 3);
    }

    #[test]
    fn truncate_keeps_prefix() {
        let mut t = sample();
        t.truncate(2);
        assert_eq!(t.num_rows(), 2);
        assert_eq!(t.row(1), vec![Value::Int(2), Value::Str("y".into())]);
    }

    fn int_table(n: usize) -> Table {
        Table::from_rows(
            vec![("a", DataType::Int)],
            (0..n).map(|i| vec![Value::Int(i as i64)]).collect(),
        )
        .unwrap()
    }

    #[test]
    fn append_equals_rebuilt_from_scratch() {
        let base = int_table(10);
        let delta = Table::from_rows(
            vec![("a", DataType::Int)],
            (10..50).map(|i| vec![Value::Int(i)]).collect(),
        )
        .unwrap();
        let appended = base.append_table(&delta, 16).unwrap();
        let rebuilt = int_table(50);
        assert_eq!(appended.num_rows(), 50);
        assert!(appended.num_chunks() > 1, "40-row delta at 16/chunk splits");
        assert_eq!(appended, rebuilt);
        assert_eq!(appended.min_max(0), rebuilt.min_max(0));
        assert_eq!(appended.distinct_values(0), rebuilt.distinct_values(0));
    }

    #[test]
    fn append_shares_existing_storage_by_arc() {
        // A base past the coalesce cap is never rewritten by an append.
        let base = int_table(5_000);
        let first = base.append_table(&int_table(1), 65_536).unwrap();
        assert!(Arc::ptr_eq(base.col_arc(0), first.chunks()[0].col_arc(0)));
        // A second small append coalesces only the 1-row tail; the big
        // chunk's Arc itself is reused.
        let second = first.append_table(&int_table(1), 65_536).unwrap();
        assert!(Arc::ptr_eq(&first.chunks()[0], &second.chunks()[0]));
        assert_eq!(second.num_rows(), 5_002);
        assert_eq!(second.num_chunks(), 2, "tail coalesced, not appended");
    }

    #[test]
    fn append_rows_builds_the_delta_chunk() {
        let base = sample();
        let appended = base
            .append_rows(vec![vec![Value::Int(7), Value::Str("q".into())]], 1024)
            .unwrap();
        assert_eq!(appended.num_rows(), 5);
        assert_eq!(appended.row(4), vec![Value::Int(7), Value::Str("q".into())]);
        // The original is untouched (functional update).
        assert_eq!(base.num_rows(), 4);
    }

    #[test]
    fn dict_columns_survive_chunked_appends() {
        let schema = Schema::new(vec![Column::new("city", DataType::Str)]);
        let mk = |vals: &[&str]| {
            Table::from_columns(
                schema.clone(),
                vec![ColumnData::strs_dict(
                    vals.iter().map(|s| s.to_string()).collect(),
                )],
            )
            .unwrap()
        };
        // Enough repetition that the dict_encode cardinality cutoff keeps
        // both sides dictionary-encoded.
        let base = mk(&["NY", "LA", "NY", "SF", "NY", "LA"]);
        assert!(matches!(base.col(0), ColumnData::Dict { .. }));
        // A delta whose dictionary overlaps but also extends the base's:
        // the sorted-union remap path.
        let delta = mk(&["SF", "AMS", "NY", "AMS", "AMS", "NY"]);
        assert!(matches!(delta.col(0), ColumnData::Dict { .. }));
        let appended = base.append_table(&delta, 6).unwrap();
        let rebuilt = mk(&[
            "NY", "LA", "NY", "SF", "NY", "LA", "SF", "AMS", "NY", "AMS", "AMS", "NY",
        ]);
        assert_eq!(appended, rebuilt);
        // Consolidated storage keeps the dictionary encoding.
        assert!(matches!(appended.col(0), ColumnData::Dict { .. }));
        assert_eq!(appended.distinct_values(0), rebuilt.distinct_values(0));
        assert_eq!(appended.min_max(0), rebuilt.min_max(0));
    }

    #[test]
    fn slice_rows_clamps_and_copies() {
        let t = int_table(10);
        let s = t.slice_rows(3, 7);
        assert_eq!(s.num_rows(), 4);
        assert_eq!(s.row(0), vec![Value::Int(3)]);
        assert_eq!(t.slice_rows(8, 100).num_rows(), 2);
        assert_eq!(t.slice_rows(5, 5).num_rows(), 0);
    }

    /// A `covid_big`-shaped table: two dictionary-encoded string columns
    /// and an integer one, `n` rows.
    fn covid_like(n: usize) -> Table {
        let states = ["AZ", "CA", "NY", "TX", "WA"];
        Table::from_columns(
            Schema::new(vec![
                Column::new("state", DataType::Str),
                Column::new("county", DataType::Str),
                Column::new("cases", DataType::Int),
            ]),
            vec![
                ColumnData::strs_dict((0..n).map(|i| states[i % 5].to_string()).collect()),
                ColumnData::strs_dict((0..n).map(|i| format!("county_{:03}", i % 240)).collect()),
                ColumnData::ints((0..n as i64).collect()),
            ],
        )
        .unwrap()
    }

    /// 500 plain-string rows in the `covid_like` schema, as a wire append
    /// delivers them; `novel` adds a state no base row has, sorting before
    /// every existing one.
    fn covid_like_delta(novel: bool) -> Vec<Row> {
        (0..500)
            .map(|i| {
                let state = if novel && i % 7 == 0 { "AK" } else { "NY" };
                vec![
                    Value::Str(state.into()),
                    Value::Str(format!("county_{:03}", (i * 13) % 240)),
                    Value::Int(i),
                ]
            })
            .collect()
    }

    #[test]
    fn appended_table_wire_form_matches_rebuilt() {
        // Scans, serialization, and equality all go through consolidated
        // columns, so the chunked table is externally indistinguishable —
        // down to the `{dict, codes}` wire form of dictionary columns that
        // were appended to as plain strings.
        let small_delta = vec![
            vec![Value::Int(5), Value::Str("p".into())],
            vec![Value::Int(6), Value::Null],
        ];
        for (base, delta, chunk_rows) in [
            (sample(), small_delta, 2),
            (covid_like(10_000), covid_like_delta(false), 65_536),
            (covid_like(10_000), covid_like_delta(true), 128),
        ] {
            let appended = base.append_rows(delta.clone(), chunk_rows).unwrap();
            let dict_cols: Vec<usize> = (0..base.num_columns())
                .filter(|&i| base.col(i).dict_parts().is_some())
                .collect();
            // "From scratch" stores what the base stores: dictionary
            // columns are re-encoded over all rows.
            let mut rebuilt = base.clone();
            for row in delta {
                rebuilt.push_row(row).unwrap();
            }
            for &i in &dict_cols {
                let col = Arc::make_mut(&mut rebuilt.cols_mut()[i]);
                let strs = col.iter().map(|v| v.as_str().unwrap().to_string());
                *col = ColumnData::strs_dict(strs.collect());
                assert!(
                    appended.col(i).dict_parts().is_some(),
                    "column {i} left code space"
                );
            }
            assert_eq!(appended, rebuilt);
            let wire = crate::wire::table_to_json(&appended);
            assert_eq!(wire, crate::wire::table_to_json(&rebuilt));
            assert_eq!(wire.matches("\"dict\":").count(), dict_cols.len());
        }
    }

    #[test]
    fn appends_share_every_chunk_and_never_consolidate() {
        // "O(delta)" without a clock: N appends to a 10⁵-row table leave
        // every pre-existing chunk pointer-identical in the successor, and
        // no version's flat view is ever built — not by the append, not by
        // the row / non-null counts the catalogue's statistics merge reads.
        let base = covid_like(100_000);
        let mut versions = vec![base.append_rows(covid_like_delta(false), 65_536).unwrap()];
        for k in 0..20 {
            let prev = versions.last().unwrap();
            let next = prev
                .append_rows(covid_like_delta(k % 3 == 0), 65_536)
                .unwrap();
            // The tail chunk may have been coalesced; everything before it
            // is shared.
            let kept = prev.num_chunks() - 1;
            for (a, b) in prev.chunks()[..kept].iter().zip(next.chunks()) {
                assert!(Arc::ptr_eq(a, b), "append {k} rewrote an existing chunk");
            }
            assert_eq!(next.num_rows(), prev.num_rows() + 500);
            assert_eq!(next.non_null_count(0), next.num_rows());
            versions.push(next);
        }
        assert!(
            versions.iter().all(|v| !v.has_flat_view()),
            "an append consolidated its base"
        );
        // 10 500 appended rows coalesce into ≤4096-row chunks.
        assert!(versions.last().unwrap().num_chunks() <= 1 + 10_500usize.div_ceil(3_500));
    }
}
