//! Typed columnar storage with null bitmaps.
//!
//! [`ColumnData`] is the storage behind [`crate::Table`]: one typed vector
//! per column (`Int64`/`Float64`/`Utf8`/`Bool`/`Date64`) plus a null bitmap,
//! so profiling (distinct counts, min/max, uniqueness) and the vectorized
//! query engine scan contiguous primitive slices instead of cloning
//! [`Value`]s row by row. Every column has exactly one storage type: a
//! cell that does not fit it is rejected where it comes in
//! ([`ColumnData::push`]), never stored.
//!
//! Per-element `hash_value_into` / `eq_at` / `cmp_at` are bit-for-bit
//! compatible with [`Value`]'s `Hash` / `PartialEq` / `Ord`, so hash
//! aggregation and sorting over columns agree with the scalar interpreter.

use crate::error::DataError;
use crate::types::DataType;
use crate::value::Value;
use std::cmp::Ordering;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// A null bitmap: bit set ⇒ the slot is NULL.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct NullMask {
    words: Vec<u64>,
    len: usize,
    nulls: usize,
}

impl NullMask {
    /// An empty mask.
    pub fn new() -> NullMask {
        NullMask::default()
    }

    /// An all-valid mask of the given length.
    pub fn all_valid(len: usize) -> NullMask {
        NullMask {
            words: vec![0; len.div_ceil(64)],
            len,
            nulls: 0,
        }
    }

    /// Number of slots.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the mask covers zero slots.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of NULL slots.
    pub fn null_count(&self) -> usize {
        self.nulls
    }

    /// Whether slot `i` is NULL.
    #[inline]
    pub fn is_null(&self, i: usize) -> bool {
        self.words[i / 64] >> (i % 64) & 1 == 1
    }

    /// Append one slot.
    #[inline]
    pub fn push(&mut self, null: bool) {
        if self.len.is_multiple_of(64) {
            self.words.push(0);
        }
        if null {
            self.words[self.len / 64] |= 1 << (self.len % 64);
            self.nulls += 1;
        }
        self.len += 1;
    }

    /// Keep only the first `n` slots.
    pub fn truncate(&mut self, n: usize) {
        if n >= self.len {
            return;
        }
        for i in n..self.len {
            if self.is_null(i) {
                self.nulls -= 1;
            }
        }
        self.len = n;
        self.words.truncate(n.div_ceil(64));
        if let (Some(last), rem) = (self.words.last_mut(), n % 64) {
            if rem != 0 {
                *last &= (1u64 << rem) - 1;
            }
        }
    }

    /// The mask restricted to the given slots, in order.
    pub fn gather(&self, idx: &[u32]) -> NullMask {
        let mut out = NullMask::all_valid(0);
        if self.nulls == 0 {
            return NullMask::all_valid(idx.len());
        }
        for &i in idx {
            out.push(self.is_null(i as usize));
        }
        out
    }

    /// Append every slot of `other`, whole words at a time: each word of
    /// `other` is OR-ed in shifted by this mask's bit offset (and its
    /// spill-over into the next word), never rebuilt bit by bit. An
    /// all-valid `other` only grows the word vector.
    pub fn extend_from(&mut self, other: &NullMask) {
        let (base, shift) = (self.len / 64, self.len % 64);
        self.len += other.len;
        self.words.resize(self.len.div_ceil(64), 0);
        if other.nulls == 0 {
            return;
        }
        self.nulls += other.nulls;
        // Both masks keep their tail bits zero, so whatever spills past
        // the last word is zero too.
        for (w, &word) in other.words.iter().enumerate() {
            self.words[base + w] |= word << shift;
            if shift != 0 {
                if let Some(next) = self.words.get_mut(base + w + 1) {
                    *next |= word >> (64 - shift);
                }
            }
        }
    }

    /// The packed bitmap words (bit set ⇒ NULL; the tail word's unused
    /// high bits are zero). Word-level kernels read these directly.
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// A mask assembled from packed bitmap words (bit set ⇒ NULL) covering
    /// `len` slots — the inverse of [`NullMask::words`], used by word-level
    /// kernels that compute whole null words at a time. Tail bits beyond
    /// `len` are cleared here, so callers need not mask them.
    pub fn from_words(mut words: Vec<u64>, len: usize) -> NullMask {
        debug_assert_eq!(words.len(), len.div_ceil(64));
        if let (Some(last), rem @ 1..) = (words.last_mut(), len % 64) {
            *last &= (1u64 << rem) - 1;
        }
        let nulls = words.iter().map(|w| w.count_ones() as usize).sum();
        NullMask { words, len, nulls }
    }

    /// The mask restricted to the contiguous slot range `[lo, hi)` —
    /// word-level: each output word is stitched from (at most) two input
    /// words by shifts, not rebuilt bit by bit.
    pub fn slice(&self, lo: usize, hi: usize) -> NullMask {
        debug_assert!(lo <= hi && hi <= self.len);
        let n = hi - lo;
        if self.nulls == 0 {
            return NullMask::all_valid(n);
        }
        let (base, shift) = (lo / 64, lo % 64);
        let mut words = vec![0u64; n.div_ceil(64)];
        for (w, out) in words.iter_mut().enumerate() {
            let low = self.words.get(base + w).copied().unwrap_or(0) >> shift;
            let high = if shift == 0 {
                0
            } else {
                self.words.get(base + w + 1).copied().unwrap_or(0) << (64 - shift)
            };
            *out = low | high;
        }
        if let (Some(last), rem @ 1..) = (words.last_mut(), n % 64) {
            *last &= (1u64 << rem) - 1;
        }
        let nulls = words.iter().map(|w| w.count_ones() as usize).sum();
        NullMask {
            words,
            len: n,
            nulls,
        }
    }

    /// NULL wherever either input is NULL (the validity *intersection*,
    /// as binary operations with NULL-propagating semantics need) —
    /// word-level OR over the packed bitmaps.
    pub fn union(&self, other: &NullMask) -> NullMask {
        debug_assert_eq!(self.len, other.len);
        if self.nulls == 0 {
            return other.clone();
        }
        if other.nulls == 0 {
            return self.clone();
        }
        let words: Vec<u64> = self
            .words
            .iter()
            .zip(&other.words)
            .map(|(a, b)| a | b)
            .collect();
        let nulls = words.iter().map(|w| w.count_ones() as usize).sum();
        NullMask {
            words,
            len: self.len,
            nulls,
        }
    }
}

/// One column of typed values. See the module docs.
#[derive(Debug, Clone)]
pub enum ColumnData {
    /// 64-bit integers.
    Int64 {
        /// Values (placeholder 0 at null slots).
        values: Vec<i64>,
        /// The null bitmap.
        nulls: NullMask,
    },
    /// 64-bit floats.
    Float64 {
        /// Values (placeholder 0.0 at null slots).
        values: Vec<f64>,
        /// The null bitmap.
        nulls: NullMask,
    },
    /// UTF-8 strings.
    Utf8 {
        /// Values (placeholder "" at null slots).
        values: Vec<String>,
        /// The null bitmap.
        nulls: NullMask,
    },
    /// Dictionary-encoded UTF-8 strings: one `u32` code per row indexing a
    /// shared dictionary. Invariants: the dictionary is sorted ascending and
    /// duplicate-free (so code order *is* string order — a sorted-code
    /// permutation computed once at build time), every non-null code is in
    /// range, and null slots hold the placeholder code 0. Gathering shares
    /// the dictionary `Arc`, so filters/joins over string columns copy
    /// `u32`s, never strings.
    Dict {
        /// One dictionary code per row (placeholder 0 at null slots).
        codes: Vec<u32>,
        /// The sorted, deduplicated dictionary.
        dict: Arc<Vec<String>>,
        /// The null bitmap.
        nulls: NullMask,
    },
    /// Booleans.
    Bool {
        /// Values (placeholder false at null slots).
        values: Vec<bool>,
        /// The null bitmap.
        nulls: NullMask,
    },
    /// Dates as days since 1970-01-01.
    Date64 {
        /// Values (placeholder 0 at null slots).
        values: Vec<i64>,
        /// The null bitmap.
        nulls: NullMask,
    },
}

/// The `(codes, dictionary, nulls)` view of a dictionary column, as
/// returned by [`ColumnData::dict_parts`].
pub type DictParts<'a> = (&'a [u32], &'a Arc<Vec<String>>, &'a NullMask);

/// Seed for [`row_hash`] (FNV-1a offset basis).
pub const ROW_HASH_SEED: u64 = 0xcbf2_9ce4_8422_2325;

/// Fold one row of several columns into a single cheap hash (see
/// [`ColumnData::fold_hash`]). The one row-hash used by grouping, DISTINCT,
/// and the empirical FD check, so the scheme cannot drift between them.
pub fn row_hash<'a>(cols: impl IntoIterator<Item = &'a ColumnData>, i: usize) -> u64 {
    cols.into_iter()
        .fold(ROW_HASH_SEED, |h, c| c.fold_hash(i, h))
}

/// Hash-bucketed row interner over a set of key columns: the shared
/// bucket/collision-probe loop behind grouping, DISTINCT, and the
/// empirical FD check (one implementation, so [`row_hash`] and
/// [`ColumnData::eq_at`] semantics cannot drift between them).
pub struct RowInterner<'a> {
    cols: Vec<&'a ColumnData>,
    buckets: crate::hash::FastMap<u64, Vec<u32>>,
}

impl<'a> RowInterner<'a> {
    /// An interner keyed by the given columns.
    pub fn new(cols: Vec<&'a ColumnData>) -> RowInterner<'a> {
        RowInterner {
            cols,
            buckets: crate::hash::FastMap::default(),
        }
    }

    /// The first previously-interned row whose key columns equal row `i`'s
    /// (`Value` equality), or `None` after interning `i` as a new
    /// representative.
    pub fn intern(&mut self, i: u32) -> Option<u32> {
        let h = row_hash(self.cols.iter().copied(), i as usize);
        let bucket = self.buckets.entry(h).or_default();
        for &j in bucket.iter() {
            if self.cols.iter().all(|c| c.eq_at(i as usize, c, j as usize)) {
                return Some(j);
            }
        }
        bucket.push(i);
        None
    }
}

/// Monotone integer key realizing the IEEE754 total order: positive floats
/// keep their bit pattern, negative floats flip their low 63 bits (so more
/// negative sorts smaller). Numeric order for all non-NaN values; -NaN
/// sorts first and +NaN last.
#[inline]
pub fn f64_ord_key(f: f64) -> i64 {
    let bits = f.to_bits() as i64;
    bits ^ (((bits >> 63) as u64) >> 1) as i64
}

/// The sorted, duplicate-free non-null strings of a `Utf8` column's parts.
fn sorted_distinct<'a>(values: &'a [String], nulls: &NullMask) -> Vec<&'a str> {
    let mut dict: Vec<&str> = values
        .iter()
        .enumerate()
        .filter(|(i, _)| !nulls.is_null(*i))
        .map(|(_, v)| v.as_str())
        .collect();
    dict.sort_unstable();
    dict.dedup();
    dict
}

/// One code per row against a sorted dictionary (placeholder 0 at null
/// slots), or `None` when some non-null value is absent from it.
fn codes_in<S: AsRef<str>>(values: &[String], nulls: &NullMask, dict: &[S]) -> Option<Vec<u32>> {
    values
        .iter()
        .enumerate()
        .map(|(i, v)| {
            if nulls.is_null(i) {
                return Some(0);
            }
            dict.binary_search_by(|d| d.as_ref().cmp(v.as_str()))
                .ok()
                .map(|c| c as u32)
        })
        .collect()
}

impl ColumnData {
    /// An empty column of the given storage type.
    pub fn new_typed(dtype: DataType) -> ColumnData {
        match dtype {
            DataType::Int => ColumnData::Int64 {
                values: Vec::new(),
                nulls: NullMask::new(),
            },
            DataType::Float => ColumnData::Float64 {
                values: Vec::new(),
                nulls: NullMask::new(),
            },
            DataType::Str => ColumnData::Utf8 {
                values: Vec::new(),
                nulls: NullMask::new(),
            },
            DataType::Bool => ColumnData::Bool {
                values: Vec::new(),
                nulls: NullMask::new(),
            },
            DataType::Date => ColumnData::Date64 {
                values: Vec::new(),
                nulls: NullMask::new(),
            },
        }
    }

    /// Build a column of type `dtype` from values, each cell by
    /// [`ColumnData::push`]'s rule. Without a declared type the column
    /// takes its first non-NULL value's type (`Str` when every value is
    /// NULL).
    pub fn from_values(vals: Vec<Value>, dtype: Option<DataType>) -> Result<ColumnData, DataError> {
        let dtype = dtype
            .or_else(|| vals.iter().find_map(Value::data_type))
            .unwrap_or(DataType::Str);
        let mut col = ColumnData::new_typed(dtype);
        for v in vals {
            col.push(v)?;
        }
        Ok(col)
    }

    /// A null-free integer column.
    pub fn ints(values: Vec<i64>) -> ColumnData {
        let nulls = NullMask::all_valid(values.len());
        ColumnData::Int64 { values, nulls }
    }

    /// A null-free float column.
    pub fn floats(values: Vec<f64>) -> ColumnData {
        let nulls = NullMask::all_valid(values.len());
        ColumnData::Float64 { values, nulls }
    }

    /// A null-free string column.
    pub fn strs(values: Vec<String>) -> ColumnData {
        let nulls = NullMask::all_valid(values.len());
        ColumnData::Utf8 { values, nulls }
    }

    /// A null-free string column, dictionary-encoded when the cardinality
    /// cutoff allows (see [`ColumnData::dict_encode`]).
    pub fn strs_dict(values: Vec<String>) -> ColumnData {
        ColumnData::strs(values).dict_encode()
    }

    /// Dictionary-encode a `Utf8` column when at most half its rows are
    /// distinct (the load-time cardinality cutoff: near-unique string
    /// columns would pay dictionary indirection for no dedup win). Any
    /// other column — including one already dictionary-encoded — is
    /// returned unchanged.
    pub fn dict_encode(self) -> ColumnData {
        let ColumnData::Utf8 { values, nulls } = self else {
            return self;
        };
        let dict = sorted_distinct(&values, &nulls);
        if dict.len() * 2 > values.len() {
            return ColumnData::Utf8 { values, nulls };
        }
        let codes = codes_in(&values, &nulls, &dict).expect("dict holds every value");
        let dict: Vec<String> = dict.into_iter().map(str::to_string).collect();
        ColumnData::Dict {
            codes,
            dict: Arc::new(dict),
            nulls,
        }
    }

    /// A `Utf8` column dictionary-encoded the way an appended chunk joins
    /// a dictionary-encoded column: against `dict` itself (the `Arc` is
    /// shared, so concatenation stays a verbatim code copy) when it holds
    /// every value, otherwise against the chunk's own sorted dictionary —
    /// never the union, which would make the cost depend on the size of
    /// the column appended to. No cardinality cutoff: the column is
    /// already dictionary-encoded. `None` for any non-`Utf8` column.
    pub fn dict_encode_like(&self, dict: &Arc<Vec<String>>) -> Option<ColumnData> {
        let ColumnData::Utf8 { values, nulls } = self else {
            return None;
        };
        let (codes, dict) = match codes_in(values, nulls, dict) {
            Some(codes) => (codes, Arc::clone(dict)),
            None => {
                let own = sorted_distinct(values, nulls);
                let codes = codes_in(values, nulls, &own).expect("dict holds every value");
                (
                    codes,
                    Arc::new(own.into_iter().map(str::to_string).collect()),
                )
            }
        };
        Some(ColumnData::Dict {
            codes,
            dict,
            nulls: nulls.clone(),
        })
    }

    /// Build a dictionary column from wire parts: `codes[i] = None` marks a
    /// NULL slot. Returns `None` when a code is out of range. The dictionary
    /// is re-canonicalised (sorted, codes remapped) so the column upholds
    /// the sorted-dictionary invariant regardless of the input order;
    /// duplicate dictionary entries are rejected (they would make the
    /// code ↔ string mapping ambiguous).
    pub fn dict_from_parts(dict: Vec<String>, codes: Vec<Option<u32>>) -> Option<ColumnData> {
        let mut order: Vec<u32> = (0..dict.len() as u32).collect();
        order.sort_by(|&a, &b| dict[a as usize].cmp(&dict[b as usize]));
        if order
            .windows(2)
            .any(|w| dict[w[0] as usize] == dict[w[1] as usize])
        {
            return None;
        }
        // rank[old code] = canonical (sorted) code.
        let mut rank = vec![0u32; dict.len()];
        for (new, &old) in order.iter().enumerate() {
            rank[old as usize] = new as u32;
        }
        let mut nulls = NullMask::new();
        let mut out = Vec::with_capacity(codes.len());
        for c in codes {
            match c {
                None => {
                    out.push(0);
                    nulls.push(true);
                }
                Some(c) => {
                    out.push(*rank.get(c as usize)?);
                    nulls.push(false);
                }
            }
        }
        let mut sorted: Vec<String> = Vec::with_capacity(dict.len());
        let mut dict = dict;
        for &old in &order {
            sorted.push(std::mem::take(&mut dict[old as usize]));
        }
        Some(ColumnData::Dict {
            codes: out,
            dict: Arc::new(sorted),
            nulls,
        })
    }

    /// The `(codes, dictionary, nulls)` of a dictionary column.
    pub fn dict_parts(&self) -> Option<DictParts<'_>> {
        match self {
            ColumnData::Dict { codes, dict, nulls } => Some((codes, dict, nulls)),
            _ => None,
        }
    }

    /// The dictionary code of a string in a dictionary column, or `Err`
    /// with the partition point (how many entries sort before `s`) when the
    /// string is absent — callers use it for order predicates.
    pub fn dict_code_of(&self, s: &str) -> Option<Result<u32, u32>> {
        let ColumnData::Dict { dict, .. } = self else {
            return None;
        };
        Some(match dict.binary_search_by(|d| d.as_str().cmp(s)) {
            Ok(i) => Ok(i as u32),
            Err(i) => Err(i as u32),
        })
    }

    /// Concatenate several parts of one logical column into a single
    /// column (the scan-side materialization of a chunked live table).
    ///
    /// Same-variant typed parts extend their storage directly and their
    /// null bitmaps word-wise ([`NullMask::extend_from`]). All-`Dict` parts
    /// merge into the sorted union of their dictionaries with a per-part
    /// code remap (so appends against a dictionary column keep the
    /// sorted-dictionary invariant). A `Dict`/`Utf8` mixture decodes to
    /// `Utf8`.
    ///
    /// # Panics
    ///
    /// If `parts` is empty or its parts differ in [`ColumnData::dtype`]:
    /// the chunks of one table column never do.
    pub fn concat(parts: &[&ColumnData]) -> ColumnData {
        let [first, rest @ ..] = parts else {
            panic!("concat of no parts");
        };
        if rest.is_empty() {
            return (*first).clone();
        }
        let total: usize = parts.iter().map(|p| p.len()).sum();
        if parts.iter().all(|p| matches!(p, ColumnData::Dict { .. })) {
            return Self::concat_dicts(parts, total);
        }
        macro_rules! same_variant {
            ($variant:ident) => {
                if parts
                    .iter()
                    .all(|p| matches!(p, ColumnData::$variant { .. }))
                {
                    let mut values = Vec::with_capacity(total);
                    let mut nulls = NullMask::new();
                    for p in parts {
                        if let ColumnData::$variant {
                            values: v,
                            nulls: n,
                        } = p
                        {
                            values.extend_from_slice(v);
                            nulls.extend_from(n);
                        }
                    }
                    return ColumnData::$variant { values, nulls };
                }
            };
        }
        same_variant!(Int64);
        same_variant!(Float64);
        same_variant!(Utf8);
        same_variant!(Bool);
        same_variant!(Date64);
        assert!(
            parts.iter().all(|p| p.dtype() == DataType::Str),
            "concat of parts of different types"
        );
        let mut values = Vec::with_capacity(total);
        let mut nulls = NullMask::new();
        for p in parts {
            values.extend((0..p.len()).map(|i| p.str_at(i).unwrap_or_default().to_string()));
            nulls.extend_from(p.nulls());
        }
        ColumnData::Utf8 { values, nulls }
    }

    /// [`ColumnData::concat`] over all-`Dict` parts: sorted-union
    /// dictionary, per-part code remap, null slots kept at code 0. Runs of
    /// parts sharing one dictionary `Arc` (what appends of known strings
    /// produce) merge and remap once per run.
    fn concat_dicts(parts: &[&ColumnData], total: usize) -> ColumnData {
        let dicts: Vec<DictParts<'_>> = parts
            .iter()
            .map(|p| p.dict_parts().expect("caller checked all parts are Dict"))
            .collect();
        let first_dict = dicts[0].1;
        let shared = dicts.iter().all(|(_, d, _)| Arc::ptr_eq(d, first_dict));
        let mut codes = Vec::with_capacity(total);
        let mut nulls = NullMask::new();
        if shared {
            // One shared dictionary: codes concatenate verbatim.
            for (c, _, n) in &dicts {
                codes.extend_from_slice(c);
                nulls.extend_from(n);
            }
            return ColumnData::Dict {
                codes,
                dict: Arc::clone(first_dict),
                nulls,
            };
        }
        // Sorted union of the (each sorted, deduped) dictionaries.
        let mut union: Vec<String> = Vec::new();
        let mut runs: Vec<&Arc<Vec<String>>> = dicts.iter().map(|(_, d, _)| *d).collect();
        runs.dedup_by(|a, b| Arc::ptr_eq(a, b));
        for dict in runs {
            let mut merged = Vec::with_capacity(union.len() + dict.len());
            let (mut a, mut b) = (union.into_iter().peekable(), dict.iter().peekable());
            loop {
                match (a.peek(), b.peek()) {
                    (Some(x), Some(y)) => match x.as_str().cmp(y.as_str()) {
                        Ordering::Less => merged.push(a.next().unwrap()),
                        Ordering::Greater => merged.push(b.next().unwrap().clone()),
                        Ordering::Equal => {
                            merged.push(a.next().unwrap());
                            b.next();
                        }
                    },
                    (Some(_), None) => merged.push(a.next().unwrap()),
                    (None, Some(_)) => merged.push(b.next().unwrap().clone()),
                    (None, None) => break,
                }
            }
            union = merged;
        }
        let mut remap: Vec<u32> = Vec::new();
        let mut remap_of: Option<&Arc<Vec<String>>> = None;
        for (c, dict, n) in &dicts {
            if !remap_of.is_some_and(|d| Arc::ptr_eq(d, dict)) {
                remap_of = Some(dict);
                remap = dict
                    .iter()
                    .map(|s| union.binary_search(s).expect("union holds every entry") as u32)
                    .collect();
            }
            // Null slots hold the placeholder code 0; remap[0] may not be
            // 0, so they are re-zeroed through the mask.
            codes.extend(c.iter().enumerate().map(|(i, &code)| {
                if n.is_null(i) {
                    0
                } else {
                    remap[code as usize]
                }
            }));
            nulls.extend_from(n);
        }
        ColumnData::Dict {
            codes,
            dict: Arc::new(union),
            nulls,
        }
    }

    /// A null-free boolean column.
    pub fn bools(values: Vec<bool>) -> ColumnData {
        let nulls = NullMask::all_valid(values.len());
        ColumnData::Bool { values, nulls }
    }

    /// A null-free date column (days since 1970-01-01).
    pub fn dates(values: Vec<i64>) -> ColumnData {
        let nulls = NullMask::all_valid(values.len());
        ColumnData::Date64 { values, nulls }
    }

    /// A column of `n` copies of one value.
    pub fn broadcast(v: &Value, n: usize) -> ColumnData {
        match v {
            Value::Int(x) => ColumnData::Int64 {
                values: vec![*x; n],
                nulls: NullMask::all_valid(n),
            },
            Value::Float(x) => ColumnData::Float64 {
                values: vec![*x; n],
                nulls: NullMask::all_valid(n),
            },
            Value::Str(x) => ColumnData::Utf8 {
                values: vec![x.clone(); n],
                nulls: NullMask::all_valid(n),
            },
            Value::Bool(x) => ColumnData::Bool {
                values: vec![*x; n],
                nulls: NullMask::all_valid(n),
            },
            Value::Date(x) => ColumnData::Date64 {
                values: vec![*x; n],
                nulls: NullMask::all_valid(n),
            },
            // An all-NULL column is typed like `from_values` types one.
            Value::Null => ColumnData::Utf8 {
                values: vec![String::new(); n],
                nulls: NullMask::from_words(vec![u64::MAX; n.div_ceil(64)], n),
            },
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        match self {
            ColumnData::Int64 { values, .. } | ColumnData::Date64 { values, .. } => values.len(),
            ColumnData::Float64 { values, .. } => values.len(),
            ColumnData::Utf8 { values, .. } => values.len(),
            ColumnData::Dict { codes, .. } => codes.len(),
            ColumnData::Bool { values, .. } => values.len(),
        }
    }

    /// Whether the column has zero rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The storage type.
    pub fn dtype(&self) -> DataType {
        match self {
            ColumnData::Int64 { .. } => DataType::Int,
            ColumnData::Float64 { .. } => DataType::Float,
            ColumnData::Utf8 { .. } | ColumnData::Dict { .. } => DataType::Str,
            ColumnData::Bool { .. } => DataType::Bool,
            ColumnData::Date64 { .. } => DataType::Date,
        }
    }

    /// The null bitmap.
    #[inline]
    pub fn nulls(&self) -> &NullMask {
        match self {
            ColumnData::Int64 { nulls, .. }
            | ColumnData::Float64 { nulls, .. }
            | ColumnData::Utf8 { nulls, .. }
            | ColumnData::Dict { nulls, .. }
            | ColumnData::Bool { nulls, .. }
            | ColumnData::Date64 { nulls, .. } => nulls,
        }
    }

    /// Number of NULL slots.
    pub fn null_count(&self) -> usize {
        self.nulls().null_count()
    }

    /// Whether row `i` is NULL.
    #[inline]
    pub fn is_null(&self, i: usize) -> bool {
        self.nulls().is_null(i)
    }

    /// Materialize row `i` as a [`Value`].
    pub fn value(&self, i: usize) -> Value {
        match self {
            ColumnData::Int64 { values, nulls } => {
                if nulls.is_null(i) {
                    Value::Null
                } else {
                    Value::Int(values[i])
                }
            }
            ColumnData::Float64 { values, nulls } => {
                if nulls.is_null(i) {
                    Value::Null
                } else {
                    Value::Float(values[i])
                }
            }
            ColumnData::Utf8 { values, nulls } => {
                if nulls.is_null(i) {
                    Value::Null
                } else {
                    Value::Str(values[i].clone())
                }
            }
            ColumnData::Dict { codes, dict, nulls } => {
                if nulls.is_null(i) {
                    Value::Null
                } else {
                    Value::Str(dict[codes[i] as usize].clone())
                }
            }
            ColumnData::Bool { values, nulls } => {
                if nulls.is_null(i) {
                    Value::Null
                } else {
                    Value::Bool(values[i])
                }
            }
            ColumnData::Date64 { values, nulls } => {
                if nulls.is_null(i) {
                    Value::Null
                } else {
                    Value::Date(values[i])
                }
            }
        }
    }

    /// Numeric view of row `i` (see [`Value::as_f64`]); `None` for NULL and
    /// non-numeric values. No allocation.
    #[inline]
    pub fn numeric(&self, i: usize) -> Option<f64> {
        match self {
            ColumnData::Int64 { values, nulls } | ColumnData::Date64 { values, nulls } => {
                (!nulls.is_null(i)).then(|| values[i] as f64)
            }
            ColumnData::Float64 { values, nulls } => (!nulls.is_null(i)).then(|| values[i]),
            ColumnData::Bool { values, nulls } => {
                (!nulls.is_null(i)).then(|| if values[i] { 1.0 } else { 0.0 })
            }
            ColumnData::Utf8 { .. } | ColumnData::Dict { .. } => None,
        }
    }

    /// String view of row `i` without cloning; `None` for NULL/non-strings.
    #[inline]
    pub fn str_at(&self, i: usize) -> Option<&str> {
        match self {
            ColumnData::Utf8 { values, nulls } => (!nulls.is_null(i)).then(|| values[i].as_str()),
            ColumnData::Dict { codes, dict, nulls } => {
                (!nulls.is_null(i)).then(|| dict[codes[i] as usize].as_str())
            }
            _ => None,
        }
    }

    /// Append one value. NULL fits every column, and an `Int` widens into
    /// a `Float` column; any other value whose type differs from the
    /// column's is rejected and the column is left unchanged.
    pub fn push(&mut self, v: Value) -> Result<(), DataError> {
        match (&mut *self, v) {
            (ColumnData::Int64 { values, nulls }, Value::Int(x))
            | (ColumnData::Date64 { values, nulls }, Value::Date(x)) => {
                values.push(x);
                nulls.push(false);
            }
            (ColumnData::Float64 { values, nulls }, Value::Float(x)) => {
                values.push(x);
                nulls.push(false);
            }
            (ColumnData::Float64 { values, nulls }, Value::Int(x)) => {
                values.push(x as f64);
                nulls.push(false);
            }
            (ColumnData::Utf8 { values, nulls }, Value::Str(x)) => {
                values.push(x);
                nulls.push(false);
            }
            (ColumnData::Bool { values, nulls }, Value::Bool(x)) => {
                values.push(x);
                nulls.push(false);
            }
            (ColumnData::Int64 { values, nulls }, Value::Null)
            | (ColumnData::Date64 { values, nulls }, Value::Null) => {
                values.push(0);
                nulls.push(true);
            }
            (ColumnData::Float64 { values, nulls }, Value::Null) => {
                values.push(0.0);
                nulls.push(true);
            }
            (ColumnData::Utf8 { values, nulls }, Value::Null) => {
                values.push(String::new());
                nulls.push(true);
            }
            (ColumnData::Dict { codes, nulls, .. }, Value::Null) => {
                codes.push(0);
                nulls.push(true);
            }
            (ColumnData::Dict { codes, dict, nulls }, Value::Str(x)) => {
                // A string already in the dictionary appends as its code; a
                // new string would break the sorted-dictionary invariant,
                // so the column decodes back to plain `Utf8` first.
                match dict.binary_search(&x) {
                    Ok(c) => {
                        codes.push(c as u32);
                        nulls.push(false);
                    }
                    Err(_) => {
                        let mut values: Vec<String> = codes
                            .iter()
                            .enumerate()
                            .map(|(i, &c)| {
                                if nulls.is_null(i) {
                                    String::new()
                                } else {
                                    dict[c as usize].clone()
                                }
                            })
                            .collect();
                        values.push(x);
                        let mut nulls = nulls.clone();
                        nulls.push(false);
                        *self = ColumnData::Utf8 { values, nulls };
                    }
                }
            }
            (ColumnData::Bool { values, nulls }, Value::Null) => {
                values.push(false);
                nulls.push(true);
            }
            (col, v) => {
                return Err(DataError::TypeMismatch {
                    expected: col.dtype().to_string(),
                    found: v.data_type().map_or_else(String::new, |t| t.to_string()),
                })
            }
        }
        Ok(())
    }

    /// Keep the first `n` rows.
    pub fn truncate(&mut self, n: usize) {
        match self {
            ColumnData::Int64 { values, nulls } | ColumnData::Date64 { values, nulls } => {
                values.truncate(n);
                nulls.truncate(n);
            }
            ColumnData::Float64 { values, nulls } => {
                values.truncate(n);
                nulls.truncate(n);
            }
            ColumnData::Utf8 { values, nulls } => {
                values.truncate(n);
                nulls.truncate(n);
            }
            ColumnData::Dict { codes, nulls, .. } => {
                codes.truncate(n);
                nulls.truncate(n);
            }
            ColumnData::Bool { values, nulls } => {
                values.truncate(n);
                nulls.truncate(n);
            }
        }
    }

    /// The column restricted to the given rows, in order.
    pub fn gather(&self, idx: &[u32]) -> ColumnData {
        fn take<T: Clone>(values: &[T], idx: &[u32]) -> Vec<T> {
            idx.iter().map(|&i| values[i as usize].clone()).collect()
        }
        match self {
            ColumnData::Int64 { values, nulls } => ColumnData::Int64 {
                values: take(values, idx),
                nulls: nulls.gather(idx),
            },
            ColumnData::Float64 { values, nulls } => ColumnData::Float64 {
                values: take(values, idx),
                nulls: nulls.gather(idx),
            },
            ColumnData::Utf8 { values, nulls } => ColumnData::Utf8 {
                values: take(values, idx),
                nulls: nulls.gather(idx),
            },
            // The dictionary is shared, not copied: a filtered/joined view
            // of a string column costs one u32 per row.
            ColumnData::Dict { codes, dict, nulls } => ColumnData::Dict {
                codes: take(codes, idx),
                dict: Arc::clone(dict),
                nulls: nulls.gather(idx),
            },
            ColumnData::Bool { values, nulls } => ColumnData::Bool {
                values: take(values, idx),
                nulls: nulls.gather(idx),
            },
            ColumnData::Date64 { values, nulls } => ColumnData::Date64 {
                values: take(values, idx),
                nulls: nulls.gather(idx),
            },
        }
    }

    /// The column restricted to the contiguous row range `[lo, hi)`.
    /// Cheaper than [`ColumnData::gather`] over `lo..hi`: values are copied
    /// with `memcpy`-able slice clones, the null bitmap is stitched at word
    /// level ([`NullMask::slice`]), and dictionaries are shared.
    pub fn slice(&self, lo: usize, hi: usize) -> ColumnData {
        debug_assert!(lo <= hi && hi <= self.len());
        match self {
            ColumnData::Int64 { values, nulls } => ColumnData::Int64 {
                values: values[lo..hi].to_vec(),
                nulls: nulls.slice(lo, hi),
            },
            ColumnData::Float64 { values, nulls } => ColumnData::Float64 {
                values: values[lo..hi].to_vec(),
                nulls: nulls.slice(lo, hi),
            },
            ColumnData::Utf8 { values, nulls } => ColumnData::Utf8 {
                values: values[lo..hi].to_vec(),
                nulls: nulls.slice(lo, hi),
            },
            ColumnData::Dict { codes, dict, nulls } => ColumnData::Dict {
                codes: codes[lo..hi].to_vec(),
                dict: Arc::clone(dict),
                nulls: nulls.slice(lo, hi),
            },
            ColumnData::Bool { values, nulls } => ColumnData::Bool {
                values: values[lo..hi].to_vec(),
                nulls: nulls.slice(lo, hi),
            },
            ColumnData::Date64 { values, nulls } => ColumnData::Date64 {
                values: values[lo..hi].to_vec(),
                nulls: nulls.slice(lo, hi),
            },
        }
    }

    /// Iterate materialized values.
    pub fn iter(&self) -> impl Iterator<Item = Value> + '_ {
        (0..self.len()).map(move |i| self.value(i))
    }

    /// Hash row `i` exactly as `Value::hash` would hash the materialized
    /// value (ints hash through their `f64` bits so `Int(3)` and
    /// `Float(3.0)` collide, as grouping equality requires).
    #[inline]
    pub fn hash_value_into<H: Hasher>(&self, i: usize, h: &mut H) {
        match self {
            ColumnData::Int64 { values, nulls } => {
                if nulls.is_null(i) {
                    0u8.hash(h);
                } else {
                    2u8.hash(h);
                    (values[i] as f64).to_bits().hash(h);
                }
            }
            ColumnData::Float64 { values, nulls } => {
                if nulls.is_null(i) {
                    0u8.hash(h);
                } else {
                    2u8.hash(h);
                    values[i].to_bits().hash(h);
                }
            }
            ColumnData::Utf8 { values, nulls } => {
                if nulls.is_null(i) {
                    0u8.hash(h);
                } else {
                    3u8.hash(h);
                    values[i].hash(h);
                }
            }
            ColumnData::Dict { codes, dict, nulls } => {
                if nulls.is_null(i) {
                    0u8.hash(h);
                } else {
                    3u8.hash(h);
                    dict[codes[i] as usize].hash(h);
                }
            }
            ColumnData::Bool { values, nulls } => {
                if nulls.is_null(i) {
                    0u8.hash(h);
                } else {
                    1u8.hash(h);
                    values[i].hash(h);
                }
            }
            ColumnData::Date64 { values, nulls } => {
                if nulls.is_null(i) {
                    0u8.hash(h);
                } else {
                    4u8.hash(h);
                    values[i].hash(h);
                }
            }
        }
    }

    /// Hash the whole column's content (used for catalogue fingerprints).
    pub fn hash_content<H: Hasher>(&self, h: &mut H) {
        for i in 0..self.len() {
            self.hash_value_into(i, h);
        }
    }

    /// Fold row `i` into a cheap FNV-style hash state. Rows that are equal
    /// under [`ColumnData::eq_at`] hash equally regardless of storage
    /// representation (ints fold through their `f64` bits like
    /// `Value::hash`), but this is much cheaper than a SipHash per row —
    /// it is the grouping/distinct hot path.
    #[inline]
    pub fn fold_hash(&self, i: usize, h: u64) -> u64 {
        #[inline]
        fn mix(h: u64, x: u64) -> u64 {
            (h ^ x).wrapping_mul(0x100_0000_01b3)
        }
        #[inline]
        fn mix_str(mut h: u64, s: &str) -> u64 {
            h = mix(h, 3);
            for chunk in s.as_bytes().chunks(8) {
                let mut buf = [0u8; 8];
                buf[..chunk.len()].copy_from_slice(chunk);
                h = mix(h, u64::from_le_bytes(buf));
            }
            mix(h, s.len() as u64)
        }
        match self {
            ColumnData::Int64 { values, nulls } => {
                if nulls.is_null(i) {
                    mix(h, 0)
                } else {
                    mix(mix(h, 2), (values[i] as f64).to_bits())
                }
            }
            ColumnData::Float64 { values, nulls } => {
                if nulls.is_null(i) {
                    mix(h, 0)
                } else {
                    mix(mix(h, 2), values[i].to_bits())
                }
            }
            ColumnData::Utf8 { values, nulls } => {
                if nulls.is_null(i) {
                    mix(h, 0)
                } else {
                    mix_str(h, &values[i])
                }
            }
            ColumnData::Dict { codes, dict, nulls } => {
                if nulls.is_null(i) {
                    mix(h, 0)
                } else {
                    mix_str(h, &dict[codes[i] as usize])
                }
            }
            ColumnData::Bool { values, nulls } => {
                if nulls.is_null(i) {
                    mix(h, 0)
                } else {
                    mix(mix(h, 1), values[i] as u64)
                }
            }
            ColumnData::Date64 { values, nulls } => {
                if nulls.is_null(i) {
                    mix(h, 0)
                } else {
                    mix(mix(h, 4), values[i] as u64)
                }
            }
        }
    }

    /// SQL equality between `self[i]` and a value, matching
    /// [`Value::sql_eq`] without materializing the cell (no string
    /// clones): `None` for NULLs and incomparable types, numeric types
    /// compare through `f64`, and ISO date strings compare with dates.
    pub fn sql_eq_value(&self, i: usize, v: &Value) -> Option<bool> {
        if self.is_null(i) || v.is_null() {
            return None;
        }
        match self {
            ColumnData::Utf8 { values, .. } => match v {
                Value::Str(s) => Some(values[i] == *s),
                Value::Date(d) => crate::date::parse_iso_date(&values[i]).map(|x| x == *d),
                _ => None,
            },
            ColumnData::Dict { codes, dict, .. } => {
                let s = &dict[codes[i] as usize];
                match v {
                    Value::Str(x) => Some(s == x),
                    Value::Date(d) => crate::date::parse_iso_date(s).map(|x| x == *d),
                    _ => None,
                }
            }
            ColumnData::Date64 { values, nulls } => {
                if let Value::Str(s) = v {
                    return crate::date::parse_iso_date(s).map(|d| values[i] == d);
                }
                let _ = nulls;
                Some(self.numeric(i)? == v.as_f64()?)
            }
            _ => Some(self.numeric(i)? == v.as_f64()?),
        }
    }

    /// Structural equality between `self[i]` and `other[j]`, matching
    /// `Value::eq` (floats by bits; `Int`/`Float` cross-type equality).
    pub fn eq_at(&self, i: usize, other: &ColumnData, j: usize) -> bool {
        match (self, other) {
            (
                ColumnData::Int64 {
                    values: a,
                    nulls: na,
                },
                ColumnData::Int64 {
                    values: b,
                    nulls: nb,
                },
            ) => match (na.is_null(i), nb.is_null(j)) {
                (true, true) => true,
                (false, false) => a[i] == b[j],
                _ => false,
            },
            (
                ColumnData::Float64 {
                    values: a,
                    nulls: na,
                },
                ColumnData::Float64 {
                    values: b,
                    nulls: nb,
                },
            ) => match (na.is_null(i), nb.is_null(j)) {
                (true, true) => true,
                (false, false) => a[i].to_bits() == b[j].to_bits(),
                _ => false,
            },
            (
                ColumnData::Utf8 {
                    values: a,
                    nulls: na,
                },
                ColumnData::Utf8 {
                    values: b,
                    nulls: nb,
                },
            ) => match (na.is_null(i), nb.is_null(j)) {
                (true, true) => true,
                (false, false) => a[i] == b[j],
                _ => false,
            },
            (
                ColumnData::Dict {
                    codes: a,
                    dict: da,
                    nulls: na,
                },
                ColumnData::Dict {
                    codes: b,
                    dict: db,
                    nulls: nb,
                },
            ) => match (na.is_null(i), nb.is_null(j)) {
                (true, true) => true,
                // Shared dictionary ⇒ string equality is code equality.
                (false, false) if Arc::ptr_eq(da, db) => a[i] == b[j],
                (false, false) => da[a[i] as usize] == db[b[j] as usize],
                _ => false,
            },
            (ColumnData::Dict { .. }, ColumnData::Utf8 { .. })
            | (ColumnData::Utf8 { .. }, ColumnData::Dict { .. }) => {
                match (self.str_at(i), other.str_at(j)) {
                    (Some(a), Some(b)) => a == b,
                    (None, None) => true,
                    _ => false,
                }
            }
            (
                ColumnData::Bool {
                    values: a,
                    nulls: na,
                },
                ColumnData::Bool {
                    values: b,
                    nulls: nb,
                },
            ) => match (na.is_null(i), nb.is_null(j)) {
                (true, true) => true,
                (false, false) => a[i] == b[j],
                _ => false,
            },
            (
                ColumnData::Date64 {
                    values: a,
                    nulls: na,
                },
                ColumnData::Date64 {
                    values: b,
                    nulls: nb,
                },
            ) => match (na.is_null(i), nb.is_null(j)) {
                (true, true) => true,
                (false, false) => a[i] == b[j],
                _ => false,
            },
            _ => self.value(i) == other.value(j),
        }
    }

    /// Total-order comparison between `self[i]` and `other[j]`, matching
    /// `Value::cmp` (NULL first; numeric types compare through `f64`).
    pub fn cmp_at(&self, i: usize, other: &ColumnData, j: usize) -> Ordering {
        match (self, other) {
            (
                ColumnData::Int64 {
                    values: a,
                    nulls: na,
                },
                ColumnData::Int64 {
                    values: b,
                    nulls: nb,
                },
            )
            | (
                ColumnData::Date64 {
                    values: a,
                    nulls: na,
                },
                ColumnData::Date64 {
                    values: b,
                    nulls: nb,
                },
            ) => match (na.is_null(i), nb.is_null(j)) {
                (true, true) => Ordering::Equal,
                (true, false) => Ordering::Less,
                (false, true) => Ordering::Greater,
                // Through f64 like Value::cmp (ties above 2^53 stay ties).
                (false, false) => (a[i] as f64).total_cmp(&(b[j] as f64)),
            },
            (
                ColumnData::Float64 {
                    values: a,
                    nulls: na,
                },
                ColumnData::Float64 {
                    values: b,
                    nulls: nb,
                },
            ) => match (na.is_null(i), nb.is_null(j)) {
                (true, true) => Ordering::Equal,
                (true, false) => Ordering::Less,
                (false, true) => Ordering::Greater,
                (false, false) => a[i]
                    .partial_cmp(&b[j])
                    .unwrap_or_else(|| f64_ord_key(a[i]).cmp(&f64_ord_key(b[j]))),
            },
            (
                ColumnData::Utf8 {
                    values: a,
                    nulls: na,
                },
                ColumnData::Utf8 {
                    values: b,
                    nulls: nb,
                },
            ) => match (na.is_null(i), nb.is_null(j)) {
                (true, true) => Ordering::Equal,
                (true, false) => Ordering::Less,
                (false, true) => Ordering::Greater,
                (false, false) => a[i].cmp(&b[j]),
            },
            (
                ColumnData::Dict {
                    codes: a,
                    dict: da,
                    nulls: na,
                },
                ColumnData::Dict {
                    codes: b,
                    dict: db,
                    nulls: nb,
                },
            ) => match (na.is_null(i), nb.is_null(j)) {
                (true, true) => Ordering::Equal,
                (true, false) => Ordering::Less,
                (false, true) => Ordering::Greater,
                // Sorted dictionary ⇒ string order is code order.
                (false, false) if Arc::ptr_eq(da, db) => a[i].cmp(&b[j]),
                (false, false) => da[a[i] as usize].cmp(&db[b[j] as usize]),
            },
            (ColumnData::Dict { .. }, ColumnData::Utf8 { .. })
            | (ColumnData::Utf8 { .. }, ColumnData::Dict { .. }) => {
                match (self.str_at(i), other.str_at(j)) {
                    (Some(a), Some(b)) => a.cmp(b),
                    (None, None) => Ordering::Equal,
                    (None, Some(_)) => Ordering::Less,
                    (Some(_), None) => Ordering::Greater,
                }
            }
            (
                ColumnData::Bool {
                    values: a,
                    nulls: na,
                },
                ColumnData::Bool {
                    values: b,
                    nulls: nb,
                },
            ) => match (na.is_null(i), nb.is_null(j)) {
                (true, true) => Ordering::Equal,
                (true, false) => Ordering::Less,
                (false, true) => Ordering::Greater,
                (false, false) => a[i].cmp(&b[j]),
            },
            _ => self.value(i).cmp(&other.value(j)),
        }
    }

    /// Value-level equality with another column (representation-agnostic:
    /// a `Dict` column equals a `Utf8` column holding the same strings).
    pub fn semantic_eq(&self, other: &ColumnData) -> bool {
        if self.len() != other.len() {
            return false;
        }
        (0..self.len()).all(|i| self.eq_at(i, other, i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;

    #[test]
    fn push_and_round_trip() {
        let mut c = ColumnData::new_typed(DataType::Int);
        c.push(Value::Int(1)).unwrap();
        c.push(Value::Null).unwrap();
        c.push(Value::Int(3)).unwrap();
        assert_eq!(c.len(), 3);
        assert_eq!(c.null_count(), 1);
        assert_eq!(c.value(0), Value::Int(1));
        assert_eq!(c.value(1), Value::Null);
        assert_eq!(c.value(2), Value::Int(3));
        assert!(matches!(c, ColumnData::Int64 { .. }));
    }

    #[test]
    fn mismatched_push_is_rejected() {
        let mut c = ColumnData::new_typed(DataType::Int);
        c.push(Value::Int(1)).unwrap();
        let err = c.push(Value::Str("x".into())).unwrap_err();
        assert_eq!(
            err,
            DataError::TypeMismatch {
                expected: "int".into(),
                found: "str".into()
            }
        );
        assert_eq!(c.iter().collect::<Vec<_>>(), [Value::Int(1)]);
        assert!(c.push(Value::Float(2.5)).is_err());
        // An int widens into a float column.
        let mut f = ColumnData::new_typed(DataType::Float);
        f.push(Value::Int(2)).unwrap();
        assert_eq!(f.value(0), Value::Float(2.0));
    }

    #[test]
    fn from_values_picks_typed_storage() {
        let c = ColumnData::from_values(vec![Value::Null, Value::Float(2.5)], None).unwrap();
        assert!(matches!(c, ColumnData::Float64 { .. }));
        assert_eq!(c.value(0), Value::Null);
        // Typed by the first non-NULL value: a later float does not fit.
        assert!(ColumnData::from_values(vec![Value::Int(1), Value::Float(2.5)], None).is_err());
        let c = ColumnData::from_values(
            vec![Value::Int(1), Value::Float(2.5)],
            Some(DataType::Float),
        );
        assert_eq!(c.unwrap().value(0), Value::Float(1.0));
        let c = ColumnData::from_values(vec![Value::Null], Some(DataType::Date)).unwrap();
        assert!(matches!(c, ColumnData::Date64 { .. }));
        let c = ColumnData::from_values(vec![Value::Null], None).unwrap();
        assert_eq!(c.dtype(), DataType::Str);
    }

    #[test]
    fn gather_and_truncate() {
        let mut c = ColumnData::new_typed(DataType::Str);
        for s in ["a", "b", "c"] {
            c.push(Value::Str(s.into())).unwrap();
        }
        c.push(Value::Null).unwrap();
        let g = c.gather(&[3, 1]);
        assert_eq!(g.value(0), Value::Null);
        assert_eq!(g.value(1), Value::Str("b".into()));
        let mut t = c.clone();
        t.truncate(2);
        assert_eq!(t.len(), 2);
        assert_eq!(t.null_count(), 0);
    }

    #[test]
    fn hash_matches_value_hash() {
        let vals = vec![
            Value::Null,
            Value::Int(7),
            Value::Float(7.0),
            Value::Str("x".into()),
            Value::Bool(true),
            Value::Date(3),
        ];
        for v in &vals {
            // Typed single-value columns hash like the Value itself.
            let typed = ColumnData::from_values(vec![v.clone()], None).unwrap();
            let mut h1 = DefaultHasher::new();
            typed.hash_value_into(0, &mut h1);
            let mut h2 = DefaultHasher::new();
            v.hash(&mut h2);
            assert_eq!(h1.finish(), h2.finish(), "typed hash differs for {v}");
        }
    }

    #[test]
    fn eq_and_cmp_match_value_semantics() {
        let ints = ColumnData::from_values(vec![Value::Int(3), Value::Null], None).unwrap();
        let floats =
            ColumnData::from_values(vec![Value::Float(3.0), Value::Float(4.0)], None).unwrap();
        // Cross-representation equality goes through Value semantics.
        assert!(ints.eq_at(0, &floats, 0));
        assert!(!ints.eq_at(1, &floats, 0));
        assert_eq!(ints.cmp_at(0, &floats, 1), Ordering::Less);
        assert_eq!(ints.cmp_at(1, &ints, 0), Ordering::Less, "NULL sorts first");
        let strs = ColumnData::from_values(vec![Value::Str("a".into())], None).unwrap();
        assert_eq!(strs.cmp_at(0, &strs, 0), Ordering::Equal);
    }

    #[test]
    fn semantic_eq_is_representation_agnostic() {
        let ints = ColumnData::from_values(vec![Value::Int(1), Value::Null], None).unwrap();
        let floats = ColumnData::from_values(vec![Value::Float(1.0), Value::Null], None).unwrap();
        assert!(ints.semantic_eq(&floats));
        let other = ColumnData::from_values(vec![Value::Int(2), Value::Null], None).unwrap();
        assert!(!ints.semantic_eq(&other));
    }

    #[test]
    fn f64_ord_key_is_monotone() {
        let vals = [
            f64::NEG_INFINITY,
            -5.0,
            -1.0,
            -0.05,
            -0.0,
            0.0,
            0.05,
            1.0,
            5.0,
            f64::INFINITY,
        ];
        for w in vals.windows(2) {
            assert!(
                f64_ord_key(w[0]) <= f64_ord_key(w[1]),
                "{} sorted after {}",
                w[0],
                w[1]
            );
        }
        assert!(f64_ord_key(f64::NAN) > f64_ord_key(f64::INFINITY));
    }

    #[test]
    fn dict_encode_round_trips_and_respects_cutoff() {
        let vals: Vec<String> = ["b", "a", "b", "a", "c", "b"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let plain = ColumnData::strs(vals.clone());
        let dict = ColumnData::strs_dict(vals);
        assert!(matches!(dict, ColumnData::Dict { .. }));
        assert!(plain.semantic_eq(&dict));
        // Sorted-dictionary invariant: codes order = string order.
        let (codes, d, _) = dict.dict_parts().unwrap();
        assert_eq!(d.as_slice(), &["a", "b", "c"]);
        assert_eq!(codes, &[1, 0, 1, 0, 2, 1]);
        // Near-unique columns stay plain Utf8.
        let unique = ColumnData::strs_dict(vec!["x".into(), "y".into(), "z".into()]);
        assert!(matches!(unique, ColumnData::Utf8 { .. }));
    }

    #[test]
    fn dict_handles_nulls_and_push() {
        let mut c = ColumnData::strs_dict(vec!["a".into(), "b".into(), "a".into(), "a".into()]);
        c.push(Value::Null).unwrap();
        assert_eq!(c.null_count(), 1);
        assert_eq!(c.value(4), Value::Null);
        assert!(matches!(c, ColumnData::Dict { .. }));
        // Pushing a known string keeps the encoding; an unknown one decodes
        // back to plain Utf8 with identical values.
        c.push(Value::Str("b".into())).unwrap();
        assert!(matches!(c, ColumnData::Dict { .. }));
        let before: Vec<Value> = c.iter().collect();
        c.push(Value::Str("zzz".into())).unwrap();
        assert!(matches!(c, ColumnData::Utf8 { .. }));
        let after: Vec<Value> = c.iter().collect();
        assert_eq!(&after[..before.len()], &before[..]);
        assert_eq!(after.last(), Some(&Value::Str("zzz".into())));
    }

    #[test]
    fn dict_hash_eq_cmp_match_utf8_semantics() {
        let vals = vec![
            Value::Str("b".into()),
            Value::Null,
            Value::Str("a".into()),
            Value::Str("b".into()),
        ];
        let plain = ColumnData::from_values(vals.clone(), None).unwrap();
        let dict = plain.clone().dict_encode();
        assert!(matches!(dict, ColumnData::Dict { .. }));
        for i in 0..vals.len() {
            // Hashing matches Value::hash through either representation.
            let mut h1 = DefaultHasher::new();
            dict.hash_value_into(i, &mut h1);
            let mut h2 = DefaultHasher::new();
            vals[i].hash(&mut h2);
            assert_eq!(h1.finish(), h2.finish(), "hash differs at {i}");
            assert_eq!(dict.fold_hash(i, 7), plain.fold_hash(i, 7));
            for j in 0..vals.len() {
                assert_eq!(dict.eq_at(i, &dict, j), vals[i] == vals[j]);
                assert_eq!(dict.eq_at(i, &plain, j), vals[i] == vals[j]);
                assert_eq!(plain.eq_at(i, &dict, j), vals[i] == vals[j]);
                assert_eq!(dict.cmp_at(i, &dict, j), vals[i].cmp(&vals[j]));
                assert_eq!(dict.cmp_at(i, &plain, j), vals[i].cmp(&vals[j]));
            }
        }
        assert!(dict.semantic_eq(&plain));
    }

    #[test]
    fn dict_gather_shares_dictionary() {
        let c = ColumnData::strs_dict(vec!["a".into(), "b".into(), "a".into(), "b".into()]);
        let g = c.gather(&[3, 0]);
        let (_, d1, _) = c.dict_parts().unwrap();
        let (codes, d2, _) = g.dict_parts().unwrap();
        assert!(Arc::ptr_eq(d1, d2), "gather must share the dictionary");
        assert_eq!(codes, &[1, 0]);
    }

    #[test]
    fn dict_from_parts_canonicalizes_and_validates() {
        // Unsorted wire dictionary: re-sorted, codes remapped.
        let c = ColumnData::dict_from_parts(
            vec!["b".into(), "a".into()],
            vec![Some(0), Some(1), None, Some(0)],
        )
        .unwrap();
        assert_eq!(c.value(0), Value::Str("b".into()));
        assert_eq!(c.value(1), Value::Str("a".into()));
        assert_eq!(c.value(2), Value::Null);
        let (_, d, _) = c.dict_parts().unwrap();
        assert_eq!(d.as_slice(), &["a", "b"]);
        // Out-of-range codes and duplicate entries are rejected.
        assert!(ColumnData::dict_from_parts(vec!["a".into()], vec![Some(1)]).is_none());
        assert!(ColumnData::dict_from_parts(vec!["a".into(), "a".into()], vec![Some(0)]).is_none());
    }

    #[test]
    fn dict_sql_eq_and_code_lookup() {
        let c = ColumnData::strs_dict(vec!["a".into(), "b".into(), "a".into(), "b".into()]);
        assert_eq!(c.sql_eq_value(0, &Value::Str("a".into())), Some(true));
        assert_eq!(c.sql_eq_value(1, &Value::Str("a".into())), Some(false));
        assert_eq!(c.sql_eq_value(0, &Value::Int(1)), None);
        assert_eq!(c.dict_code_of("a"), Some(Ok(0)));
        assert_eq!(c.dict_code_of("b"), Some(Ok(1)));
        assert_eq!(c.dict_code_of("aa"), Some(Err(1)));
        assert_eq!(c.dict_code_of("z"), Some(Err(2)));
    }

    #[test]
    fn null_mask_extend_matches_bit_by_bit() {
        // Word-wise concatenation at every alignment: part lengths around
        // the word size, each all-valid, all-null and mixed, in every
        // ordered triple — against pushing the bits one at a time.
        let lens = [0usize, 1, 63, 64, 65, 127, 128];
        let fills: [fn(usize) -> bool; 3] = [|_| false, |_| true, |i| i % 3 == 0 || i % 64 == 63];
        let mut parts: Vec<NullMask> = Vec::new();
        for &len in &lens {
            for fill in fills {
                let mut m = NullMask::new();
                (0..len).for_each(|i| m.push(fill(i)));
                parts.push(m);
            }
        }
        for a in &parts {
            for b in &parts {
                for c in [&parts[0], &parts[5], &parts[13]] {
                    let mut fast = NullMask::new();
                    let mut slow = NullMask::new();
                    for p in [a, b, c] {
                        fast.extend_from(p);
                        (0..p.len()).for_each(|i| slow.push(p.is_null(i)));
                    }
                    assert_eq!(fast, slow, "lens {} {} {}", a.len(), b.len(), c.len());
                }
            }
        }
    }

    #[test]
    fn concat_keeps_null_slots_through_dictionary_remaps() {
        let mk = |vals: &[Option<&str>]| {
            let mut c = ColumnData::strs_dict(Vec::new());
            vals.iter().for_each(|v| {
                c.push(v.map_or(Value::Null, |s| Value::Str(s.into())))
                    .unwrap()
            });
            c.dict_encode()
        };
        let a = mk(&[Some("m"), None, Some("m"), Some("z")]);
        let b = mk(&[None, Some("a"), Some("a"), Some("m")]);
        assert!(a.dict_parts().is_some() && b.dict_parts().is_some());
        let joined = ColumnData::concat(&[&a, &b, &a]);
        let (_, dict, nulls) = joined.dict_parts().expect("stays dictionary-encoded");
        assert_eq!(**dict, ["a", "m", "z"]);
        assert_eq!(nulls.null_count(), 3);
        let expect: Vec<Value> = a.iter().chain(b.iter()).chain(a.iter()).collect();
        assert_eq!(joined.iter().collect::<Vec<_>>(), expect);
    }

    #[test]
    fn dict_encode_like_shares_or_builds_its_own_dictionary() {
        let base = ColumnData::strs_dict(["b", "d", "b", "d"].map(String::from).to_vec());
        let (_, dict, _) = base.dict_parts().unwrap();
        let known = ColumnData::strs(vec!["d".into(), "b".into()]);
        let enc = known.dict_encode_like(dict).unwrap();
        assert!(Arc::ptr_eq(enc.dict_parts().unwrap().1, dict));
        assert!(enc.semantic_eq(&known));
        // One unknown value (sorting before every known one): the chunk's
        // own dictionary, not the union, and no cardinality cutoff.
        let novel = ColumnData::strs(vec!["a".into(), "d".into()]);
        let enc = novel.dict_encode_like(dict).unwrap();
        assert_eq!(**enc.dict_parts().unwrap().1, ["a", "d"]);
        assert!(enc.semantic_eq(&novel));
        assert!(ColumnData::ints(vec![1]).dict_encode_like(dict).is_none());
    }

    #[test]
    fn null_mask_truncate_clears_high_bits() {
        let mut m = NullMask::new();
        for i in 0..70 {
            m.push(i % 3 == 0);
        }
        let nulls_before: Vec<usize> = (0..70).filter(|&i| m.is_null(i)).collect();
        m.truncate(65);
        for &i in nulls_before.iter().filter(|&&i| i < 65) {
            assert!(m.is_null(i));
        }
        assert_eq!(
            m.null_count(),
            nulls_before.iter().filter(|&&i| i < 65).count()
        );
    }
}
