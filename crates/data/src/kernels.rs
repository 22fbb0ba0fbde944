//! Word-level (u64-lane) and explicit-SIMD compute kernels.
//!
//! The vectorized engine's hottest inner loops — typed comparison filters,
//! dict-code equality/IN, three-valued boolean logic, selection-vector
//! construction and sum/min/max/count aggregation — process one row per
//! iteration when written naively, and the autovectorizer does not rescue
//! the interesting ones (variable-length outputs, gathers, three-valued
//! logic). The kernels here work a cache line at a time instead, in three
//! tiers selected once at startup:
//!
//! * **Avx2** — 256-bit `std::arch::x86_64` paths for i64/f64 compares,
//!   small IN sets, NaN scans, predicate packing and the gathered 4-lane
//!   f64 min/max fold, used when the CPU reports AVX2.
//! * **Sse2** — 128-bit paths for f64 compares and predicate packing
//!   (SSE2 is baseline on x86_64; the other kernels have no SSE2 form and
//!   fall back to the portable tier).
//! * **Scalar** — portable u64-lane / scalar code, the reference the SIMD
//!   tiers must match bit-for-bit, and the only tier on non-x86 targets.
//!
//! A hand-written body stays only while it beats the autovectorised
//! portable one by at least 1.3×; `cmp_u32` (dict-code compares) and the
//! dense integer statistics behind `sum_i64`/`min_max_i64` run their
//! portable bodies at every tier.
//!
//! Dispatch rules: the hardware tier is detected once via
//! `is_x86_feature_detected!` and cached in a `OnceLock`; setting
//! `PI2_SIMD=0` in the environment pins the Scalar tier (kill switch);
//! tests force a tier in-process with [`set_simd_level`] (clamped to what
//! the hardware supports, so forcing Avx2 on a non-AVX2 box degrades
//! safely). Every kernel returns results bit-identical to the scalar
//! engine — f64 summation is never reassociated ([`sum_f64`] stays
//! sequential, and [`sum_i64`] only takes the four-lane integer shortcut
//! when a `count · max|v| ≤ 2⁵³` bound proves every scalar partial sum was
//! exact).

use crate::column::{f64_ord_key, NullMask};
use std::cmp::Ordering;
use std::sync::atomic::{AtomicU8, Ordering as AtomicOrdering};
use std::sync::OnceLock;

// ---------------------------------------------------------------------------
// SIMD tier selection
// ---------------------------------------------------------------------------

/// Instruction-set tier a kernel call runs at. Ordered: a forced level is
/// clamped to what the hardware supports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SimdLevel {
    /// Portable u64-lane / scalar code (the bit-exactness reference).
    Scalar = 0,
    /// 128-bit `std::arch::x86_64` paths (baseline on x86_64).
    Sse2 = 1,
    /// 256-bit `std::arch::x86_64` paths.
    Avx2 = 2,
}

/// Best tier this CPU supports, detected once.
fn hw_level() -> SimdLevel {
    static HW: OnceLock<SimdLevel> = OnceLock::new();
    *HW.get_or_init(|| {
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx2") {
                return SimdLevel::Avx2;
            }
            if std::arch::is_x86_feature_detected!("sse2") {
                return SimdLevel::Sse2;
            }
        }
        SimdLevel::Scalar
    })
}

/// Tier after applying the `PI2_SIMD=0` kill switch, read once.
fn default_level() -> SimdLevel {
    static DEFAULT: OnceLock<SimdLevel> = OnceLock::new();
    *DEFAULT.get_or_init(|| {
        if std::env::var("PI2_SIMD").is_ok_and(|v| v == "0") {
            SimdLevel::Scalar
        } else {
            hw_level()
        }
    })
}

/// In-process override for tests: `u8::MAX` means "not forced".
static FORCED: AtomicU8 = AtomicU8::new(u8::MAX);

/// Force every subsequent kernel call onto `level` (clamped to the
/// hardware's capability), or restore default dispatch with `None`. Test
/// hook: the differential suites sweep Scalar/Sse2/Avx2 in one process.
pub fn set_simd_level(level: Option<SimdLevel>) {
    FORCED.store(
        level.map(|l| l as u8).unwrap_or(u8::MAX),
        AtomicOrdering::Relaxed,
    );
}

/// The tier kernels dispatch on for this call.
#[inline]
pub fn simd_level() -> SimdLevel {
    match FORCED.load(AtomicOrdering::Relaxed) {
        0 => SimdLevel::Scalar,
        1 => SimdLevel::Sse2.min(hw_level()),
        2 => SimdLevel::Avx2.min(hw_level()),
        _ => default_level(),
    }
}

// ---------------------------------------------------------------------------
// Bool-byte plumbing
// ---------------------------------------------------------------------------

/// Multiplier packing eight `0x00`/`0x01` bytes into the top output byte:
/// `(lanes * PACK) >> 56` has bit `k` equal to input byte `k`.
const PACK: u64 = 0x0102_0408_1020_4080;

/// `&[bool]` viewed as raw bytes.
///
/// SAFETY (of the internal cast): `bool` is guaranteed to be one byte with
/// value `0x00` or `0x01`, so the reinterpretation is valid for reads.
#[inline]
fn bool_bytes(values: &[bool]) -> &[u8] {
    unsafe { std::slice::from_raw_parts(values.as_ptr().cast::<u8>(), values.len()) }
}

/// `&mut [bool]` viewed as raw bytes, for kernels that store predicate
/// results byte-at-a-time.
///
/// SAFETY (of the internal cast): same layout as [`bool_bytes`]; every
/// writer in this module stores only `0x00` or `0x01`, so the `bool`s stay
/// valid.
#[inline]
fn bool_bytes_mut(values: &mut [bool]) -> &mut [u8] {
    unsafe { std::slice::from_raw_parts_mut(values.as_mut_ptr().cast::<u8>(), values.len()) }
}

/// 8-bit mask → eight `0x00`/`0x01` bytes, little-endian bit order.
/// Indexed by movemask results to turn lane masks into bool bytes.
const fn lut8() -> [u64; 256] {
    let mut t = [0u64; 256];
    let mut m = 0;
    while m < 256 {
        let mut v = 0u64;
        let mut b = 0;
        while b < 8 {
            if m >> b & 1 == 1 {
                v |= 1 << (8 * b);
            }
            b += 1;
        }
        t[m] = v;
        m += 1;
    }
    t
}

/// See [`lut8`].
static LUT8: [u64; 256] = lut8();

/// Zero the unused high bits of the tail word (slots `len..`).
fn clear_tail(words: &mut [u64], len: usize) {
    if let (Some(last), rem @ 1..) = (words.last_mut(), len % 64) {
        *last &= (1u64 << rem) - 1;
    }
}

/// Pack a predicate column into bitmap words (bit `i%64` of word `i/64` set
/// ⇒ `values[i]`; tail bits beyond `len` are zero).
pub fn pack_bools(values: &[bool]) -> Vec<u64> {
    let bytes = bool_bytes(values);
    let mut words = vec![0u64; values.len().div_ceil(64)];
    let full = values.len() / 64;
    match simd_level() {
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 => unsafe { x86::pack_words_avx2(bytes, &mut words[..full]) },
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Sse2 => x86::pack_words_sse2(bytes, &mut words[..full]),
        _ => pack_words_portable(bytes, &mut words[..full]),
    }
    for (k, &b) in bytes[full * 64..].iter().enumerate() {
        if b != 0 {
            words[full] |= 1 << k;
        }
    }
    words
}

/// Portable word packer: eight bytes → eight bits with one multiply.
fn pack_words_portable(bytes: &[u8], words: &mut [u64]) {
    for (w, word) in words.iter_mut().enumerate() {
        let mut acc = 0u64;
        for (k, lane) in bytes[w * 64..w * 64 + 64].chunks_exact(8).enumerate() {
            let lane = u64::from_le_bytes(lane.try_into().expect("8-byte lane"));
            acc |= (lane.wrapping_mul(PACK) >> 56) << (8 * k);
        }
        *word = acc;
    }
}

/// Unpack bitmap words back into a bool column of `len` slots (inverse of
/// [`pack_bools`]; bits beyond `len` are ignored). Expands one byte of the
/// word to eight bool bytes with three shift-or steps.
pub fn unpack_words(words: &[u64], len: usize) -> Vec<bool> {
    let mut bytes = vec![0u8; len];
    let full = len / 64;
    for w in 0..full {
        let word = words[w];
        for k in 0..8 {
            let b = (word >> (8 * k)) & 0xFF;
            let mut y = b.wrapping_mul(0x0101_0101_0101_0101) & 0x8040_2010_0804_0201;
            y |= y >> 4;
            y |= y >> 2;
            y |= y >> 1;
            y &= 0x0101_0101_0101_0101;
            bytes[w * 64 + 8 * k..w * 64 + 8 * k + 8].copy_from_slice(&y.to_le_bytes());
        }
    }
    for (k, byte) in bytes[full * 64..].iter_mut().enumerate() {
        *byte = (words[full] >> k & 1) as u8;
    }
    // SAFETY: `u8` and `bool` have identical size/alignment and every byte
    // written above is 0 or 1, a valid `bool` representation; ownership of
    // the allocation transfers without copying.
    let mut bytes = std::mem::ManuallyDrop::new(bytes);
    unsafe {
        Vec::from_raw_parts(
            bytes.as_mut_ptr().cast::<bool>(),
            bytes.len(),
            bytes.capacity(),
        )
    }
}

/// Clear `values[i]` wherever `nulls` flags slot `i` — the engine's
/// "placeholder false under NULL" convention for predicate outputs.
pub fn zero_nulls(values: &mut [bool], nulls: &NullMask) {
    debug_assert_eq!(values.len(), nulls.len());
    if nulls.null_count() == 0 {
        return;
    }
    for (w, &word) in nulls.words().iter().enumerate() {
        let mut word = word;
        while word != 0 {
            values[w * 64 + word.trailing_zeros() as usize] = false;
            word &= word - 1;
        }
    }
}

/// Append the row indices of every set bit in `word` (rows `base + bit`).
#[inline]
fn push_set_bits(mut word: u64, base: u32, out: &mut Vec<u32>) {
    while word != 0 {
        out.push(base + word.trailing_zeros());
        word &= word - 1;
    }
}

/// Selection-vector construction: the indices (offset by `base`) of rows
/// where the predicate is `true` *and* valid, 64 rows per step.
///
/// This fuses the two word-level kernels: predicate bytes → bitmap words
/// ([`pack_bools`], SIMD-packed when available), then intersection with the
/// validity bitmap (`& !null_word`). Equivalent to the naive
/// `values[i] && !nulls.is_null(i)` loop, returned in ascending row order.
pub fn bool_selection(values: &[bool], nulls: &NullMask, base: u32) -> Vec<u32> {
    debug_assert_eq!(values.len(), nulls.len());
    let mut out = Vec::new();
    let null_words = nulls.words();
    for (w, word) in pack_bools(values).into_iter().enumerate() {
        // Validity intersection: knock out NULL rows one word at a time.
        // The value word's tail bits are zero, so the inverted null tail
        // (all ones) cannot leak phantom rows.
        push_set_bits(word & !null_words[w], base + (w as u32) * 64, &mut out);
    }
    out
}

// ---------------------------------------------------------------------------
// Typed comparison filters
// ---------------------------------------------------------------------------

/// Comparison operator for the typed filter kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)] // the standard six comparison operators
pub enum CmpOp {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

/// Pure-integer rewrite of `(v as f64) op c`, derived from the monotone
/// i64 → f64 conversion: `t_ge = min{v : (v as f64) ≥ c}` and
/// `t_gt = min{v : (v as f64) > c}` (binary-searched) turn every operator
/// into integer range tests SIMD can evaluate exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum IntPred {
    AllTrue,
    AllFalse,
    /// `v >= t`
    Ge(i64),
    /// `v < t`
    Lt(i64),
    /// `lo <= v < hi`
    In(i64, i64),
    /// `!(lo <= v < hi)`
    NotIn(i64, i64),
}

impl IntPred {
    #[inline]
    fn test(&self, v: i64) -> bool {
        match *self {
            IntPred::AllTrue => true,
            IntPred::AllFalse => false,
            IntPred::Ge(t) => v >= t,
            IntPred::Lt(t) => v < t,
            IntPred::In(lo, hi) => lo <= v && v < hi,
            IntPred::NotIn(lo, hi) => !(lo <= v && v < hi),
        }
    }
}

/// Smallest `v` with `pred(v)` for a monotone (false…false,true…true)
/// predicate, as an i128 so "none" is `i64::MAX + 1`.
fn lower_bound_i64(mut pred: impl FnMut(i64) -> bool) -> i128 {
    if !pred(i64::MAX) {
        return i64::MAX as i128 + 1;
    }
    if pred(i64::MIN) {
        return i64::MIN as i128;
    }
    let (mut lo, mut hi) = (i64::MIN as i128, i64::MAX as i128);
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if pred(mid as i64) {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    hi
}

const I64_NONE: i128 = i64::MAX as i128 + 1;
const I64_ALL: i128 = i64::MIN as i128;

/// Compile `(v as f64) op c` into an [`IntPred`].
fn int_plan(c: f64, op: CmpOp) -> IntPred {
    if c.is_nan() {
        // IEEE: every ordered comparison with NaN is false, `!=` is true.
        return match op {
            CmpOp::Ne => IntPred::AllTrue,
            _ => IntPred::AllFalse,
        };
    }
    let t_ge = lower_bound_i64(|v| (v as f64) >= c);
    let ge = |t: i128| match t {
        I64_ALL => IntPred::AllTrue,
        I64_NONE => IntPred::AllFalse,
        t => IntPred::Ge(t as i64),
    };
    let lt = |t: i128| match t {
        I64_ALL => IntPred::AllFalse,
        I64_NONE => IntPred::AllTrue,
        t => IntPred::Lt(t as i64),
    };
    match op {
        CmpOp::Ge => ge(t_ge),
        CmpOp::Lt => lt(t_ge),
        CmpOp::Gt => ge(lower_bound_i64(|v| (v as f64) > c)),
        CmpOp::Le => lt(lower_bound_i64(|v| (v as f64) > c)),
        CmpOp::Eq | CmpOp::Ne => {
            let t_gt = lower_bound_i64(|v| (v as f64) > c);
            let eq = match (t_ge, t_gt) {
                (a, b) if a == b => IntPred::AllFalse,
                (I64_ALL, I64_NONE) => IntPred::AllTrue,
                (I64_ALL, b) => IntPred::Lt(b as i64),
                (a, I64_NONE) => IntPred::Ge(a as i64),
                (a, b) => IntPred::In(a as i64, b as i64),
            };
            if op == CmpOp::Eq {
                eq
            } else {
                match eq {
                    IntPred::AllFalse => IntPred::AllTrue,
                    IntPred::AllTrue => IntPred::AllFalse,
                    IntPred::Lt(t) => IntPred::Ge(t),
                    IntPred::Ge(t) => IntPred::Lt(t),
                    IntPred::In(lo, hi) => IntPred::NotIn(lo, hi),
                    p => p,
                }
            }
        }
    }
}

/// `(v as f64) op c` over an `i64`/`Date64` slice — the engine's
/// int-vs-literal comparison semantics, evaluated as exact integer range
/// tests (see the private `IntPred` plan).
pub fn cmp_i64(values: &[i64], c: f64, op: CmpOp) -> Vec<bool> {
    let plan = int_plan(c, op);
    match plan {
        IntPred::AllTrue => return vec![true; values.len()],
        IntPred::AllFalse => return vec![false; values.len()],
        _ => {}
    }
    let mut out = vec![false; values.len()];
    match simd_level() {
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 => unsafe { x86::cmp_i64_avx2(values, &plan, bool_bytes_mut(&mut out)) },
        // SSE2 has no 64-bit integer compare; the portable loop is the
        // Sse2-tier implementation too.
        _ => cmp_i64_portable(values, &plan, &mut out),
    }
    out
}

fn cmp_i64_portable(values: &[i64], plan: &IntPred, out: &mut [bool]) {
    match *plan {
        IntPred::Ge(t) => {
            for (o, &v) in out.iter_mut().zip(values) {
                *o = v >= t;
            }
        }
        IntPred::Lt(t) => {
            for (o, &v) in out.iter_mut().zip(values) {
                *o = v < t;
            }
        }
        IntPred::In(lo, hi) => {
            for (o, &v) in out.iter_mut().zip(values) {
                *o = lo <= v && v < hi;
            }
        }
        IntPred::NotIn(lo, hi) => {
            for (o, &v) in out.iter_mut().zip(values) {
                *o = !(lo <= v && v < hi);
            }
        }
        IntPred::AllTrue | IntPred::AllFalse => unreachable!("handled by caller"),
    }
}

/// `v op c` over an `f64` slice with IEEE semantics (ordered comparisons
/// are false on NaN, `!=` is true; `-0.0 == 0.0`) — exactly the engine's
/// float-vs-literal comparison.
pub fn cmp_f64(values: &[f64], c: f64, op: CmpOp) -> Vec<bool> {
    let mut out = vec![false; values.len()];
    match simd_level() {
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 => unsafe { x86::cmp_f64_avx2(values, c, op, bool_bytes_mut(&mut out)) },
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Sse2 => x86::cmp_f64_sse2(values, c, op, bool_bytes_mut(&mut out)),
        _ => cmp_f64_portable(values, c, op, &mut out),
    }
    out
}

fn cmp_f64_portable(values: &[f64], c: f64, op: CmpOp, out: &mut [bool]) {
    match op {
        CmpOp::Eq => {
            for (o, &v) in out.iter_mut().zip(values) {
                *o = v == c;
            }
        }
        CmpOp::Ne => {
            for (o, &v) in out.iter_mut().zip(values) {
                *o = v != c;
            }
        }
        CmpOp::Lt => {
            for (o, &v) in out.iter_mut().zip(values) {
                *o = v < c;
            }
        }
        CmpOp::Le => {
            for (o, &v) in out.iter_mut().zip(values) {
                *o = v <= c;
            }
        }
        CmpOp::Gt => {
            for (o, &v) in out.iter_mut().zip(values) {
                *o = v > c;
            }
        }
        CmpOp::Ge => {
            for (o, &v) in out.iter_mut().zip(values) {
                *o = v >= c;
            }
        }
    }
}

/// `v op c` over dictionary codes (`u32`, unsigned order) — the dict-filter
/// kernel behind string-vs-literal comparisons. The autovectorised loop
/// runs at least as fast as hand-written SSE2 and AVX2 bodies, so it has
/// none.
pub fn cmp_u32(values: &[u32], c: u32, op: CmpOp) -> Vec<bool> {
    let mut out = vec![false; values.len()];
    match op {
        CmpOp::Eq => {
            for (o, &v) in out.iter_mut().zip(values) {
                *o = v == c;
            }
        }
        CmpOp::Ne => {
            for (o, &v) in out.iter_mut().zip(values) {
                *o = v != c;
            }
        }
        CmpOp::Lt => {
            for (o, &v) in out.iter_mut().zip(values) {
                *o = v < c;
            }
        }
        CmpOp::Le => {
            for (o, &v) in out.iter_mut().zip(values) {
                *o = v <= c;
            }
        }
        CmpOp::Gt => {
            for (o, &v) in out.iter_mut().zip(values) {
                *o = v > c;
            }
        }
        CmpOp::Ge => {
            for (o, &v) in out.iter_mut().zip(values) {
                *o = v >= c;
            }
        }
    }
    out
}

/// `v ∈ sorted` over dictionary codes (the IN-list kernel). `sorted` must
/// be strictly ascending. Small sets take a SIMD equality chain; larger
/// sets with small code spans take a lookup table; huge spans (codes near
/// `u32::MAX`) binary-search.
pub fn in_set_u32(values: &[u32], sorted: &[u32]) -> Vec<bool> {
    debug_assert!(sorted.windows(2).all(|w| w[0] < w[1]));
    let mut out = vec![false; values.len()];
    let Some(&last) = sorted.last() else {
        return out;
    };
    if sorted.len() <= 8 {
        match simd_level() {
            #[cfg(target_arch = "x86_64")]
            SimdLevel::Avx2 => unsafe {
                x86::in_small_set_avx2(values, sorted, bool_bytes_mut(&mut out))
            },
            _ => {
                for (o, v) in out.iter_mut().zip(values) {
                    *o = sorted.contains(v);
                }
            }
        }
    } else if (last as usize) < (1 << 22) {
        let mut table = vec![false; last as usize + 1];
        for &s in sorted {
            table[s as usize] = true;
        }
        for (o, &v) in out.iter_mut().zip(values) {
            *o = v <= last && table[v as usize];
        }
    } else {
        for (o, v) in out.iter_mut().zip(values) {
            *o = sorted.binary_search(v).is_ok();
        }
    }
    out
}

/// Whether any element is NaN (SIMD-accelerated scan used to guard the
/// float filter fast paths).
pub fn has_nan(values: &[f64]) -> bool {
    match simd_level() {
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 => unsafe { x86::has_nan_avx2(values) },
        _ => values.iter().any(|v| v.is_nan()),
    }
}

// ---------------------------------------------------------------------------
// Three-valued boolean logic
// ---------------------------------------------------------------------------

/// Word-level Kleene connective.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)] // the two connectives
pub enum Kleene {
    And,
    Or,
}

/// SQL three-valued AND/OR over two nullable bool columns, 64 rows per
/// step. Truth table (Kleene): `FALSE AND NULL = FALSE`,
/// `TRUE OR NULL = TRUE`, otherwise NULL propagates. Output slots that are
/// NULL carry the engine's `false` placeholder.
pub fn kleene(
    op: Kleene,
    av: &[bool],
    an: &NullMask,
    bv: &[bool],
    bn: &NullMask,
) -> (Vec<bool>, NullMask) {
    let len = av.len();
    debug_assert!(bv.len() == len && an.len() == len && bn.len() == len);
    let aw = pack_bools(av);
    let bw = pack_bools(bv);
    let (anw, bnw) = (an.words(), bn.words());
    let mut vw = vec![0u64; aw.len()];
    let mut nw = vec![0u64; aw.len()];
    for i in 0..aw.len() {
        // Known-true / known-false lanes; everything else is NULL.
        let at = aw[i] & !anw[i];
        let af = !aw[i] & !anw[i];
        let bt = bw[i] & !bnw[i];
        let bf = !bw[i] & !bnw[i];
        let (t, f) = match op {
            Kleene::And => (at & bt, af | bf),
            Kleene::Or => (at | bt, af & bf),
        };
        vw[i] = t;
        nw[i] = !(t | f);
    }
    clear_tail(&mut vw, len);
    clear_tail(&mut nw, len);
    (unpack_words(&vw, len), NullMask::from_words(nw, len))
}

/// The BETWEEN combiner over the two half-range predicates: NULL if either
/// side is NULL, else `(ge && le) != negated` — the engine's
/// `eval_between_bools`, 64 rows per step.
pub fn between_combine(
    gev: &[bool],
    gen: &NullMask,
    lev: &[bool],
    len_mask: &NullMask,
    negated: bool,
) -> (Vec<bool>, NullMask) {
    let len = gev.len();
    debug_assert!(lev.len() == len && gen.len() == len && len_mask.len() == len);
    let aw = pack_bools(gev);
    let bw = pack_bools(lev);
    let (anw, bnw) = (gen.words(), len_mask.words());
    let neg = if negated { !0u64 } else { 0 };
    let mut vw = vec![0u64; aw.len()];
    let mut nw = vec![0u64; aw.len()];
    for i in 0..aw.len() {
        let valid = !anw[i] & !bnw[i];
        vw[i] = ((aw[i] & bw[i]) ^ neg) & valid;
        nw[i] = !valid;
    }
    clear_tail(&mut vw, len);
    clear_tail(&mut nw, len);
    (unpack_words(&vw, len), NullMask::from_words(nw, len))
}

/// `IS NULL` (`negated == false`) / `IS NOT NULL` (`negated == true`) as a
/// bool column, straight from the bitmap words.
pub fn null_flags(nulls: &NullMask, negated: bool) -> Vec<bool> {
    if !negated {
        return unpack_words(nulls.words(), nulls.len());
    }
    let mut words: Vec<u64> = nulls.words().iter().map(|w| !w).collect();
    clear_tail(&mut words, nulls.len());
    unpack_words(&words, nulls.len())
}

// ---------------------------------------------------------------------------
// Aggregation
// ---------------------------------------------------------------------------

/// Non-NULL slots among `idx` (the `count(col)` kernel).
pub fn count_valid(nulls: &NullMask, idx: &[u32]) -> usize {
    if nulls.null_count() == 0 {
        return idx.len();
    }
    let words = nulls.words();
    idx.iter()
        .filter(|&&i| words[i as usize / 64] >> (i as usize % 64) & 1 == 0)
        .count()
}

/// One-pass integer statistics over the selected slots: wrapping sum, min,
/// max and valid count. The wrapped sum is only *used* when the 2⁵³ bound
/// below proves it never wrapped.
fn int_stats(values: &[i64], nulls: &NullMask, idx: &[u32]) -> (i64, i64, i64, usize) {
    if nulls.null_count() == 0 {
        return int_stats_dense(values, idx);
    }
    let words = nulls.words();
    let (mut sum, mut mn, mut mx, mut count) = (0i64, i64::MAX, i64::MIN, 0usize);
    for &i in idx {
        let i = i as usize;
        if words[i / 64] >> (i % 64) & 1 == 0 {
            let v = values[i];
            sum = sum.wrapping_add(v);
            mn = mn.min(v);
            mx = mx.max(v);
            count += 1;
        }
    }
    (sum, mn, mx, count)
}

/// Dense pass, four independent accumulator lanes so the adds and min/max
/// chains pipeline (wrapping add and integer min/max are associative, so
/// lane order cannot change the result). It runs as fast as an AVX2
/// gather, so it has no hand-written SIMD body.
fn int_stats_dense(values: &[i64], idx: &[u32]) -> (i64, i64, i64, usize) {
    let mut s = [0i64; 4];
    let mut mn = [i64::MAX; 4];
    let mut mx = [i64::MIN; 4];
    let mut chunks = idx.chunks_exact(4);
    for ch in &mut chunks {
        for k in 0..4 {
            let v = values[ch[k] as usize];
            s[k] = s[k].wrapping_add(v);
            mn[k] = mn[k].min(v);
            mx[k] = mx[k].max(v);
        }
    }
    let (mut sum, mut min, mut max) = (0i64, i64::MAX, i64::MIN);
    for k in 0..4 {
        sum = sum.wrapping_add(s[k]);
        min = min.min(mn[k]);
        max = max.max(mx[k]);
    }
    for &i in chunks.remainder() {
        let v = values[i as usize];
        sum = sum.wrapping_add(v);
        min = min.min(v);
        max = max.max(v);
    }
    (sum, min, max, idx.len())
}

/// Sum over the selected slots of an `i64` column, returning exactly what
/// the scalar engine's sequential `total += v as f64` loop returns, plus
/// the valid count.
///
/// Fast path: a four-lane integer pass. It is bit-identical to the scalar
/// loop whenever `count · max|v| ≤ 2⁵³`: every scalar partial sum is then
/// an integer of magnitude ≤ 2⁵³, each f64 add is exact, and the exact sum
/// is order-independent. Outside that bound the scalar loop is replayed
/// verbatim (its rounding is order-dependent and part of the contract).
pub fn sum_i64(values: &[i64], nulls: &NullMask, idx: &[u32]) -> (f64, usize) {
    let (sum, mn, mx, count) = int_stats(values, nulls, idx);
    if count == 0 {
        return (0.0, 0);
    }
    let bound = mn.unsigned_abs().max(mx.unsigned_abs()) as u128 * count as u128;
    if bound <= 1u128 << 53 {
        return (sum as f64, count);
    }
    let mut total = 0.0f64;
    let mut n = 0usize;
    for &i in idx {
        let i = i as usize;
        if !nulls.is_null(i) {
            total += values[i] as f64;
            n += 1;
        }
    }
    (total, n)
}

/// Sum over the selected slots of an `f64` column. **Never SIMD**: f64
/// addition is not associative and the engine's result is defined as the
/// sequential idx-order sum — reassociating into lanes would change
/// low-order bits (pinned by the differential tests).
pub fn sum_f64(values: &[f64], nulls: &NullMask, idx: &[u32]) -> (f64, usize) {
    let mut total = 0.0f64;
    if nulls.null_count() == 0 {
        for &i in idx {
            total += values[i as usize];
        }
        return (total, idx.len());
    }
    let mut n = 0usize;
    for &i in idx {
        let i = i as usize;
        if !nulls.is_null(i) {
            total += values[i];
            n += 1;
        }
    }
    (total, n)
}

/// min/max over the selected slots of an `i64` column, matching the scalar
/// engine's fold over `(v as f64).total_cmp` with first-tie-wins for min
/// and last-tie-wins for max. Within ±2⁵³ the conversion is injective, so
/// the integer pass's answer is the unique scalar answer; beyond it
/// conversion ties make the winning *index* observable and the scalar fold
/// is replayed.
pub fn min_max_i64(values: &[i64], nulls: &NullMask, idx: &[u32], want_min: bool) -> Option<i64> {
    let (_, mn, mx, count) = int_stats(values, nulls, idx);
    if count == 0 {
        return None;
    }
    if mn.unsigned_abs().max(mx.unsigned_abs()) <= 1u64 << 53 {
        return Some(if want_min { mn } else { mx });
    }
    let mut best: Option<usize> = None;
    for &i in idx {
        let i = i as usize;
        if nulls.is_null(i) {
            continue;
        }
        best = Some(match best {
            None => i,
            Some(b) => {
                let ord = (values[i] as f64).total_cmp(&(values[b] as f64));
                let replace = if want_min {
                    ord == Ordering::Less
                } else {
                    ord != Ordering::Less
                };
                if replace {
                    i
                } else {
                    b
                }
            }
        });
    }
    best.map(|b| values[b])
}

/// The engine's Float64 ordering: IEEE `partial_cmp`, falling back to the
/// total-order key only when NaN is involved.
#[inline]
fn cmp_f64_engine(a: f64, b: f64) -> Ordering {
    a.partial_cmp(&b)
        .unwrap_or_else(|| f64_ord_key(a).cmp(&f64_ord_key(b)))
}

/// min/max over the selected slots of an `f64` column, matching the scalar
/// engine's fold (first-tie-wins min, last-tie-wins max — observable at
/// `-0.0` vs `0.0`, which compare Equal but print differently).
///
/// Fast path: a numeric (SIMD) min/max pass with in-pass NaN detection;
/// a `±0.0` result re-scans for the tie-winning occurrence. NaN or NULLs
/// present → scalar fold replay.
pub fn min_max_f64(values: &[f64], nulls: &NullMask, idx: &[u32], want_min: bool) -> Option<f64> {
    if idx.is_empty() {
        return None;
    }
    if nulls.null_count() == 0 {
        let (m, saw_nan) = match simd_level() {
            #[cfg(target_arch = "x86_64")]
            SimdLevel::Avx2 if values.len() <= i32::MAX as usize => unsafe {
                x86::fold_f64_avx2(values, idx, want_min)
            },
            _ => fold_f64_portable(values, idx, want_min),
        };
        if !saw_nan {
            if m == 0.0 {
                // Both zero signs compare Equal: the fold keeps the first
                // (min) / last (max) occurrence, so its sign is observable.
                let hit = if want_min {
                    idx.iter().find(|&&i| values[i as usize] == 0.0)
                } else {
                    idx.iter().rev().find(|&&i| values[i as usize] == 0.0)
                };
                return hit.map(|&i| values[i as usize]);
            }
            return Some(m);
        }
    }
    let mut best: Option<usize> = None;
    for &i in idx {
        let i = i as usize;
        if nulls.is_null(i) {
            continue;
        }
        best = Some(match best {
            None => i,
            Some(b) => {
                let ord = cmp_f64_engine(values[i], values[b]);
                let replace = if want_min {
                    ord == Ordering::Less
                } else {
                    ord != Ordering::Less
                };
                if replace {
                    i
                } else {
                    b
                }
            }
        });
    }
    best.map(|b| values[b])
}

fn fold_f64_portable(values: &[f64], idx: &[u32], want_min: bool) -> (f64, bool) {
    let mut nan = false;
    if want_min {
        let mut m = f64::INFINITY;
        for &i in idx {
            let v = values[i as usize];
            nan |= v.is_nan();
            m = m.min(v);
        }
        (m, nan)
    } else {
        let mut m = f64::NEG_INFINITY;
        for &i in idx {
            let v = values[i as usize];
            nan |= v.is_nan();
            m = m.max(v);
        }
        (m, nan)
    }
}

// ---------------------------------------------------------------------------
// x86-64 SIMD tier
// ---------------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
#[allow(unused_unsafe)]
mod x86 {
    use super::{CmpOp, IntPred, LUT8};
    use std::arch::x86_64::*;

    /// Write eight predicate bytes decoded from an 8-bit lane mask.
    #[inline(always)]
    fn write8(out: &mut [u8], o: usize, bits: u8) {
        out[o..o + 8].copy_from_slice(&LUT8[bits as usize].to_le_bytes());
    }

    /// Sign bits of four 64-bit lanes (an all-ones/all-zeros compare mask).
    #[inline(always)]
    unsafe fn mask4_epi64(m: __m256i) -> u8 {
        unsafe { _mm256_movemask_pd(_mm256_castsi256_pd(m)) as u8 }
    }

    /// Sign bits of eight 32-bit lanes.
    #[inline(always)]
    unsafe fn mask8_epi32(m: __m256i) -> u8 {
        unsafe { _mm256_movemask_ps(_mm256_castsi256_ps(m)) as u8 }
    }

    #[target_feature(enable = "avx2")]
    pub unsafe fn cmp_i64_avx2(values: &[i64], plan: &IntPred, out: &mut [u8]) {
        // Every reachable plan reduces to one or two `v > t` tests: v >= t
        // ⇔ v > t-1 (t > i64::MIN is guaranteed — the boundary cases fold
        // to AllTrue/AllFalse in `int_plan`).
        let (a, b, lo_only, invert) = match *plan {
            IntPred::Ge(t) => (t - 1, 0, true, false),
            IntPred::Lt(t) => (t - 1, 0, true, true),
            IntPred::In(lo, hi) => (lo - 1, hi - 1, false, false),
            IntPred::NotIn(lo, hi) => (lo - 1, hi - 1, false, true),
            IntPred::AllTrue | IntPred::AllFalse => unreachable!("handled by caller"),
        };
        let va = _mm256_set1_epi64x(a);
        let vb = _mm256_set1_epi64x(b);
        let flip = if invert { 0xFFu8 } else { 0 };
        let n = values.len() & !7;
        let mut i = 0;
        while i < n {
            let x0 = _mm256_loadu_si256(values.as_ptr().add(i).cast());
            let x1 = _mm256_loadu_si256(values.as_ptr().add(i + 4).cast());
            let ga = mask4_epi64(_mm256_cmpgt_epi64(x0, va))
                | mask4_epi64(_mm256_cmpgt_epi64(x1, va)) << 4;
            let bits = if lo_only {
                ga
            } else {
                let gb = mask4_epi64(_mm256_cmpgt_epi64(x0, vb))
                    | mask4_epi64(_mm256_cmpgt_epi64(x1, vb)) << 4;
                ga & !gb
            };
            write8(out, i, bits ^ flip);
            i += 8;
        }
        for k in n..values.len() {
            out[k] = plan.test(values[k]) as u8;
        }
    }

    #[target_feature(enable = "avx2")]
    unsafe fn cmp_f64_avx2_imm<const IMM: i32>(
        values: &[f64],
        c: f64,
        out: &mut [u8],
        tail: fn(f64, f64) -> bool,
    ) {
        let vc = _mm256_set1_pd(c);
        let n = values.len() & !7;
        let mut i = 0;
        while i < n {
            let m0 = _mm256_movemask_pd(_mm256_cmp_pd::<IMM>(
                _mm256_loadu_pd(values.as_ptr().add(i)),
                vc,
            )) as u8;
            let m1 = _mm256_movemask_pd(_mm256_cmp_pd::<IMM>(
                _mm256_loadu_pd(values.as_ptr().add(i + 4)),
                vc,
            )) as u8;
            write8(out, i, m0 | m1 << 4);
            i += 8;
        }
        for k in n..values.len() {
            out[k] = tail(values[k], c) as u8;
        }
    }

    #[target_feature(enable = "avx2")]
    pub unsafe fn cmp_f64_avx2(values: &[f64], c: f64, op: CmpOp, out: &mut [u8]) {
        // Ordered (`_OQ`) compares are false on NaN, matching Rust's `<`
        // etc.; `NEQ_UQ` is true on NaN, matching `!=`.
        match op {
            CmpOp::Eq => cmp_f64_avx2_imm::<_CMP_EQ_OQ>(values, c, out, |v, c| v == c),
            CmpOp::Ne => cmp_f64_avx2_imm::<_CMP_NEQ_UQ>(values, c, out, |v, c| v != c),
            CmpOp::Lt => cmp_f64_avx2_imm::<_CMP_LT_OQ>(values, c, out, |v, c| v < c),
            CmpOp::Le => cmp_f64_avx2_imm::<_CMP_LE_OQ>(values, c, out, |v, c| v <= c),
            CmpOp::Gt => cmp_f64_avx2_imm::<_CMP_GT_OQ>(values, c, out, |v, c| v > c),
            CmpOp::Ge => cmp_f64_avx2_imm::<_CMP_GE_OQ>(values, c, out, |v, c| v >= c),
        }
    }

    /// SSE2 f64 compare (baseline on x86_64, so no runtime feature gate).
    pub fn cmp_f64_sse2(values: &[f64], c: f64, op: CmpOp, out: &mut [u8]) {
        unsafe {
            let vc = _mm_set1_pd(c);
            let cmp = |x: __m128d| -> u8 {
                let m = match op {
                    CmpOp::Eq => _mm_cmpeq_pd(x, vc),
                    CmpOp::Ne => _mm_cmpneq_pd(x, vc),
                    CmpOp::Lt => _mm_cmplt_pd(x, vc),
                    CmpOp::Le => _mm_cmple_pd(x, vc),
                    CmpOp::Gt => _mm_cmpgt_pd(x, vc),
                    CmpOp::Ge => _mm_cmpge_pd(x, vc),
                };
                _mm_movemask_pd(m) as u8
            };
            let n = values.len() & !7;
            let mut i = 0;
            while i < n {
                let bits = cmp(_mm_loadu_pd(values.as_ptr().add(i)))
                    | cmp(_mm_loadu_pd(values.as_ptr().add(i + 2))) << 2
                    | cmp(_mm_loadu_pd(values.as_ptr().add(i + 4))) << 4
                    | cmp(_mm_loadu_pd(values.as_ptr().add(i + 6))) << 6;
                write8(out, i, bits);
                i += 8;
            }
            for k in n..values.len() {
                let v = values[k];
                out[k] = match op {
                    CmpOp::Eq => v == c,
                    CmpOp::Ne => v != c,
                    CmpOp::Lt => v < c,
                    CmpOp::Le => v <= c,
                    CmpOp::Gt => v > c,
                    CmpOp::Ge => v >= c,
                } as u8;
            }
        }
    }

    #[target_feature(enable = "avx2")]
    pub unsafe fn in_small_set_avx2(values: &[u32], set: &[u32], out: &mut [u8]) {
        debug_assert!(!set.is_empty() && set.len() <= 8);
        let cs: Vec<__m256i> = set.iter().map(|&s| _mm256_set1_epi32(s as i32)).collect();
        let n = values.len() & !7;
        let mut i = 0;
        while i < n {
            let x = _mm256_loadu_si256(values.as_ptr().add(i).cast());
            let mut acc = _mm256_cmpeq_epi32(x, cs[0]);
            for c in &cs[1..] {
                acc = _mm256_or_si256(acc, _mm256_cmpeq_epi32(x, *c));
            }
            write8(out, i, mask8_epi32(acc));
            i += 8;
        }
        for k in n..values.len() {
            out[k] = set.contains(&values[k]) as u8;
        }
    }

    #[target_feature(enable = "avx2")]
    pub unsafe fn has_nan_avx2(values: &[f64]) -> bool {
        let n = values.len() & !3;
        let mut acc = _mm256_setzero_pd();
        let mut i = 0;
        while i < n {
            let x = _mm256_loadu_pd(values.as_ptr().add(i));
            acc = _mm256_or_pd(acc, _mm256_cmp_pd::<_CMP_UNORD_Q>(x, x));
            i += 4;
        }
        _mm256_movemask_pd(acc) != 0 || values[n..].iter().any(|v| v.is_nan())
    }

    #[target_feature(enable = "avx2")]
    pub unsafe fn pack_words_avx2(bytes: &[u8], words: &mut [u64]) {
        let zero = _mm256_setzero_si256();
        for (w, word) in words.iter_mut().enumerate() {
            let lo = _mm256_loadu_si256(bytes.as_ptr().add(w * 64).cast());
            let hi = _mm256_loadu_si256(bytes.as_ptr().add(w * 64 + 32).cast());
            let m0 = _mm256_movemask_epi8(_mm256_cmpgt_epi8(lo, zero)) as u32 as u64;
            let m1 = _mm256_movemask_epi8(_mm256_cmpgt_epi8(hi, zero)) as u32 as u64;
            *word = m0 | m1 << 32;
        }
    }

    /// SSE2 word packer.
    pub fn pack_words_sse2(bytes: &[u8], words: &mut [u64]) {
        unsafe {
            let zero = _mm_setzero_si128();
            for (w, word) in words.iter_mut().enumerate() {
                let mut acc = 0u64;
                for q in 0..4 {
                    let x = _mm_loadu_si128(bytes.as_ptr().add(w * 64 + q * 16).cast());
                    let m = _mm_movemask_epi8(_mm_cmpgt_epi8(x, zero)) as u32 as u64;
                    acc |= m << (16 * q);
                }
                *word = acc;
            }
        }
    }

    #[target_feature(enable = "avx2")]
    pub unsafe fn fold_f64_avx2(values: &[f64], idx: &[u32], want_min: bool) -> (f64, bool) {
        let init = if want_min {
            f64::INFINITY
        } else {
            f64::NEG_INFINITY
        };
        let mut acc = _mm256_set1_pd(init);
        let mut nan = _mm256_setzero_pd();
        let n = idx.len() & !3;
        let mut i = 0;
        while i < n {
            let vi = _mm_loadu_si128(idx.as_ptr().add(i).cast());
            let x = _mm256_i32gather_pd::<8>(values.as_ptr(), vi);
            nan = _mm256_or_pd(nan, _mm256_cmp_pd::<_CMP_UNORD_Q>(x, x));
            acc = if want_min {
                _mm256_min_pd(acc, x)
            } else {
                _mm256_max_pd(acc, x)
            };
            i += 4;
        }
        let mut ab = [0f64; 4];
        _mm256_storeu_pd(ab.as_mut_ptr(), acc);
        let mut saw_nan = _mm256_movemask_pd(nan) != 0;
        let mut m = init;
        for &v in &ab {
            m = if want_min { m.min(v) } else { m.max(v) };
        }
        for &j in &idx[n..] {
            let v = values[j as usize];
            saw_nan |= v.is_nan();
            m = if want_min { m.min(v) } else { m.max(v) };
        }
        (m, saw_nan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic bit source for test patterns.
    fn splitmix(seed: &mut u64) -> u64 {
        *seed = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *seed;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Adversarial slice lengths: empty, single, around the 4/8-lane SIMD
    /// widths, around the 64-row word width, and unaligned tails.
    const LENGTHS: [usize; 14] = [0, 1, 3, 4, 5, 7, 8, 9, 63, 64, 65, 127, 128, 1023];

    const OPS: [CmpOp; 6] = [
        CmpOp::Eq,
        CmpOp::Ne,
        CmpOp::Lt,
        CmpOp::Le,
        CmpOp::Gt,
        CmpOp::Ge,
    ];

    /// Run `f` once per SIMD tier this machine can execute, restoring
    /// default dispatch afterwards. The Scalar tier always runs, so every
    /// differential test below checks the portable reference too.
    fn for_each_level(mut f: impl FnMut(SimdLevel)) {
        let mut seen = Vec::new();
        for l in [SimdLevel::Scalar, SimdLevel::Sse2, SimdLevel::Avx2] {
            set_simd_level(Some(l));
            let eff = simd_level();
            if !seen.contains(&eff) {
                seen.push(eff);
                f(eff);
            }
        }
        set_simd_level(None);
    }

    fn ref_cmp<T: Copy + PartialOrd + PartialEq>(v: T, c: T, op: CmpOp) -> bool {
        match op {
            CmpOp::Eq => v == c,
            CmpOp::Ne => v != c,
            CmpOp::Lt => v < c,
            CmpOp::Le => v <= c,
            CmpOp::Gt => v > c,
            CmpOp::Ge => v >= c,
        }
    }

    fn random_mask(seed: &mut u64, len: usize, every: u64) -> NullMask {
        let mut m = NullMask::new();
        for _ in 0..len {
            m.push(every != 0 && splitmix(seed).is_multiple_of(every));
        }
        m
    }

    #[test]
    fn forced_level_is_clamped_to_hardware() {
        set_simd_level(Some(SimdLevel::Avx2));
        assert!(simd_level() <= hw_level());
        set_simd_level(Some(SimdLevel::Scalar));
        assert_eq!(simd_level(), SimdLevel::Scalar);
        set_simd_level(None);
        assert_eq!(simd_level(), default_level());
    }

    fn selection_reference(values: &[bool], nulls: &NullMask, base: u32) -> Vec<u32> {
        (0..values.len())
            .filter(|&i| values[i] && !nulls.is_null(i))
            .map(|i| base + i as u32)
            .collect()
    }

    #[test]
    fn selection_matches_naive_loop() {
        for_each_level(|level| {
            let mut seed = 7u64;
            for len in LENGTHS {
                let values: Vec<bool> = (0..len).map(|_| splitmix(&mut seed) & 1 == 1).collect();
                let nulls = random_mask(&mut seed, len, 4);
                assert_eq!(
                    bool_selection(&values, &nulls, 3),
                    selection_reference(&values, &nulls, 3),
                    "len {len} level {level:?}"
                );
            }
        });
    }

    #[test]
    fn selection_with_all_valid_mask() {
        let values: Vec<bool> = (0..150).map(|i| i % 3 == 0).collect();
        let nulls = NullMask::all_valid(150);
        assert_eq!(
            bool_selection(&values, &nulls, 0),
            selection_reference(&values, &nulls, 0)
        );
    }

    #[test]
    fn pack_unpack_roundtrip_at_adversarial_lengths() {
        for_each_level(|level| {
            let mut seed = 17u64;
            for len in LENGTHS {
                let values: Vec<bool> = (0..len).map(|_| splitmix(&mut seed) & 1 == 1).collect();
                let words = pack_bools(&values);
                assert_eq!(words.len(), len.div_ceil(64), "len {len} level {level:?}");
                for (i, &v) in values.iter().enumerate() {
                    assert_eq!(words[i / 64] >> (i % 64) & 1 == 1, v, "bit {i} len {len}");
                }
                if let Some(last) = words.last() {
                    if len % 64 != 0 {
                        assert_eq!(
                            last & !((1u64 << (len % 64)) - 1),
                            0,
                            "tail dirty len {len}"
                        );
                    }
                }
                assert_eq!(
                    unpack_words(&words, len),
                    values,
                    "len {len} level {level:?}"
                );
            }
        });
    }

    #[test]
    fn zero_nulls_matches_reference() {
        let mut seed = 23u64;
        for len in LENGTHS {
            let values: Vec<bool> = (0..len).map(|_| splitmix(&mut seed) & 1 == 1).collect();
            let nulls = random_mask(&mut seed, len, 3);
            let mut got = values.clone();
            zero_nulls(&mut got, &nulls);
            let want: Vec<bool> = (0..len).map(|i| values[i] && !nulls.is_null(i)).collect();
            assert_eq!(got, want, "len {len}");
        }
    }

    #[test]
    fn cmp_i64_matches_float_compare_reference() {
        // Constants cover fractions (no exact int), exact ints, the 2^53
        // precision edge, extremes beyond i64, infinities, NaN and -0.0.
        let consts = [
            700.0,
            0.5,
            -3.25,
            0.0,
            -0.0,
            9_007_199_254_740_992.0,     // 2^53
            9_007_199_254_740_993.0_f64, // rounds to 2^53
            -9.3e18,
            1.9e19,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
        ];
        for_each_level(|level| {
            let mut seed = 31u64;
            for len in LENGTHS {
                let values: Vec<i64> = (0..len)
                    .map(|_| match splitmix(&mut seed) % 4 {
                        0 => (splitmix(&mut seed) % 2000) as i64 - 500,
                        1 => splitmix(&mut seed) as i64, // full range
                        2 => 9_007_199_254_740_992 + (splitmix(&mut seed) % 8) as i64,
                        _ => i64::MIN + (splitmix(&mut seed) % 8) as i64,
                    })
                    .collect();
                for &c in &consts {
                    for op in OPS {
                        let got = cmp_i64(&values, c, op);
                        let want: Vec<bool> =
                            values.iter().map(|&v| ref_cmp(v as f64, c, op)).collect();
                        assert_eq!(got, want, "len {len} c {c} op {op:?} level {level:?}");
                    }
                }
            }
        });
    }

    #[test]
    fn cmp_f64_matches_ieee_reference() {
        let consts = [700.5, 0.0, -0.0, f64::NAN, f64::INFINITY, -1.0e300];
        for_each_level(|level| {
            let mut seed = 37u64;
            for len in LENGTHS {
                let values: Vec<f64> = (0..len)
                    .map(|_| match splitmix(&mut seed) % 8 {
                        0 => f64::NAN,
                        1 => 0.0,
                        2 => -0.0,
                        3 => f64::INFINITY,
                        _ => (splitmix(&mut seed) % 4000) as f64 / 2.0 - 700.0,
                    })
                    .collect();
                for &c in &consts {
                    for op in OPS {
                        let got = cmp_f64(&values, c, op);
                        let want: Vec<bool> = values.iter().map(|&v| ref_cmp(v, c, op)).collect();
                        assert_eq!(got, want, "len {len} c {c} op {op:?} level {level:?}");
                    }
                }
            }
        });
    }

    #[test]
    fn cmp_u32_matches_reference_at_boundaries() {
        let consts = [0u32, 1, 7, 254, 255, 256, u32::MAX - 1, u32::MAX];
        let mut seed = 41u64;
        for len in LENGTHS {
            let values: Vec<u32> = (0..len)
                .map(|_| match splitmix(&mut seed) % 3 {
                    0 => (splitmix(&mut seed) % 256) as u32,
                    1 => u32::MAX - (splitmix(&mut seed) % 4) as u32,
                    _ => splitmix(&mut seed) as u32,
                })
                .collect();
            for &c in &consts {
                for op in OPS {
                    let got = cmp_u32(&values, c, op);
                    let want: Vec<bool> = values.iter().map(|&v| ref_cmp(v, c, op)).collect();
                    assert_eq!(got, want, "len {len} c {c} op {op:?}");
                }
            }
        }
    }

    #[test]
    fn in_set_u32_matches_reference_on_all_paths() {
        let sets: [&[u32]; 5] = [
            &[],                               // empty
            &[3],                              // SIMD chain
            &[0, 5, 7, 200, 255],              // SIMD chain
            &[0, 1, 2, 3, 4, 5, 6, 7, 8, 100], // table path
            &[1, 4_294_967_290, u32::MAX],     // binary-search path (huge span)
        ];
        for_each_level(|level| {
            let mut seed = 43u64;
            for len in LENGTHS {
                let values: Vec<u32> = (0..len)
                    .map(|_| match splitmix(&mut seed) % 3 {
                        0 => (splitmix(&mut seed) % 10) as u32,
                        1 => u32::MAX - (splitmix(&mut seed) % 8) as u32,
                        _ => (splitmix(&mut seed) % 300) as u32,
                    })
                    .collect();
                for set in sets {
                    let got = in_set_u32(&values, set);
                    let want: Vec<bool> = values.iter().map(|v| set.contains(v)).collect();
                    assert_eq!(got, want, "len {len} set {set:?} level {level:?}");
                }
            }
        });
    }

    #[test]
    fn has_nan_detects_every_position() {
        for_each_level(|_| {
            for len in LENGTHS {
                let clean = vec![1.5f64; len];
                assert!(!has_nan(&clean));
                for pos in [0, len / 2, len.saturating_sub(1)] {
                    if len == 0 {
                        continue;
                    }
                    let mut v = clean.clone();
                    v[pos] = f64::NAN;
                    assert!(has_nan(&v), "len {len} pos {pos}");
                }
            }
        });
    }

    /// Three-valued reference: `None` is NULL.
    fn bool3(v: bool, null: bool) -> Option<bool> {
        if null {
            None
        } else {
            Some(v)
        }
    }

    #[test]
    fn kleene_matches_three_valued_reference() {
        for_each_level(|level| {
            let mut seed = 47u64;
            for len in LENGTHS {
                let av: Vec<bool> = (0..len).map(|_| splitmix(&mut seed) & 1 == 1).collect();
                let bv: Vec<bool> = (0..len).map(|_| splitmix(&mut seed) & 1 == 1).collect();
                for (ae, be) in [(3, 3), (0, 3), (1, 0)] {
                    let an = random_mask(&mut seed, len, ae);
                    let bn = random_mask(&mut seed, len, be);
                    for op in [Kleene::And, Kleene::Or] {
                        let (gv, gn) = kleene(op, &av, &an, &bv, &bn);
                        for i in 0..len {
                            let a = bool3(av[i], an.is_null(i));
                            let b = bool3(bv[i], bn.is_null(i));
                            let want = match op {
                                Kleene::And => match (a, b) {
                                    (Some(false), _) | (_, Some(false)) => Some(false),
                                    (Some(true), Some(true)) => Some(true),
                                    _ => None,
                                },
                                Kleene::Or => match (a, b) {
                                    (Some(true), _) | (_, Some(true)) => Some(true),
                                    (Some(false), Some(false)) => Some(false),
                                    _ => None,
                                },
                            };
                            assert_eq!(
                                bool3(gv[i], gn.is_null(i)),
                                want,
                                "row {i} len {len} {op:?} level {level:?}"
                            );
                            // NULL slots must carry the false placeholder.
                            assert!(!gn.is_null(i) || !gv[i], "placeholder row {i}");
                        }
                    }
                }
            }
        });
    }

    #[test]
    fn between_combine_matches_reference() {
        for_each_level(|_| {
            let mut seed = 53u64;
            for len in LENGTHS {
                let av: Vec<bool> = (0..len).map(|_| splitmix(&mut seed) & 1 == 1).collect();
                let bv: Vec<bool> = (0..len).map(|_| splitmix(&mut seed) & 1 == 1).collect();
                let an = random_mask(&mut seed, len, 3);
                let bn = random_mask(&mut seed, len, 4);
                for negated in [false, true] {
                    let (gv, gn) = between_combine(&av, &an, &bv, &bn, negated);
                    for i in 0..len {
                        if an.is_null(i) || bn.is_null(i) {
                            assert!(gn.is_null(i) && !gv[i], "row {i} len {len}");
                        } else {
                            assert!(!gn.is_null(i));
                            assert_eq!(gv[i], (av[i] && bv[i]) != negated, "row {i} len {len}");
                        }
                    }
                }
            }
        });
    }

    #[test]
    fn null_flags_matches_mask() {
        let mut seed = 59u64;
        for len in LENGTHS {
            for every in [0, 1, 3] {
                // 0 ⇒ no nulls, 1 ⇒ all null, 3 ⇒ mixed.
                let mask = if every == 1 {
                    let mut m = NullMask::new();
                    for _ in 0..len {
                        m.push(true);
                    }
                    m
                } else {
                    random_mask(&mut seed, len, every)
                };
                for negated in [false, true] {
                    let got = null_flags(&mask, negated);
                    let want: Vec<bool> = (0..len).map(|i| mask.is_null(i) != negated).collect();
                    assert_eq!(got, want, "len {len} every {every} negated {negated}");
                }
            }
        }
    }

    /// The engine's sum fold (`AggSlots::fold`): sequential
    /// `total += v as f64` in idx order.
    fn ref_sum_i64(values: &[i64], nulls: &NullMask, idx: &[u32]) -> (f64, usize) {
        let mut total = 0.0;
        let mut n = 0;
        for &i in idx {
            if !nulls.is_null(i as usize) {
                total += values[i as usize] as f64;
                n += 1;
            }
        }
        (total, n)
    }

    #[test]
    fn sum_i64_is_bit_identical_to_scalar_loop() {
        for_each_level(|level| {
            let mut seed = 61u64;
            for len in LENGTHS {
                for (mag, every) in [(2000u64, 0u64), (2000, 3), (1 << 62, 0), (1 << 62, 1)] {
                    let values: Vec<i64> = (0..len)
                        .map(|_| (splitmix(&mut seed) % mag) as i64 - (mag / 2) as i64)
                        .collect();
                    let nulls = if every == 1 {
                        let mut m = NullMask::new();
                        for _ in 0..len {
                            m.push(true);
                        }
                        m
                    } else {
                        random_mask(&mut seed, len, every)
                    };
                    let idx: Vec<u32> = (0..len as u32).rev().collect();
                    let got = sum_i64(&values, &nulls, &idx);
                    let want = ref_sum_i64(&values, &nulls, &idx);
                    assert_eq!(
                        (got.0.to_bits(), got.1),
                        (want.0.to_bits(), want.1),
                        "len {len} mag {mag} every {every} level {level:?}"
                    );
                }
            }
        });
    }

    #[test]
    fn sum_f64_keeps_sequential_order() {
        let mut seed = 67u64;
        for len in LENGTHS {
            let values: Vec<f64> = (0..len)
                .map(|_| (splitmix(&mut seed) % 1000) as f64 / 7.0 - 60.0)
                .collect();
            let nulls = random_mask(&mut seed, len, 3);
            let idx: Vec<u32> = (0..len as u32).collect();
            let (got, n) = sum_f64(&values, &nulls, &idx);
            let mut want = 0.0;
            let mut wn = 0;
            for &i in &idx {
                if !nulls.is_null(i as usize) {
                    want += values[i as usize];
                    wn += 1;
                }
            }
            assert_eq!((got.to_bits(), n), (want.to_bits(), wn), "len {len}");
        }
    }

    /// The scalar engine's min/max fold: first-tie-wins for min,
    /// last-tie-wins for max, over the engine comparator.
    fn ref_fold<T: Copy>(
        values: &[T],
        nulls: &NullMask,
        idx: &[u32],
        want_min: bool,
        cmp: impl Fn(T, T) -> Ordering,
    ) -> Option<T> {
        let mut best: Option<usize> = None;
        for &i in idx {
            let i = i as usize;
            if nulls.is_null(i) {
                continue;
            }
            best = Some(match best {
                None => i,
                Some(b) => {
                    let ord = cmp(values[i], values[b]);
                    let replace = if want_min {
                        ord == Ordering::Less
                    } else {
                        ord != Ordering::Less
                    };
                    if replace {
                        i
                    } else {
                        b
                    }
                }
            });
        }
        best.map(|b| values[b])
    }

    #[test]
    fn min_max_i64_matches_scalar_fold() {
        for_each_level(|level| {
            let mut seed = 71u64;
            for len in LENGTHS {
                for (mag, every) in [(5000u64, 0u64), (5000, 3), (u64::MAX, 0), (16, 1)] {
                    let values: Vec<i64> = (0..len)
                        .map(|_| {
                            if mag == u64::MAX {
                                splitmix(&mut seed) as i64 // full i64 range
                            } else {
                                (splitmix(&mut seed) % mag) as i64 - (mag / 2) as i64
                            }
                        })
                        .collect();
                    let nulls = if every == 1 {
                        let mut m = NullMask::new();
                        for _ in 0..len {
                            m.push(true);
                        }
                        m
                    } else {
                        random_mask(&mut seed, len, every)
                    };
                    let idx: Vec<u32> = (0..len as u32).collect();
                    for want_min in [true, false] {
                        let got = min_max_i64(&values, &nulls, &idx, want_min);
                        let want = ref_fold(&values, &nulls, &idx, want_min, |a, b| {
                            (a as f64).total_cmp(&(b as f64))
                        });
                        assert_eq!(got, want, "len {len} mag {mag} level {level:?}");
                    }
                }
            }
        });
    }

    #[test]
    fn min_max_f64_matches_scalar_fold_with_nan_and_signed_zero() {
        for_each_level(|level| {
            let mut seed = 73u64;
            for len in LENGTHS {
                for flavor in 0..3 {
                    let values: Vec<f64> = (0..len)
                        .map(|_| match (flavor, splitmix(&mut seed) % 6) {
                            (1, 0) => f64::NAN,
                            (2, 0) => 0.0,
                            (2, 1) => -0.0,
                            (2, _) => 0.0f64.max((splitmix(&mut seed) % 3) as f64),
                            _ => (splitmix(&mut seed) % 1000) as f64 / 4.0 - 100.0,
                        })
                        .collect();
                    let nulls = random_mask(&mut seed, len, if flavor == 0 { 0 } else { 4 });
                    let idx: Vec<u32> = (0..len as u32).collect();
                    for want_min in [true, false] {
                        let got = min_max_f64(&values, &nulls, &idx, want_min);
                        let want = ref_fold(&values, &nulls, &idx, want_min, cmp_f64_engine);
                        assert_eq!(
                            got.map(f64::to_bits),
                            want.map(f64::to_bits),
                            "len {len} flavor {flavor} min {want_min} level {level:?}"
                        );
                    }
                }
            }
        });
    }

    #[test]
    fn count_valid_matches_reference() {
        let mut seed = 79u64;
        for len in LENGTHS {
            let nulls = random_mask(&mut seed, len, 2);
            let idx: Vec<u32> = (0..len as u32).filter(|i| i % 3 != 1).collect();
            let want = idx.iter().filter(|&&i| !nulls.is_null(i as usize)).count();
            assert_eq!(count_valid(&nulls, &idx), want, "len {len}");
        }
    }

    #[test]
    fn nullmask_from_words_clears_tail_and_counts() {
        let m = NullMask::from_words(vec![!0u64], 10);
        assert_eq!(m.len(), 10);
        assert_eq!(m.null_count(), 10);
        for i in 0..10 {
            assert!(m.is_null(i));
        }
        let m = NullMask::from_words(vec![0b101, 0b11], 66);
        assert_eq!(m.null_count(), 4);
        assert!(m.is_null(0) && !m.is_null(1) && m.is_null(2) && m.is_null(64) && m.is_null(65));
        assert_eq!(NullMask::from_words(vec![], 0), NullMask::new());
    }

    #[test]
    fn nullmask_slice_matches_per_bit() {
        let mut seed = 11u64;
        let mut mask = NullMask::new();
        for _ in 0..300 {
            mask.push(splitmix(&mut seed).is_multiple_of(3));
        }
        for (lo, hi) in [(0, 300), (1, 300), (63, 200), (64, 128), (65, 66), (7, 7)] {
            let s = mask.slice(lo, hi);
            assert_eq!(s.len(), hi - lo);
            for i in 0..(hi - lo) {
                assert_eq!(s.is_null(i), mask.is_null(lo + i), "({lo},{hi}) bit {i}");
            }
            assert_eq!(
                s.null_count(),
                (lo..hi).filter(|&i| mask.is_null(i)).count()
            );
        }
    }

    #[test]
    fn nullmask_union_is_validity_intersection() {
        let mut seed = 13u64;
        let (mut a, mut b) = (NullMask::new(), NullMask::new());
        for _ in 0..130 {
            a.push(splitmix(&mut seed).is_multiple_of(3));
            b.push(splitmix(&mut seed).is_multiple_of(5));
        }
        let u = a.union(&b);
        for i in 0..130 {
            assert_eq!(u.is_null(i), a.is_null(i) || b.is_null(i));
        }
        let all = NullMask::all_valid(130);
        assert_eq!(a.union(&all), a);
        assert_eq!(all.union(&b), b);
    }
}
