//! Cheap non-cryptographic hashing for the columnar hot paths.
//!
//! `std`'s default SipHash costs more than the comparison it guards on the
//! grouping/join/distinct paths, where keys are a few words. [`FastHasher`]
//! is the Fx multiply-rotate hash (the rustc hasher); [`FastMap`] /
//! [`FastSet`] are `HashMap`/`HashSet` aliases using it. Hash-flooding
//! resistance is irrelevant here: inputs are the user's own table data.
//!
//! `finish` rotates the state instead of returning it raw. `std`'s
//! `HashMap` (hashbrown) picks a key's home bucket from the *low* bits of
//! its hash, and the low bits of a multiply depend only on the low bits of
//! the key. Two key shapes on the hot paths differ only in their high
//! bits: integer- and cent-valued `f64`s keyed by `to_bits()` (column
//! statistics, float `GROUP BY`/`DISTINCT`), and every `Int64` that
//! [`crate::column::row_hash`] folds through its `f64` bits (the row interner
//! behind generic grouping and the FD check). Unrotated, such keys share
//! one probe chain and each insert walks past every earlier key — a
//! quadratic build. The rotation (rustc-hash 2 does the same) brings the
//! well-mixed high product bits down to where the buckets are chosen.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// The Fx multiply-rotate hasher, finalized by a rotation so that keys
/// differing only in their high bits still land in different buckets (see
/// the module docs).
#[derive(Default, Clone)]
pub struct FastHasher(u64);

impl FastHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FastHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(buf));
        }
        self.add(bytes.len() as u64);
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.add(v as u64);
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.add(v as u64);
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add(v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.add(v as u64);
    }

    #[inline]
    fn write_i64(&mut self, v: i64) {
        self.add(v as u64);
    }
}

/// FNV-1a over a byte string: the stable 64-bit fingerprint used for
/// wire-level and cache keys (e.g. resolved-SQL fingerprints), where the
/// value must not depend on hasher seeding or process state.
pub fn fnv1a_64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h = (h ^ b as u64).wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// `HashMap` with [`FastHasher`].
pub type FastMap<K, V> = HashMap<K, V, BuildHasherDefault<FastHasher>>;

/// `HashSet` with [`FastHasher`].
pub type FastSet<K> = HashSet<K, BuildHasherDefault<FastHasher>>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maps_and_sets_work() {
        let mut m: FastMap<i64, usize> = FastMap::default();
        for i in 0..1000i64 {
            m.insert(i, i as usize * 2);
        }
        assert_eq!(m.get(&500), Some(&1000));
        let mut s: FastSet<&str> = FastSet::default();
        s.insert("a");
        assert!(s.contains("a") && !s.contains("b"));
    }

    #[test]
    fn distinct_inputs_hash_differently() {
        use std::hash::{BuildHasher, BuildHasherDefault};
        let b: BuildHasherDefault<FastHasher> = BuildHasherDefault::default();
        assert_ne!(b.hash_one(1u64), b.hash_one(2u64));
        assert_ne!(b.hash_one("ab"), b.hash_one("ba"));
    }

    /// Distinct values the low 16 bits (where hashbrown picks the home
    /// bucket) take over the hashes of `keys`.
    fn low_bit_spread(keys: impl IntoIterator<Item = u64>) -> usize {
        use std::hash::BuildHasher;
        let b: BuildHasherDefault<FastHasher> = BuildHasherDefault::default();
        keys.into_iter()
            .map(|k| b.hash_one(k) & 0xffff)
            .collect::<FastSet<u64>>()
            .len()
    }

    /// Keys that differ only above bit ~20 must not share a bucket. An
    /// unrotated `finish` spreads each family below over 1, 25 and 1
    /// low-bit values, so every insert walks one probe chain.
    #[test]
    fn high_bit_keys_spread_over_low_bits() {
        let ints = low_bit_spread((0..4096).map(|k| (k as f64).to_bits()));
        let cents = low_bit_spread((0..4096).map(|k| (k as f64 / 100.0).to_bits()));
        let shifted = low_bit_spread((0..4096u64).map(|k| k << 40));
        for (family, spread) in [("ints", ints), ("cents", cents), ("k << 40", shifted)] {
            assert!(spread >= 3072, "{family}: {spread} of 4096 low-bit values");
        }
    }

    /// The same check over the row interner's keys: `row_hash` folds an
    /// `Int64` through its `f64` bits, so the ints 0..4096 reach the map
    /// as high-bit-only keys too.
    #[test]
    fn row_hash_keys_of_int_column_spread_over_low_bits() {
        let col = crate::ColumnData::ints((0..4096).collect());
        let spread = low_bit_spread((0..4096).map(|i| crate::column::row_hash([&col], i)));
        assert!(spread >= 3072, "{spread} of 4096 low-bit values");
    }
}
