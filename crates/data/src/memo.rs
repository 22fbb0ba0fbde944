//! A generic, cap-checked, lock-sharded memo table.
//!
//! One utility behind every process-wide cache in the workspace — the
//! mapping-artifact and executed-result caches (`pi2-interface`) — and
//! behind the memos an owner drops with itself: each workload's bind /
//! schema signature / type-inference memos (`pi2-difftree`) and each MCTS
//! search's reward/action transposition tables (`pi2-search`), both
//! uncapped. All of them share the same shape —
//! hash-sharded `Mutex<HashMap>`s, a per-shard entry cap that clears a
//! shard instead of growing without bound, and "first writer wins"
//! insertion (every writer would store the same value, because cached
//! computations are pure functions of their key).
//!
//! The utility lives in `pi2-data` because it is the one crate every other
//! crate already depends on; `pi2-core` re-exports it as `pi2::memo`.

use parking_lot::Mutex;
use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasher, BuildHasherDefault, DefaultHasher, Hash};

/// Default shard count: enough that a dozen worker threads rarely contend
/// on one lock.
pub const DEFAULT_SHARDS: usize = 16;

/// A lock-sharded `K → V` memo with a per-shard entry cap.
pub struct ShardedMemo<K, V> {
    shards: Vec<Mutex<HashMap<K, V>>>,
    cap_per_shard: usize,
}

/// An uncapped memo with [`DEFAULT_SHARDS`] shards, for one owner whose
/// lifetime bounds it (a search's tables, a workload's per-tree memos).
impl<K: Hash + Eq + Clone, V: Clone> Default for ShardedMemo<K, V> {
    fn default() -> Self {
        Self::new(usize::MAX)
    }
}

/// Opaque: formatting takes no shard lock.
impl<K, V> fmt::Debug for ShardedMemo<K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ShardedMemo").finish_non_exhaustive()
    }
}

impl<K: Hash + Eq + Clone, V: Clone> ShardedMemo<K, V> {
    /// A memo with [`DEFAULT_SHARDS`] shards and the given per-shard cap.
    pub fn new(cap_per_shard: usize) -> Self {
        Self::with_shards(DEFAULT_SHARDS, cap_per_shard)
    }

    /// A memo with an explicit shard count (rounded up to at least 1).
    pub fn with_shards(shards: usize, cap_per_shard: usize) -> Self {
        ShardedMemo {
            shards: (0..shards.max(1))
                .map(|_| Mutex::new(HashMap::new()))
                .collect(),
            cap_per_shard,
        }
    }

    fn shard(&self, key: &K) -> &Mutex<HashMap<K, V>> {
        let h = BuildHasherDefault::<DefaultHasher>::default().hash_one(key);
        &self.shards[(h as usize) % self.shards.len()]
    }

    /// Cached value for `key`, if present.
    pub fn get(&self, key: &K) -> Option<V> {
        self.shard(key).lock().get(key).cloned()
    }

    /// Insert, returning whether the key was new. When a shard exceeds its
    /// cap it is cleared first — a runaway session cannot grow the memo
    /// without bound.
    pub fn insert(&self, key: K, value: V) -> bool {
        let mut guard = self.shard(&key).lock();
        if guard.len() > self.cap_per_shard {
            guard.clear();
        }
        guard.insert(key, value).is_none()
    }

    /// `get` or compute-and-`insert`. The computation runs outside the
    /// shard lock, so concurrent callers may compute the same value; the
    /// first writer wins and all would have stored the same thing.
    pub fn get_or_insert_with(&self, key: &K, compute: impl FnOnce() -> V) -> V {
        if let Some(hit) = self.get(key) {
            return hit;
        }
        let value = compute();
        self.insert(key.clone(), value.clone());
        value
    }

    /// Total entries across shards (approximate under concurrency).
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().len()).sum()
    }

    /// Whether the memo holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drop every entry.
    pub fn clear(&self) {
        for s in &self.shards {
            s.lock().clear();
        }
    }

    /// Keep only the entries for which `keep` returns true — the eviction
    /// sweep behind catalogue-epoch invalidation. Runs shard by shard so
    /// readers on other shards are never blocked behind the whole sweep.
    pub fn retain(&self, mut keep: impl FnMut(&K, &mut V) -> bool) {
        for s in &self.shards {
            s.lock().retain(|k, v| keep(k, v));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_insert_round_trip() {
        let memo: ShardedMemo<u64, String> = ShardedMemo::new(8);
        assert_eq!(memo.get(&1), None);
        assert!(memo.insert(1, "one".into()));
        assert!(!memo.insert(1, "one".into()), "second insert is not new");
        assert_eq!(memo.get(&1), Some("one".into()));
    }

    #[test]
    fn get_or_insert_computes_once_per_key() {
        let memo: ShardedMemo<u32, u32> = ShardedMemo::new(8);
        let mut calls = 0;
        let v = memo.get_or_insert_with(&7, || {
            calls += 1;
            49
        });
        assert_eq!(v, 49);
        let v = memo.get_or_insert_with(&7, || {
            calls += 1;
            0
        });
        assert_eq!(v, 49, "cached value wins");
        assert_eq!(calls, 1);
    }

    #[test]
    fn cap_clears_the_shard_instead_of_growing() {
        let memo: ShardedMemo<u32, u32> = ShardedMemo::with_shards(1, 4);
        for k in 0..64 {
            memo.insert(k, k);
        }
        assert!(memo.len() <= 5, "cap must bound the shard: {}", memo.len());
    }

    #[test]
    fn values_shared_across_threads() {
        let memo: ShardedMemo<u32, u32> = ShardedMemo::new(64);
        std::thread::scope(|s| {
            for _ in 0..4 {
                let memo = &memo;
                s.spawn(move || {
                    for k in 0..100 {
                        memo.get_or_insert_with(&k, || k * 2);
                    }
                });
            }
        });
        assert_eq!(memo.get(&5), Some(10));
        assert_eq!(memo.len(), 100);
    }
}
