//! The sharded wire-session registry.
//!
//! Extracted from `Pi2Service` (which used to hold one `Mutex<HashMap>`
//! over every wire session — a global map lock every request crossed, the
//! contention point the ROADMAP called out). The registry shards sessions
//! across independently-locked maps in the style of
//! [`pi2_data::ShardedMemo`]: two requests for different sessions touch
//! different locks with probability `1 − 1/shards`, and the lock is held
//! only for the id lookup — never across a dispatch.
//!
//! Both serving paths go through it: the in-process path
//! (`Pi2Service::handle_json`) and the HTTP server (`pi2::server`), whose
//! per-session mailboxes additionally guarantee that only one thread (a
//! worker, or a reactor on the fast path) drives a session at a time. The
//! per-session mutex then blocks only behind a push fan-out replaying onto
//! the session or a *mixed* deployment driving it from both paths at once
//! — and a reactor only ever `try_lock`s it.

use crate::service::Session;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Shard count (matches `pi2_data::memo::DEFAULT_SHARDS`).
const SHARDS: usize = 16;

/// A sharded `wire id → session` map. Ids are assigned once, never reused,
/// and start at 1 (0 reads as "no session" in logs and tests).
pub struct SessionRegistry {
    shards: Vec<Mutex<HashMap<u64, Arc<Mutex<Session>>>>>,
    next: AtomicU64,
}

impl SessionRegistry {
    /// An empty registry.
    pub fn new() -> SessionRegistry {
        SessionRegistry {
            shards: (0..SHARDS).map(|_| Mutex::new(HashMap::new())).collect(),
            next: AtomicU64::new(0),
        }
    }

    fn shard(&self, id: u64) -> &Mutex<HashMap<u64, Arc<Mutex<Session>>>> {
        // Ids are dense (sequential), so the modulus alone spreads them
        // uniformly; no hashing needed.
        &self.shards[(id as usize) % self.shards.len()]
    }

    /// Register a session under a fresh wire id.
    pub fn insert(&self, session: Session) -> (u64, Arc<Mutex<Session>>) {
        let id = self.next.fetch_add(1, Ordering::Relaxed) + 1;
        let slot = Arc::new(Mutex::new(session));
        self.shard(id).lock().insert(id, Arc::clone(&slot));
        (id, slot)
    }

    /// The session registered under `id`.
    pub fn get(&self, id: u64) -> Option<Arc<Mutex<Session>>> {
        self.shard(id).lock().get(&id).cloned()
    }

    /// Remove `id`; returns whether it was registered.
    pub fn remove(&self, id: u64) -> bool {
        self.shard(id).lock().remove(&id).is_some()
    }

    /// Registered sessions across all shards (approximate under
    /// concurrency).
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().len()).sum()
    }

    /// Whether no session is registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Default for SessionRegistry {
    fn default() -> SessionRegistry {
        SessionRegistry::new()
    }
}

impl std::fmt::Debug for SessionRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SessionRegistry")
            .field("sessions", &self.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generation::{GenerationConfig, Pi2};
    use pi2_data::{Catalog, DataType, Table, Value};

    fn sample_session() -> Session {
        let mut c = Catalog::new();
        let rows: Vec<Vec<Value>> = (0..12)
            .map(|i| vec![Value::Int(i % 3), Value::Int(10 * (i % 4))])
            .collect();
        let t = Table::from_rows(vec![("a", DataType::Int), ("b", DataType::Int)], rows).unwrap();
        c.add_table("T", t, vec![]);
        let g = Pi2::new(c)
            .generate_with(
                &["SELECT a, count(*) FROM T WHERE b = 10 GROUP BY a"],
                &GenerationConfig::quick(),
            )
            .unwrap();
        g.session().unwrap()
    }

    #[test]
    fn ids_are_unique_and_start_at_one() {
        let registry = SessionRegistry::new();
        let (a, _) = registry.insert(sample_session());
        let (b, _) = registry.insert(sample_session());
        assert_eq!(a, 1);
        assert_eq!(b, 2);
        assert_eq!(registry.len(), 2);
        assert!(registry.get(a).is_some());
        assert!(registry.get(99).is_none());
        assert!(registry.remove(a));
        assert!(!registry.remove(a), "double close reports absence");
        assert_eq!(registry.len(), 1);
    }

    #[test]
    fn concurrent_inserts_never_collide() {
        let registry = SessionRegistry::new();
        let session = sample_session();
        let ids: Vec<u64> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    let registry = &registry;
                    let session = &session;
                    scope.spawn(move || {
                        (0..16)
                            .map(|_| {
                                // Sessions over one generation are cheap to
                                // reopen; clone-by-reopen keeps this test
                                // focused on the registry.
                                let (id, _) =
                                    registry.insert(session.generation().session().unwrap());
                                id
                            })
                            .collect::<Vec<u64>>()
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().unwrap())
                .collect()
        });
        let unique: std::collections::HashSet<u64> = ids.iter().copied().collect();
        assert_eq!(unique.len(), ids.len(), "ids must never be reused");
        assert_eq!(registry.len(), ids.len());
    }
}
