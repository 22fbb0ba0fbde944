//! Shared-session subscriptions: the fan-out registry behind protocol v2.
//!
//! Every wire session belongs to the *workload channel* it was opened
//! over (bound in [`Pi2Service::open_wire`](crate::service::Pi2Service)).
//! A v2 `subscribe` request joins a session — together with the
//! push-capable connection the request arrived on — to its channel. When
//! any session in a channel dispatches an event, the service replays that
//! event on every *other* subscribed session in the channel and pushes
//! each peer's own resulting patch (or error) down that peer's
//! connection: each subscriber sees exactly the bytes its own
//! `handle_json` would have produced, sequence numbers included.
//!
//! The hub itself is bookkeeping only — channel membership, the
//! connection each subscription is bound to, and delivery counters. The
//! replay-and-push loop lives in `crate::protocol` (it needs the patch
//! codec); connection buffering and slow-consumer *transport* eviction
//! live in `pi2-server`. A subscription whose connection reports dead
//! (send returns `false`, or the server calls `connection_closed`) is
//! dropped here so fan-out never accumulates dead peers.

use pi2_server::PushSender;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// One live subscription: which connection a session's patch stream is
/// bound to, and how to reach it.
struct Subscription {
    conn: u64,
    sender: PushSender,
}

#[derive(Default)]
struct HubInner {
    /// Session → the workload channel it was opened over.
    channel_of: HashMap<u64, String>,
    /// Channel → subscribed sessions (each bound to one connection).
    subscribers: HashMap<String, HashMap<u64, Subscription>>,
    /// Connection → sessions subscribed through it (disconnect cleanup).
    by_conn: HashMap<u64, HashSet<u64>>,
}

impl HubInner {
    fn remove_subscription(&mut self, session: u64) -> bool {
        let Some(channel) = self.channel_of.get(&session) else {
            return false;
        };
        let Some(subs) = self.subscribers.get_mut(channel) else {
            return false;
        };
        let Some(sub) = subs.remove(&session) else {
            return false;
        };
        if subs.is_empty() {
            self.subscribers.remove(channel);
        }
        if let Some(sessions) = self.by_conn.get_mut(&sub.conn) {
            sessions.remove(&session);
            if sessions.is_empty() {
                self.by_conn.remove(&sub.conn);
            }
        }
        true
    }
}

/// Counters snapshot of a [`PushHub`] (embedded in service metrics).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PushStats {
    /// Live subscriptions across every channel.
    pub subscriptions: usize,
    /// Patches (or replay errors) successfully handed to a connection.
    pub delivered: u64,
    /// Subscriptions dropped because their connection reported dead
    /// mid-push.
    pub evicted: u64,
}

/// The subscription registry (see the module docs). All operations are
/// O(1)-ish map updates behind one short-held lock; the expensive part of
/// fan-out — per-peer event replay — happens outside the hub.
#[derive(Default)]
pub struct PushHub {
    inner: Mutex<HubInner>,
    delivered: AtomicU64,
    evicted: AtomicU64,
}

fn lock(m: &Mutex<HubInner>) -> std::sync::MutexGuard<'_, HubInner> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

impl PushHub {
    /// An empty hub.
    pub fn new() -> PushHub {
        PushHub::default()
    }

    /// Bind a freshly-opened wire session to its workload channel.
    pub fn bind(&self, session: u64, channel: &str) {
        lock(&self.inner)
            .channel_of
            .insert(session, channel.to_string());
    }

    /// Subscribe a session's patch stream to a connection. Re-subscribing
    /// moves the stream to the new connection. `false` when the session
    /// was never bound to a channel (unknown to the hub).
    pub fn subscribe(&self, session: u64, conn: u64, sender: PushSender) -> bool {
        let mut inner = lock(&self.inner);
        let Some(channel) = inner.channel_of.get(&session).cloned() else {
            return false;
        };
        inner.remove_subscription(session);
        inner
            .subscribers
            .entry(channel)
            .or_default()
            .insert(session, Subscription { conn, sender });
        inner.by_conn.entry(conn).or_default().insert(session);
        true
    }

    /// Drop a session's subscription if it is bound to `conn`. `true` if
    /// a subscription was removed.
    pub fn unsubscribe(&self, session: u64, conn: u64) -> bool {
        let mut inner = lock(&self.inner);
        let bound = inner
            .channel_of
            .get(&session)
            .and_then(|ch| inner.subscribers.get(ch))
            .and_then(|subs| subs.get(&session))
            .is_some_and(|sub| sub.conn == conn);
        bound && inner.remove_subscription(session)
    }

    /// A session closed: drop its channel binding and any subscription.
    pub fn drop_session(&self, session: u64) {
        let mut inner = lock(&self.inner);
        inner.remove_subscription(session);
        inner.channel_of.remove(&session);
    }

    /// A connection closed (or was evicted by the transport): drop every
    /// subscription bound through it.
    pub fn drop_conn(&self, conn: u64) {
        let mut inner = lock(&self.inner);
        let sessions = inner.by_conn.remove(&conn).unwrap_or_default();
        for session in sessions {
            inner.remove_subscription(session);
        }
    }

    /// The subscribed peers sharing `origin`'s channel, excluding
    /// `origin` itself: `(session, conn, sender)` snapshots. Empty when
    /// the origin is unknown or nobody subscribed.
    pub fn peers_of(&self, origin: u64) -> Vec<(u64, u64, PushSender)> {
        let inner = lock(&self.inner);
        let Some(channel) = inner.channel_of.get(&origin) else {
            return Vec::new();
        };
        let Some(subs) = inner.subscribers.get(channel) else {
            return Vec::new();
        };
        let mut peers: Vec<(u64, u64, PushSender)> = subs
            .iter()
            .filter(|(session, _)| **session != origin)
            .map(|(session, sub)| (*session, sub.conn, sub.sender.clone()))
            .collect();
        peers.sort_by_key(|(session, ..)| *session);
        peers
    }

    /// Whether any session of `session`'s channel, `session` itself
    /// included, is subscribed. A dispatch on such a session either fans
    /// out to peers or races pushes to its own connection.
    pub fn channel_has_subscribers(&self, session: u64) -> bool {
        let inner = lock(&self.inner);
        inner
            .channel_of
            .get(&session)
            .is_some_and(|channel| inner.subscribers.contains_key(channel))
    }

    /// Every subscription in `channel`: `(session, conn, sender)`
    /// snapshots sorted by session id. The live-append fan-out pushes
    /// each subscriber its own data patch through these — unlike
    /// [`PushHub::peers_of`] there is no originating session to exclude;
    /// the data changed underneath everyone.
    pub fn subscribers_of(&self, channel: &str) -> Vec<(u64, u64, PushSender)> {
        let inner = lock(&self.inner);
        let Some(subs) = inner.subscribers.get(channel) else {
            return Vec::new();
        };
        let mut peers: Vec<(u64, u64, PushSender)> = subs
            .iter()
            .map(|(session, sub)| (*session, sub.conn, sub.sender.clone()))
            .collect();
        peers.sort_by_key(|(session, ..)| *session);
        peers
    }

    /// Record one successful delivery.
    pub fn note_delivered(&self) {
        self.delivered.fetch_add(1, Ordering::Relaxed);
    }

    /// A push found the connection dead: drop the subscription and count
    /// the eviction.
    pub fn evict(&self, session: u64, conn: u64) {
        if self.unsubscribe(session, conn) {
            self.evicted.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Counters snapshot.
    pub fn stats(&self) -> PushStats {
        let inner = lock(&self.inner);
        PushStats {
            subscriptions: inner.subscribers.values().map(HashMap::len).sum(),
            delivered: self.delivered.load(Ordering::Relaxed),
            evicted: self.evicted.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Arc;

    fn counting_sender(hits: &Arc<AtomicUsize>, alive: bool) -> PushSender {
        let hits = Arc::clone(hits);
        Arc::new(move |_conn, _text| {
            hits.fetch_add(1, Ordering::SeqCst);
            alive
        })
    }

    #[test]
    fn subscriptions_fan_out_within_a_channel_only() {
        let hub = PushHub::new();
        let hits = Arc::new(AtomicUsize::new(0));
        hub.bind(1, "covid");
        hub.bind(2, "covid");
        hub.bind(3, "flights");
        for s in [1, 2, 3] {
            assert!(hub.subscribe(s, 100 + s, counting_sender(&hits, true)));
        }
        let peers = hub.peers_of(1);
        assert_eq!(
            peers.iter().map(|(s, c, _)| (*s, *c)).collect::<Vec<_>>(),
            vec![(2, 102)],
            "same channel, origin excluded, other channels invisible"
        );
        assert!(hub.peers_of(3).is_empty());
        assert_eq!(hub.stats().subscriptions, 3);
    }

    #[test]
    fn channel_subscribers_include_the_session_itself() {
        let hub = PushHub::new();
        let hits = Arc::new(AtomicUsize::new(0));
        hub.bind(1, "covid");
        hub.bind(2, "covid");
        hub.bind(3, "flights");
        assert!(!hub.channel_has_subscribers(1));
        assert!(hub.subscribe(1, 7, counting_sender(&hits, true)));
        assert!(hub.channel_has_subscribers(1), "its own subscription");
        assert!(hub.channel_has_subscribers(2), "a peer's subscription");
        assert!(!hub.channel_has_subscribers(3), "another channel");
        assert!(!hub.channel_has_subscribers(9), "an unknown session");
        hub.drop_conn(7);
        assert!(!hub.channel_has_subscribers(2));
    }

    #[test]
    fn unknown_sessions_cannot_subscribe() {
        let hub = PushHub::new();
        let hits = Arc::new(AtomicUsize::new(0));
        assert!(!hub.subscribe(9, 1, counting_sender(&hits, true)));
        assert_eq!(hub.stats().subscriptions, 0);
    }

    #[test]
    fn resubscribing_moves_the_stream_to_the_new_connection() {
        let hub = PushHub::new();
        let hits = Arc::new(AtomicUsize::new(0));
        hub.bind(1, "w");
        hub.bind(2, "w");
        assert!(hub.subscribe(2, 50, counting_sender(&hits, true)));
        assert!(hub.subscribe(2, 51, counting_sender(&hits, true)));
        assert_eq!(hub.stats().subscriptions, 1);
        assert_eq!(hub.peers_of(1)[0].1, 51);
        // The stale connection no longer unsubscribes it…
        assert!(!hub.unsubscribe(2, 50));
        // …and dropping the stale connection leaves it subscribed.
        hub.drop_conn(50);
        assert_eq!(hub.stats().subscriptions, 1);
        hub.drop_conn(51);
        assert_eq!(hub.stats().subscriptions, 0);
    }

    #[test]
    fn session_and_connection_teardown_unsubscribe() {
        let hub = PushHub::new();
        let hits = Arc::new(AtomicUsize::new(0));
        for s in [1, 2, 3] {
            hub.bind(s, "w");
            assert!(hub.subscribe(s, 7, counting_sender(&hits, true)));
        }
        hub.drop_session(2);
        assert_eq!(hub.stats().subscriptions, 2);
        assert!(
            !hub.subscribe(2, 7, counting_sender(&hits, true)),
            "unbound"
        );
        hub.drop_conn(7);
        assert_eq!(hub.stats().subscriptions, 0);
        // Channel bindings survive drop_conn: the sessions are still open.
        assert!(hub.subscribe(1, 8, counting_sender(&hits, true)));
    }

    #[test]
    fn evictions_are_counted_and_idempotent() {
        let hub = PushHub::new();
        let hits = Arc::new(AtomicUsize::new(0));
        hub.bind(1, "w");
        assert!(hub.subscribe(1, 4, counting_sender(&hits, false)));
        hub.evict(1, 4);
        hub.evict(1, 4);
        let stats = hub.stats();
        assert_eq!((stats.subscriptions, stats.evicted), (0, 1));
    }
}
