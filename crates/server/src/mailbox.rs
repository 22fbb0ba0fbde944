//! Per-session bounded mailboxes and the worker run queue.
//!
//! The concurrency contract of the server: requests addressed to one
//! session execute in arrival order, requests addressed to different
//! sessions execute fully in parallel. A [`Mailboxes`] map (lock-sharded in
//! the style of `pi2_data::ShardedMemo`) holds one bounded FIFO per active
//! session; a session with queued or running work holds exactly one *turn
//! token*, so at most one thread drives a given session at a time —
//! ordering needs no per-session mutex wait, and a slow session never
//! blocks a worker that could serve another one.
//!
//! The token is either scheduled in the [`RunQueue`] / held by a worker,
//! or held by a reactor serving a request inline. A reactor takes it only
//! through [`Mailboxes::try_claim`], which succeeds only when no token is
//! live — nothing of the session is queued or running — so an inline
//! request can never overtake earlier work of its session. The reactor
//! then either finishes the turn itself ([`Mailboxes::finish_turn`]) or
//! passes the token on to a worker ([`Mailboxes::enqueue_claimed`] plus a
//! scheduled [`Runnable::Turn`]).
//!
//! Bounded queues are the backpressure primitive: when a session's mailbox
//! is full, [`Mailboxes::enqueue`] refuses and the server answers 429
//! immediately instead of queueing without bound.

use std::collections::{HashMap, VecDeque};
use std::hash::{BuildHasher, BuildHasherDefault, DefaultHasher};
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::Duration;

/// Shard count for the mailbox map (matches `pi2_data::memo::DEFAULT_SHARDS`).
const SHARDS: usize = 16;

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    // A worker panicking while holding a shard poisons the std mutex; the
    // map itself is still consistent (every critical section is a few
    // pushes/pops), so serving continues.
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Outcome of an [`Mailboxes::enqueue`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Enqueued {
    /// Queued; the caller must schedule a turn token for this session.
    MustSchedule,
    /// Queued behind earlier work; a token is already live.
    Queued,
    /// The mailbox is at capacity — reject with backpressure.
    Full,
}

/// The sharded session-id → bounded-FIFO map. A session has an entry
/// exactly while its turn token is live; the entry dies with the token.
pub struct Mailboxes<T> {
    shards: Vec<Mutex<HashMap<u64, VecDeque<T>>>>,
    cap: usize,
}

impl<T> Mailboxes<T> {
    /// A map whose per-session queues hold at most `cap` items.
    pub fn new(cap: usize) -> Mailboxes<T> {
        Mailboxes {
            shards: (0..SHARDS).map(|_| Mutex::new(HashMap::new())).collect(),
            cap: cap.max(1),
        }
    }

    fn shard(&self, key: u64) -> &Mutex<HashMap<u64, VecDeque<T>>> {
        let h = BuildHasherDefault::<DefaultHasher>::default().hash_one(key);
        &self.shards[(h as usize) % self.shards.len()]
    }

    /// Append an item to `key`'s mailbox.
    pub fn enqueue(&self, key: u64, item: T) -> Enqueued {
        let mut shard = lock(self.shard(key));
        match shard.get_mut(&key) {
            Some(queue) if queue.len() >= self.cap => Enqueued::Full,
            Some(queue) => {
                queue.push_back(item);
                Enqueued::Queued
            }
            None => {
                shard.insert(key, VecDeque::from([item]));
                Enqueued::MustSchedule
            }
        }
    }

    /// Take `key`'s turn token if no token is live — nothing of the
    /// session is queued or running. The caller then drives the session
    /// itself and must end the turn with [`Mailboxes::finish_turn`] or hand
    /// it on with [`Mailboxes::enqueue_claimed`].
    pub fn try_claim(&self, key: u64) -> bool {
        let mut shard = lock(self.shard(key));
        if shard.contains_key(&key) {
            return false;
        }
        shard.insert(key, VecDeque::new());
        true
    }

    /// Hand a claimed turn on to a worker: queue its item at the head of
    /// `key`'s mailbox, ahead of anything that arrived while the claim was
    /// held; the caller then schedules a [`Runnable::Turn`]. The item was
    /// admitted when the token was claimed, so the cap does not apply.
    pub fn enqueue_claimed(&self, key: u64, item: T) {
        lock(self.shard(key))
            .entry(key)
            .or_default()
            .push_front(item);
    }

    /// Take the next item of `key`'s mailbox. Only the holder of `key`'s
    /// turn token calls this, so per-session pops are ordered.
    pub fn pop(&self, key: u64) -> Option<T> {
        lock(self.shard(key))
            .get_mut(&key)
            .and_then(VecDeque::pop_front)
    }

    /// Finish one turn for `key`: returns `true` when more work is queued
    /// (the caller must reschedule the token) and `false` when the mailbox
    /// emptied (the token dies and the entry is dropped, keeping the map
    /// bounded by *active* sessions).
    pub fn finish_turn(&self, key: u64) -> bool {
        let mut shard = lock(self.shard(key));
        match shard.get(&key) {
            Some(queue) if queue.is_empty() => {
                shard.remove(&key);
                false
            }
            Some(_) => true,
            None => false,
        }
    }

    /// Total queued items across every mailbox.
    pub fn queued(&self) -> usize {
        self.shards
            .iter()
            .map(|s| lock(s).values().map(VecDeque::len).sum::<usize>())
            .sum()
    }

    /// Whether no mailbox holds queued work or a live token.
    pub fn is_idle(&self) -> bool {
        self.shards.iter().all(|s| lock(s).is_empty())
    }
}

/// What a worker pulls off the run queue.
#[derive(Debug)]
pub enum Runnable<J> {
    /// A turn token: serve one item from this session's mailbox.
    Turn(u64),
    /// A sessionless job (open/describe/metrics): serve it directly.
    Job(J),
    /// Shut down this worker.
    Stop,
}

/// The blocking MPMC queue feeding the worker pool.
pub struct RunQueue<J> {
    queue: Mutex<VecDeque<Runnable<J>>>,
    ready: Condvar,
}

impl<J> RunQueue<J> {
    /// An empty queue.
    pub fn new() -> RunQueue<J> {
        RunQueue {
            queue: Mutex::new(VecDeque::new()),
            ready: Condvar::new(),
        }
    }

    /// Append a runnable and wake one worker.
    pub fn push(&self, item: Runnable<J>) {
        lock(&self.queue).push_back(item);
        self.ready.notify_one();
    }

    /// Block until a runnable is available.
    pub fn pop(&self) -> Runnable<J> {
        let mut guard = lock(&self.queue);
        loop {
            if let Some(item) = guard.pop_front() {
                return item;
            }
            guard = self
                .ready
                .wait_timeout(guard, Duration::from_millis(50))
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .0;
        }
    }

    /// Currently queued runnables.
    pub fn len(&self) -> usize {
        lock(&self.queue).len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<J> Default for RunQueue<J> {
    fn default() -> Self {
        RunQueue::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    #[test]
    fn first_enqueue_schedules_later_ones_queue() {
        let boxes: Mailboxes<u32> = Mailboxes::new(8);
        assert_eq!(boxes.enqueue(1, 10), Enqueued::MustSchedule);
        assert_eq!(boxes.enqueue(1, 11), Enqueued::Queued);
        assert_eq!(
            boxes.enqueue(2, 20),
            Enqueued::MustSchedule,
            "other key is independent"
        );
        assert_eq!(boxes.pop(1), Some(10));
        assert!(boxes.finish_turn(1), "one item left: token must reschedule");
        assert_eq!(boxes.pop(1), Some(11));
        assert!(!boxes.finish_turn(1), "empty: token dies");
        // Entry removed: the next enqueue schedules a fresh token.
        assert_eq!(boxes.enqueue(1, 12), Enqueued::MustSchedule);
    }

    #[test]
    fn full_mailbox_rejects() {
        let boxes: Mailboxes<u32> = Mailboxes::new(2);
        assert_eq!(boxes.enqueue(7, 0), Enqueued::MustSchedule);
        assert_eq!(boxes.enqueue(7, 1), Enqueued::Queued);
        assert_eq!(boxes.enqueue(7, 2), Enqueued::Full);
        assert_eq!(boxes.queued(), 2, "rejected item is not queued");
        // Draining reopens capacity.
        assert_eq!(boxes.pop(7), Some(0));
        assert_eq!(boxes.enqueue(7, 3), Enqueued::Queued);
    }

    #[test]
    fn a_claim_takes_only_a_dead_token_and_hands_on_in_order() {
        let boxes: Mailboxes<u32> = Mailboxes::new(2);
        assert_eq!(boxes.enqueue(1, 10), Enqueued::MustSchedule);
        assert!(!boxes.try_claim(1), "queued work holds the token");
        assert_eq!(boxes.pop(1), Some(10));
        assert!(!boxes.try_claim(1), "running work holds the token");
        assert!(!boxes.finish_turn(1));

        assert!(boxes.try_claim(1));
        assert!(!boxes.try_claim(1), "one token per session");
        // Work arriving while the claim is held queues behind it, still
        // bounded by the cap, and schedules nothing.
        assert_eq!(boxes.enqueue(1, 12), Enqueued::Queued);
        assert_eq!(boxes.enqueue(1, 13), Enqueued::Queued);
        assert_eq!(boxes.enqueue(1, 14), Enqueued::Full);
        // Handing the claimed turn on puts its own item first.
        boxes.enqueue_claimed(1, 11);
        assert_eq!(boxes.pop(1), Some(11));
        assert!(boxes.finish_turn(1));
        assert_eq!(boxes.pop(1), Some(12));
        assert_eq!(boxes.pop(1), Some(13));
        assert!(!boxes.finish_turn(1));

        // A claim finished with nothing queued leaves no entry behind.
        assert!(boxes.try_claim(2));
        assert!(!boxes.finish_turn(2));
        assert!(boxes.is_idle());
    }

    #[test]
    fn tokens_serialize_one_key_across_workers() {
        // 4 workers × interleaved turn tokens must drain each key's items
        // in order, with at most one worker per key at a time.
        let boxes: Arc<Mailboxes<usize>> = Arc::new(Mailboxes::new(1024));
        let queue: Arc<RunQueue<()>> = Arc::new(RunQueue::new());
        let popped: Arc<Vec<Mutex<Vec<usize>>>> =
            Arc::new((0..4).map(|_| Mutex::new(Vec::new())).collect());
        let active: Arc<Vec<AtomicUsize>> = Arc::new((0..4).map(|_| AtomicUsize::new(0)).collect());
        for key in 0..4u64 {
            for i in 0..100usize {
                if boxes.enqueue(key, i) == Enqueued::MustSchedule {
                    queue.push(Runnable::Turn(key));
                }
            }
        }
        let workers: Vec<_> = (0..4)
            .map(|_| {
                let (boxes, queue, popped, active) = (
                    Arc::clone(&boxes),
                    Arc::clone(&queue),
                    Arc::clone(&popped),
                    Arc::clone(&active),
                );
                std::thread::spawn(move || loop {
                    match queue.pop() {
                        Runnable::Stop => break,
                        Runnable::Turn(key) => {
                            let k = key as usize;
                            assert_eq!(
                                active[k].fetch_add(1, Ordering::SeqCst),
                                0,
                                "two workers drove key {key} at once"
                            );
                            if let Some(item) = boxes.pop(key) {
                                popped[k].lock().unwrap().push(item);
                            }
                            active[k].fetch_sub(1, Ordering::SeqCst);
                            if boxes.finish_turn(key) {
                                queue.push(Runnable::Turn(key));
                            }
                        }
                        Runnable::Job(()) => {}
                    }
                })
            })
            .collect();
        while !boxes.is_idle() {
            std::thread::yield_now();
        }
        for _ in 0..4 {
            queue.push(Runnable::Stop);
        }
        for w in workers {
            w.join().unwrap();
        }
        for k in 0..4 {
            let got = popped[k].lock().unwrap();
            assert_eq!(*got, (0..100).collect::<Vec<_>>(), "key {k} lost order");
        }
    }
}
