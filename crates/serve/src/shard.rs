//! Sharded admission queues with work stealing — the ingress hot path.
//!
//! A single `Mutex` + `Condvar` queue funnels every producer and every
//! worker through one lock, which serializes admission under many
//! concurrent clients.  This module shards the queue **per worker**: a producer touches exactly one
//! shard lock (chosen round-robin, so load spreads even when every request
//! shares a plan key), and a worker drains its own shard first, then
//! *steals* from its neighbours when it runs dry — no global lock anywhere
//! on the hot path.
//!
//! Admission semantics:
//!
//! * the queue is **bounded across all shards** (one atomic occupancy
//!   counter — not a lock — enforces the global capacity);
//! * [`ShardedQueue::try_push`] rejects with [`QueueFull`] at capacity;
//! * [`ShardedQueue::push`] blocks until space frees (producers park on a
//!   capacity condvar that is only ever touched when the queue is full or
//!   was full moments ago — the uncontended path never takes it);
//! * [`ShardedQueue::pop_batch`] drains same-key runs for batching, now
//!   per shard, and returns `None` once closed and empty.

use errflow_tensor::sync::lock_recover;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::Duration;

/// A worker parking on its empty shard re-checks the whole queue at this
/// interval even without a wakeup, bounding how long a job pushed to a
/// *different* shard can sit unstolen while its home worker is busy.
const STEAL_RECHECK: Duration = Duration::from_millis(1);

/// Rejection returned by [`ShardedQueue::try_push`] when the queue is at
/// capacity (or closed); carries the item back to the caller.
#[derive(Debug)]
pub struct QueueFull<T>(pub T);

struct Shard<T> {
    items: Mutex<VecDeque<T>>,
    /// Signalled when an item lands in this shard (wakes its parked worker).
    ready: Condvar,
}

/// A bounded MPMC queue sharded per consumer, with work stealing.
pub struct ShardedQueue<T> {
    shards: Vec<Shard<T>>,
    capacity: usize,
    /// Total queued items across all shards (the admission gate).
    len: AtomicUsize,
    closed: AtomicBool,
    /// Round-robin producer cursor.
    next_shard: AtomicUsize,
    /// Producers blocked in [`ShardedQueue::push`] park here.  Only the
    /// *full-queue* path touches this lock; `try_push` never does.
    space: Mutex<()>,
    space_ready: Condvar,
    /// Producers currently parked (skip the notify syscall when zero).
    waiting_producers: AtomicUsize,
}

impl<T> ShardedQueue<T> {
    /// Creates a queue with `shards` consumer shards and a **global**
    /// capacity of `capacity` items.
    pub fn new(shards: usize, capacity: usize) -> Self {
        assert!(shards > 0, "need at least one shard");
        assert!(capacity > 0, "queue capacity must be nonzero");
        ShardedQueue {
            shards: (0..shards)
                .map(|_| Shard {
                    items: Mutex::new(VecDeque::new()),
                    ready: Condvar::new(),
                })
                .collect(),
            capacity,
            len: AtomicUsize::new(0),
            closed: AtomicBool::new(false),
            next_shard: AtomicUsize::new(0),
            space: Mutex::new(()),
            space_ready: Condvar::new(),
            waiting_producers: AtomicUsize::new(0),
        }
    }

    /// Number of consumer shards.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// Global capacity across all shards.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Total queued items across all shards.
    pub fn len(&self) -> usize {
        self.len.load(Ordering::Relaxed)
    }

    /// `true` when no items are queued anywhere.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Reserves one occupancy slot, or fails if the queue is at capacity.
    /// Lock-free: a compare-exchange loop on the occupancy counter.
    fn reserve_slot(&self) -> bool {
        let mut cur = self.len.load(Ordering::Relaxed);
        loop {
            if cur >= self.capacity {
                return false;
            }
            match self
                .len
                .compare_exchange_weak(cur, cur + 1, Ordering::AcqRel, Ordering::Relaxed)
            {
                Ok(_) => return true,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Releases `n` occupancy slots and wakes parked producers if any.
    fn release_slots(&self, n: usize) {
        self.len.fetch_sub(n, Ordering::AcqRel);
        if self.waiting_producers.load(Ordering::Acquire) > 0 {
            let _g = lock_recover(&self.space);
            self.space_ready.notify_all();
        }
    }

    /// Delivers a reserved item into shard `idx` and wakes its worker.
    fn deliver(&self, idx: usize, item: T) {
        let shard = &self.shards[idx % self.shards.len()];
        lock_recover(&shard.items).push_back(item);
        shard.ready.notify_one();
    }

    /// Enqueues without blocking; rejects with [`QueueFull`] when the queue
    /// is at global capacity or closed.  The hot path touches one atomic
    /// (occupancy), one atomic (shard cursor), and one shard lock.
    pub fn try_push(&self, item: T) -> Result<(), QueueFull<T>> {
        if self.closed.load(Ordering::Acquire) || !self.reserve_slot() {
            return Err(QueueFull(item));
        }
        // Closed-after-reserve race: give the slot back so shutdown never
        // strands occupancy.  The item still lands if a worker is draining;
        // rejecting is the conservative (and admission-correct) choice.
        if self.closed.load(Ordering::Acquire) {
            self.release_slots(1);
            return Err(QueueFull(item));
        }
        let idx = self.next_shard.fetch_add(1, Ordering::Relaxed);
        self.deliver(idx, item);
        Ok(())
    }

    /// Enqueues, blocking while the queue is at capacity.  Returns the item
    /// back if the queue closes before space frees up.
    pub fn push(&self, item: T) -> Result<(), QueueFull<T>> {
        let mut item = item;
        loop {
            match self.try_push(item) {
                Ok(()) => return Ok(()),
                Err(QueueFull(back)) => {
                    if self.closed.load(Ordering::Acquire) {
                        return Err(QueueFull(back));
                    }
                    item = back;
                    // Park until a consumer frees space.  Capacity is
                    // re-checked under the space lock, and the wait is timed
                    // as a backstop against a release that raced between the
                    // failed try and the park (a consumer that observed
                    // `waiting_producers == 0` skips the notify).
                    let guard = lock_recover(&self.space);
                    self.waiting_producers.fetch_add(1, Ordering::AcqRel);
                    if self.len.load(Ordering::Acquire) >= self.capacity
                        && !self.closed.load(Ordering::Acquire)
                    {
                        drop(match self.space_ready.wait_timeout(guard, STEAL_RECHECK) {
                            Ok((g, _)) => g,
                            Err(p) => p.into_inner().0,
                        });
                    } else {
                        drop(guard);
                    }
                    self.waiting_producers.fetch_sub(1, Ordering::AcqRel);
                }
            }
        }
    }

    /// Pops one item for consumer `worker`: its own shard first, then a
    /// steal sweep over the others.  Blocks while everything is empty;
    /// `None` once closed and fully drained.
    pub fn pop(&self, worker: usize) -> Option<T> {
        self.pop_batch(worker, 1, |_| 0u8).map(|mut b| {
            debug_assert_eq!(b.len(), 1);
            b.swap_remove(0)
        })
    }

    /// Dequeues a head item plus up to `max - 1` more queued items with the
    /// same `key` for consumer `worker` (same-plan batch coalescing: the
    /// batch keeps FIFO order and leaves other keys queued).  The worker's
    /// own shard is drained first; when it is empty the worker sweeps the
    /// other shards and steals a batch from the first non-empty one.
    /// Blocks while all shards are empty; `None` once closed and drained.
    pub fn pop_batch<K: PartialEq>(
        &self,
        worker: usize,
        max: usize,
        key: impl Fn(&T) -> K,
    ) -> Option<Vec<T>> {
        assert!(max > 0, "batch size must be nonzero");
        let n = self.shards.len();
        let home = worker % n;
        loop {
            // Sweep: home shard first, then steal candidates in ring order.
            for offset in 0..n {
                let shard = &self.shards[(home + offset) % n];
                let mut items = lock_recover(&shard.items);
                if let Some(head) = items.pop_front() {
                    let k = key(&head);
                    let mut batch = vec![head];
                    let mut i = 0;
                    while batch.len() < max && i < items.len() {
                        if key(&items[i]) == k {
                            match items.remove(i) {
                                Some(item) => batch.push(item),
                                None => break,
                            }
                        } else {
                            i += 1;
                        }
                    }
                    drop(items);
                    self.release_slots(batch.len());
                    return Some(batch);
                }
            }
            if self.closed.load(Ordering::Acquire) && self.len() == 0 {
                return None;
            }
            // Park on the home shard.  The timeout bounds steal latency for
            // items pushed to other shards while we slept (their own worker
            // normally handles them; the timeout is the lost-wakeup net).
            let shard = &self.shards[home];
            let items = lock_recover(&shard.items);
            if items.is_empty() && !self.closed.load(Ordering::Acquire) {
                let (_g, _timeout) = match shard.ready.wait_timeout(items, STEAL_RECHECK) {
                    Ok(r) => r,
                    Err(p) => {
                        let (g, t) = p.into_inner();
                        (g, t)
                    }
                };
            }
        }
    }

    /// Closes the queue: producers are rejected from now on, consumers
    /// drain the backlog and then observe `None`.
    pub fn close(&self) {
        self.closed.store(true, Ordering::Release);
        for shard in &self.shards {
            // Take each shard lock so parked workers re-check the flag.
            let _g = lock_recover(&shard.items);
            shard.ready.notify_all();
        }
        let _g = lock_recover(&self.space);
        self.space_ready.notify_all();
    }

    /// Removes and returns every queued item across all shards (shutdown:
    /// fail outstanding requests instead of leaving waiters hanging).
    pub fn drain(&self) -> Vec<T> {
        let mut out = Vec::new();
        for shard in &self.shards {
            out.extend(lock_recover(&shard.items).drain(..));
        }
        if !out.is_empty() {
            self.release_slots(out.len());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn delivers_everything_once_across_shards() {
        let q = Arc::new(ShardedQueue::new(4, 1024));
        let producers = 4;
        let per = 250usize;
        let done = Arc::new(AtomicUsize::new(0));
        std::thread::scope(|s| {
            for p in 0..producers {
                let q = Arc::clone(&q);
                let done = Arc::clone(&done);
                s.spawn(move || {
                    for i in 0..per {
                        q.push(p * per + i).unwrap();
                    }
                    done.fetch_add(1, Ordering::Release);
                });
            }
            let consumers: Vec<_> = (0..4)
                .map(|w| {
                    let q = Arc::clone(&q);
                    s.spawn(move || {
                        let mut got = Vec::new();
                        while let Some(v) = q.pop(w) {
                            got.push(v);
                        }
                        got
                    })
                })
                .collect();
            // Close only after every producer finished and the backlog is
            // drained, so consumers see the full item set.
            while done.load(Ordering::Acquire) < producers || q.len() > 0 {
                std::thread::sleep(Duration::from_millis(1));
            }
            q.close();
            let mut all: Vec<usize> = consumers
                .into_iter()
                .flat_map(|c| c.join().unwrap())
                .collect();
            all.sort_unstable();
            assert_eq!(all, (0..producers * per).collect::<Vec<_>>());
        });
    }

    #[test]
    fn try_push_rejects_at_global_capacity() {
        let q = ShardedQueue::new(3, 4);
        for i in 0..4 {
            q.try_push(i).unwrap();
        }
        let QueueFull(r) = q.try_push(99).unwrap_err();
        assert_eq!(r, 99);
        assert_eq!(q.len(), 4);
        // Freeing one slot re-admits — from any consumer.
        assert!(q.pop(0).is_some());
        q.try_push(99).unwrap();
        assert_eq!(q.len(), 4);
    }

    #[test]
    fn capacity_is_global_not_per_shard() {
        // 8 shards but capacity 2: the 3rd push must be rejected even
        // though 6 shards are empty.
        let q = ShardedQueue::new(8, 2);
        q.try_push(1).unwrap();
        q.try_push(2).unwrap();
        assert!(q.try_push(3).is_err());
    }

    #[test]
    fn worker_steals_from_other_shards() {
        let q = ShardedQueue::new(4, 16);
        for i in 0..8 {
            q.try_push(i).unwrap();
        }
        // A single consumer (worker 2) must drain every shard via steals.
        let mut got = Vec::new();
        for _ in 0..8 {
            got.extend(q.pop_batch(2, 1, |_| 0u8).unwrap());
        }
        got.sort_unstable();
        assert_eq!(got, (0..8).collect::<Vec<_>>());
        assert!(q.is_empty());
    }

    #[test]
    fn pop_batch_coalesces_same_key_within_a_shard() {
        // One shard so all items land together: the whole queue coalesces
        // same-key items in FIFO order.
        let q = ShardedQueue::new(1, 16);
        for item in [("a", 0), ("b", 1), ("a", 2), ("c", 3), ("a", 4)] {
            q.try_push(item).unwrap();
        }
        let batch = q.pop_batch(0, 8, |t| t.0).unwrap();
        assert_eq!(batch, vec![("a", 0), ("a", 2), ("a", 4)]);
        assert_eq!(q.pop_batch(0, 8, |t| t.0).unwrap(), vec![("b", 1)]);
        assert_eq!(q.pop_batch(0, 8, |t| t.0).unwrap(), vec![("c", 3)]);
    }

    #[test]
    fn pop_batch_respects_max() {
        let q = ShardedQueue::new(1, 16);
        for i in 0..5 {
            q.try_push(("k", i)).unwrap();
        }
        assert_eq!(q.pop_batch(0, 3, |t| t.0).unwrap().len(), 3);
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn blocking_push_waits_for_capacity() {
        let q = Arc::new(ShardedQueue::new(2, 1));
        q.try_push(1).unwrap();
        let q2 = Arc::clone(&q);
        let producer = std::thread::spawn(move || q2.push(2).is_ok());
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(q.len(), 1, "producer must be blocked, not enqueued");
        assert!(q.pop(0).is_some());
        assert!(producer.join().unwrap());
        assert!(q.pop(1).is_some());
    }

    #[test]
    fn close_wakes_consumers_and_rejects_producers() {
        let q = Arc::new(ShardedQueue::<u32>::new(2, 4));
        let q2 = Arc::clone(&q);
        let popper = std::thread::spawn(move || q2.pop(0));
        std::thread::sleep(Duration::from_millis(20));
        q.close();
        assert_eq!(popper.join().unwrap(), None);
        assert!(q.try_push(1).is_err());
        assert!(q.push(1).is_err());
    }

    #[test]
    fn close_lets_consumers_drain_backlog() {
        let q = ShardedQueue::new(2, 4);
        q.try_push(7).unwrap();
        q.close();
        assert_eq!(q.pop(0), Some(7));
        assert_eq!(q.pop(0), None);
    }

    #[test]
    fn drain_empties_every_shard() {
        let q = ShardedQueue::new(3, 8);
        for i in 0..6 {
            q.try_push(i).unwrap();
        }
        let mut drained = q.drain();
        drained.sort_unstable();
        assert_eq!(drained, (0..6).collect::<Vec<_>>());
        assert!(q.is_empty());
        // Drained slots are free again.
        for i in 0..8 {
            q.try_push(i).unwrap();
        }
        assert!(q.try_push(9).is_err());
    }

    /// The admission contention scenario from the acceptance criteria:
    /// N producers × M shards, with consumers popping concurrently, must
    /// deliver exactly once with QueueFull-only rejections, and a
    /// same-capacity run must reject pushes past capacity exactly like the
    /// single-lock queue did.
    #[test]
    fn contention_n_producers_m_shards() {
        for shards in [1usize, 2, 4] {
            let q = Arc::new(ShardedQueue::new(shards, 32));
            let produced = Arc::new(AtomicUsize::new(0));
            let rejected = Arc::new(AtomicUsize::new(0));
            std::thread::scope(|s| {
                for p in 0..6 {
                    let q = Arc::clone(&q);
                    let produced = Arc::clone(&produced);
                    let rejected = Arc::clone(&rejected);
                    s.spawn(move || {
                        for i in 0..200usize {
                            match q.try_push(p * 1000 + i) {
                                Ok(()) => {
                                    produced.fetch_add(1, Ordering::Relaxed);
                                }
                                Err(QueueFull(_)) => {
                                    rejected.fetch_add(1, Ordering::Relaxed);
                                    std::thread::sleep(Duration::from_micros(50));
                                }
                            }
                        }
                    });
                }
                let consumers: Vec<_> = (0..shards)
                    .map(|w| {
                        let q = Arc::clone(&q);
                        s.spawn(move || {
                            let mut n = 0usize;
                            while let Some(batch) = q.pop_batch(w, 4, |v| *v / 1000) {
                                n += batch.len();
                            }
                            n
                        })
                    })
                    .collect();
                // Wait for producers (scope joins spawned producer threads
                // when the closure ends, but we need close() after they
                // finish), so poll until all producer attempts happened.
                while produced.load(Ordering::Relaxed) + rejected.load(Ordering::Relaxed) < 6 * 200
                {
                    std::thread::sleep(Duration::from_millis(1));
                }
                // Let consumers drain, then close.
                while q.len() > 0 {
                    std::thread::sleep(Duration::from_millis(1));
                }
                q.close();
                let consumed: usize = consumers.into_iter().map(|c| c.join().unwrap()).sum();
                assert_eq!(
                    consumed,
                    produced.load(Ordering::Relaxed),
                    "shards={shards}: every admitted item is consumed exactly once"
                );
            });
        }
    }
}
