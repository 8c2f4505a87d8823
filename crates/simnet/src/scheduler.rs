use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashMap};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::NodeId;

/// An item scheduled for future delivery.
pub(crate) struct Scheduled<T> {
    pub deliver_at: Instant,
    /// Tie-breaker preserving insertion order for equal instants.
    pub seq: u64,
    pub item: T,
}

impl<T> PartialEq for Scheduled<T> {
    fn eq(&self, other: &Self) -> bool {
        self.deliver_at == other.deliver_at && self.seq == other.seq
    }
}
impl<T> Eq for Scheduled<T> {}
impl<T> PartialOrd for Scheduled<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for Scheduled<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the earliest first.
        other
            .deliver_at
            .cmp(&self.deliver_at)
            .then(other.seq.cmp(&self.seq))
    }
}

struct State<T> {
    heap: BinaryHeap<Scheduled<T>>,
    next_seq: u64,
    shutdown: bool,
    /// Last scheduled delivery instant per (src, dst) link, keeping links
    /// FIFO despite jitter.
    clamp: HashMap<(NodeId, NodeId), Instant>,
    /// Jitter RNG (drawn under the same lock acquisition that pushes the
    /// envelope, so draws follow send order).
    rng: StdRng,
    /// Last clamp-prune pass (see [`DelayQueue::run`]).
    last_prune: Instant,
}

/// Clamp entries whose instant is already in the past are dead weight —
/// any later send on that link schedules at `now + delay`, which is
/// necessarily later. Prune them periodically so long chaos runs with
/// churned node ids do not leak map entries forever.
const CLAMP_PRUNE_INTERVAL: Duration = Duration::from_millis(100);

/// The delay scheduler: a time-ordered delivery queue serviced by one
/// dedicated thread.
///
/// The heap, the per-link FIFO clamps and the jitter RNG sit behind a
/// single mutex, so scheduling a message is exactly one lock acquisition.
/// The service thread drains **all** due items per pass under one lock
/// acquisition and hands them to the delivery callback as a batch. Equal
/// instants are delivered in push order, which (together with the clamped
/// per-link delivery times) guarantees per-link FIFO.
pub(crate) struct DelayQueue<T> {
    state: Mutex<State<T>>,
    cond: Condvar,
}

impl<T: Send + 'static> DelayQueue<T> {
    #[cfg(test)]
    pub fn new() -> Arc<Self> {
        Self::with_seed(0)
    }

    /// Creates a queue whose jitter RNG is seeded with `seed`.
    pub fn with_seed(seed: u64) -> Arc<Self> {
        Arc::new(DelayQueue {
            state: Mutex::new(State {
                heap: BinaryHeap::new(),
                next_seq: 0,
                shutdown: false,
                clamp: HashMap::new(),
                rng: StdRng::seed_from_u64(seed),
                last_prune: Instant::now(),
            }),
            cond: Condvar::new(),
        })
    }

    /// Schedules `item` for delivery at `deliver_at` (raw path, no clamp).
    #[cfg(test)]
    pub fn push(&self, deliver_at: Instant, item: T) {
        let mut st = self.state.lock();
        let seq = st.next_seq;
        st.next_seq += 1;
        st.heap.push(Scheduled {
            deliver_at,
            seq,
            item,
        });
        drop(st);
        self.cond.notify_one();
    }

    /// Schedules `item` on `link` after `base` plus a jitter draw in
    /// `0..=jitter`, clamped so the link stays FIFO — jitter draw, clamp
    /// lookup/update and heap push all happen under ONE lock acquisition.
    /// Returns the scheduled one-way latency (base + jitter, pre-clamp),
    /// which is the link model's intent for the delay metric.
    pub fn schedule(
        &self,
        link: (NodeId, NodeId),
        base: Duration,
        jitter: Duration,
        item: T,
    ) -> Duration {
        let mut st = self.state.lock();
        let jitter_ns = if jitter.is_zero() {
            0
        } else {
            st.rng.gen_range(0..=jitter.as_nanos() as u64)
        };
        let scheduled = base + Duration::from_nanos(jitter_ns);
        let mut deliver_at = Instant::now() + scheduled;
        let slot = st.clamp.entry(link).or_insert(deliver_at);
        if *slot > deliver_at {
            deliver_at = *slot;
        } else {
            *slot = deliver_at;
        }
        let seq = st.next_seq;
        st.next_seq += 1;
        st.heap.push(Scheduled {
            deliver_at,
            seq,
            item,
        });
        drop(st);
        self.cond.notify_one();
        scheduled
    }

    /// Stops the service loop; items still queued are dropped.
    pub fn shutdown(&self) {
        self.state.lock().shutdown = true;
        self.cond.notify_all();
    }

    /// Runs the delivery loop until shutdown. Each pass drains every due
    /// item under one lock acquisition into `due` (in delivery order) and
    /// invokes `deliver` with the batch outside the lock; the callback
    /// consumes the vector. Intended to run on a dedicated thread.
    pub fn run(self: Arc<Self>, mut deliver: impl FnMut(&mut Vec<T>)) {
        let mut due: Vec<T> = Vec::new();
        loop {
            {
                let mut st = self.state.lock();
                loop {
                    if st.shutdown {
                        return;
                    }
                    let now = Instant::now();
                    while st
                        .heap
                        .peek()
                        .is_some_and(|top| top.deliver_at <= now)
                    {
                        due.push(st.heap.pop().expect("peeked item present").item);
                    }
                    if !due.is_empty() {
                        if now.duration_since(st.last_prune) >= CLAMP_PRUNE_INTERVAL {
                            st.clamp.retain(|_, &mut at| at > now);
                            st.last_prune = now;
                        }
                        break;
                    }
                    match st.heap.peek() {
                        Some(top) => {
                            let wait = top.deliver_at - now;
                            if wait < crate::SLEEP_FLOOR {
                                // Condvar wake-up slop would dominate the
                                // modelled link delay — yield-spin instead
                                // (deliberately trading CPU for timing
                                // fidelity).
                                drop(st);
                                std::thread::yield_now();
                                st = self.state.lock();
                            } else {
                                self.cond.wait_for(&mut st, wait);
                            }
                        }
                        None => {
                            self.cond.wait(&mut st);
                        }
                    }
                }
            }
            deliver(&mut due);
            due.clear();
        }
    }

    /// Number of live per-link clamp entries (test hook for the pruning
    /// behaviour).
    #[cfg(test)]
    pub fn clamp_len(&self) -> usize {
        self.state.lock().clamp.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn run_to_channel(
        q: &Arc<DelayQueue<u32>>,
    ) -> (
        crossbeam::channel::Receiver<u32>,
        std::thread::JoinHandle<()>,
    ) {
        let (tx, rx) = crossbeam::channel::unbounded();
        let q2 = Arc::clone(q);
        let handle = std::thread::spawn(move || {
            q2.run(move |batch: &mut Vec<u32>| {
                for v in batch.drain(..) {
                    tx.send(v).unwrap();
                }
            })
        });
        (rx, handle)
    }

    #[test]
    fn delivers_in_time_order() {
        let q = DelayQueue::new();
        let (rx, handle) = run_to_channel(&q);

        let now = Instant::now();
        q.push(now + Duration::from_millis(30), 3);
        q.push(now + Duration::from_millis(10), 1);
        q.push(now + Duration::from_millis(20), 2);

        assert_eq!(rx.recv_timeout(Duration::from_secs(1)).unwrap(), 1);
        assert_eq!(rx.recv_timeout(Duration::from_secs(1)).unwrap(), 2);
        assert_eq!(rx.recv_timeout(Duration::from_secs(1)).unwrap(), 3);

        q.shutdown();
        handle.join().unwrap();
    }

    #[test]
    fn equal_instants_preserve_push_order() {
        let q = DelayQueue::new();
        let (rx, handle) = run_to_channel(&q);

        let at = Instant::now() + Duration::from_millis(5);
        for i in 0..100 {
            q.push(at, i);
        }
        for i in 0..100 {
            assert_eq!(rx.recv_timeout(Duration::from_secs(1)).unwrap(), i);
        }
        q.shutdown();
        handle.join().unwrap();
    }

    #[test]
    fn schedule_clamps_links_fifo_and_prunes_dead_clamps() {
        let q = DelayQueue::with_seed(99);
        let (rx, handle) = run_to_channel(&q);

        // Huge jitter vs tiny base delay: without the clamp these would
        // reorder almost surely.
        let link = (NodeId(1), NodeId(2));
        for i in 0..200 {
            q.schedule(link, Duration::from_micros(10), Duration::from_millis(2), i);
        }
        for i in 0..200 {
            assert_eq!(rx.recv_timeout(Duration::from_secs(5)).unwrap(), i);
        }
        assert_eq!(q.clamp_len(), 1);
        // After the prune interval passes, the next delivery pass drops the
        // stale clamp entry.
        std::thread::sleep(CLAMP_PRUNE_INTERVAL + Duration::from_millis(20));
        q.schedule(
            (NodeId(3), NodeId(4)),
            Duration::from_micros(10),
            Duration::ZERO,
            999,
        );
        assert_eq!(rx.recv_timeout(Duration::from_secs(5)).unwrap(), 999);
        std::thread::sleep(CLAMP_PRUNE_INTERVAL + Duration::from_millis(20));
        q.schedule(
            (NodeId(3), NodeId(4)),
            Duration::from_micros(10),
            Duration::ZERO,
            1000,
        );
        assert_eq!(rx.recv_timeout(Duration::from_secs(5)).unwrap(), 1000);
        assert!(
            q.clamp_len() <= 1,
            "stale clamps survived pruning: {}",
            q.clamp_len()
        );
        q.shutdown();
        handle.join().unwrap();
    }

    #[test]
    fn due_items_drain_as_one_batch() {
        let q = DelayQueue::new();
        let (batch_tx, batch_rx) = crossbeam::channel::unbounded();
        let q2 = Arc::clone(&q);
        let handle = std::thread::spawn(move || {
            q2.run(move |batch: &mut Vec<u32>| {
                batch_tx.send(std::mem::take(batch)).unwrap();
            })
        });
        // All due at the same past-adjacent instant: one pass must pick up
        // the lot in a single callback.
        let at = Instant::now() + Duration::from_millis(20);
        for i in 0..50 {
            q.push(at, i);
        }
        let first = batch_rx.recv_timeout(Duration::from_secs(5)).unwrap();
        assert!(
            first.len() > 1,
            "expected a batched drain, got {} item(s)",
            first.len()
        );
        let mut got = first;
        while got.len() < 50 {
            got.extend(batch_rx.recv_timeout(Duration::from_secs(5)).unwrap());
        }
        assert_eq!(got, (0..50).collect::<Vec<_>>());
        q.shutdown();
        handle.join().unwrap();
    }

    #[test]
    fn shutdown_stops_loop() {
        let q: Arc<DelayQueue<u32>> = DelayQueue::new();
        let q2 = Arc::clone(&q);
        let handle = std::thread::spawn(move || q2.run(|_| {}));
        q.push(Instant::now() + Duration::from_secs(60), 9);
        q.shutdown();
        handle.join().unwrap();
    }
}
