//! Bounded lock-free MPMC queue (Vyukov's array-based design).
//!
//! The ingest side of the fleet service must never block the shim hot
//! path: `push` is wait-free in the uncontended case, lock-free under
//! contention, and returns the record to the caller when the queue is
//! full so the service can count the drop and move on. All slot storage
//! is allocated once at construction; steady-state operation performs no
//! allocation.

use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Pads a hot atomic to its own cache line to avoid false sharing between
/// the producer and consumer cursors.
#[repr(align(64))]
struct CachePadded<T>(T);

struct Slot<T> {
    /// Sequence stamp: `pos` when the slot is free for the producer at
    /// `pos`, `pos + 1` once filled (ready for the consumer at `pos`),
    /// and `pos + capacity` after the consumer frees it for the next lap.
    seq: AtomicUsize,
    value: UnsafeCell<MaybeUninit<T>>,
}

/// Bounded multi-producer multi-consumer queue with power-of-two capacity.
pub struct MpmcQueue<T> {
    buf: Box<[Slot<T>]>,
    mask: usize,
    enqueue_pos: CachePadded<AtomicUsize>,
    dequeue_pos: CachePadded<AtomicUsize>,
}

unsafe impl<T: Send> Send for MpmcQueue<T> {}
unsafe impl<T: Send> Sync for MpmcQueue<T> {}

impl<T> MpmcQueue<T> {
    /// Allocate a queue with `capacity` slots (rounded up to a power of
    /// two, minimum 2). Panics if that power of two overflows `usize`.
    pub fn with_capacity(capacity: usize) -> MpmcQueue<T> {
        // The documented panic: no allocation of that many slots could
        // succeed anyway.
        let cap = capacity
            .max(2)
            .checked_next_power_of_two()
            .expect("MpmcQueue::with_capacity: capacity rounds past usize::MAX");
        let buf: Vec<Slot<T>> = (0..cap)
            .map(|i| Slot {
                seq: AtomicUsize::new(i),
                value: UnsafeCell::new(MaybeUninit::uninit()),
            })
            .collect();
        MpmcQueue {
            buf: buf.into_boxed_slice(),
            mask: cap - 1,
            enqueue_pos: CachePadded(AtomicUsize::new(0)),
            dequeue_pos: CachePadded(AtomicUsize::new(0)),
        }
    }

    /// Slot count.
    pub fn capacity(&self) -> usize {
        self.buf.len()
    }

    /// Approximate number of queued items (racy, for metrics only).
    pub fn len(&self) -> usize {
        let head = self.dequeue_pos.0.load(Ordering::Relaxed);
        let tail = self.enqueue_pos.0.load(Ordering::Relaxed);
        tail.saturating_sub(head)
    }

    /// True when no items are visible (racy, for idle checks).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Non-blocking enqueue. Returns `Err(value)` when the queue is full
    /// so the caller decides the degradation policy (count + drop).
    pub fn push(&self, value: T) -> Result<(), T> {
        let mut pos = self.enqueue_pos.0.load(Ordering::Relaxed);
        loop {
            let slot = &self.buf[pos & self.mask];
            let seq = slot.seq.load(Ordering::Acquire);
            let dif = seq as isize - pos as isize;
            if dif == 0 {
                match self.enqueue_pos.0.compare_exchange_weak(
                    pos,
                    pos + 1,
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => {
                        unsafe { (*slot.value.get()).write(value) };
                        slot.seq.store(pos + 1, Ordering::Release);
                        return Ok(());
                    }
                    Err(actual) => pos = actual,
                }
            } else if dif < 0 {
                // The slot has not been freed by the consumer one lap
                // behind: the queue is full.
                return Err(value);
            } else {
                pos = self.enqueue_pos.0.load(Ordering::Relaxed);
            }
        }
    }

    /// Non-blocking dequeue.
    pub fn pop(&self) -> Option<T> {
        let mut one = None;
        self.claim(1, |value| one = Some(value));
        one
    }

    /// Non-blocking batch dequeue: appends up to `max` of the oldest
    /// queued items to `out`, in queue order, and returns how many. Short
    /// (or zero) when fewer are ready; never waits for a producer.
    // Inline, with `claim`: the shard worker's empty poll then runs
    // straight through the scan, with no call.
    #[inline]
    pub fn pop_batch(&self, out: &mut Vec<T>, max: usize) -> usize {
        // Reserved up front so that `push` cannot fail between a claim
        // and the release of its slots.
        out.reserve(max.min(self.capacity()));
        self.claim(max, |value| out.push(value))
    }

    /// The one dequeue body. Scans the ready stamps from `dequeue_pos`,
    /// claims the run it found with a single compare-exchange, then moves
    /// each value out through `take` and frees its slot. The scan is what
    /// lets the cache misses on producer-written lines overlap instead of
    /// being paid one dequeue at a time.
    ///
    /// `take` must not panic: a claimed slot that is never freed wedges
    /// the queue at that position one lap later.
    #[inline]
    fn claim(&self, max: usize, mut take: impl FnMut(T)) -> usize {
        let mut pos = self.dequeue_pos.0.load(Ordering::Relaxed);
        loop {
            // A slot holds one stamp, so the run ends at `capacity` at the
            // latest (the slot at `pos + capacity` is the slot at `pos`).
            let mut n = 0;
            let mut dif = 0;
            while n < max {
                let seq = self.buf[(pos + n) & self.mask].seq.load(Ordering::Acquire);
                dif = seq as isize - (pos + n + 1) as isize;
                if dif != 0 {
                    break;
                }
                n += 1;
            }
            if n == 0 {
                if dif <= 0 {
                    // Nothing asked for, or the slot at `pos` is not
                    // filled yet: the queue is empty.
                    return 0;
                }
                // Another consumer already took `pos`.
                pos = self.dequeue_pos.0.load(Ordering::Relaxed);
                continue;
            }
            // `dequeue_pos` only grows, so if it still equals `pos` no
            // consumer has claimed anything at or past `pos` since the
            // scan, and only the claimant of a position ever changes a
            // ready stamp: the `n` slots are still ready, and now ours.
            match self.dequeue_pos.0.compare_exchange_weak(
                pos,
                pos + n,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => {
                    for p in pos..pos + n {
                        let slot = &self.buf[p & self.mask];
                        // SAFETY: the stamp `p + 1` was read with Acquire,
                        // pairing with the producer's Release store after
                        // it wrote the value, and the compare-exchange made
                        // this thread the only consumer of position `p`.
                        take(unsafe { (*slot.value.get()).assume_init_read() });
                        slot.seq.store(p + self.mask + 1, Ordering::Release);
                    }
                    return n;
                }
                // The scan was of the old position: start over from the
                // new one.
                Err(actual) => pos = actual,
            }
        }
    }
}

impl<T> Drop for MpmcQueue<T> {
    fn drop(&mut self) {
        // Drain any items still in flight so their destructors run.
        while self.pop().is_some() {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::sync::Arc;

    #[test]
    fn fifo_within_capacity() {
        let q = MpmcQueue::with_capacity(8);
        for i in 0..8 {
            q.push(i).unwrap();
        }
        assert_eq!(q.push(99), Err(99), "ninth push must report full");
        for i in 0..8 {
            assert_eq!(q.pop(), Some(i));
        }
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn capacity_rounds_to_power_of_two() {
        let q = MpmcQueue::<u32>::with_capacity(1000);
        assert_eq!(q.capacity(), 1024);
        let q = MpmcQueue::<u32>::with_capacity(0);
        assert_eq!(q.capacity(), 2);
    }

    #[test]
    #[should_panic(expected = "MpmcQueue::with_capacity: capacity rounds past usize::MAX")]
    fn capacity_past_the_largest_power_of_two_panics() {
        MpmcQueue::<u32>::with_capacity((1 << (usize::BITS - 1)) + 1);
    }

    #[test]
    fn wraps_across_many_laps() {
        let q = MpmcQueue::with_capacity(4);
        for lap in 0u64..1000 {
            for i in 0..4 {
                q.push(lap * 4 + i).unwrap();
            }
            for i in 0..4 {
                assert_eq!(q.pop(), Some(lap * 4 + i));
            }
        }
    }

    #[test]
    fn concurrent_producers_and_consumers_lose_nothing() {
        const PRODUCERS: u64 = 4;
        const CONSUMERS: usize = 4;
        const PER_PRODUCER: u64 = 20_000;
        let q = Arc::new(MpmcQueue::with_capacity(256));
        let sum = Arc::new(AtomicU64::new(0));
        let got = Arc::new(AtomicU64::new(0));
        std::thread::scope(|s| {
            for p in 0..PRODUCERS {
                let q = Arc::clone(&q);
                s.spawn(move || {
                    for i in 0..PER_PRODUCER {
                        let mut v = p * PER_PRODUCER + i;
                        loop {
                            match q.push(v) {
                                Ok(()) => break,
                                Err(back) => {
                                    v = back;
                                    std::hint::spin_loop();
                                }
                            }
                        }
                    }
                });
            }
            for _ in 0..CONSUMERS {
                let q = Arc::clone(&q);
                let sum = Arc::clone(&sum);
                let got = Arc::clone(&got);
                s.spawn(move || loop {
                    if let Some(v) = q.pop() {
                        sum.fetch_add(v, Ordering::Relaxed);
                        got.fetch_add(1, Ordering::Relaxed);
                    } else if got.load(Ordering::Relaxed) == PRODUCERS * PER_PRODUCER {
                        break;
                    } else {
                        std::hint::spin_loop();
                    }
                });
            }
        });
        let n = PRODUCERS * PER_PRODUCER;
        assert_eq!(got.load(Ordering::Relaxed), n);
        assert_eq!(sum.load(Ordering::Relaxed), n * (n - 1) / 2);
    }

    /// `pop_batch` mixed with `pop` and `push`: four producers, two
    /// batching consumers and one that pops singly share one queue over
    /// thousands of laps. Every item is taken exactly once, every consumer
    /// sees each producer's items in the order they were pushed, and what
    /// a last partial batch leaves queued is released by `Drop`.
    ///
    /// A broken queue tends to wedge its users inside `push` or `pop`
    /// rather than hand them a wrong item, so the threads are detached and
    /// the test thread watches them against a deadline.
    ///
    /// Mutation-checked (each fails this test): freeing a slot with stamp
    /// `p + 1` instead of `p + capacity` (nothing can be pushed on the
    /// second lap), and keeping the scanned `n` after a failed
    /// compare-exchange instead of scanning again from the new position
    /// (items taken out of order or twice, producers wedged on a slot
    /// that was freed before it was filled).
    #[test]
    fn batch_and_single_consumers_share_a_queue() {
        use std::sync::Barrier;
        use std::time::{Duration, Instant};

        const PRODUCERS: usize = 4;
        const LAPS: usize = 2_000;
        const LEFT_QUEUED: u64 = 5;

        /// Counts its own drop; `id` is `producer << 32 | index`.
        struct Item {
            id: u64,
            drops: Arc<AtomicU64>,
        }
        impl Drop for Item {
            fn drop(&mut self) {
                self.drops.fetch_add(1, Ordering::Relaxed);
            }
        }
        struct Shared {
            q: MpmcQueue<Item>,
            per_producer: usize,
            /// How often each item was taken, by `producer * per_producer
            /// + index`.
            taken: Vec<AtomicU64>,
            got: AtomicU64,
            start: Barrier,
        }
        /// One consumer: `maxes` is cycled through as the `max` of each
        /// `pop_batch` call; an empty list means `pop`.
        fn consume(sh: &Shared, maxes: &[usize]) {
            let mut last = [None::<u64>; PRODUCERS];
            let mut out: Vec<Item> = Vec::new();
            sh.start.wait();
            for turn in 0.. {
                if sh.got.load(Ordering::Relaxed) == sh.taken.len() as u64 {
                    return;
                }
                out.clear();
                if maxes.is_empty() {
                    out.extend(sh.q.pop());
                } else {
                    let max = maxes[turn % maxes.len()];
                    let n = sh.q.pop_batch(&mut out, max);
                    assert_eq!(n, out.len());
                    assert!(n <= max.min(sh.q.capacity()), "{n} items, max {max}");
                }
                for item in &out {
                    let (p, i) = ((item.id >> 32) as usize, item.id & 0xffff_ffff);
                    assert!(last[p] < Some(i), "producer {p}: {i} after {:?}", last[p]);
                    last[p] = Some(i);
                    sh.taken[p * sh.per_producer + i as usize].fetch_add(1, Ordering::Relaxed);
                }
                sh.got.fetch_add(out.len() as u64, Ordering::Relaxed);
                if out.is_empty() {
                    std::thread::yield_now();
                }
            }
        }

        for capacity in [8usize, 64, 256] {
            let per_producer = capacity * LAPS / PRODUCERS;
            let total = (PRODUCERS * per_producer) as u64;
            let drops = Arc::new(AtomicU64::new(0));
            let sh = Arc::new(Shared {
                q: MpmcQueue::with_capacity(capacity),
                per_producer,
                taken: (0..total).map(|_| AtomicU64::new(0)).collect(),
                got: AtomicU64::new(0),
                start: Barrier::new(PRODUCERS + 3),
            });
            assert_eq!(sh.q.capacity(), capacity);
            let mut threads = Vec::new();
            for p in 0..PRODUCERS as u64 {
                let (sh, drops) = (Arc::clone(&sh), Arc::clone(&drops));
                threads.push(std::thread::spawn(move || {
                    sh.start.wait();
                    for i in 0..sh.per_producer as u64 {
                        let mut item = Item {
                            id: p << 32 | i,
                            drops: Arc::clone(&drops),
                        };
                        while let Err(back) = sh.q.push(item) {
                            item = back;
                            std::thread::yield_now();
                        }
                    }
                }));
            }
            for maxes in [
                vec![0, 1, capacity, capacity + 3, 5],
                vec![usize::MAX],
                vec![],
            ] {
                let sh = Arc::clone(&sh);
                threads.push(std::thread::spawn(move || consume(&sh, &maxes)));
            }
            let deadline = Instant::now() + Duration::from_secs(30);
            while threads.iter().any(|t| !t.is_finished()) && Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(1));
            }
            // A thread that failed an assertion says more than the ones
            // it left stuck: report it first.
            let (done, stuck): (Vec<_>, Vec<_>) =
                threads.into_iter().partition(|t| t.is_finished());
            for t in done {
                if let Err(panic) = t.join() {
                    std::panic::resume_unwind(panic);
                }
            }
            assert!(
                stuck.is_empty(),
                "capacity {capacity}: {} threads stuck, {} of {total} items taken",
                stuck.len(),
                sh.got.load(Ordering::Relaxed)
            );
            assert!(
                sh.taken.iter().all(|t| t.load(Ordering::Relaxed) == 1),
                "capacity {capacity}: an item was taken twice or never"
            );
            assert_eq!(drops.load(Ordering::Relaxed), total);

            // A partial batch, then `Drop` for the rest.
            let q = Arc::into_inner(sh).expect("every thread joined").q;
            for id in 0..LEFT_QUEUED + 2 {
                let drops = Arc::clone(&drops);
                assert!(q.push(Item { id, drops }).is_ok());
            }
            let mut out = Vec::new();
            assert_eq!(q.pop_batch(&mut out, 2), 2);
            assert_eq!((out[0].id, out[1].id), (0, 1));
            assert_eq!(q.len() as u64, LEFT_QUEUED);
            drop(q);
            drop(out);
            assert_eq!(
                drops.load(Ordering::Relaxed),
                total + LEFT_QUEUED + 2,
                "capacity {capacity}: every item dropped exactly once"
            );
        }
    }

    #[test]
    fn drop_releases_queued_values() {
        let counter = Arc::new(AtomicU64::new(0));
        struct Probe(Arc<AtomicU64>);
        impl Drop for Probe {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::Relaxed);
            }
        }
        {
            let q = MpmcQueue::with_capacity(8);
            for _ in 0..5 {
                q.push(Probe(Arc::clone(&counter))).map_err(|_| ()).unwrap();
            }
            let _ = q.pop();
        }
        assert_eq!(
            counter.load(Ordering::Relaxed),
            5,
            "all probes dropped exactly once"
        );
    }
}
