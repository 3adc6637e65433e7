//! Always-on flight tracing: lock-free ring buffers of span events.
//!
//! Xentry's core claims are observability claims — detection latency per
//! VM exit, classifier overhead on the hot path, where in the pipeline an
//! error was caught — and ReHype (PAPERS.md) shows that recovering a
//! virtualized system depends on reconstructing precisely what the failed
//! component was doing at detection time. This module makes that
//! reconstruction possible on a *live* fleet: every shard owns a
//! fixed-depth ring of [`TraceEvent`]s ([`TraceRing`]), every control-plane
//! action (hot swap, rejected swap) lands in a control ring,
//! and every telemetry record carries a [`Tracer`]-assigned trace id from
//! ingest through classification into its verdict and — for `Incorrect`
//! verdicts — its incident dump, which carries the trigger's own spans
//! ([`TraceRing::before`]).
//!
//! Cost model: tracing must be *always on*, so a recorded event is one
//! relaxed `fetch_add` to claim a slot plus four relaxed stores — no
//! locks, no allocation, no ordering constraint on the classify hot path.
//! The shard worker, which records two spans for every record it drains,
//! pays the `fetch_add` once per batch instead: it claims the batch's
//! slots together ([`TraceRing::claim`]) and fills all of them before its
//! first sink call, so no reader — an incident dump above all — ever
//! meets a claimed slot that still holds an earlier lap's event.
//! Rings overflow by overwriting the oldest slot; the exact number of
//! overwritten (dropped) events is always reportable as
//! `total() - capacity()`. Snapshots are racy-consistent, which is the
//! correct tradeoff for monitoring; on a quiescent ring (after shutdown,
//! single-threaded tests) they are exact.

use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};

/// What a span event describes. Record-scoped kinds (`Ingest`,
/// `QueueWait`, `Verdict`, `Drop`) carry the record's trace id;
/// batch- and control-scoped kinds carry id 0.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SpanKind {
    /// A record entered its shard queue (`arg` = host).
    Ingest,
    /// A record was rejected because its shard queue was full
    /// (`arg` = host).
    Drop,
    /// Time a record spent queued: `ts` is enqueue, `dur` the wait.
    QueueWait,
    /// One batch classification call (`arg` = batch length, `dur` the
    /// classify span reported by the detector hook).
    BatchClassify,
    /// A verdict was emitted (`arg` = 1 when incorrect).
    Verdict,
    /// A model hot swap published a new version (`arg` = version).
    HotSwap,
    /// A validated swap rejected its candidate (`arg` = the version
    /// that kept serving).
    SwapRejected,
}

impl SpanKind {
    fn from_u8(b: u8) -> SpanKind {
        match b {
            0 => SpanKind::Ingest,
            1 => SpanKind::Drop,
            2 => SpanKind::QueueWait,
            3 => SpanKind::BatchClassify,
            4 => SpanKind::Verdict,
            5 => SpanKind::HotSwap,
            _ => SpanKind::SwapRejected,
        }
    }
}

/// One decoded span event. `ts_ns`/`dur_ns` are service-relative
/// monotonic nanoseconds (the service's `now_ns` clock); `lane` is the
/// shard index the event was recorded on, or the control lane.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceEvent {
    pub ts_ns: u64,
    pub dur_ns: u64,
    /// Per-record trace id (0 for batch- and control-scoped events).
    pub trace_id: u64,
    pub kind: SpanKind,
    /// Kind-specific argument; see [`SpanKind`].
    pub arg: u64,
    /// Ring the event was recorded on: worker lane (shard index), ingest
    /// lane (`shards + shard`), or the control lane (`2 * shards`).
    pub lane: u32,
}

/// `arg` has 56 usable bits; the low byte of the packed meta word holds
/// the kind.
const ARG_BITS: u64 = 56;

/// One ring slot: four relaxed-atomic words, so writers never lock and a
/// concurrent reader sees at worst a torn (monitoring-grade) event.
struct EventSlot {
    ts: AtomicU64,
    dur: AtomicU64,
    id: AtomicU64,
    /// `kind as u8 | arg << 8`.
    meta: AtomicU64,
}

/// A counter alone on its cache line: ring heads and id allocators are
/// the only contended words in the tracer, and letting two lanes' heads
/// share a line would couple writers that the lane split exists to
/// decouple.
#[repr(align(64))]
struct PaddedCounter(AtomicU64);

/// Fixed-depth lock-free event ring with oldest-drop overflow.
///
/// Multi-writer: a slot is claimed with one `fetch_add` on `head`, so
/// producers and the shard worker can share a ring. `total()` counts
/// every push ever made; `dropped()` is exactly the number of events
/// overwritten since start.
pub struct TraceRing {
    slots: Box<[EventSlot]>,
    mask: u64,
    head: PaddedCounter,
}

impl TraceRing {
    /// Allocate a ring with `depth` slots (rounded up to a power of two,
    /// minimum 2). Panics if that power of two overflows `usize`.
    pub fn new(depth: usize) -> TraceRing {
        // The documented panic: no allocation of that many slots could
        // succeed anyway.
        let cap = depth
            .max(2)
            .checked_next_power_of_two()
            .expect("TraceRing::new: depth rounds past usize::MAX");
        TraceRing {
            slots: (0..cap)
                .map(|_| EventSlot {
                    ts: AtomicU64::new(0),
                    dur: AtomicU64::new(0),
                    id: AtomicU64::new(0),
                    meta: AtomicU64::new(0),
                })
                .collect(),
            mask: cap as u64 - 1,
            head: PaddedCounter(AtomicU64::new(0)),
        }
    }

    /// Slot count.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Record one event; overwrites the oldest slot when full.
    pub fn push(&self, kind: SpanKind, ts_ns: u64, dur_ns: u64, trace_id: u64, arg: u64) {
        self.write(self.claim(1), kind, ts_ns, dur_ns, trace_id, arg);
    }

    /// Claim `n` consecutive slots with one `fetch_add` and return the
    /// index of the first; the caller fills each with [`TraceRing::write`].
    /// Until it has, a claimed slot reads as whatever an earlier lap left
    /// there — fill the whole claim before doing anything that can
    /// unwind, block, or take a [`TraceRing::before`] of it.
    pub fn claim(&self, n: u64) -> u64 {
        self.head.0.fetch_add(n, Ordering::Relaxed)
    }

    /// Fill slot `index` of a claim.
    pub fn write(
        &self,
        index: u64,
        kind: SpanKind,
        ts_ns: u64,
        dur_ns: u64,
        trace_id: u64,
        arg: u64,
    ) {
        let slot = &self.slots[(index & self.mask) as usize];
        slot.ts.store(ts_ns, Ordering::Relaxed);
        slot.dur.store(dur_ns, Ordering::Relaxed);
        slot.id.store(trace_id, Ordering::Relaxed);
        slot.meta
            .store(kind as u8 as u64 | (arg << 8), Ordering::Relaxed);
    }

    /// Events pushed since construction (including overwritten ones).
    pub fn total(&self) -> u64 {
        self.head.0.load(Ordering::Relaxed)
    }

    /// Exactly how many events have been overwritten by ring overflow.
    pub fn dropped(&self) -> u64 {
        self.total().saturating_sub(self.capacity() as u64)
    }

    /// Retained events, oldest first, tagged with `lane`. Racy-consistent
    /// while writers are live; exact on a quiescent ring.
    pub fn snapshot(&self, lane: u32) -> Vec<TraceEvent> {
        self.before(lane, self.total(), self.capacity())
    }

    /// The up-to-`n` retained events that precede index `end`, oldest
    /// first: what the ring looked like to the writer whose claim ended
    /// at `end`, whatever has been claimed after it since.
    pub fn before(&self, lane: u32, end: u64, n: usize) -> Vec<TraceEvent> {
        let head = self.total();
        let end = end.min(head);
        // Anything a full lap behind the head has been overwritten.
        let start = end
            .saturating_sub(n as u64)
            .max(head.saturating_sub(self.capacity() as u64));
        (start..end)
            .map(|i| {
                let slot = &self.slots[(i & self.mask) as usize];
                let meta = slot.meta.load(Ordering::Relaxed);
                TraceEvent {
                    ts_ns: slot.ts.load(Ordering::Relaxed),
                    dur_ns: slot.dur.load(Ordering::Relaxed),
                    trace_id: slot.id.load(Ordering::Relaxed),
                    kind: SpanKind::from_u8((meta & 0xff) as u8),
                    arg: (meta >> 8) & ((1 << ARG_BITS) - 1),
                    lane,
                }
            })
            .collect()
    }
}

/// The fleet's flight tracer: a worker ring and an ingest ring per shard
/// plus a control ring, and the trace-id allocator. Lives in the
/// service's shared state behind an `Arc`, so its rings stay readable
/// after the service itself has shut down.
///
/// Lane layout: `0..shards` are the worker lanes (queue-wait, classify,
/// verdict spans), `shards..2*shards` the ingest lanes (ingest and drop
/// spans), and the last lane is the control plane. Splitting ingest from
/// worker lanes is a throughput decision, not an aesthetic one: producers
/// and the draining worker would otherwise bounce one ring-head cache
/// line between cores on every single record.
pub struct Tracer {
    rings: Vec<TraceRing>,
    shards: usize,
    depth: usize,
    /// Per-shard trace-id allocators; ids are striped (`n * shards +
    /// shard + 1`) so concurrent producers on different shards never
    /// touch the same counter yet ids stay globally unique and nonzero.
    next_trace_id: Vec<PaddedCounter>,
}

impl Tracer {
    /// `depth` slots per ring; 0 disables tracing entirely (no rings, no
    /// ids — the configuration the overhead baseline measures against).
    pub fn new(shards: usize, depth: usize) -> Tracer {
        Tracer {
            rings: if depth == 0 {
                Vec::new()
            } else {
                (0..2 * shards + 1).map(|_| TraceRing::new(depth)).collect()
            },
            shards,
            depth,
            next_trace_id: (0..shards.max(1))
                .map(|_| PaddedCounter(AtomicU64::new(0)))
                .collect(),
        }
    }

    /// False when constructed with depth 0 — every `record*` call is then
    /// a single branch.
    pub fn enabled(&self) -> bool {
        self.depth > 0
    }

    /// Ring count (`2 * shards` data lanes + 1 control lane), 0 when
    /// disabled.
    pub fn lanes(&self) -> usize {
        self.rings.len()
    }

    /// The ingest lane for a shard (`shards + shard`).
    pub fn ingest_lane(&self, shard: usize) -> usize {
        self.shards + shard
    }

    /// The control lane index (`2 * shards`).
    pub fn control_lane(&self) -> usize {
        self.rings.len().saturating_sub(1)
    }

    /// Allocate the next record trace id for a shard's producer (0 means
    /// "untraced" and is what records carry when tracing is disabled).
    /// Ids are unique and nonzero across all shards, monotone within one.
    pub fn next_id(&self, shard: usize) -> u64 {
        if !self.enabled() {
            return 0;
        }
        let n = self.next_trace_id[shard % self.next_trace_id.len()]
            .0
            .fetch_add(1, Ordering::Relaxed);
        n * self.shards.max(1) as u64 + (shard % self.shards.max(1)) as u64 + 1
    }

    /// Record an event on a shard lane.
    pub fn record(
        &self,
        lane: usize,
        kind: SpanKind,
        ts_ns: u64,
        dur_ns: u64,
        trace_id: u64,
        arg: u64,
    ) {
        if let Some(ring) = self.rings.get(lane) {
            ring.push(kind, ts_ns, dur_ns, trace_id, arg);
        }
    }

    /// Record a control-plane event (hot swap, rejected swap).
    pub fn record_control(&self, kind: SpanKind, ts_ns: u64, arg: u64) {
        if self.enabled() {
            self.rings[self.control_lane()].push(kind, ts_ns, 0, 0, arg);
        }
    }

    /// One shard's ring (panics on a bad lane; `None`-free because lanes
    /// are fixed at construction).
    pub fn ring(&self, lane: usize) -> &TraceRing {
        &self.rings[lane]
    }

    /// All retained events across every lane, ordered by timestamp.
    pub fn events(&self) -> Vec<TraceEvent> {
        let mut all: Vec<TraceEvent> = self
            .rings
            .iter()
            .enumerate()
            .flat_map(|(lane, r)| r.snapshot(lane as u32))
            .collect();
        all.sort_by_key(|e| e.ts_ns);
        all
    }

    /// Events recorded since start, across all lanes (including
    /// overwritten ones).
    pub fn total_events(&self) -> u64 {
        self.rings.iter().map(TraceRing::total).sum()
    }

    /// Events lost to ring overflow, across all lanes — exact.
    pub fn total_dropped(&self) -> u64 {
        self.rings.iter().map(TraceRing::dropped).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_keeps_newest_and_counts_drops_exactly() {
        let ring = TraceRing::new(8);
        assert_eq!(ring.capacity(), 8);
        for i in 0..20u64 {
            ring.push(SpanKind::Ingest, i, 0, i + 100, i);
        }
        assert_eq!(ring.total(), 20);
        assert_eq!(ring.dropped(), 12, "oldest 12 of 20 overwritten");
        let evs = ring.snapshot(3);
        assert_eq!(evs.len(), 8);
        assert_eq!(
            evs.iter().map(|e| e.ts_ns).collect::<Vec<_>>(),
            (12..20).collect::<Vec<_>>(),
            "oldest-first, newest retained"
        );
        assert!(evs.iter().all(|e| e.lane == 3));
        assert_eq!(evs[0].trace_id, 112);
    }

    #[test]
    #[should_panic(expected = "TraceRing::new: depth rounds past usize::MAX")]
    fn depth_past_the_largest_power_of_two_panics() {
        TraceRing::new(usize::MAX);
    }

    #[test]
    fn ring_under_capacity_drops_nothing() {
        let ring = TraceRing::new(16);
        for i in 0..5u64 {
            ring.push(SpanKind::Verdict, i, 1, i, 0b01);
        }
        assert_eq!(ring.dropped(), 0);
        let evs = ring.snapshot(0);
        assert_eq!(evs.len(), 5);
        assert_eq!(evs[4].kind, SpanKind::Verdict);
        assert_eq!(evs[4].arg, 1);
    }

    #[test]
    fn claimed_slots_fill_in_place_and_before_stops_at_its_end() {
        let ring = TraceRing::new(8);
        for i in 0..3u64 {
            ring.push(SpanKind::Ingest, 10 + i, 0, 0, 0);
        }
        // One claim for four events, filled out of order.
        let base = ring.claim(4);
        assert_eq!((base, ring.total()), (3, 7));
        for i in [3, 1, 0, 2] {
            ring.write(base + i, SpanKind::Verdict, 20 + i, 0, 0, 0);
        }
        let ts = |evs: Vec<TraceEvent>| evs.iter().map(|e| e.ts_ns).collect::<Vec<_>>();
        assert_eq!(ts(ring.snapshot(0)), vec![10, 11, 12, 20, 21, 22, 23]);
        // The view of the writer whose spans end at base + 2: nothing
        // claimed after it, however much has been.
        assert_eq!(ts(ring.before(0, base + 2, 3)), vec![12, 20, 21]);
        assert_eq!(ts(ring.before(0, base + 2, 99)), vec![10, 11, 12, 20, 21]);
        assert_eq!(
            ts(ring.before(0, 99, 2)),
            vec![22, 23],
            "end clamps to head"
        );
        // Lapped: indices 0..4 are overwritten and no longer reported.
        for i in 0..5u64 {
            ring.push(SpanKind::Ingest, 30 + i, 0, 0, 0);
        }
        assert_eq!(ts(ring.before(0, base + 2, 3)), vec![21]);
        assert!(ring.before(0, base, 3).is_empty());
    }

    #[test]
    fn kind_round_trips_through_meta_packing() {
        let kinds = [
            SpanKind::Ingest,
            SpanKind::Drop,
            SpanKind::QueueWait,
            SpanKind::BatchClassify,
            SpanKind::Verdict,
            SpanKind::HotSwap,
            SpanKind::SwapRejected,
        ];
        let ring = TraceRing::new(kinds.len());
        for (i, k) in kinds.iter().enumerate() {
            ring.push(*k, i as u64, 0, 0, 0xdead_beef);
        }
        let evs = ring.snapshot(0);
        for (e, k) in evs.iter().zip(kinds.iter()) {
            assert_eq!(e.kind, *k);
            assert_eq!(e.arg, 0xdead_beef);
        }
    }

    #[test]
    fn disabled_tracer_is_inert() {
        let t = Tracer::new(4, 0);
        assert!(!t.enabled());
        assert_eq!(t.lanes(), 0);
        assert_eq!(t.next_id(0), 0);
        assert_eq!(t.next_id(3), 0, "disabled ids stay 0");
        t.record(0, SpanKind::Ingest, 1, 0, 1, 0); // must not panic
        t.record_control(SpanKind::HotSwap, 1, 2);
        assert_eq!(t.total_events(), 0);
        assert!(t.events().is_empty());
    }

    #[test]
    fn tracer_ids_are_unique_and_events_merge_sorted() {
        let t = Tracer::new(2, 8);
        assert!(t.enabled());
        assert_eq!(t.lanes(), 5, "two worker + two ingest lanes + control");
        assert_eq!(t.ingest_lane(1), 3);
        assert_eq!(t.control_lane(), 4);
        // Striped ids: unique and nonzero across shards, monotone within.
        let mut ids: Vec<u64> = (0..10).map(|i| t.next_id(i % 2)).collect();
        assert!(ids.iter().all(|&id| id != 0));
        let a = ids[0];
        let b = ids[1];
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 10, "ids never collide across shards");
        t.record(1, SpanKind::Verdict, 50, 0, b, 0);
        t.record(t.ingest_lane(0), SpanKind::Ingest, 10, 0, a, 7);
        t.record_control(SpanKind::HotSwap, 30, 2);
        let evs = t.events();
        assert_eq!(evs.len(), 3);
        assert_eq!(
            evs.iter().map(|e| e.ts_ns).collect::<Vec<_>>(),
            vec![10, 30, 50],
            "merged events are time-ordered"
        );
        assert_eq!(evs[0].lane, 2, "ingest events land on the ingest lane");
        assert_eq!(evs[1].lane, 4, "control lane is last");
    }
}
