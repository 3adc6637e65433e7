//! Service-level failpoints: the fault classes the fleet claims to
//! survive, injected into a *live* service.
//!
//! This is `faultsim::injection` lifted one level up: where faultsim
//! flips architectural bits under a single hypervisor activation and
//! checks detection, [`Failpoints`] make shard workers panic (a detector
//! or sink fault on the model path) or stall (a wedged worker, as the
//! watchdog sees it) under a running [`FleetService`], so a test can check
//! the self-protection machinery: no silent loss, recovery after disarm,
//! rollback and degraded mode. `tests/fleet_chaos.rs` drives them, with
//! bit-flipped candidate arenas and saturated ingest queues, through the
//! whole scenario.
//!
//! Failpoints are inert atomics compiled into the worker loop, checked at
//! most twice per *batch* (one relaxed bool load on the armed flag), so
//! the production hot path pays nothing measurable.
//!
//! [`FleetService`]: crate::FleetService

use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::time::Duration;

/// Chaos failpoints wired into every shard worker. Inert until armed;
/// arming is test/harness-only (the service never arms them itself).
pub struct Failpoints {
    armed: AtomicBool,
    /// Batches each shard's worker will panic on (decremented per panic).
    panic_batches: Vec<AtomicU32>,
    /// One-shot stall duration per shard, consumed by the next batch.
    stall_ns: Vec<AtomicU64>,
}

impl Failpoints {
    pub(crate) fn new(nr_shards: usize) -> Failpoints {
        Failpoints {
            armed: AtomicBool::new(false),
            panic_batches: (0..nr_shards).map(|_| AtomicU32::new(0)).collect(),
            stall_ns: (0..nr_shards).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Make `shard`'s worker panic at the start of its next `batches`
    /// non-empty batches (models a detector/sink fault on the model path).
    pub fn inject_panics(&self, shard: usize, batches: u32) {
        self.panic_batches[shard].store(batches, Ordering::Relaxed);
        self.armed.store(true, Ordering::Release);
    }

    /// Make `shard`'s worker sleep through `stall` (without heartbeating)
    /// before its next batch — a wedged worker, as the watchdog sees it.
    pub fn inject_stall(&self, shard: usize, stall: Duration) {
        self.stall_ns[shard].store(stall.as_nanos() as u64, Ordering::Relaxed);
        self.armed.store(true, Ordering::Release);
    }

    /// Clear every armed failpoint.
    pub fn disarm(&self) {
        self.armed.store(false, Ordering::Release);
        for p in &self.panic_batches {
            p.store(0, Ordering::Relaxed);
        }
        for s in &self.stall_ns {
            s.store(0, Ordering::Relaxed);
        }
    }

    /// Worker hook: panic if a panic budget is armed for `shard`.
    pub(crate) fn maybe_panic(&self, shard: usize) {
        if !self.armed.load(Ordering::Acquire) {
            return;
        }
        let fired = self.panic_batches[shard]
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| v.checked_sub(1))
            .is_ok();
        if fired {
            panic!("chaos: injected detector panic on shard {shard}");
        }
    }

    /// Worker hook: take the one-shot stall for `shard`, if armed.
    pub(crate) fn take_stall(&self, shard: usize) -> Option<Duration> {
        if !self.armed.load(Ordering::Acquire) {
            return None;
        }
        match self.stall_ns[shard].swap(0, Ordering::Relaxed) {
            0 => None,
            ns => Some(Duration::from_nanos(ns)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failpoints_are_inert_until_armed() {
        let fp = Failpoints::new(2);
        fp.maybe_panic(0); // must not panic
        assert_eq!(fp.take_stall(1), None);
    }

    #[test]
    fn panic_failpoint_fires_exactly_n_times() {
        let fp = Failpoints::new(1);
        fp.inject_panics(0, 2);
        for _ in 0..2 {
            let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| fp.maybe_panic(0)));
            assert!(r.is_err(), "armed failpoint must panic");
        }
        fp.maybe_panic(0); // budget exhausted: no panic
    }

    #[test]
    fn stall_failpoint_is_one_shot_and_disarmable() {
        let fp = Failpoints::new(2);
        fp.inject_stall(1, Duration::from_millis(7));
        assert_eq!(fp.take_stall(0), None, "only the targeted shard stalls");
        assert_eq!(fp.take_stall(1), Some(Duration::from_millis(7)));
        assert_eq!(fp.take_stall(1), None, "one-shot");
        fp.inject_stall(0, Duration::from_millis(3));
        fp.disarm();
        assert_eq!(fp.take_stall(0), None, "disarm clears pending stalls");
    }
}
