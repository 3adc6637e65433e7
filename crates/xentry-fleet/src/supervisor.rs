//! Shard supervision: panic isolation, capped-backoff restart, stall
//! watchdog, and the escalation ladder into rollback and degraded mode.
//!
//! Xentry's premise is that the detection layer must survive the faults
//! it detects; ReHype (PAPERS.md) makes the matching recovery argument —
//! detection is only useful when the failed component can be
//! *microrebooted*. This module is that idea applied to the fleet's own
//! serving layer. Each shard worker runs inside `catch_unwind` under a
//! supervisor loop on its own thread:
//!
//! ```text
//!   worker panic ──► account lost in-flight records
//!                ──► restart with capped exponential backoff
//!                ──► consecutive panics ≥ rollback_after?
//!                        └─► auto-rollback the model (once per epoch:
//!                            a bad deploy is the likeliest new poison)
//!                ──► consecutive panics ≥ degrade_after?
//!                        └─► enter degraded mode (envelope verdicts,
//!                            tagged, instead of silent record loss)
//!
//!   heartbeat stale ──► watchdog bumps the shard generation (the stuck
//!                       worker is *superseded*: whenever it wakes it
//!                       sees the moved generation and exits) and spawns
//!                       a replacement on the same MPMC queue
//! ```
//!
//! Supervision is accounting-exact: a panicking worker abandons the
//! records it had claimed from its queue mid-batch, and the supervisor
//! adds exactly that in-flight count to the `lost` counters, preserving
//! `ingested == classified + lost` across any number of crashes. A
//! superseded (stalled-then-woken) worker instead *finishes* its
//! in-flight batch before exiting — its records were invisible to the
//! replacement, so nothing is lost and nothing classifies twice.

use crate::service::Shared;
use crate::trace::SpanKind;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Why a worker body returned (instead of panicking).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum WorkerExit {
    /// Stop flag observed with an empty queue: clean shutdown.
    Stopped,
    /// The shard generation moved: a replacement owns the queue now.
    Superseded,
}

/// Per-shard supervision state.
pub(crate) struct ShardSupervision {
    /// Generation counter; the watchdog bumps it to supersede a stalled
    /// worker. Workers capture it at start and re-check every loop.
    pub(crate) gen: AtomicU64,
    /// Last liveness beat, in service `now_ns` time. Workers store it
    /// every loop iteration (busy or idle).
    pub(crate) heartbeat_ns: AtomicU64,
    /// Panics since the last successfully completed batch.
    pub(crate) consecutive_panics: AtomicU32,
}

/// Service-wide supervision state.
pub(crate) struct Supervision {
    pub(crate) shards: Vec<ShardSupervision>,
    /// Degraded (envelope-fallback) mode flag, read by every worker once
    /// per batch.
    pub(crate) degraded: AtomicBool,
    /// Highest model epoch for which a supervisor-initiated rollback has
    /// run — at most one automatic rollback per deployed epoch, so a
    /// panic storm cannot ping-pong the slot.
    pub(crate) rolled_back_epoch: AtomicU64,
}

impl Supervision {
    pub(crate) fn new(nr_shards: usize) -> Supervision {
        Supervision {
            shards: (0..nr_shards)
                .map(|_| ShardSupervision {
                    gen: AtomicU64::new(0),
                    heartbeat_ns: AtomicU64::new(0),
                    consecutive_panics: AtomicU32::new(0),
                })
                .collect(),
            degraded: AtomicBool::new(false),
            rolled_back_epoch: AtomicU64::new(1),
        }
    }
}

/// Supervisor loop for one shard: run the worker, survive its panics.
/// This is the thread body `FleetService::start` (and the watchdog, for
/// replacements) spawns.
pub(crate) fn run_supervised(shared: Arc<Shared>, shard: usize) {
    // In-flight claim count, owned by THIS worker instance (a stalled
    // predecessor or replacement has its own), so panic accounting never
    // mixes two workers' batches.
    let inflight = AtomicU64::new(0);
    loop {
        let my_gen = shared.supervision.shards[shard].gen.load(Ordering::Acquire);
        let exit = catch_unwind(AssertUnwindSafe(|| {
            crate::shard::run_worker(&shared, shard, my_gen, &inflight)
        }));
        match exit {
            Ok(WorkerExit::Stopped) | Ok(WorkerExit::Superseded) => return,
            Err(_) => {
                let consecutive = on_worker_panic(&shared, shard, &inflight);
                backoff(&shared, shard, consecutive);
            }
        }
    }
}

/// Account a worker panic and walk the escalation ladder. Returns the
/// consecutive-panic count for backoff sizing.
fn on_worker_panic(shared: &Arc<Shared>, shard: usize, inflight: &AtomicU64) -> u32 {
    let m = &shared.metrics;
    // The records this worker claimed but never finished are gone with
    // its stack; account them so nothing vanishes silently.
    let lost = inflight.swap(0, Ordering::Relaxed);
    if lost > 0 {
        m.shards[shard].lost.fetch_add(lost, Ordering::Relaxed);
    }
    m.restarts.fetch_add(1, Ordering::Relaxed);
    m.shards[shard].restarts.fetch_add(1, Ordering::Relaxed);
    shared
        .tracer
        .record_control(SpanKind::Restart, shared.now_ns(), shard as u64);
    let sup = &shared.supervision;
    let consecutive = sup.shards[shard]
        .consecutive_panics
        .fetch_add(1, Ordering::Relaxed)
        + 1;

    // Escalation 1: repeated panics right after a model deploy point at
    // the deploy. Roll back to the previous epoch — once per epoch.
    let cfg = &shared.cfg;
    if cfg.rollback_after > 0 && consecutive >= cfg.rollback_after {
        let epoch = shared.model.epoch();
        // fetch_max both claims the epoch (only one shard's supervisor
        // wins) and records the rollback's own new epoch afterwards.
        if sup.rolled_back_epoch.fetch_max(epoch, Ordering::AcqRel) < epoch {
            if let Some(v) = shared.model.rollback() {
                sup.rolled_back_epoch.fetch_max(v, Ordering::AcqRel);
                m.rollbacks.fetch_add(1, Ordering::Relaxed);
                shared.refresh_golden_from_current();
                shared
                    .tracer
                    .record_control(SpanKind::Rollback, shared.now_ns(), v);
            }
        }
    }

    // Escalation 2: still panicking — stop feeding work through the
    // model path at all. Degraded mode classifies with the workers'
    // self-trained runtime envelopes and tags every verdict, instead of
    // burning records batch by batch.
    if cfg.degrade_after > 0
        && consecutive >= cfg.degrade_after
        && !sup.degraded.swap(true, Ordering::AcqRel)
    {
        m.degraded_entries.fetch_add(1, Ordering::Relaxed);
        shared
            .tracer
            .record_control(SpanKind::Degrade, shared.now_ns(), consecutive as u64);
    }
    consecutive
}

/// First restart delay after a worker panic.
const RESTART_BACKOFF_MS: u64 = 1;

/// Capped exponential backoff between restarts, sliced so the heartbeat
/// stays fresh (a restarting shard is not a stalled shard) and so the
/// stop flag still drains promptly.
fn backoff(shared: &Arc<Shared>, shard: usize, consecutive: u32) {
    let cfg = &shared.cfg;
    let base = RESTART_BACKOFF_MS;
    let exp = consecutive.saturating_sub(1).min(16);
    let mut remaining_ms = (base << exp).min(cfg.restart_backoff_cap_ms.max(base));
    let hb = &shared.supervision.shards[shard].heartbeat_ns;
    while remaining_ms > 0 {
        if shared.stop.load(Ordering::Acquire) {
            return; // shutdown wants the queue drained, not slept on
        }
        let slice = remaining_ms.min(10);
        std::thread::sleep(Duration::from_millis(slice));
        hb.store(shared.now_ns(), Ordering::Relaxed);
        remaining_ms -= slice;
    }
}

/// Heartbeat watchdog: detects shards whose worker stopped beating —
/// stuck in a hung sink, an injected stall, a pathological loop — and
/// replaces them. The stuck thread cannot be killed; it is *superseded*:
/// its shard generation moves, a fresh worker takes over the (MPMC)
/// queue, and whenever the old thread wakes it finishes its in-flight
/// batch, notices the moved generation, and exits.
pub(crate) fn run_watchdog(shared: Arc<Shared>) {
    let timeout_ms = shared.cfg.stall_timeout_ms;
    if timeout_ms == 0 {
        return; // watchdog disabled
    }
    let timeout_ns = timeout_ms.saturating_mul(1_000_000);
    let mut replacements: Vec<JoinHandle<()>> = Vec::new();
    // Workers may not have beaten yet; seed every heartbeat with "now".
    let now = shared.now_ns();
    for s in &shared.supervision.shards {
        s.heartbeat_ns.store(now, Ordering::Relaxed);
    }
    while !shared.stop.load(Ordering::Acquire) {
        std::thread::sleep(Duration::from_millis(timeout_ms.clamp(5, 40)));
        let now = shared.now_ns();
        for shard in 0..shared.cfg.shards {
            let sup = &shared.supervision.shards[shard];
            let hb = sup.heartbeat_ns.load(Ordering::Relaxed);
            if now.saturating_sub(hb) <= timeout_ns {
                continue;
            }
            // Stalled: supersede and replace.
            sup.gen.fetch_add(1, Ordering::AcqRel);
            sup.heartbeat_ns.store(now, Ordering::Relaxed);
            shared.metrics.stalls.fetch_add(1, Ordering::Relaxed);
            shared.metrics.restarts.fetch_add(1, Ordering::Relaxed);
            shared.metrics.shards[shard]
                .restarts
                .fetch_add(1, Ordering::Relaxed);
            shared
                .tracer
                .record_control(SpanKind::Stall, now, shard as u64);
            let shared2 = Arc::clone(&shared);
            let handle = std::thread::Builder::new()
                .name(format!("fleet-shard-{shard}-r"))
                .spawn(move || run_supervised(shared2, shard))
                .expect("spawn replacement worker");
            replacements.push(handle);
        }
    }
    for h in replacements {
        let _ = h.join();
    }
}
