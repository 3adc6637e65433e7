//! Service-level fault injection: the fleet must survive panicking
//! detectors, corrupted candidate models, stalled shards, and queue
//! saturation without losing records silently. The full harness lives in
//! `xentry_fleet::chaos`; this file runs it end-to-end and additionally
//! pins each failure mode in isolation so a regression points at one
//! mechanism instead of "the chaos run went red".

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use xentry_fleet::{
    replay, ChaosConfig, CollectSink, FleetConfig, FleetService, VerdictSink, VerdictSource,
};
use xentry_integration_tests::GateSink;

/// Block until `pred` holds or fail with `what` after 10 s.
fn wait_for(what: &str, mut pred: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !pred() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(2));
    }
}

fn drained(svc: &FleetService) -> bool {
    let snap = svc.snapshot();
    snap.classified + snap.lost == snap.ingested
}

#[test]
fn chaos_harness_runs_clean() {
    let report = xentry_fleet::run_chaos(&ChaosConfig {
        hosts: 4,
        records_per_host: 8_000,
        shards: 4,
        seed: 42,
        rate_per_host: 8_000.0,
        probes_per_shard: 128,
        deadline_ms: 20_000,
    });
    report.assert_clean();

    // Clean is necessary but not sufficient: the injections must have
    // actually exercised every fault path, or the invariants held
    // vacuously.
    let s = &report.snapshot;
    assert!(s.restarts >= 2, "panic + storm restarts: {}", s.restarts);
    assert!(s.stalls >= 1, "watchdog never fired");
    assert!(s.lost > 0, "panics must abandon (and count) records");
    assert_eq!(report.rejected_swaps, 2, "both corrupt candidates rejected");
    assert_eq!(report.valid_swaps, 1);
    assert_eq!(s.swap_rejections, report.rejected_swaps);
    assert!(s.rollbacks >= 1, "panic storm never rolled back");
    assert!(report.rollback_restored_fingerprint);
    assert!(s.degraded_entries >= 1, "storm never degraded the service");
    assert!(
        report.degraded_seen > 0,
        "no envelope verdicts reached the sink"
    );
    assert!(
        report.burst_rejected > 0,
        "saturation burst never overflowed"
    );
    assert!(report.parity_checked > 0);
    assert_eq!(report.parity_mismatches, 0);
}

/// Isolated scenario: N injected detector panics. Every abandoned record
/// is counted as lost, the worker restarts N times, and the sink sees
/// exactly the classified records.
#[test]
fn injected_panics_lose_nothing_silently() {
    struct CountingSink(AtomicU64);
    impl VerdictSink for CountingSink {
        fn on_verdict(&self, _v: &xentry_fleet::FleetVerdict) {
            self.0.fetch_add(1, Ordering::Relaxed);
        }
    }

    let sink = Arc::new(CountingSink(AtomicU64::new(0)));
    let cfg = FleetConfig {
        shards: 1,
        queue_capacity: 1 << 13,
        batch: 32,
        recorder_depth: 8,
        restart_backoff_ms: 1,
        restart_backoff_cap_ms: 8,
        stall_timeout_ms: 0, // isolate: no watchdog
        rollback_after: 0,   // isolate: no rollback escalation
        degrade_after: 100,  // isolate: no degraded escalation
        ..FleetConfig::default()
    };
    let svc = FleetService::start(cfg, replay::synthetic_detector(1), Arc::clone(&sink) as _);
    svc.failpoints().inject_panics(0, 3);

    let trace = replay::synthetic_trace(1024, 3);
    let mut accepted = 0u64;
    for (i, f) in trace.iter().cycle().take(4000).enumerate() {
        if svc.ingest(0, 0, i as u64, *f) {
            accepted += 1;
        }
    }
    wait_for("panic recovery + drain", || {
        svc.snapshot().restarts >= 3 && drained(&svc)
    });
    svc.failpoints().disarm();
    let snap = svc.shutdown();

    assert_eq!(snap.ingested, accepted);
    assert_eq!(snap.restarts, 3, "one restart per injected panic");
    assert!(
        snap.lost >= 3,
        "each panicking batch had >= 1 in-flight record"
    );
    assert!(
        snap.lost <= 3 * 32,
        "lost more than three batches: {}",
        snap.lost
    );
    assert_eq!(snap.classified + snap.lost, snap.ingested);
    assert_eq!(sink.0.load(Ordering::Relaxed), snap.classified);
    assert_eq!(snap.rollbacks, 0);
    assert!(!snap.degraded);
}

/// Isolated scenario: the sink panics on record `K` of one full 64-record
/// batch. The `K` records before it are classified, the other `64 - K`
/// are lost — exactly, because `classified` and the in-flight count move
/// per record even though the rest of the worker's bookkeeping is per
/// batch. And that per-batch bookkeeping is not lost with the worker: both
/// latency histograms were written before the first sink call, so they
/// hold every record of the batch (`metrics.rs`: `count == classified +
/// lost` when every loss is a sink's).
///
/// Mutation-checked: folding the worker's queue-wait tally into the
/// shared histogram after the sink loop instead of before it leaves
/// `queue_latency.count` at 1 (the bait) and fails this test.
#[test]
fn sink_panic_mid_batch_loses_exactly_the_rest_and_no_bookkeeping() {
    const BATCH: u64 = 64;
    const K: u64 = 23;
    let sink = GateSink::new(0, Some(1 + K));
    let cfg = FleetConfig {
        shards: 1,
        queue_capacity: 1024,
        batch: BATCH as usize,
        recorder_depth: 8,
        restart_backoff_ms: 1,
        restart_backoff_cap_ms: 4,
        stall_timeout_ms: 0, // isolate: no watchdog
        rollback_after: 0,   // isolate: no rollback escalation
        degrade_after: 0,    // isolate: no degraded escalation
        ..FleetConfig::default()
    };
    let svc = FleetService::start(cfg, replay::synthetic_detector(1), Arc::clone(&sink) as _);
    let trace = replay::synthetic_trace(BATCH as usize, 11);
    sink.form_batch(&svc, 0, trace[0], &trace);
    wait_for("panic recovery + drain", || {
        svc.snapshot().restarts >= 1 && drained(&svc)
    });
    let snap = svc.shutdown();

    assert_eq!(snap.ingested, 1 + BATCH);
    assert_eq!(snap.restarts, 1);
    assert_eq!(
        snap.classified,
        1 + K,
        "the bait and the K records before the panic"
    );
    assert_eq!(snap.lost, BATCH - K);
    assert_eq!(snap.ingested, snap.classified + snap.lost);
    assert_eq!(snap.shards[0].batches, 1, "only the bait's batch completed");
    assert_eq!(
        sink.collected.verdicts.lock().unwrap().len() as u64,
        snap.classified
    );
    assert_eq!(snap.queue_latency.count, snap.classified + snap.lost);
    assert_eq!(snap.classify_latency.count, snap.classified + snap.lost);
}

/// Isolated scenario: a stalled worker is superseded by the watchdog
/// without losing its in-flight batch — the replacement drains the queue
/// while the stalled worker finishes what it holds and exits.
#[test]
fn stalled_shard_is_superseded_without_loss() {
    let cfg = FleetConfig {
        shards: 1,
        queue_capacity: 1 << 13,
        batch: 32,
        recorder_depth: 8,
        stall_timeout_ms: 40,
        rollback_after: 0,
        degrade_after: 0,
        ..FleetConfig::default()
    };
    let svc = FleetService::start(
        cfg,
        replay::synthetic_detector(1),
        Arc::new(CollectSink::default()),
    );
    svc.failpoints().inject_stall(0, Duration::from_millis(300));

    let trace = replay::synthetic_trace(512, 5);
    let mut accepted = 0u64;
    for (i, f) in trace.iter().cycle().take(2000).enumerate() {
        if svc.ingest(0, 0, i as u64, *f) {
            accepted += 1;
        }
    }
    wait_for("stall detection", || svc.snapshot().stalls >= 1);
    // The replacement worker must keep verdicts flowing while the
    // stalled one is still asleep.
    for (i, f) in trace.iter().cycle().take(2000).enumerate() {
        if svc.ingest(0, 0, (2000 + i) as u64, *f) {
            accepted += 1;
        }
    }
    wait_for("post-stall drain", || drained(&svc));
    svc.failpoints().disarm();
    let snap = svc.shutdown();

    assert_eq!(snap.ingested, accepted);
    assert!(snap.stalls >= 1);
    assert!(snap.restarts >= 1, "stall must count as a restart");
    assert_eq!(snap.lost, 0, "supersession must not abandon records");
    assert_eq!(snap.classified, snap.ingested);
}

/// Isolated scenario: a panic storm flips the service into degraded mode;
/// verdicts keep flowing tagged `DegradedEnvelope` instead of records
/// burning in restart loops, and `exit_degraded` restores the model path.
#[test]
fn panic_storm_degrades_then_recovers_to_model_verdicts() {
    let sink = Arc::new(CollectSink::default());
    let cfg = FleetConfig {
        shards: 1,
        queue_capacity: 1 << 13,
        batch: 16,
        recorder_depth: 8,
        restart_backoff_ms: 1,
        restart_backoff_cap_ms: 4,
        stall_timeout_ms: 0,
        rollback_after: 0, // version 1 has no previous epoch anyway
        degrade_after: 2,
        ..FleetConfig::default()
    };
    let svc = FleetService::start(cfg, replay::synthetic_detector(1), Arc::clone(&sink) as _);
    svc.failpoints().inject_panics(0, 1000);

    let trace = replay::synthetic_trace(512, 7);
    let mut seq = 0u64;
    let mut send = |svc: &FleetService, n: usize| {
        for f in trace.iter().cycle().take(n) {
            if svc.ingest(0, 0, seq, *f) {
                seq += 1;
            }
        }
    };

    // Feed the storm until the consecutive-panic ladder trips.
    wait_for("degraded entry", || {
        send(&svc, 64);
        svc.degraded()
    });
    // Degraded workers bypass the (model-path) failpoint, so these flow.
    send(&svc, 500);
    wait_for("envelope verdicts", || svc.snapshot().degraded_verdicts > 0);

    svc.failpoints().disarm();
    svc.exit_degraded();
    assert!(!svc.degraded());
    send(&svc, 500);
    wait_for("post-recovery drain", || drained(&svc));
    let snap = svc.shutdown();

    assert_eq!(snap.degraded_entries, 1);
    assert!(snap.degraded_verdicts > 0);
    assert_eq!(snap.classified + snap.lost, snap.ingested);

    let verdicts = sink.verdicts.lock().unwrap();
    assert_eq!(verdicts.len() as u64, snap.classified);
    let degraded_count = verdicts
        .iter()
        .filter(|v| v.source == VerdictSource::DegradedEnvelope)
        .count() as u64;
    assert_eq!(degraded_count, snap.degraded_verdicts);
    // The model path resumed: the tail of the stream (sent after
    // exit_degraded) is Model-sourced again.
    let last = verdicts.last().expect("verdicts collected");
    assert_eq!(last.source, VerdictSource::Model);
}
