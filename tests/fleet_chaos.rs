//! Service-level fault injection: the fleet must survive panicking
//! detectors, corrupted candidate models, stalled shards, and queue
//! saturation without losing records silently. `chaos_harness_runs_clean`
//! injects every fault class into one live replay; the other tests pin
//! each failure mode in isolation so a regression points at one
//! mechanism instead of "the chaos run went red".

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use xentry::{FeatureVec, VmTransitionDetector};
use xentry_fleet::{
    replay, CollectSink, FleetConfig, FleetService, ReplayConfig, VerdictSink, VerdictSource,
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

/// A known-nominal feature vector (VMER-17 profile center) used for pump
/// and probe traffic, so its expected verdict is reference-computable.
fn pump_features() -> FeatureVec {
    FeatureVec {
        vmer: 17,
        rt: 70,
        br: 7,
        rm: 9,
        wm: 5,
    }
}

/// Ingest pump/probe traffic into one shard's queue (host ids are placed
/// above the replay range so their features are reconstructable).
struct Pump {
    host: u32,
    seq: u64,
    accepted: u64,
    rejected: u64,
}

impl Pump {
    fn new(hosts: usize, shards: usize, shard: usize) -> Pump {
        let (base, shards) = (hosts as u32, shards as u32);
        let host = (base..).find(|h| h % shards == shard as u32).unwrap();
        Pump {
            host,
            seq: 0,
            accepted: 0,
            rejected: 0,
        }
    }

    fn send(&mut self, svc: &FleetService, n: usize) {
        for _ in 0..n {
            if svc.ingest(self.host, 0, self.seq, pump_features()) {
                self.accepted += 1;
            } else {
                self.rejected += 1;
            }
            self.seq += 1;
        }
    }
}

/// Keep a trickle of records flowing into `pump`'s shard until `pred`
/// holds or the deadline passes. Returns whether `pred` held.
fn pump_until(
    svc: &FleetService,
    pump: &mut Pump,
    deadline: Duration,
    mut pred: impl FnMut() -> bool,
) -> bool {
    let t0 = Instant::now();
    while !pred() {
        if t0.elapsed() > deadline {
            return false;
        }
        pump.send(svc, 32);
        std::thread::sleep(Duration::from_millis(2));
    }
    true
}

/// The whole scenario against one live, throttled replay: a single
/// detector panic, corrupt and clean hot swaps, a stalled shard, a
/// saturation burst into a wedged shard and a panic storm, then disarm and
/// recovery. Afterwards every record is accounted for, the escalation
/// ladder ran, and every model-path verdict matches a reference
/// classification. The closing asserts check that each injection really
/// exercised its fault path, so the invariants did not hold vacuously.
#[test]
fn chaos_harness_runs_clean() {
    const HOSTS: usize = 4;
    const SHARDS: usize = 4;
    const SEED: u64 = 42;
    const PROBES_PER_SHARD: usize = 128;
    const DEADLINE_MS: u64 = 20_000;
    let deadline = Duration::from_millis(DEADLINE_MS);
    let reference = replay::synthetic_detector(SEED);
    let fleet_cfg = FleetConfig {
        shards: SHARDS,
        queue_capacity: 8192,
        batch: 64,
        recorder_depth: 32,
        restart_backoff_cap_ms: 20,
        stall_timeout_ms: 100,
        rollback_after: 2,
        degrade_after: 4,
        trace_depth: 8192,
    };
    let sink = Arc::new(CollectSink::default());
    let svc = FleetService::start(fleet_cfg, reference.clone(), Arc::clone(&sink) as _);
    let trace = replay::synthetic_trace(8192, SEED ^ 0xc4a05);
    let mut pumps: Vec<Pump> = (0..SHARDS).map(|s| Pump::new(HOSTS, SHARDS, s)).collect();

    let replay_cfg = ReplayConfig {
        hosts: HOSTS,
        records_per_host: 8_000,
        rate_per_host: 8_000.0,
    };
    let rep = std::thread::scope(|scope| {
        let replay_handle = scope.spawn(|| replay::replay(&svc, &trace, &replay_cfg));

        // Let steady-state traffic flow (and the workers' envelopes
        // absorb model-approved activations) before injecting anything.
        std::thread::sleep(Duration::from_millis(100));

        // Scenario 1: a single detector panic — the supervisor must
        // restart the worker and account the abandoned batch.
        svc.failpoints().inject_panics(0, 1);
        assert!(
            pump_until(&svc, &mut pumps[0], deadline, || {
                svc.snapshot().restarts >= 1
            }),
            "no restart observed after injected panic"
        );

        // Scenario 2: hot-swap validation. Corrupt candidates (one
        // structural child-reference flip, one semantic threshold flip)
        // must be rejected without moving the epoch; a clean redeploy
        // must pass the strict gate.
        let epoch_before = svc.model_version();
        let mut structural = replay::synthetic_detector(SEED);
        structural.chaos_flip_arena_bit(64 + 17); // left-child reference bit
        assert!(
            svc.hot_swap_validated(structural, false).is_err(),
            "structurally corrupt arena accepted for deployment"
        );
        let mut semantic = replay::synthetic_detector(SEED);
        semantic.chaos_flip_arena_bit(63); // root threshold high bit
        assert!(
            svc.hot_swap_validated(semantic, false).is_err(),
            "semantically corrupt arena accepted for deployment"
        );
        assert_eq!(
            svc.model_version(),
            epoch_before,
            "rejected swap moved the model epoch"
        );
        let redeploy =
            VmTransitionDetector::from_json(&reference.to_json()).expect("reference round-trips");
        if let Err(e) = svc.hot_swap_validated(redeploy, true) {
            panic!("clean redeploy rejected: {e}");
        }

        // Scenario 3: a stalled shard — the watchdog must detect the
        // stale heartbeat and bring in a replacement worker.
        let stall_shard = 1 % SHARDS;
        svc.failpoints()
            .inject_stall(stall_shard, Duration::from_millis(400));
        assert!(
            pump_until(&svc, &mut pumps[stall_shard], deadline, || {
                svc.snapshot().stalls >= 1
            }),
            "watchdog never detected the injected stall"
        );

        // Scenario 4: queue saturation while the worker is wedged — the
        // burst must be bounded by drop-and-count, never by blocking.
        let sat_shard = 2 % SHARDS;
        svc.failpoints()
            .inject_stall(sat_shard, Duration::from_millis(300));
        pumps[sat_shard].send(&svc, 1); // arm: next batch consumes the stall
        std::thread::sleep(Duration::from_millis(20));
        let before_rejected = pumps[sat_shard].rejected;
        pumps[sat_shard].send(&svc, 8192 + 4096);
        assert!(
            pumps[sat_shard].rejected > before_rejected,
            "saturation burst overran a wedged shard without drops"
        );

        // Scenario 5: panic storm — escalation must roll the model back
        // (restoring the pre-swap fingerprint) and then degrade, at which
        // point envelope verdicts flow instead of records burning.
        let storm_shard = 0;
        svc.failpoints().inject_panics(storm_shard, 64);
        assert!(
            pump_until(&svc, &mut pumps[storm_shard], deadline, || svc.degraded()),
            "panic storm never escalated to degraded mode"
        );
        assert!(
            pump_until(&svc, &mut pumps[storm_shard], deadline, || {
                svc.snapshot().degraded_verdicts > 0
            }),
            "degraded mode produced no envelope verdicts"
        );

        // All injections done: disarm, recover, and prove every shard is
        // serving again.
        svc.failpoints().disarm();
        svc.exit_degraded();
        let rep = replay_handle.join().expect("replay panicked");

        let before_batches: Vec<u64> = svc.snapshot().shards.iter().map(|s| s.batches).collect();
        for pump in pumps.iter_mut() {
            pump.send(&svc, PROBES_PER_SHARD);
        }
        let t0 = Instant::now();
        loop {
            let snap = svc.snapshot();
            let all_advanced = snap
                .shards
                .iter()
                .zip(&before_batches)
                .all(|(s, &b)| s.batches > b);
            if all_advanced && snap.classified + snap.lost == snap.ingested {
                break;
            }
            assert!(
                t0.elapsed() <= deadline,
                "not every shard resumed verdicts within {DEADLINE_MS} ms of disarming"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        rep
    });

    let s = svc.shutdown();

    // Invariant: exact accounting. Every accepted record classified or
    // lost-with-cause; every rejected ingest in the drop counter.
    let pump_accepted: u64 = pumps.iter().map(|p| p.accepted).sum();
    let pump_rejected: u64 = pumps.iter().map(|p| p.rejected).sum();
    let accepted_total = rep.accepted + pump_accepted;
    let rejected_total = rep.rejected + pump_rejected;
    assert_eq!(
        s.ingested, accepted_total,
        "ingested {} != accepted {}",
        s.ingested, accepted_total
    );
    assert_eq!(
        s.dropped, rejected_total,
        "dropped {} != rejected ingests {}",
        s.dropped, rejected_total
    );
    assert_eq!(
        s.classified + s.lost,
        s.ingested,
        "unaccounted records: classified {} + lost {} != ingested {}",
        s.classified,
        s.lost,
        s.ingested
    );

    // Invariant: the escalation ladder ran. One rollback (restoring the
    // reference fingerprint under a fresh version), one degraded entry.
    assert!(
        s.rollbacks >= 1,
        "panic storm triggered no automatic rollback"
    );
    assert!(
        s.degraded_entries >= 1,
        "panic storm never entered degraded mode"
    );
    assert_eq!(
        s.model_fingerprint,
        reference.fingerprint(),
        "rollback did not restore the pre-swap fingerprint"
    );
    assert_eq!(
        s.swap_rejections, 2,
        "swap rejection counter {} != rejected attempts 2",
        s.swap_rejections
    );
    assert!(!s.degraded, "service still degraded after exit_degraded");

    // Invariant: verdict integrity. Sink delivery is exact up to records
    // that died between their sink call and their counter.
    let verdicts = sink.verdicts.lock().unwrap();
    let delivered = verdicts.len() as u64;
    assert!(
        delivered >= s.classified && delivered <= s.classified + s.lost,
        "sink delivered {} verdicts for {} classified (+{} lost)",
        delivered,
        s.classified,
        s.lost
    );
    // Parity: every model-path verdict must match a reference
    // classification of the record's reconstructed features. All three
    // deployed versions (v1 reference, v2 strict redeploy, v3 rollback)
    // classify identically, so one reference covers the whole run.
    let mut parity_checked = 0u64;
    let mut parity_mismatches = 0u64;
    let mut degraded_seen = 0u64;
    for v in verdicts.iter() {
        match v.source {
            VerdictSource::DegradedEnvelope => degraded_seen += 1,
            VerdictSource::Model => {
                let f = if (v.host as usize) < HOSTS {
                    trace[(v.host as usize * 7919 + v.seq as usize) % trace.len()]
                } else {
                    pump_features()
                };
                parity_checked += 1;
                if reference.classify(&f) != v.label {
                    parity_mismatches += 1;
                }
            }
        }
    }
    assert_eq!(
        parity_mismatches, 0,
        "{parity_mismatches} model verdicts diverged from the reference classifier"
    );
    assert_eq!(
        degraded_seen, s.degraded_verdicts,
        "degraded verdicts in sink ({degraded_seen}) != counter ({})",
        s.degraded_verdicts
    );

    // Clean is necessary but not sufficient: the injections must have
    // actually exercised every fault path, or the invariants held
    // vacuously.
    assert!(s.restarts >= 2, "panic + storm restarts: {}", s.restarts);
    assert!(s.stalls >= 1, "watchdog never fired");
    assert!(s.lost > 0, "panics must abandon (and count) records");
    assert!(degraded_seen > 0, "no envelope verdicts reached the sink");
    assert!(pump_rejected > 0, "saturation burst never overflowed");
    assert!(parity_checked > 0);
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
