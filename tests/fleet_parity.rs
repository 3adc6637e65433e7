//! Verdict parity: the fleet service must be a pure distribution layer.
//! Every label it emits must be bit-identical to calling
//! `VmTransitionDetector::classify` directly on the same feature vector
//! with the detector version stamped on the verdict — including for
//! records classified while a hot-swap was in flight. Shard workers
//! classify their drained queue through the compiled batch path, so these
//! tests also pin batch == single-sample == boxed-walker equivalence at
//! fleet scale.
//!
//! The replay driver walks the trace deterministically (host `h` sends
//! `trace[(h * 7919 + i) % len]` as seq `i`), so the test can recompute
//! the exact input of every collected verdict.

use mltree::{Dataset, DecisionTree, Label, Sample, TrainConfig};
use std::sync::Arc;
use xentry::{FeatureVec, VmTransitionDetector, FEATURE_NAMES};
use xentry_fleet::{replay, CollectSink, FleetConfig, FleetService, ReplayConfig};

/// The deterministic replay mapping, mirrored from `replay::replay`.
fn replayed_features(trace: &[FeatureVec], host: u32, seq: u64) -> FeatureVec {
    trace[(host as usize * 7919 + seq as usize) % trace.len()]
}

/// A detector with a very different decision boundary from the synthetic
/// one: anything with RT >= 500 is Incorrect, which flags the entire
/// vmer-40 profile (base RT ~900) that the synthetic detector accepts.
fn aggressive_detector() -> VmTransitionDetector {
    let mut ds = Dataset::new(&FEATURE_NAMES);
    for i in 0..400u64 {
        ds.push(Sample::new(
            vec![17 + i % 24, 10 + i % 480, 5, 3, 2],
            Label::Correct,
        ));
        ds.push(Sample::new(
            vec![17 + i % 24, 520 + i * 3, 5, 3, 2],
            Label::Incorrect,
        ));
    }
    VmTransitionDetector::new(DecisionTree::train(&ds, &TrainConfig::decision_tree()))
}

#[test]
fn fleet_verdicts_match_direct_classify() {
    let det = replay::synthetic_detector(1);
    let sink = Arc::new(CollectSink::default());
    // Queues sized to hold every record: parity needs drops == 0 so the
    // verdict set covers the whole replay.
    let cfg = FleetConfig {
        shards: 4,
        queue_capacity: 1 << 15,
        batch: 32,
        recorder_depth: 8,
        ..FleetConfig::default()
    };
    let svc = FleetService::start(cfg, det.clone(), Arc::clone(&sink) as _);

    let trace = replay::synthetic_trace(4096, 11);
    let rep = replay::replay(
        &svc,
        &trace,
        &ReplayConfig {
            hosts: 4,
            records_per_host: 4000,
            rate_per_host: 0.0,
        },
    );
    assert_eq!(
        rep.rejected, 0,
        "queues were sized to absorb the whole replay"
    );
    let snap = svc.shutdown();
    assert_eq!(snap.classified, 16_000);

    let verdicts = sink.verdicts.lock().unwrap();
    assert_eq!(verdicts.len(), 16_000);
    let mut incorrect = 0u64;
    for v in verdicts.iter() {
        assert_eq!(v.model_version, 1);
        assert_eq!(v.model_fingerprint, det.fingerprint());
        let f = replayed_features(&trace, v.host, v.seq);
        assert_eq!(
            v.label,
            det.classify(&f),
            "host {} seq {} diverged from direct classification",
            v.host,
            v.seq
        );
        // Triangulate: the batch-classified verdict must also match the
        // boxed (uncompiled) walker on the retained training-side tree.
        assert_eq!(
            v.label,
            det.tree().classify(&f.columns()),
            "host {} seq {} diverged from the boxed walker",
            v.host,
            v.seq
        );
        if v.label == Label::Incorrect {
            incorrect += 1;
        }
    }
    assert_eq!(incorrect, snap.incorrect);
    assert!(
        incorrect > 0,
        "the synthetic trace plants anomalies; parity on a single label proves little"
    );
}

#[test]
fn fleet_verdicts_match_direct_classify_across_hot_swap() {
    let d1 = replay::synthetic_detector(1);
    let d2 = aggressive_detector();
    assert_ne!(d1.fingerprint(), d2.fingerprint());
    // The swap path ships detectors as JSON: the rebuilt detector (tree +
    // recompiled arena + recomputed fingerprint) must be indistinguishable
    // from the original, so a swap can never pair an arena with the wrong
    // fingerprint.
    let rebuilt = VmTransitionDetector::from_json(&d2.to_json()).unwrap();
    assert_eq!(rebuilt.fingerprint(), d2.fingerprint());

    let sink = Arc::new(CollectSink::default());
    let cfg = FleetConfig {
        shards: 2,
        queue_capacity: 1 << 15,
        batch: 16,
        recorder_depth: 8,
        ..FleetConfig::default()
    };
    let svc = FleetService::start(cfg, d1.clone(), Arc::clone(&sink) as _);

    let trace = replay::synthetic_trace(2048, 23);
    // Throttle the senders so the replay spans ~150 ms, and deploy the
    // second model from another thread while it is in flight.
    let rep = std::thread::scope(|s| {
        let svc_ref = &svc;
        let d2 = d2.clone();
        s.spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(50));
            assert_eq!(svc_ref.hot_swap_validated(d2, false).unwrap(), 2);
        });
        replay::replay(
            svc_ref,
            &trace,
            &ReplayConfig {
                hosts: 2,
                records_per_host: 3000,
                rate_per_host: 20_000.0,
            },
        )
    });
    assert_eq!(rep.rejected, 0);
    let snap = svc.shutdown();
    assert_eq!(snap.classified, 6000);
    assert_eq!(snap.swaps, 1);

    let verdicts = sink.verdicts.lock().unwrap();
    assert_eq!(verdicts.len(), 6000);
    let mut by_version = [0u64; 2];
    for v in verdicts.iter() {
        let model = match v.model_version {
            1 => &d1,
            2 => &d2,
            other => panic!("verdict stamped with unknown model version {other}"),
        };
        assert_eq!(v.model_fingerprint, model.fingerprint());
        let f = replayed_features(&trace, v.host, v.seq);
        assert_eq!(
            v.label,
            model.classify(&f),
            "host {} seq {} diverged under model v{}",
            v.host,
            v.seq,
            v.model_version
        );
        assert_eq!(
            v.label,
            model.tree().classify(&f.columns()),
            "host {} seq {} diverged from the boxed walker under model v{}",
            v.host,
            v.seq,
            v.model_version
        );
        by_version[(v.model_version - 1) as usize] += 1;
    }
    // The swap landed mid-replay: both models must have classified a
    // meaningful share, or the "across hot-swap" claim is vacuous.
    assert!(
        by_version[0] > 100,
        "v1 classified only {} records",
        by_version[0]
    );
    assert!(
        by_version[1] > 100,
        "v2 classified only {} records",
        by_version[1]
    );

    // And the two models genuinely disagree on this trace, so parity per
    // version is not trivially the same check twice.
    let disagreements = trace
        .iter()
        .filter(|f| d1.classify(f) != d2.classify(f))
        .count();
    assert!(
        disagreements > 100,
        "models disagree on only {disagreements} records"
    );
}

/// Block until the service has drained everything it accepted so far.
fn drain(svc: &FleetService) {
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    loop {
        let snap = svc.snapshot();
        if snap.classified + snap.lost == snap.ingested {
            return;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "service failed to drain: {} classified + {} lost of {} ingested",
            snap.classified,
            snap.lost,
            snap.ingested
        );
        std::thread::sleep(std::time::Duration::from_millis(2));
    }
}

#[test]
fn rollback_restores_verdict_parity_with_pre_swap_model() {
    let d1 = replay::synthetic_detector(1);
    let d2 = aggressive_detector();
    assert_ne!(d1.fingerprint(), d2.fingerprint());

    let sink = Arc::new(CollectSink::default());
    let cfg = FleetConfig {
        shards: 2,
        queue_capacity: 1 << 15,
        batch: 16,
        recorder_depth: 8,
        ..FleetConfig::default()
    };
    let svc = FleetService::start(cfg, d1.clone(), Arc::clone(&sink) as _);

    let trace = replay::synthetic_trace(2048, 31);
    let wave = ReplayConfig {
        hosts: 2,
        records_per_host: 1500,
        rate_per_host: 0.0,
    };

    // Wave 1 under the original model; drain so the deploy boundary is
    // crisp and every wave maps 1:1 to a model version.
    assert_eq!(replay::replay(&svc, &trace, &wave).rejected, 0);
    drain(&svc);

    // The aggressive model fails the strict canary (it relabels the
    // golden vectors captured under d1), but a relaxed deploy accepts it:
    // structurally sound, self-consistent, just different behavior.
    assert!(svc.hot_swap_validated(d2.clone(), true).is_err());
    assert_eq!(svc.hot_swap_validated(d2.clone(), false).unwrap(), 2);
    assert_eq!(svc.model_fingerprint(), d2.fingerprint());

    // Wave 2 under the replacement.
    assert_eq!(replay::replay(&svc, &trace, &wave).rejected, 0);
    drain(&svc);

    // Roll back: a fresh epoch republishing the pre-swap detector.
    assert_eq!(svc.rollback_model(), Some(3));
    assert_eq!(svc.model_fingerprint(), d1.fingerprint());

    // Wave 3 must classify exactly like the pre-swap model again.
    assert_eq!(replay::replay(&svc, &trace, &wave).rejected, 0);
    let snap = svc.shutdown();
    assert_eq!(snap.classified, 9000);
    assert_eq!(snap.lost, 0);
    assert_eq!(snap.swaps, 1);
    assert_eq!(snap.swap_rejections, 1);
    assert_eq!(snap.rollbacks, 1);
    assert_eq!(snap.model_version, 3);
    assert_eq!(snap.model_fingerprint, d1.fingerprint());

    let verdicts = sink.verdicts.lock().unwrap();
    assert_eq!(verdicts.len(), 9000);
    let mut by_version = [0u64; 3];
    for v in verdicts.iter() {
        let model = match v.model_version {
            1 | 3 => &d1, // version 3 is the rollback epoch of d1
            2 => &d2,
            other => panic!("verdict stamped with unknown model version {other}"),
        };
        assert_eq!(v.model_fingerprint, model.fingerprint());
        let f = replayed_features(&trace, v.host, v.seq);
        assert_eq!(
            v.label,
            model.classify(&f),
            "host {} seq {} diverged under model v{}",
            v.host,
            v.seq,
            v.model_version
        );
        by_version[(v.model_version - 1) as usize] += 1;
    }
    // Drained wave boundaries: each wave classified entirely under its
    // own version, and the rollback epoch really served traffic.
    assert_eq!(by_version, [3000, 3000, 3000]);
}
