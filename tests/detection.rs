//! Detection-path integration tests: drive specific fault scenarios through
//! the full stack and verify which technique catches them — the mechanics
//! behind the paper's Fig. 8 split.

use faultsim::{inject, prepare_point, CampaignConfig, FaultOutcome, InjectionSpec};
use guest_sim::Benchmark;
use sim_machine::cpu::FlipTarget;
use sim_machine::Reg;
use xentry::{Technique, Xentry};

/// A prepared injection point on a warm platform.
fn make_point(seed: u64) -> faultsim::InjectionPoint {
    let cfg = CampaignConfig::paper(Benchmark::Freqmine, 1, seed);
    let mut plat = faultsim::campaign_platform(&cfg, seed);
    let mut shim = Xentry::collector();
    plat.boot(1, &mut shim);
    for _ in 0..40 {
        let act = plat.run_activation(1, &mut shim);
        assert!(act.outcome.is_healthy());
    }
    let (reason, _) = plat.run_to_exit(1);
    prepare_point(plat, 1, 1, reason, 6, None).expect("golden run healthy")
}

#[test]
fn rip_high_bit_flip_is_caught_by_hardware_exception() {
    let point = make_point(5);
    // Flipping a high RIP bit lands in unmapped space: fetch fault.
    let rec = inject(
        &point,
        InjectionSpec {
            target: FlipTarget::Rip,
            bit: 40,
            at_step: point.meta.golden_len / 2,
        },
        None,
    );
    match rec.outcome {
        FaultOutcome::Detected {
            technique: Technique::HwException,
            latency,
            same_activation,
            ..
        } => {
            assert!(
                latency <= 2,
                "fetch fault fires on the next instruction: {latency}"
            );
            assert!(same_activation);
        }
        other => panic!("expected hw-exception detection, got {other:?}"),
    }
}

#[test]
fn injections_cover_every_outcome_class() {
    // Sweep a grid of targets/bits/steps at one point: the taxonomy should
    // produce benign faults, detections and (rarely) undetected faults.
    let point = make_point(9);
    let mut benign = 0;
    let mut detected = 0;
    let mut other = 0;
    for (i, target) in FlipTarget::all().into_iter().enumerate() {
        for bit in [0u8, 7, 23, 47, 62] {
            let rec = inject(
                &point,
                InjectionSpec {
                    target,
                    bit,
                    at_step: (i as u64 * 13 + bit as u64) % point.meta.golden_len,
                },
                None,
            );
            match rec.outcome {
                FaultOutcome::Benign | FaultOutcome::MaskedAfterEntry => benign += 1,
                FaultOutcome::Detected { .. } => detected += 1,
                FaultOutcome::Undetected { .. } => other += 1,
            }
        }
    }
    assert!(benign > 0, "no benign faults");
    assert!(detected > 0, "no detections");
    // Undetected faults are rare but allowed; the sum must match the grid.
    assert_eq!(benign + detected + other, FlipTarget::all().len() * 5);
}

#[test]
fn latency_is_measured_from_injection_point() {
    let point = make_point(21);
    // A flip at step k detected at step k+d must report roughly d.
    let rec = inject(
        &point,
        InjectionSpec {
            target: FlipTarget::Rip,
            bit: 45,
            at_step: 10,
        },
        None,
    );
    if let FaultOutcome::Detected { latency, .. } = rec.outcome {
        assert!(latency <= 3, "immediate fetch fault, got latency {latency}");
    } else {
        panic!("expected detection, got {:?}", rec.outcome);
    }
}

#[test]
fn golden_features_are_stable_across_prepares() {
    // Preparing the same point twice gives identical golden features —
    // the determinism the differencing methodology rests on.
    let a = make_point(33);
    let b = make_point(33);
    assert_eq!(a.meta.reason, b.meta.reason);
    assert_eq!(a.meta.golden_features, b.meta.golden_features);
    assert_eq!(a.meta.golden_len, b.meta.golden_len);
    assert_eq!(a.meta.golden_post(), b.meta.golden_post());
}

#[test]
fn stack_pointer_flips_mostly_fault() {
    // RSP corruption makes pushes/pops fault (high bits) — the classic
    // fatal-system-corruption path.
    let point = make_point(55);
    let mut detections = 0;
    let mut trials = 0;
    for bit in [30u8, 35, 40, 45, 50] {
        let rec = inject(
            &point,
            InjectionSpec {
                target: FlipTarget::Gpr(Reg::Rsp),
                bit,
                at_step: 5,
            },
            None,
        );
        trials += 1;
        if rec.outcome.detected() {
            detections += 1;
        }
    }
    assert!(
        detections * 2 >= trials,
        "high-bit RSP flips should mostly be caught: {detections}/{trials}"
    );
}
