//! Property tests over the fault-injection executor: for *any* single-bit
//! flip at *any* point in a handler, the classification must be total,
//! consistent, and deterministic.

use faultsim::{inject, prepare_point, CampaignConfig, FaultOutcome, InjectionSpec};
use guest_sim::Benchmark;
use proptest::prelude::*;
use sim_machine::cpu::FlipTarget;
use std::sync::OnceLock;
use xentry::Xentry;

/// One shared injection point (preparing is the expensive part).
fn shared_point() -> &'static faultsim::InjectionPoint {
    static POINT: OnceLock<faultsim::InjectionPoint> = OnceLock::new();
    POINT.get_or_init(|| {
        let cfg = CampaignConfig::paper(Benchmark::Freqmine, 1, 61);
        let mut plat = faultsim::campaign_platform(&cfg, 61);
        let mut shim = Xentry::collector();
        plat.boot(1, &mut shim);
        for _ in 0..50 {
            assert!(plat.run_activation(1, &mut shim).outcome.is_healthy());
        }
        let (reason, _) = plat.run_to_exit(1);
        prepare_point(plat, 1, 1, reason, 5, None).expect("golden run healthy")
    })
}

fn arb_target() -> impl Strategy<Value = FlipTarget> {
    (0usize..FlipTarget::all().len()).prop_map(|i| FlipTarget::all()[i])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Injection never panics and always produces a classified outcome
    /// with self-consistent bookkeeping.
    #[test]
    fn injection_is_total_and_consistent(
        target in arb_target(),
        bit in 0u8..64,
        step_frac in 0u64..1000,
    ) {
        let point = shared_point();
        let at_step = step_frac * point.meta.golden_len / 1000;
        let rec = inject(point, InjectionSpec { target, bit, at_step }, None);

        // Detected implies manifested.
        if rec.outcome.detected() {
            prop_assert!(rec.outcome.manifested());
        }
        // Latency bookkeeping: a detection's latency is bounded by the
        // remaining handler plus the observation window.
        if let FaultOutcome::Detected { latency, same_activation: true, .. } = &rec.outcome {
            prop_assert!(
                *latency <= point.meta.golden_len * 4 + 10_000,
                "latency {latency} out of range (golden_len {})",
                point.meta.golden_len
            );
        }
        // Features present iff the handler reached VM entry.
        match &rec.outcome {
            FaultOutcome::Benign | FaultOutcome::MaskedAfterEntry => {
                prop_assert!(rec.features.is_some());
            }
            FaultOutcome::Undetected { .. } => prop_assert!(rec.features.is_some()),
            FaultOutcome::Detected { .. } => {} // either way
        }
        // Golden features are invariant.
        prop_assert_eq!(rec.golden_features, point.meta.golden_features);
    }

    /// Injecting the same fault twice yields the same outcome
    /// (determinism, the foundation of golden-run differencing).
    #[test]
    fn injection_is_deterministic(
        target in arb_target(),
        bit in 0u8..64,
        step_frac in 0u64..100,
    ) {
        let point = shared_point();
        let at_step = step_frac * point.meta.golden_len / 100;
        let spec = InjectionSpec { target, bit, at_step };
        let a = inject(point, spec, None);
        let b = inject(point, spec, None);
        prop_assert_eq!(&a.outcome, &b.outcome);
        prop_assert_eq!(a.features, b.features);
    }

    /// A flip injected at step 0 into a register the entry stub saves
    /// verbatim is never classified Benign *and* feature-identical-diverged
    /// at once — i.e. the diff machinery sees what the flip did.
    #[test]
    fn high_bit_rip_flips_always_detected(bit in 30u8..47) {
        let point = shared_point();
        let rec = inject(
            point,
            InjectionSpec { target: FlipTarget::Rip, bit, at_step: point.meta.golden_len / 2 },
            None,
        );
        // RIP high bits land in unmapped space: fetch fault, detected.
        prop_assert!(
            rec.outcome.detected(),
            "rip bit {bit} escaped: {:?}",
            rec.outcome
        );
    }
}
