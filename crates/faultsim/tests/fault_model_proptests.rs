//! Property tests over the extended fault models: the burst/PTE/PMC
//! schedule must be a pure function of the campaign seed, burst shapes
//! must stay inside the campaign envelope, and PTE strikes must survive the
//! checkpoint machinery's delta round-trip. (That the checkpoint-forked
//! engine equals injection from a fresh boot is one leg of the contract in
//! `campaign_determinism.rs`, held by every experiment.)

use faultsim::campaign::model_specs_at;
use faultsim::{BurstSite, CampaignConfig, PteSpec, RecoverySpec};
use guest_sim::Benchmark;
use proptest::prelude::*;
use xentry::Xentry;

fn cfg_with(seed: u64, injections: usize) -> CampaignConfig {
    let mut c = CampaignConfig::paper(Benchmark::Freqmine, injections, seed);
    c.warmup = 30;
    c.threads = 2;
    c
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The model spec schedule is a pure function of (seed, ordinal,
    /// vmer): recomputing it yields byte-identical specs, which is what
    /// lets every checkpoint fork (and the golden pass) reproduce the
    /// schedule independently.
    #[test]
    fn model_schedule_is_pure(
        seed in 0u64..10_000,
        ordinal in 0usize..16,
        golden_len in 1u64..5_000,
        vmer in 0u16..256,
    ) {
        let cfg = cfg_with(seed, 64);
        let a = model_specs_at(&cfg, ordinal, golden_len, vmer);
        let b = model_specs_at(&cfg, ordinal, golden_len, vmer);
        prop_assert_eq!(
            serde_json::to_string(&a).unwrap(),
            serde_json::to_string(&b).unwrap()
        );
        prop_assert!(!a.is_empty() || ordinal * cfg.per_point >= cfg.injections);
    }

    /// Every burst the schedule emits stays inside the campaign envelope
    /// (width 2..=4, stride 1..=3, anchor below bit 64), and its flips
    /// spill at most one word past the anchor — the invariant the
    /// word-spill apply and the recovery critical-context rebuild rely on.
    #[test]
    fn burst_specs_stay_in_envelope(
        seed in 0u64..10_000,
        ordinal in 0usize..16,
        golden_len in 1u64..5_000,
        vmer in 0u16..256,
    ) {
        let cfg = cfg_with(seed, 64);
        for spec in model_specs_at(&cfg, ordinal, golden_len, vmer) {
            match spec {
                RecoverySpec::Burst(b) => {
                    prop_assert!((2..=4).contains(&b.width), "width {}", b.width);
                    prop_assert!((1..=3).contains(&b.stride), "stride {}", b.stride);
                    prop_assert!(b.start_bit < 64, "start {}", b.start_bit);
                    let offsets: Vec<u64> = b.bit_offsets().collect();
                    prop_assert_eq!(offsets.len(), b.width as usize);
                    prop_assert!(offsets.iter().all(|&o| o < 128));
                    if matches!(b.site, BurstSite::Reg(_)) {
                        prop_assert!(b.at_step < golden_len.max(1));
                    } else {
                        prop_assert_eq!(b.at_step, 0, "memory strikes persist from entry");
                    }
                }
                RecoverySpec::Pte(p) => {
                    prop_assert_eq!(p.at_step, 0);
                    prop_assert!(p.mask() != 0);
                }
                RecoverySpec::Pmc(p) => prop_assert!(p.at_step < golden_len.max(1)),
                other => prop_assert!(false, "unexpected model spec {other:?}"),
            }
        }
    }

    /// A PTE strike round-trips through the checkpoint machinery: the
    /// sparse `PlatformDelta` of a struck platform, applied to the
    /// pre-strike base, reproduces the struck state exactly — so a
    /// checkpoint taken after a strike (or restored across one) never
    /// loses or smears the corrupted PTE word.
    #[test]
    fn pte_strike_round_trips_through_platform_delta(
        seed in 0u64..500,
        dom in 0u8..4,
        page in 0u16..64,
        field_roll in 0u8..3,
        bit in 0u8..28,
    ) {
        let cfg = cfg_with(seed, 1);
        let mut base = faultsim::campaign_platform(&cfg, seed);
        let mut shim = Xentry::collector();
        base.boot(1, &mut shim);
        for _ in 0..10 {
            prop_assert!(base.run_activation(1, &mut shim).outcome.is_healthy());
        }
        let field = match field_roll {
            0 => faultsim::PteField::Present,
            1 => faultsim::PteField::Rw,
            _ => faultsim::PteField::Addr,
        };
        let spec = PteSpec { dom, page, field, bit, at_step: 0 };
        let addr = spec.pte_addr();
        let mut struck = base.clone();
        RecoverySpec::Pte(spec).apply(&mut struck.machine, 1);
        prop_assert_eq!(
            struck.machine.mem.peek(addr).unwrap(),
            base.machine.mem.peek(addr).unwrap() ^ spec.mask()
        );
        // Delta round-trip.
        let delta = struck.delta_against(&base);
        let mut rebuilt = base.clone();
        rebuilt.apply_delta(&delta);
        prop_assert_eq!(rebuilt.state_digest(), struck.state_digest());
        // The XOR strike is an involution: striking twice restores the
        // original platform bit-for-bit.
        RecoverySpec::Pte(spec).apply(&mut struck.machine, 1);
        prop_assert_eq!(struck.state_digest(), base.state_digest());
    }
}
