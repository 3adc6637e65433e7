//! Property tests over the microreboot contract: for *any* number of
//! activations run before the reboot — and any injected corruption in
//! hypervisor-private state — `microreboot_restore` returns the private
//! regions to the boot image (wallclock excepted, it is carried across)
//! while every preserved region's digest is untouched.

use proptest::prelude::*;
use std::sync::OnceLock;
use xen_like::layout as lay;
use xen_like::platform::NullMonitor;
use xen_like::{Platform, MICROREBOOT_PRIVATE_REGIONS};
use xentry::Xentry;

/// Regions the reboot must not touch: guest-visible and shared state.
const PRESERVED_REGIONS: [&str; 11] = [
    "hv.text",
    "hv.vcpu",
    "hv.domain",
    "hv.evtchn",
    "hv.grant",
    "hv.shared",
    "vmcs",
    "dom0.text",
    "dom0.data",
    "dom1.text",
    "dom1.data",
];

/// One shared warmed-up platform (booting is the expensive part); each
/// case clones it, runs a case-specific number of extra activations, and
/// reboots the clone.
fn warm_platform() -> &'static Platform {
    static PLAT: OnceLock<Platform> = OnceLock::new();
    PLAT.get_or_init(|| {
        let cfg = faultsim::CampaignConfig::paper(guest_sim::Benchmark::Freqmine, 1, 77);
        let mut plat = faultsim::campaign_platform(&cfg, 77);
        let mut shim = Xentry::collector();
        plat.boot(1, &mut shim);
        for _ in 0..30 {
            assert!(plat.run_activation(1, &mut shim).outcome.is_healthy());
        }
        plat
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The reboot's preservation contract holds at any point in the run,
    /// with arbitrary single-word corruption in any private region.
    #[test]
    fn microreboot_preserves_guest_state_and_restores_private_state(
        extra in 0usize..25,
        region in 0usize..MICROREBOOT_PRIVATE_REGIONS.len(),
        offset in 0usize..64,
        garbage in any::<u64>(),
    ) {
        let mut p = warm_platform().clone();
        let mut shim = Xentry::collector();
        for _ in 0..extra {
            prop_assert!(p.run_activation(1, &mut shim).outcome.is_healthy());
        }
        // Corrupt one private word (poke is privileged, perms irrelevant).
        let name = MICROREBOOT_PRIVATE_REGIONS[region];
        let r = p.machine.mem.region_by_name(name).unwrap();
        let addr = r.base + (offset % r.len_words()) as u64 * 8;
        p.machine.mem.poke(addr, garbage).unwrap();

        let preserved_before: Vec<u64> = PRESERVED_REGIONS
            .iter()
            .map(|n| p.machine.mem.region_digest(n).unwrap())
            .collect();
        let wallclock = p
            .machine
            .mem
            .peek(lay::global_addr(lay::global::WALLCLOCK))
            .unwrap();

        let report = p.microreboot_restore(1);
        prop_assert_eq!(report.wallclock_preserved, wallclock);

        // Preserved regions: digest-identical.
        for (n, before) in PRESERVED_REGIONS.iter().zip(&preserved_before) {
            prop_assert_eq!(
                p.machine.mem.region_digest(n).unwrap(),
                *before,
                "preserved region {} changed across microreboot",
                n
            );
        }
        // Private regions: word-identical with the boot image, except the
        // carried wallclock.
        for name in MICROREBOOT_PRIVATE_REGIONS {
            let img = p.boot_image_region(name).unwrap();
            let live = p.machine.mem.region_words(name).unwrap();
            if name == "hv.global" {
                for (i, (l, b)) in live.iter().zip(&img).enumerate() {
                    if i as u64 == lay::global::WALLCLOCK {
                        prop_assert_eq!(*l, wallclock);
                    } else {
                        prop_assert_eq!(l, b, "{}[{}] not restored", name, i);
                    }
                }
            } else {
                prop_assert_eq!(&live, &img, "{} not restored to boot image", name);
            }
        }
    }

    /// After the full reboot (restore + re-entry) the guest still makes
    /// healthy progress, whatever private word was corrupted.
    #[test]
    fn microreboot_reentry_survives_any_private_corruption(
        region in 0usize..MICROREBOOT_PRIVATE_REGIONS.len(),
        offset in 0usize..64,
        garbage in any::<u64>(),
    ) {
        let mut p = warm_platform().clone();
        let name = MICROREBOOT_PRIVATE_REGIONS[region];
        let r = p.machine.mem.region_by_name(name).unwrap();
        let addr = r.base + (offset % r.len_words()) as u64 * 8;
        p.machine.mem.poke(addr, garbage).unwrap();

        let (_report, out) = p.microreboot(1, &mut NullMonitor);
        prop_assert!(out.is_healthy(), "re-entry unhealthy: {:?}", out);
        let mut shim = Xentry::collector();
        for _ in 0..10 {
            prop_assert!(p.run_activation(1, &mut shim).outcome.is_healthy());
        }
    }
}
