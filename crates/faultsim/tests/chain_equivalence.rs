//! The golden chain is the golden walk: restoring a keyframe and stepping
//! the deltas must land on the live platform's exact state at every VM
//! exit, for every workload shape and both virtualization modes — the fork
//! phase no longer simulates the walk, so nothing else would notice a
//! delta that drops a word or a scheduler field.

use faultsim::{campaign_platform, CampaignConfig, CheckpointStore};
use guest_sim::Benchmark;
use sim_machine::{ExitReason, VirtMode};
use xen_like::Platform;
use xentry::Xentry;

const CPU: usize = 1;
const INTERVAL: usize = 4;
/// Three keyframes past the base and a tail that ends between two.
const EXITS: usize = 14;

/// One walk iteration of the campaign's golden pass, up to its VM exit.
fn walk_to_exit(plat: &mut Platform, stride: usize, shim: &mut Xentry) -> ExitReason {
    for _ in 0..stride {
        assert!(plat.run_activation(CPU, shim).outcome.is_healthy());
    }
    plat.run_to_exit(CPU).0
}

#[test]
fn stepping_the_chain_reproduces_the_live_walk_at_every_vm_exit() {
    for benchmark in [
        Benchmark::Freqmine,
        Benchmark::Postmark,
        Benchmark::IrqStorm,
    ] {
        for mode in [VirtMode::Para, VirtMode::Hvm] {
            let what = format!("{benchmark:?}/{mode:?}");
            let mut cfg = CampaignConfig::paper(benchmark, 1, 77);
            cfg.mode = mode;
            let mut plat = campaign_platform(&cfg, cfg.seed);
            let mut shim = Xentry::collector();
            plat.boot(CPU, &mut shim);
            for _ in 0..20 {
                assert!(plat.run_activation(CPU, &mut shim).outcome.is_healthy());
            }

            // The chain the golden pass builds, and the same states pushed
            // onto a chain whose only keyframe is its base.
            let mut keyed = CheckpointStore::with_interval(plat.snapshot(), INTERVAL);
            let mut plain = CheckpointStore::new(plat.snapshot());
            let mut digests = vec![plat.state_digest()];
            let mut reasons = Vec::new();
            for _ in 0..EXITS {
                reasons.push(walk_to_exit(&mut plat, cfg.stride, &mut shim));
                keyed.push(&plat);
                plain.push(&plat);
                digests.push(plat.state_digest());
                plat.run_handler(CPU, *reasons.last().unwrap(), 0, &mut shim);
            }
            assert_eq!(keyed.len(), EXITS + 1);
            assert_eq!(keyed.stats(), plain.stats(), "{what}");

            // restore(k) from the nearest keyframe == the live state ==
            // restore(k) by applying the whole prefix.
            for (k, want) in digests.iter().enumerate() {
                assert_eq!(keyed.restore(k).state_digest(), *want, "{what} entry {k}");
                assert_eq!(plain.restore(k).state_digest(), *want, "{what} prefix {k}");
            }

            // From every keyframe, step exit to exit to the end of the
            // chain, across the keyframes in between.
            for start in (0..=EXITS).step_by(INTERVAL) {
                let mut p = keyed.restore(start);
                for (k, want) in digests.iter().enumerate().skip(start + 1) {
                    keyed.advance(&mut p, k);
                    assert_eq!(p.state_digest(), *want, "{what} {start} -> {k}");
                }
            }

            // A restored exit is a platform, not a picture of one: it runs
            // its handler and walks on to the next recorded exit.
            for k in [1, INTERVAL, INTERVAL + 1, EXITS - 1] {
                let mut fork = keyed.restore(k);
                let mut fork_shim = Xentry::collector();
                fork.run_handler(CPU, reasons[k - 1], 0, &mut fork_shim);
                assert_eq!(
                    walk_to_exit(&mut fork, cfg.stride, &mut fork_shim),
                    reasons[k],
                    "{what} exit after entry {k}"
                );
                assert_eq!(fork.state_digest(), digests[k + 1], "{what} {k} walked on");
            }
        }
    }
}
