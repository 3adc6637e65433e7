//! Where the engine's forks come from.
//!
//! A campaign forks the platform several times per injection — the faulty
//! run, the forward runs that classify it, a recovery tier's attempt — and
//! each fork lives for one handler or one short window before it is thrown
//! away. Built with `clone()` and dropped, a fork costs the whole image's
//! reference counts twice over and eight allocations, whatever it went on
//! to change. Built with [`Platform::clone_from`] into a platform a
//! finished fork left behind, it costs the pages the two differ by, which
//! for forks of neighbouring VM exits is about what one handler wrote.
//!
//! So every fork `faultsim` makes comes from [`fork_of`], and every fork it
//! is done with goes back through [`recycle`]. The platforms in between
//! wait on a small per-thread list: campaign workers are scoped threads, so
//! a list never outlives the phase that filled it, and a caller that
//! injects from a long-lived thread keeps at most [`SPARE_FORKS`] platforms
//! — each sharing most of its pages with the point it was forked at.
//!
//! What a spare platform held is unobservable: `clone_from` is `clone`, for
//! every field and whatever the two platforms are (another point, another
//! campaign, another memory map, where it falls back to cloning).

use std::cell::RefCell;
use xen_like::Platform;

/// Spare platforms a thread keeps. The engine has at most four forks alive
/// at once on a thread (a point's two, the faulty or detection run, one
/// forward run or recovery attempt), so nothing is dropped in the steady
/// state and a caller's own `prepare_point` has room beside them.
const SPARE_FORKS: usize = 6;

thread_local! {
    static SPARE: RefCell<Vec<Platform>> = const { RefCell::new(Vec::new()) };
}

/// A platform equal to `source`, rebuilt from a spare one when this thread
/// has any.
pub(crate) fn fork_of(source: &Platform) -> Platform {
    match SPARE.with_borrow_mut(Vec::pop) {
        Some(mut fork) => {
            fork.clone_from(source);
            fork
        }
        None => source.clone(),
    }
}

/// Give back a fork nobody will look at again.
pub(crate) fn recycle(fork: Platform) {
    SPARE.with_borrow_mut(|spare| {
        if spare.len() < SPARE_FORKS {
            spare.push(fork);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{campaign_platform, model_specs_at, CampaignConfig};
    use crate::injection::{inject, inject_spec, prepare_point, InjectionPoint, InjectionSpec};
    use crate::policy::HmTable;
    use crate::recovery::{recover_with_policy, RecoverySpec};
    use guest_sim::Benchmark;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;
    use sim_machine::cpu::FlipTarget;
    use sim_machine::VirtMode;
    use xentry::Xentry;

    /// A campaign platform `warm` activations past boot.
    fn warmed(cfg: &CampaignConfig, seed: u64, warm: usize) -> Platform {
        let mut plat = campaign_platform(cfg, seed);
        let mut shim = Xentry::collector();
        plat.boot(1, &mut shim);
        for _ in 0..warm {
            assert!(plat.run_activation(1, &mut shim).outcome.is_healthy());
        }
        plat
    }

    fn prepared_point(cfg: &CampaignConfig) -> InjectionPoint {
        // An event-channel hypercall: at this exit the flips below end in
        // every class, late detections and silent corruptions included.
        let mut plat = warmed(cfg, cfg.seed, 33);
        let (reason, _) = plat.run_to_exit(1);
        prepare_point(plat, 1, 1, reason, cfg.post_window, None).expect("golden run")
    }

    /// One call into the injection or recovery API.
    #[derive(Debug, Clone, Copy)]
    enum Call {
        Inject(InjectionSpec),
        Spec(RecoverySpec),
        Recover(RecoverySpec),
        /// Detection without recovery: the `Ignore` tier's replay.
        Ignore(RecoverySpec),
    }

    /// A mix that reaches every place a fork is made: register flips at
    /// random (faulty run, consequence run, late window), model strikes,
    /// and faults known to be detected and to need each recovery tier.
    fn calls(point: &InjectionPoint, cfg: &CampaignConfig) -> Vec<Call> {
        let mut rng = ChaCha8Rng::seed_from_u64(18);
        let targets = FlipTarget::all();
        let mut reg = || InjectionSpec {
            target: targets[rng.gen_range(0..targets.len())],
            bit: rng.gen_range(0..64),
            at_step: rng.gen_range(0..point.meta.golden_len.max(1)),
        };
        let mut calls = Vec::new();
        for i in 0..160 {
            calls.push(Call::Inject(reg()));
            if i % 8 == 0 {
                calls.push(Call::Recover(RecoverySpec::Reg(reg())));
                calls.push(Call::Ignore(RecoverySpec::Reg(reg())));
            }
        }
        for ordinal in 0..4 {
            for spec in model_specs_at(
                cfg,
                ordinal,
                point.meta.golden_len,
                point.meta.reason.vmer(),
            ) {
                calls.push(Call::Spec(spec));
                calls.push(Call::Recover(spec));
            }
        }
        // Re-execution converges on the first; only a microreboot heals
        // the second (a wild entry in the private dispatch table).
        calls.push(Call::Recover(RecoverySpec::Reg(InjectionSpec {
            target: FlipTarget::Rip,
            bit: 42,
            at_step: point.meta.golden_len / 2,
        })));
        calls.push(Call::Recover(RecoverySpec::HvMem {
            region: 2,
            word: point.meta.reason.vmer(),
            bit: 20,
            at_step: 0,
        }));
        calls
    }

    fn perform(point: &InjectionPoint, call: Call) -> String {
        match call {
            Call::Inject(spec) => serde_json::to_string(&inject(point, spec, None)),
            Call::Spec(spec) => serde_json::to_string(&inject_spec(point, &spec, None)),
            Call::Recover(spec) => {
                serde_json::to_string(&recover_with_policy(point, spec, None, &HmTable::tiered()))
            }
            Call::Ignore(spec) => serde_json::to_string(&recover_with_policy(
                point,
                spec,
                None,
                &HmTable::ignore_all(),
            )),
        }
        .expect("records serialize")
    }

    /// A recycled fork is a fresh fork: whatever the spare platforms held —
    /// the end state of a forward run from this very point, a platform of
    /// a campaign with another seed, one of an HVM campaign (another
    /// memory map: the fallback path) — every call returns byte for byte
    /// what it returns when every fork is a plain clone.
    #[test]
    fn a_recycled_fork_is_a_fresh_fork() {
        let cfg = CampaignConfig::paper(Benchmark::Freqmine, 16, 5);
        let point = prepared_point(&cfg);
        let calls = calls(&point, &cfg);

        // The reference: an empty list before every call.
        let fresh: Vec<String> = (calls.iter())
            .map(|&call| {
                SPARE.take();
                perform(&point, call)
            })
            .collect();
        let kinds = |what: &str| fresh.iter().filter(|r| r.contains(what)).count();
        // Every place that forks is reached: the faulty run, the
        // consequence run, the late window whether or not it detects, the
        // detection run and both restoring tiers.
        for what in [
            "Benign",
            "MaskedAfterEntry",
            "Undetected",
            "\"same_activation\":false",
            "\"tier\":\"ReExecute\"",
            "\"tier\":\"Microreboot\"",
            "\"action\":\"Ignore\"",
        ] {
            assert!(kinds(what) > 0, "no call ended in {what}");
        }

        // Dirty in every way a finished fork can be: memory, noise streams,
        // device state, CPU, interrupt deadlines and their generator.
        let forward = {
            let mut p = point.golden_entry.clone();
            p.machine
                .cpu_mut(1)
                .flip_bit(FlipTarget::Gpr(sim_machine::Reg::Rbx), 17);
            let mut shim = Xentry::collector();
            for _ in 0..4 * cfg.post_window {
                p.run_activation(1, &mut shim);
            }
            p
        };
        let other_seed = warmed(&cfg, cfg.seed + 1, 25);
        let hvm = {
            let mut cfg = cfg.clone();
            cfg.mode = VirtMode::Hvm;
            warmed(&cfg, 77, 10)
        };

        let dirty = [&forward, &other_seed, &hvm];

        let mut rng = ChaCha8Rng::seed_from_u64(81);
        for round in 0..3 {
            let mut order: Vec<usize> = (0..calls.len()).collect();
            for i in (1..order.len()).rev() {
                order.swap(i, rng.gen_range(0..=i));
            }
            for i in order {
                // Two calls in three start from a list of dirty platforms
                // in some arrangement; the third from whatever the calls
                // before it, of any kind, left behind.
                if rng.gen_range(0..3) != 0 {
                    SPARE.take();
                    for _ in 0..rng.gen_range(1..=SPARE_FORKS) {
                        recycle(dirty[rng.gen_range(0..dirty.len())].clone());
                    }
                }
                assert_eq!(
                    perform(&point, calls[i]),
                    fresh[i],
                    "round {round}, call {i}: {:?}",
                    calls[i]
                );
                assert!(SPARE.with_borrow(Vec::len) <= SPARE_FORKS);
            }
        }
        SPARE.take();
    }

    /// The list is per thread and bounded: what one thread recycles another
    /// never sees, and recycling past the bound drops.
    #[test]
    fn the_list_is_bounded_and_per_thread() {
        let cfg = CampaignConfig::paper(Benchmark::Freqmine, 1, 3);
        let plat = campaign_platform(&cfg, 3);
        SPARE.take();
        for _ in 0..SPARE_FORKS + 3 {
            recycle(plat.clone());
        }
        assert_eq!(SPARE.with_borrow(Vec::len), SPARE_FORKS);
        std::thread::scope(|s| {
            s.spawn(|| {
                assert_eq!(SPARE.with_borrow(Vec::len), 0);
                recycle(fork_of(&plat));
                assert_eq!(SPARE.with_borrow(Vec::len), 1);
            });
        });
        assert_eq!(SPARE.with_borrow(Vec::len), SPARE_FORKS);
        let fork = fork_of(&plat);
        assert_eq!(SPARE.with_borrow(Vec::len), SPARE_FORKS - 1);
        assert_eq!(fork.state_digest(), plat.state_digest());
        SPARE.take();
    }
}
