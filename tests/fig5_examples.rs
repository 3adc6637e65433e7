//! Reproduce the paper's Fig. 5: the two archetypes of *incorrect but
//! valid* control flow that only VM-transition detection can catch.
//!
//! (a) **Extra code** — "an error occurs in rcx, the counter of rep mov":
//!     a corrupted loop counter adds (or removes) dynamic instructions; the
//!     executed instructions are all valid.
//! (b) **Incorrect branch target** — "an error occurs in eax" before
//!     `test eax, eax; je vcpu_mark_events_pending`: the branch goes the
//!     other, legitimate way.
//!
//! Both cases must complete the activation with *different performance
//! counter footprints* — the signal Table I's features carry.

use faultsim::{inject, prepare_point, CampaignConfig, FaultOutcome, InjectionSpec};
use guest_sim::Benchmark;
use sim_machine::cpu::FlipTarget;
use sim_machine::{ExitReason, Reg};
use xentry::Xentry;

/// Drive the platform to an exit matching `want`, and prepare the point.
fn point_for_reason(want: ExitReason, seed: u64) -> Option<faultsim::InjectionPoint> {
    let cfg = CampaignConfig::paper(Benchmark::Freqmine, 1, seed);
    let mut plat = faultsim::campaign_platform(&cfg, seed);
    let mut shim = Xentry::collector();
    plat.boot(1, &mut shim);
    for _ in 0..600 {
        let (reason, _) = plat.run_to_exit(1);
        if reason == want {
            return prepare_point(plat, 1, 1, reason, 6, None);
        }
        plat.run_handler(1, reason, 0, &mut shim);
    }
    None
}

/// Fig. 5(a): flip a low bit of a live loop counter mid-loop and observe an
/// execution that completes with a different dynamic instruction count.
#[test]
fn fig5a_corrupted_loop_counter_changes_instruction_count() {
    // console_io's character loop keeps its counter in r13.
    let point = point_for_reason(ExitReason::Hypercall(18), 5).expect("console_io exit");
    let mut witnessed = false;
    // Sweep injection points across the handler; low bits of the counter.
    for at in (0..point.meta.golden_len).step_by(37) {
        for bit in [0u8, 1, 2] {
            let rec = inject(
                &point,
                InjectionSpec {
                    target: FlipTarget::Gpr(Reg::R13),
                    bit,
                    at_step: at,
                },
                None,
            );
            let Some(f) = rec.features else { continue };
            if f.rt != rec.golden_features.rt {
                // Valid-but-longer (or shorter) execution: Fig. 5(a).
                witnessed = true;
                assert!(
                    !matches!(rec.outcome, FaultOutcome::Benign),
                    "a changed instruction count implies an activated fault"
                );
            }
        }
    }
    assert!(
        witnessed,
        "no loop-counter corruption produced Fig. 5(a) behaviour"
    );
}

/// Fig. 5(b): flip a branch-condition register right before the
/// `evtchn_set_pending` masked-check and observe a completed execution that
/// took the other (valid) path.
#[test]
fn fig5b_corrupted_branch_condition_takes_other_valid_path() {
    let point = point_for_reason(ExitReason::Hypercall(32), 9).expect("event_channel_op exit");
    let mut completed_with_diff = 0;
    let mut crashed = 0;
    for at in (0..point.meta.golden_len).step_by(17) {
        // r9 carries the masked-bit test inside evtchn_set_pending.
        let rec = inject(
            &point,
            InjectionSpec {
                target: FlipTarget::Gpr(Reg::R9),
                bit: 1,
                at_step: at,
            },
            None,
        );
        match &rec.outcome {
            FaultOutcome::Detected { .. } => crashed += 1,
            FaultOutcome::Undetected { .. } | FaultOutcome::MaskedAfterEntry => {
                if let Some(f) = rec.features {
                    if f.columns() != rec.golden_features.columns() {
                        completed_with_diff += 1;
                    }
                }
            }
            FaultOutcome::Benign => {}
        }
    }
    // The branch-flip archetype must occur: completed activations whose
    // footprint differs from the fault-free run.
    assert!(
        completed_with_diff > 0 || crashed > 0,
        "flipping branch-condition bits had no observable effect at all"
    );
}

/// RFLAGS flips directly invert branch outcomes — the purest Fig. 5(b).
#[test]
fn fig5b_zero_flag_flip_is_valid_but_incorrect() {
    let point = point_for_reason(ExitReason::Hypercall(32), 21).expect("event_channel_op exit");
    let mut diverged = 0;
    for at in (0..point.meta.golden_len).step_by(7) {
        let rec = inject(
            &point,
            // Bit 6 = ZF: every flip lands between some cmp and its jcc.
            InjectionSpec {
                target: FlipTarget::Rflags,
                bit: 6,
                at_step: at,
            },
            None,
        );
        if rec.outcome.manifested() {
            diverged += 1;
        }
    }
    assert!(diverged > 0, "ZF flips never altered control flow");
}
