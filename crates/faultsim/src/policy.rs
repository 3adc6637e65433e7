//! ARINC-653-style health-monitor policy engine: a declarative table
//! mapping (detection technique × consequence class) to a recovery
//! action, with a bounded escalation ladder.
//!
//! A detected fault enters the ladder at whatever action the table
//! selects. If that tier fails to converge the ladder escalates —
//! re-execution failure escalates to microreboot, repeated microreboot
//! failure to halt — and every tier carries an attempt cap, so the
//! total number of recovery attempts per fault is provably bounded by
//! `max_reexec + max_microreboot + 1`.

use serde::{Deserialize, Serialize};
use sim_machine::fold64;
use xentry::Technique;

use crate::outcome::Consequence;

/// A recovery tier the health monitor can invoke for a detected fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum RecoveryAction {
    /// Log and resume: no recovery attempted. The fault's consequence,
    /// if any, lands on the guest.
    Ignore,
    /// Restore the critical-state copy and re-execute the faulted
    /// handler (the paper's §VI recovery sketch).
    ReExecute,
    /// ReHype-style hypervisor microreboot: reinitialize
    /// hypervisor-private state from the boot image, preserving guest
    /// state, and re-enter at the exit trampoline.
    Microreboot,
    /// Give up: take the whole host down rather than run corrupted.
    Halt,
}

impl RecoveryAction {
    /// The next-stronger tier, or `None` from `Halt`.
    pub fn escalate(self) -> Option<RecoveryAction> {
        match self {
            RecoveryAction::Ignore => Some(RecoveryAction::ReExecute),
            RecoveryAction::ReExecute => Some(RecoveryAction::Microreboot),
            RecoveryAction::Microreboot => Some(RecoveryAction::Halt),
            RecoveryAction::Halt => None,
        }
    }

    fn tag(self) -> u64 {
        match self {
            RecoveryAction::Ignore => 0,
            RecoveryAction::ReExecute => 1,
            RecoveryAction::Microreboot => 2,
            RecoveryAction::Halt => 3,
        }
    }
}

/// One row of the health-monitor table. `None` fields are wildcards;
/// the first matching rule wins.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct HmRule {
    /// Which detection technique fired, or any.
    pub technique: Option<Technique>,
    /// The consequence class the fault manifested as (as far as the
    /// monitor can tell at detection time), or any.
    pub consequence: Option<Consequence>,
    /// The action this row selects.
    pub action: RecoveryAction,
}

/// A declarative health-monitor table: ordered rules plus a default
/// action and per-tier attempt caps.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct HmTable {
    /// Display name, used in reports and artifacts.
    pub name: String,
    /// First-match-wins rule list.
    pub rules: Vec<HmRule>,
    /// Action when no rule matches.
    pub default: RecoveryAction,
    /// Re-execution attempts before escalating to microreboot.
    pub max_reexec: u32,
    /// Microreboot attempts before escalating to halt.
    pub max_microreboot: u32,
}

impl HmTable {
    /// Resolve the entry action for a detection event.
    pub fn action_for(
        &self,
        technique: Technique,
        consequence: Option<Consequence>,
    ) -> RecoveryAction {
        for r in &self.rules {
            let tech_ok = r.technique.is_none_or(|t| t == technique);
            let cons_ok = match (r.consequence, consequence) {
                (None, _) => true,
                (Some(want), Some(got)) => want == got,
                (Some(_), None) => false,
            };
            if tech_ok && cons_ok {
                return r.action;
            }
        }
        self.default
    }

    /// Attempt cap for one tier of the ladder. `Ignore` and `Halt` are
    /// terminal: one attempt each, by construction. A cap of 0 disables
    /// the tier outright — the ladder escalates straight past it, so a
    /// `reexec-only` table never reboots even when re-execution fails.
    pub fn cap(&self, action: RecoveryAction) -> u32 {
        match action {
            RecoveryAction::Ignore | RecoveryAction::Halt => 1,
            RecoveryAction::ReExecute => self.max_reexec,
            RecoveryAction::Microreboot => self.max_microreboot,
        }
    }

    /// Upper bound on recovery attempts for any single fault under this
    /// table — the escalation ladder terminates within this many steps.
    pub fn max_attempts(&self) -> u32 {
        1 + self.max_reexec + self.max_microreboot + 1
    }

    /// Deterministic digest of the whole table, folded into campaign
    /// journal digests so a resumed run rejects a changed policy.
    pub fn digest(&self) -> u64 {
        let mut h = fold64(0x686d_5f74, self.rules.len() as u64);
        for b in self.name.bytes() {
            h = fold64(h, b as u64);
        }
        for r in &self.rules {
            let t = match r.technique {
                None => 0,
                Some(Technique::HwException) => 1,
                Some(Technique::SwAssertion) => 2,
                Some(Technique::VmTransition) => 3,
            };
            let c = match r.consequence {
                None => 0,
                Some(Consequence::AppSdc) => 1,
                Some(Consequence::AppCrash) => 2,
                Some(Consequence::OneVmFailure) => 3,
                Some(Consequence::AllVmFailure) => 4,
                Some(Consequence::HypervisorCrash) => 5,
            };
            h = fold64(h, t << 32 | c << 8 | r.action.tag());
        }
        h = fold64(h, self.default.tag());
        h = fold64(
            h,
            (self.max_reexec as u64) << 32 | self.max_microreboot as u64,
        );
        h
    }

    /// The paper's §VI baseline: every detection answered with critical-
    /// state restore + re-execution, nothing stronger.
    pub fn reexecute_only() -> HmTable {
        HmTable {
            name: "reexec-only".into(),
            rules: vec![],
            default: RecoveryAction::ReExecute,
            max_reexec: 2,
            max_microreboot: 0,
        }
    }

    /// The tiered ReHype-style policy: re-execute first, escalate
    /// residual corruption to a hypervisor microreboot.
    pub fn tiered() -> HmTable {
        HmTable {
            name: "tiered".into(),
            rules: vec![
                // A hypervisor crash has already lost the handler
                // context; go straight to the reboot tier.
                HmRule {
                    technique: None,
                    consequence: Some(Consequence::HypervisorCrash),
                    action: RecoveryAction::Microreboot,
                },
            ],
            default: RecoveryAction::ReExecute,
            max_reexec: 2,
            max_microreboot: 2,
        }
    }

    /// Null policy: detection without recovery (the paper's scope).
    pub fn ignore_all() -> HmTable {
        HmTable {
            name: "ignore-all".into(),
            rules: vec![],
            default: RecoveryAction::Ignore,
            max_reexec: 0,
            max_microreboot: 0,
        }
    }
}

/// What one tier of the ladder achieved for one fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TierResult {
    /// The platform reconverged with the golden run: fault recovered.
    Converged,
    /// The tier completed but corruption remains, classified by its
    /// observable consequence.
    Residual(Consequence),
    /// The hypervisor could not even complete the tier (re-entry hung
    /// or faulted again fatally).
    HypervisorDead,
}

/// Final verdict of the escalation ladder for one detected fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum RecoveryOutcome {
    /// Some tier converged; records which one closed the fault.
    Recovered { tier: RecoveryAction },
    /// The ladder ended with guest-visible damage (a VM lost state or
    /// crashed) but the hypervisor survived.
    VmLost,
    /// The ladder exhausted every tier (or was told to halt): the host
    /// goes down for an external restart.
    FailedRecovery,
}

/// One step the ladder actually took, for receipts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct EscalationStep {
    pub action: RecoveryAction,
    pub attempt: u32,
    pub result: TierResult,
}

/// Drive a detected fault through `table`'s escalation ladder.
///
/// `try_tier` executes one attempt of one tier and reports what it
/// achieved; the ladder owns the policy: entry action from the table,
/// per-tier attempt caps, escalation on non-convergence. Returns the
/// final verdict plus the audit trail of steps taken. The loop is
/// bounded by [`HmTable::max_attempts`] — asserted, not assumed.
pub fn run_ladder(
    table: &HmTable,
    technique: Technique,
    consequence: Option<Consequence>,
    mut try_tier: impl FnMut(RecoveryAction, u32) -> TierResult,
) -> (RecoveryOutcome, Vec<EscalationStep>) {
    let mut steps = Vec::new();
    let mut action = table.action_for(technique, consequence);
    let mut last_residual = consequence;
    loop {
        match action {
            RecoveryAction::Ignore => {
                // No recovery action — but "ignore" still has an outcome:
                // the tier callback lets the fault run its course and
                // reports what the system converged to. A fault that
                // kills the hypervisor or every VM despite detection is a
                // failed recovery; lesser damage is a lost VM; a fault
                // that happens to converge anyway survived by luck.
                let result = try_tier(action, 1);
                steps.push(EscalationStep {
                    action,
                    attempt: 1,
                    result,
                });
                let outcome = match result {
                    TierResult::Converged => RecoveryOutcome::Recovered {
                        tier: RecoveryAction::Ignore,
                    },
                    TierResult::Residual(Consequence::HypervisorCrash)
                    | TierResult::Residual(Consequence::AllVmFailure)
                    | TierResult::HypervisorDead => RecoveryOutcome::FailedRecovery,
                    TierResult::Residual(_) => RecoveryOutcome::VmLost,
                };
                assert!(steps.len() <= table.max_attempts() as usize);
                return (outcome, steps);
            }
            RecoveryAction::Halt => {
                steps.push(EscalationStep {
                    action,
                    attempt: 1,
                    result: match last_residual {
                        Some(c) => TierResult::Residual(c),
                        None => TierResult::HypervisorDead,
                    },
                });
                assert!(steps.len() <= table.max_attempts() as usize);
                return (RecoveryOutcome::FailedRecovery, steps);
            }
            RecoveryAction::ReExecute | RecoveryAction::Microreboot => {
                // A zero cap disables the tier: the loop body never runs
                // and the ladder escalates immediately.
                let cap = table.cap(action);
                let mut converged = false;
                for attempt in 1..=cap {
                    let result = try_tier(action, attempt);
                    steps.push(EscalationStep {
                        action,
                        attempt,
                        result,
                    });
                    match result {
                        TierResult::Converged => {
                            converged = true;
                            break;
                        }
                        TierResult::Residual(c) => last_residual = Some(c),
                        TierResult::HypervisorDead => {
                            last_residual = Some(Consequence::HypervisorCrash)
                        }
                    }
                }
                if converged {
                    assert!(steps.len() <= table.max_attempts() as usize);
                    return (RecoveryOutcome::Recovered { tier: action }, steps);
                }
                // Cap exhausted: escalate. `Halt` is the ladder's fixed
                // point, so this always terminates.
                action = action.escalate().expect("ladder ends at Halt");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn always(r: TierResult) -> impl FnMut(RecoveryAction, u32) -> TierResult {
        move |_, _| r
    }

    #[test]
    fn first_matching_rule_wins_then_default() {
        let t = HmTable {
            name: "t".into(),
            rules: vec![
                HmRule {
                    technique: Some(Technique::HwException),
                    consequence: None,
                    action: RecoveryAction::Microreboot,
                },
                HmRule {
                    technique: None,
                    consequence: Some(Consequence::AppSdc),
                    action: RecoveryAction::Ignore,
                },
            ],
            default: RecoveryAction::ReExecute,
            max_reexec: 1,
            max_microreboot: 1,
        };
        assert_eq!(
            t.action_for(Technique::HwException, Some(Consequence::AppSdc)),
            RecoveryAction::Microreboot
        );
        assert_eq!(
            t.action_for(Technique::VmTransition, Some(Consequence::AppSdc)),
            RecoveryAction::Ignore
        );
        assert_eq!(
            t.action_for(Technique::VmTransition, None),
            RecoveryAction::ReExecute
        );
    }

    #[test]
    fn ladder_converges_at_entry_tier() {
        let t = HmTable::tiered();
        let (out, steps) = run_ladder(
            &t,
            Technique::VmTransition,
            None,
            always(TierResult::Converged),
        );
        assert_eq!(
            out,
            RecoveryOutcome::Recovered {
                tier: RecoveryAction::ReExecute
            }
        );
        assert_eq!(steps.len(), 1);
    }

    #[test]
    fn reexec_failure_escalates_to_microreboot() {
        let t = HmTable::tiered();
        let mut calls = Vec::new();
        let (out, steps) = run_ladder(&t, Technique::VmTransition, None, |a, n| {
            calls.push((a, n));
            match a {
                RecoveryAction::ReExecute => TierResult::Residual(Consequence::OneVmFailure),
                _ => TierResult::Converged,
            }
        });
        assert_eq!(
            out,
            RecoveryOutcome::Recovered {
                tier: RecoveryAction::Microreboot
            }
        );
        assert_eq!(
            calls,
            vec![
                (RecoveryAction::ReExecute, 1),
                (RecoveryAction::ReExecute, 2),
                (RecoveryAction::Microreboot, 1),
            ]
        );
        assert_eq!(steps.len(), 3);
    }

    #[test]
    fn total_failure_terminates_at_halt_within_cap() {
        let t = HmTable::tiered();
        let (out, steps) = run_ladder(
            &t,
            Technique::HwException,
            Some(Consequence::AppCrash),
            always(TierResult::HypervisorDead),
        );
        assert_eq!(out, RecoveryOutcome::FailedRecovery);
        // 2 re-exec + 2 microreboot + halt, within the proven bound.
        assert_eq!(steps.len(), 5);
        assert!(steps.len() <= t.max_attempts() as usize);
        assert_eq!(steps.last().unwrap().action, RecoveryAction::Halt);
    }

    #[test]
    fn zero_cap_tier_is_skipped_entirely() {
        // reexec-only has max_microreboot = 0: when re-execution fails
        // the ladder must go straight to Halt, never rebooting.
        let t = HmTable::reexecute_only();
        let mut calls = Vec::new();
        let (out, steps) = run_ladder(&t, Technique::HwException, None, |a, _| {
            calls.push(a);
            TierResult::HypervisorDead
        });
        assert!(calls.iter().all(|a| *a == RecoveryAction::ReExecute));
        assert_eq!(out, RecoveryOutcome::FailedRecovery);
        assert_eq!(steps.len(), 3); // 2 re-exec + halt
        assert_eq!(steps.last().unwrap().action, RecoveryAction::Halt);
        assert!(steps.len() <= t.max_attempts() as usize);
    }

    #[test]
    fn hypervisor_crash_rule_skips_straight_to_microreboot() {
        let t = HmTable::tiered();
        let mut first = None;
        let (out, _) = run_ladder(
            &t,
            Technique::HwException,
            Some(Consequence::HypervisorCrash),
            |a, _| {
                first.get_or_insert(a);
                TierResult::Converged
            },
        );
        assert_eq!(first, Some(RecoveryAction::Microreboot));
        assert_eq!(
            out,
            RecoveryOutcome::Recovered {
                tier: RecoveryAction::Microreboot
            }
        );
    }

    #[test]
    fn ignore_policy_maps_tier_results_to_verdicts() {
        let t = HmTable::ignore_all();
        let run = |r| run_ladder(&t, Technique::VmTransition, None, always(r)).0;
        assert_eq!(
            run(TierResult::Converged),
            RecoveryOutcome::Recovered {
                tier: RecoveryAction::Ignore
            }
        );
        assert_eq!(
            run(TierResult::Residual(Consequence::AppCrash)),
            RecoveryOutcome::VmLost
        );
        assert_eq!(
            run(TierResult::Residual(Consequence::HypervisorCrash)),
            RecoveryOutcome::FailedRecovery
        );
        assert_eq!(
            run(TierResult::HypervisorDead),
            RecoveryOutcome::FailedRecovery
        );
        // Ignore never escalates: one step, whatever the result.
        let (_, steps) = run_ladder(
            &t,
            Technique::VmTransition,
            None,
            always(TierResult::HypervisorDead),
        );
        assert_eq!(steps.len(), 1);
    }

    #[test]
    fn digest_is_sensitive_to_rules_caps_and_name() {
        let a = HmTable::tiered();
        let mut b = a.clone();
        assert_eq!(a.digest(), b.digest());
        b.max_microreboot += 1;
        assert_ne!(a.digest(), b.digest());
        let mut c = a.clone();
        c.name.push('x');
        assert_ne!(a.digest(), c.digest());
        assert_ne!(
            HmTable::tiered().digest(),
            HmTable::reexecute_only().digest()
        );
    }
}
