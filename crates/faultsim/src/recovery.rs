//! Recovery tier primitives — completing the paper's §VI sketch and
//! extending it with a ReHype-style hypervisor microreboot.
//!
//! The paper measures the *cost* of recovery (copy 1,900 ns, re-execute)
//! but leaves the mechanism as future work. This module provides the
//! mechanisms the [`crate::policy`] health-monitor ladder drives:
//!
//! * [`detect_fault`] — run the faulted handler in detection mode and
//!   capture the platform at the moment of detection;
//! * [`attempt_recovery`] — the `ReExecute` tier: restore the
//!   critical-state copy taken at the VM exit and re-initiate the
//!   hypervisor execution;
//! * [`microreboot_recovery`] — the `Microreboot` tier: restore the
//!   critical copy, then reboot the hypervisor in place from the boot
//!   image ([`xen_like::Platform::microreboot`]), losing the in-flight
//!   exit but healing corruption *outside* the critical copy;
//! * [`recover_with_policy`] — detection plus the full escalation
//!   ladder for one injection, under a given [`HmTable`].

use crate::fork::{fork_of, recycle};
use crate::injection::{judge_guest, run_faulted, shim_for, InjectionPoint, InjectionSpec};
use crate::policy::{
    run_ladder, EscalationStep, HmTable, RecoveryAction, RecoveryOutcome, TierResult,
};
use serde::{Deserialize, Serialize};
use sim_machine::cpu::FlipTarget;
use sim_machine::{CpuId, Machine, PerfCounters, PTE_PRESENT, PTE_RW};
use xen_like::layout as lay;
use xen_like::{ActivationOutcome, MicrorebootReport, Platform, MICROREBOOT_PRIVATE_REGIONS};
use xentry::{CriticalState, Technique, VmTransitionDetector, Xentry, XentryConfig};

/// The recovery campaign's fault model. The paper's §V-B architectural
/// register flips are joined by bit flips in hypervisor-private memory
/// words: the critical-state copy restores registers and per-VCPU state
/// on re-execution, but corruption that already sits in
/// hypervisor-private memory survives the copy — that latent class is
/// exactly what motivates the microreboot tier, which reinitializes
/// those regions from the boot image.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum RecoverySpec {
    /// Single architectural register bit flip (the paper's model).
    Reg(InjectionSpec),
    /// Bit flip in hypervisor-private memory: word `word` (modulo the
    /// region length) of `MICROREBOOT_PRIVATE_REGIONS[region]`, applied
    /// after `at_step` retired host instructions.
    HvMem {
        region: u8,
        word: u16,
        bit: u8,
        at_step: u64,
    },
    /// Spatial multi-bit burst: several flips at a fixed stride from one
    /// strike point — the beyond-ECC upset pattern of adjacent cells.
    Burst(BurstSpec),
    /// Page-table-entry corruption: present/RW/frame-bit flips in a
    /// domain's `hv.ptbl` entries, surfacing as faults on the next walk.
    Pte(PteSpec),
    /// Performance-counter corruption: a strike in the PMU state the
    /// VM-transition detector itself consumes.
    Pmc(PmcSpec),
}

/// Where a spatial burst lands.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum BurstSite {
    /// Flips within one architectural register (bit indexes wrap mod 64:
    /// a register has no adjacent word to spill into).
    Reg(FlipTarget),
    /// Flips anchored at a hypervisor-private memory word. Bit indexes
    /// past 63 spill into the *adjacent word* (wrapping within the
    /// region) — the physically contiguous layout of DRAM rows, and the
    /// case a single-word read-modify-write would silently alias.
    HvMem { region: u8, word: u16 },
}

/// A contiguous or stride-patterned multi-bit burst.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BurstSpec {
    pub site: BurstSite,
    /// First flipped bit position.
    pub start_bit: u8,
    /// Number of flips (campaign envelope: 2..=4).
    pub width: u8,
    /// Bit-position distance between consecutive flips (envelope: 1..=3).
    pub stride: u8,
    pub at_step: u64,
}

impl BurstSpec {
    /// Absolute bit offsets of every flip, relative to the strike point.
    pub fn bit_offsets(&self) -> impl Iterator<Item = u64> + '_ {
        (0..self.width.max(1) as u64).map(|i| self.start_bit as u64 + i * self.stride as u64)
    }
}

/// Which PTE field a page-table strike corrupts.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum PteField {
    /// Flip the present bit: the next walk of the page faults.
    Present,
    /// Flip the RW bit: writes to the page fault, reads survive.
    Rw,
    /// Flip a frame-address bit: accesses silently redirect (or fault on
    /// an unmapped frame) — the silent-corruption corner of the model.
    Addr,
}

/// One page-table-entry strike.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PteSpec {
    /// Victim domain (modulo the layout's domain count).
    pub dom: u8,
    /// Victim page within the domain's table (modulo pages per domain).
    pub page: u16,
    pub field: PteField,
    /// Frame-bit offset for [`PteField::Addr`] strikes (ignored for the
    /// permission fields, which are single fixed bits).
    pub bit: u8,
    pub at_step: u64,
}

impl PteSpec {
    /// The PTE word's simulated-physical address.
    pub fn pte_addr(&self) -> u64 {
        let dom = self.dom as usize % lay::MAX_DOMS;
        lay::ptbl_addr(dom) + (self.page as u64 % lay::ptbl::PAGES_PER_DOM) * 8
    }

    /// The XOR mask the strike applies to the PTE word.
    pub fn mask(&self) -> u64 {
        match self.field {
            PteField::Present => PTE_PRESENT,
            PteField::Rw => PTE_RW,
            // Frame bits 12..40: low enough to stay inside the frame mask,
            // high enough to move the translation by at least a page.
            PteField::Addr => 1u64 << (12 + self.bit % 28),
        }
    }
}

/// One performance-counter strike.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PmcSpec {
    /// Which of the four Table-I counters (modulo 4).
    pub counter: u8,
    pub bit: u8,
    pub at_step: u64,
}

impl RecoverySpec {
    /// Host-instruction offset at which the flip lands.
    pub fn at_step(&self) -> u64 {
        match *self {
            RecoverySpec::Reg(s) => s.at_step,
            RecoverySpec::HvMem { at_step, .. } => at_step,
            RecoverySpec::Burst(b) => b.at_step,
            RecoverySpec::Pte(p) => p.at_step,
            RecoverySpec::Pmc(p) => p.at_step,
        }
    }

    /// Fault-model class label for reports.
    pub fn class(&self) -> &'static str {
        match self {
            RecoverySpec::Reg(_) => "reg",
            RecoverySpec::HvMem { .. } => "hv-mem",
            RecoverySpec::Burst(_) => "burst",
            RecoverySpec::Pte(_) => "pte",
            RecoverySpec::Pmc(_) => "pmc",
        }
    }

    /// Target label for the vulnerability map: the register, region, PTE
    /// field or counter the strike lands in.
    pub fn target_label(&self) -> String {
        let region_name =
            |r: u8| MICROREBOOT_PRIVATE_REGIONS[r as usize % MICROREBOOT_PRIVATE_REGIONS.len()];
        match self {
            RecoverySpec::Reg(s) => s.target.name(),
            RecoverySpec::HvMem { region, .. } => region_name(*region).to_string(),
            RecoverySpec::Burst(b) => match b.site {
                BurstSite::Reg(t) => t.name(),
                BurstSite::HvMem { region, .. } => region_name(region).to_string(),
            },
            RecoverySpec::Pte(p) => match p.field {
                PteField::Present => "pte.present".to_string(),
                PteField::Rw => "pte.rw".to_string(),
                PteField::Addr => "pte.addr".to_string(),
            },
            RecoverySpec::Pmc(p) => PerfCounters::counter_name(p.counter).to_string(),
        }
    }

    /// Primary bit position for the vulnerability map: the struck bit, or
    /// for compound strikes the first one.
    pub fn bit(&self) -> u8 {
        match *self {
            RecoverySpec::Reg(s) => s.bit & 63,
            RecoverySpec::HvMem { bit, .. } => bit & 63,
            RecoverySpec::Burst(b) => b.start_bit & 63,
            RecoverySpec::Pte(p) => p.mask().trailing_zeros() as u8,
            RecoverySpec::Pmc(p) => p.bit & 63,
        }
    }

    /// Apply the flip to the running machine (the injection hook body).
    pub fn apply(&self, m: &mut Machine, cpu: CpuId) {
        // poke is privileged: region write permissions are the guest/host
        // boundary, not a shield against particle hits.
        let poke_xor = |m: &mut Machine, addr: u64, mask: u64| {
            let cur = m.mem.peek(addr).expect("struck word mapped");
            m.mem.poke(addr, cur ^ mask).expect("struck word mapped");
        };
        match *self {
            RecoverySpec::Reg(s) => m.cpu_mut(cpu).flip_bit(s.target, s.bit),
            RecoverySpec::HvMem {
                region, word, bit, ..
            } => {
                let name = MICROREBOOT_PRIVATE_REGIONS
                    [region as usize % MICROREBOOT_PRIVATE_REGIONS.len()];
                let r = m.mem.region_by_name(name).expect("private region mapped");
                let idx = word as usize % r.len_words();
                let addr = r.base + idx as u64 * 8;
                poke_xor(m, addr, 1u64 << (bit & 63));
            }
            RecoverySpec::Burst(b) => match b.site {
                BurstSite::Reg(target) => {
                    for off in b.bit_offsets() {
                        m.cpu_mut(cpu).flip_bit(target, (off % 64) as u8);
                    }
                }
                BurstSite::HvMem { region, word } => {
                    let name = MICROREBOOT_PRIVATE_REGIONS
                        [region as usize % MICROREBOOT_PRIVATE_REGIONS.len()];
                    let r = m.mem.region_by_name(name).expect("private region mapped");
                    let (base, len) = (r.base, r.len_words());
                    let idx = word as usize % len;
                    for off in b.bit_offsets() {
                        // Word-spill: a bit index past 63 lands in the
                        // adjacent word, wrapping within the region — one
                        // read-modify-write per struck word, never aliased
                        // into the anchor word.
                        let widx = (idx + (off / 64) as usize) % len;
                        poke_xor(m, base + widx as u64 * 8, 1u64 << (off % 64));
                    }
                }
            },
            RecoverySpec::Pte(p) => poke_xor(m, p.pte_addr(), p.mask()),
            RecoverySpec::Pmc(p) => m.cpu_mut(cpu).perf.corrupt(p.counter, p.bit),
        }
    }
}

/// A fault that was detected before VM entry: the faulted platform at
/// the moment of detection plus the critical-state copy taken at the VM
/// exit (before the fault), i.e. everything a recovery tier needs.
#[derive(Debug, Clone)]
pub struct DetectedFault {
    /// Platform state at the moment the detection fired (corrupted).
    pub plat: Platform,
    /// Critical-state copy captured at the VM exit, pre-fault.
    pub snapshot: CriticalState,
    /// Which detection technique fired.
    pub technique: Technique,
    /// CPU the fault was injected on.
    pub cpu: usize,
    /// The fault itself (the `Ignore` tier replays it).
    pub spec: RecoverySpec,
}

/// Inject `spec` into the activation at `point` with detection enabled.
/// `None` when the fault is not detected within the activation (it may
/// be benign or a latent SDC — recovery never triggers either way).
pub fn detect_fault(
    point: &InjectionPoint,
    spec: RecoverySpec,
    detector: Option<&VmTransitionDetector>,
) -> Option<DetectedFault> {
    // Detection mode: a positive verdict stops the activation.
    let mut shim = Xentry::new(XentryConfig::detection(), detector.cloned());
    let (f, outcome) = run_faulted(point, &mut shim, spec.at_step(), |m, c| spec.apply(m, c));
    let technique = match outcome {
        // Undetected, or hung with no detection signal to act on.
        ActivationOutcome::Resumed | ActivationOutcome::WentIdle | ActivationOutcome::Hung => {
            recycle(f);
            return None;
        }
        ActivationOutcome::HostException(_) => Technique::HwException,
        ActivationOutcome::AssertFailed(_) => Technique::SwAssertion,
        ActivationOutcome::Flagged => Technique::VmTransition,
    };
    Some(DetectedFault {
        plat: f,
        // The shim's recovery support: the critical copy taken at the VM
        // exit. The fork started as the point's VM-exit state, so that is
        // where the copy is read from, and only for faults that need it.
        snapshot: CriticalState::capture(&point.at_exit.machine, point.cpu),
        technique,
        cpu: point.cpu,
        spec,
    })
}

/// The `Ignore` tier: no recovery action. The detection is logged and
/// the system runs its course — realized by replaying the injection in
/// continue-after-positive mode (the activation the detection would have
/// stopped completes, fault and all) and judging what the guest
/// converges to. This is the detection-without-recovery baseline every
/// recovery policy is measured against.
pub fn ignore_recovery(fault: &DetectedFault, point: &InjectionPoint) -> TierResult {
    let spec = fault.spec;
    let (mut f, outcome) = run_faulted(point, &mut shim_for(None), spec.at_step(), |m, c| {
        spec.apply(m, c)
    });
    let result = if outcome.is_healthy() {
        judge_guest(point, &mut f, &mut shim_for(None), 1)
    } else {
        TierResult::HypervisorDead
    };
    recycle(f);
    result
}

/// The `ReExecute` tier (the paper's §VI sketch): restore the critical
/// copy and re-run the faulted handler from the VM exit. Returns the
/// tier result plus the simulated cycles the attempt cost (handler
/// re-execution; the restore copy itself is the paper's 1,900 ns).
pub fn attempt_recovery(
    fault: &DetectedFault,
    point: &InjectionPoint,
    attempt: u32,
) -> (TierResult, u64) {
    let cpu = fault.cpu;
    let mut f = fork_of(&fault.plat);
    fault.snapshot.restore(&mut f.machine);
    let result = reservice(&mut f, cpu, point, attempt);
    recycle(f);
    result
}

/// What both restoring tiers end with: service the pending VM exit again
/// on the restored platform `f`, and if the handler completes, judge the
/// guest. Returns the tier result and the handler's cycles.
fn reservice(
    f: &mut Platform,
    cpu: CpuId,
    point: &InjectionPoint,
    attempt: u32,
) -> (TierResult, u64) {
    let mut clean = shim_for(None);
    let act = f.run_handler(cpu, point.meta.reason, 0, &mut clean);
    // The re-execution draws fresh workload randomness, so a word-for-word
    // state diff would be over-strict: the guest judge decides, its
    // catch-up window widened on retries.
    let result = if act.outcome.is_healthy() {
        judge_guest(point, f, &mut clean, attempt as u64)
    } else {
        TierResult::HypervisorDead
    };
    (result, act.handler_cycles)
}

/// The `Microreboot` tier, ReHype's sequence: reinitialize
/// hypervisor-private state from the boot image
/// ([`xen_like::Platform::microreboot_restore`]), then restore the
/// critical copy — which re-positions the CPU at the pending VM exit —
/// and re-service that exit on the healed hypervisor. The guest never
/// observes a dropped exit; what the reboot costs is the discarded
/// private state (the report's accounting) plus the reboot scan and the
/// handler re-execution cycles.
pub fn microreboot_recovery(
    fault: &DetectedFault,
    point: &InjectionPoint,
    attempt: u32,
) -> (TierResult, MicrorebootReport) {
    let cpu = fault.cpu;
    let mut f = fork_of(&fault.plat);
    // Order matters: the reboot wipes hv.pcpu to its boot image; the
    // critical copy then rebuilds the pending exit's context on top.
    let mut report = f.microreboot_restore(cpu);
    fault.snapshot.restore(&mut f.machine);
    let (result, cycles) = reservice(&mut f, cpu, point, attempt);
    recycle(f);
    report.cycles += cycles;
    (result, report)
}

/// Full recovery record for one detected injection under one policy.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PolicyRecovery {
    /// Detection technique that triggered the ladder.
    pub technique: Technique,
    /// Final verdict of the escalation ladder.
    pub outcome: RecoveryOutcome,
    /// Audit trail: every tier attempt the ladder took.
    pub steps: Vec<EscalationStep>,
    /// Simulated cycles spent in `ReExecute` attempts.
    pub reexec_cycles: u64,
    /// Simulated cycles spent in `Microreboot` attempts.
    pub microreboot_cycles: u64,
    /// Hypervisor-private words discarded by the last microreboot (0 if
    /// the reboot tier never ran).
    pub words_lost: usize,
}

/// Inject one fault and, if detected, drive it through `table`'s
/// escalation ladder. `None` when the fault was not detected (recovery
/// never triggers).
pub fn recover_with_policy(
    point: &InjectionPoint,
    spec: RecoverySpec,
    detector: Option<&VmTransitionDetector>,
    table: &HmTable,
) -> Option<PolicyRecovery> {
    let fault = detect_fault(point, spec, detector)?;
    let recovery = recover_detected(&fault, point, table);
    recycle(fault.plat);
    Some(recovery)
}

/// Drive an already-detected fault through `table`'s escalation ladder.
/// Detection is policy-independent, so campaigns comparing several
/// tables detect once and call this per table.
pub fn recover_detected(
    fault: &DetectedFault,
    point: &InjectionPoint,
    table: &HmTable,
) -> PolicyRecovery {
    let mut reexec_cycles = 0u64;
    let mut microreboot_cycles = 0u64;
    let mut words_lost = 0usize;
    let (outcome, steps) = run_ladder(
        table,
        fault.technique,
        None,
        |action, attempt| match action {
            RecoveryAction::ReExecute => {
                let (r, cycles) = attempt_recovery(fault, point, attempt);
                reexec_cycles += cycles;
                r
            }
            RecoveryAction::Microreboot => {
                let (r, report) = microreboot_recovery(fault, point, attempt);
                microreboot_cycles += report.cycles;
                words_lost = report.words_lost;
                r
            }
            RecoveryAction::Ignore => ignore_recovery(fault, point),
            RecoveryAction::Halt => unreachable!("halt never calls try_tier"),
        },
    );
    PolicyRecovery {
        technique: fault.technique,
        outcome,
        steps,
        reexec_cycles,
        microreboot_cycles,
        words_lost,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::CampaignConfig;
    use crate::injection::prepare_point;
    use guest_sim::Benchmark;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;
    use sim_machine::cpu::FlipTarget;

    fn prepared_point(seed: u64, warm: usize) -> InjectionPoint {
        let cfg = CampaignConfig::paper(Benchmark::Freqmine, 1, seed);
        let mut plat = crate::campaign::campaign_platform(&cfg, seed);
        let mut shim = Xentry::collector();
        plat.boot(1, &mut shim);
        for _ in 0..warm {
            plat.run_activation(1, &mut shim);
        }
        let (reason, _) = plat.run_to_exit(1);
        prepare_point(plat, 1, 1, reason, 6, None).unwrap()
    }

    #[test]
    fn detected_faults_mostly_recover_via_reexecute() {
        let point = prepared_point(5, 40);
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let targets = FlipTarget::all();
        let table = HmTable::reexecute_only();
        let (mut attempted, mut recovered) = (0usize, 0usize);
        for _ in 0..150 {
            let spec = RecoverySpec::Reg(InjectionSpec {
                target: targets[rng.gen_range(0..targets.len())],
                bit: rng.gen_range(0..64),
                at_step: rng.gen_range(0..point.meta.golden_len.max(1)),
            });
            if let Some(rec) = recover_with_policy(&point, spec, None, &table) {
                attempted += 1;
                if matches!(rec.outcome, RecoveryOutcome::Recovered { .. }) {
                    recovered += 1;
                }
                assert!(rec.steps.len() <= table.max_attempts() as usize);
            }
        }
        assert!(attempted > 20, "too few detections: {attempted}");
        assert!(
            recovered as f64 / attempted as f64 > 0.85,
            "critical-state recovery should survive most transient faults: \
             {recovered}/{attempted}"
        );
    }

    #[test]
    fn recovery_of_specific_detected_fault_converges() {
        let point = prepared_point(5, 40);
        // A guaranteed-detected fault: high RIP bit.
        let spec = RecoverySpec::Reg(InjectionSpec {
            target: FlipTarget::Rip,
            bit: 42,
            at_step: point.meta.golden_len / 2,
        });
        let fault = detect_fault(&point, spec, None).expect("high RIP bit is always detected");
        assert_eq!(fault.technique, Technique::HwException);
        let (tier, _cycles) = attempt_recovery(&fault, &point, 1);
        assert_eq!(tier, TierResult::Converged);
        // The same fault through the tiered ladder closes at ReExecute.
        let rec = recover_with_policy(&point, spec, None, &HmTable::tiered()).unwrap();
        assert_eq!(
            rec.outcome,
            RecoveryOutcome::Recovered {
                tier: RecoveryAction::ReExecute
            }
        );
        assert_eq!(rec.microreboot_cycles, 0);
    }

    #[test]
    fn microreboot_tier_recovers_a_detected_fault() {
        let point = prepared_point(5, 40);
        let spec = RecoverySpec::Reg(InjectionSpec {
            target: FlipTarget::Rip,
            bit: 42,
            at_step: point.meta.golden_len / 2,
        });
        let fault = detect_fault(&point, spec, None).unwrap();
        let (tier, report) = microreboot_recovery(&fault, &point, 1);
        assert_eq!(tier, TierResult::Converged, "report: {report:?}");
        assert!(report.cycles >= xen_like::MICROREBOOT_BASE_CYCLES);
        assert_eq!(report.cpu, 1);
    }

    #[test]
    fn hv_mem_fault_defeats_reexecute_but_not_microreboot() {
        let point = prepared_point(5, 40);
        // Flip a high bit of this exit's dispatch-table entry: the stub's
        // indirect jump goes wild — detected as a hardware exception. The
        // corrupted entry is hypervisor-private memory, outside the
        // critical-state copy, so every re-execution crashes the same way;
        // only the microreboot's boot-image restore heals it.
        let spec = RecoverySpec::HvMem {
            region: 2, // hv.dispatch
            word: point.meta.reason.vmer(),
            bit: 20,
            at_step: 0,
        };
        let fault = detect_fault(&point, spec, None).expect("wild dispatch entry detected");
        assert_eq!(fault.technique, Technique::HwException);
        let (tier, _cycles) = attempt_recovery(&fault, &point, 1);
        assert_ne!(
            tier,
            TierResult::Converged,
            "the critical copy must not heal private memory"
        );
        let rec = recover_detected(&fault, &point, &HmTable::reexecute_only());
        assert_eq!(rec.outcome, RecoveryOutcome::FailedRecovery);
        assert_eq!(rec.microreboot_cycles, 0, "reexec-only never reboots");
        let rec = recover_detected(&fault, &point, &HmTable::tiered());
        assert_eq!(
            rec.outcome,
            RecoveryOutcome::Recovered {
                tier: RecoveryAction::Microreboot
            }
        );
        assert!(rec.words_lost > 0);
    }

    #[test]
    fn cross_word_burst_spills_and_microreboot_heals_every_word() {
        // Regression: the recovery path once modeled every memory strike
        // as a single read-modify-write of one word, which would alias a
        // multi-word burst into its anchor word. A burst anchored at bit
        // 62 with stride 2 reaches offsets {62, 64, 66} — bit 62 of the
        // pending exit's dispatch entry plus bits 0 and 2 of the *next*
        // entry — and must corrupt both words.
        let point = prepared_point(5, 40);
        let vmer = point.meta.reason.vmer();
        let spec = RecoverySpec::Burst(BurstSpec {
            site: BurstSite::HvMem {
                region: 2, // hv.dispatch
                word: vmer,
            },
            start_bit: 62,
            width: 3,
            stride: 2,
            at_step: 0,
        });
        let before = point
            .at_exit
            .machine
            .mem
            .region_words("hv.dispatch")
            .unwrap();
        let mut m = point.at_exit.machine.clone();
        spec.apply(&mut m, point.cpu);
        let after = m.mem.region_words("hv.dispatch").unwrap();
        let changed: Vec<usize> = (0..before.len())
            .filter(|&i| before[i] != after[i])
            .collect();
        assert_eq!(
            changed,
            vec![vmer as usize, vmer as usize + 1],
            "burst must spill into the adjacent dispatch word"
        );
        // Bit 62 of the anchor entry sends the stub's indirect jump wild:
        // detected, and latent in private memory, so re-execution keeps
        // crashing; only the microreboot's boot-image restore — which
        // rewrites *every* private word, not just the anchor — converges.
        let fault = detect_fault(&point, spec, None).expect("wild dispatch entry detected");
        let (tier, _cycles) = attempt_recovery(&fault, &point, 1);
        assert_ne!(tier, TierResult::Converged);
        let rec = recover_detected(&fault, &point, &HmTable::reexecute_only());
        assert_eq!(rec.outcome, RecoveryOutcome::FailedRecovery);
        let rec = recover_detected(&fault, &point, &HmTable::tiered());
        assert_eq!(
            rec.outcome,
            RecoveryOutcome::Recovered {
                tier: RecoveryAction::Microreboot
            }
        );
    }

    #[test]
    fn pte_strike_defeats_reexecute_but_not_microreboot() {
        // Present-bit strikes on the observed DomU's page tables: any
        // page the handler itself touches (trap reflection, console and
        // time staging write guest data through the walker) faults
        // in-handler. hv.ptbl is outside the critical-state copy, so
        // re-execution hits the same missing page forever; the microreboot
        // restores the identity PTEs from the boot image.
        //
        // warm=30 parks the point at a hypercall whose handler stages data
        // into the guest (page 1 of dom 1's table is on its walk path).
        let point = prepared_point(5, 30);
        let mut detected = 0usize;
        for page in 0..lay::ptbl::PAGES_PER_DOM as u16 {
            let spec = RecoverySpec::Pte(PteSpec {
                dom: 1,
                page,
                field: PteField::Present,
                bit: 0,
                at_step: 0,
            });
            let Some(fault) = detect_fault(&point, spec, None) else {
                continue;
            };
            detected += 1;
            assert_eq!(fault.technique, Technique::HwException);
            let (tier, _cycles) = attempt_recovery(&fault, &point, 1);
            assert_ne!(tier, TierResult::Converged, "page {page}");
            let rec = recover_detected(&fault, &point, &HmTable::tiered());
            assert_eq!(
                rec.outcome,
                RecoveryOutcome::Recovered {
                    tier: RecoveryAction::Microreboot
                },
                "page {page}"
            );
        }
        assert!(
            detected > 0,
            "some handler-touched page must turn a PTE strike into an in-handler fault"
        );
    }

    #[test]
    fn pmc_strike_is_invisible_without_the_detector() {
        // PMU state is excluded from golden differencing and raises no
        // exception: with no deployed detector a counter strike is
        // architecturally invisible — the motivation for flagging clean
        // diffs when the VM-transition detector *is* deployed.
        let point = prepared_point(5, 40);
        let spec = RecoverySpec::Pmc(PmcSpec {
            counter: 1,
            bit: 40,
            at_step: point.meta.golden_len / 2,
        });
        let mut m = point.at_exit.machine.clone();
        let before = m.cpu(point.cpu).perf.clone();
        spec.apply(&mut m, point.cpu);
        assert_ne!(m.cpu(point.cpu).perf, before, "the strike does land");
        assert!(detect_fault(&point, spec, None).is_none());
        let (outcome, _features) = crate::injection::inject_spec(&point, &spec, None);
        assert_eq!(outcome, crate::outcome::FaultOutcome::Benign);
    }
}
