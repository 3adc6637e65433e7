//! Single-fault injection execution (the paper's §V-B fault model).
//!
//! "We currently use the single bit-flip fault model in the architectural
//! register state, including general purpose registers, instruction and
//! stack pointers and flags. ... On each fault injection run, only one
//! fault is injected. After a fault is injected, we allow the simulation to
//! continue to observe if it can be detected."
//!
//! One injection proceeds like the paper's Simics workflow:
//!
//! 1. snapshot the platform at a VM exit;
//! 2. run the handler fault-free (the *golden* run) to get the reference
//!    state at VM entry, the execution's length and its feature vector;
//! 3. restore, run the handler again flipping one register bit after a
//!    chosen number of dynamic instructions, with the Xentry shim attached;
//! 4. compare against the golden state; if the fault propagated past VM
//!    entry, run forward windows of both machines to classify the
//!    consequence (APP SDC / APP crash / one-VM / all-VM).

use crate::fork::{fork_of, recycle};
use crate::golden::{diff_machines, DiffSite, StateDiff};
use crate::outcome::{Consequence, FaultOutcome, UndetectedCategory};
use crate::recovery::RecoverySpec;
use guest_sim::guest_addrs;
use sim_machine::cpu::FlipTarget;
use sim_machine::{CpuId, ExitReason, Machine};
use xen_like::{ActivationOutcome, Platform};
use xentry::{FeatureVec, Xentry, XentryConfig};

/// One fault to inject.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct InjectionSpec {
    pub target: FlipTarget,
    pub bit: u8,
    /// Host-mode dynamic instruction offset within the handler at which the
    /// flip occurs.
    pub at_step: u64,
}

/// A reusable injection point: the platform frozen at a VM exit, plus the
/// golden reference runs. Only the *observables* of the golden post window
/// are kept (burst count, checksum, trap count) — not the post-window
/// platform itself, which would triple the memory held per point for state
/// the consequence classifier never word-compares.
#[derive(Debug, Clone)]
pub struct InjectionPoint {
    /// Platform state at the VM exit (host entry, VMCS filled).
    pub at_exit: Platform,
    pub cpu: CpuId,
    pub reason: ExitReason,
    /// Golden platform state at the matching VM entry.
    pub golden_entry: Platform,
    /// Dynamic length of the fault-free handler execution.
    pub golden_len: u64,
    /// Fault-free feature vector.
    pub golden_features: FeatureVec,
    /// Benchmark-guest burst count `post_window` activations past VM entry
    /// in the golden run (alignment target for consequence runs).
    pub golden_post_bursts: u64,
    /// Benchmark-guest checksum at that burst count.
    pub golden_post_result: u64,
    /// Guest trap count in the golden post state.
    pub golden_post_traps: u64,
    /// Observed guest domain.
    pub dom: usize,
    /// Activations in the post window.
    pub post_window: usize,
}

impl InjectionPoint {
    /// Done with the point: its two platforms become the next forks.
    pub(crate) fn recycle(self) {
        recycle(self.at_exit);
        recycle(self.golden_entry);
    }
}

/// Scalar record of one golden injection point, produced once by the
/// campaign's golden pass and replayed by every checkpoint fork. Carrying
/// the golden post-window observables here is what lets the fork skip the
/// post window entirely.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct PointMeta {
    /// Valid-point ordinal along the golden walk (keys the spec schedule).
    pub ordinal: usize,
    pub reason: ExitReason,
    /// Invalid walk iterations skipped immediately before this point; each
    /// has an entry on the golden chain, which the fork steps over.
    pub skipped_before: usize,
    pub golden_len: u64,
    pub golden_features: FeatureVec,
    pub golden_post_bursts: u64,
    pub golden_post_result: u64,
    pub golden_post_traps: u64,
}

/// Outcome of one injection, with everything the campaign aggregates.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct InjectionRecord {
    pub vmer: u16,
    pub target: FlipTarget,
    pub bit: u8,
    pub at_step: u64,
    pub outcome: FaultOutcome,
    /// Faulty-run features, when the handler reached VM entry.
    pub features: Option<FeatureVec>,
    /// Golden features of the same execution.
    pub golden_features: FeatureVec,
}

fn shim_for(detector: Option<&xentry::VmTransitionDetector>) -> Xentry {
    // continue_after_positive keeps golden/faulty cycle charging identical
    // and lets us inspect the post-entry propagation even for detected
    // faults (needed to know the would-be consequence for Fig. 9).
    let mut shim = Xentry::new(XentryConfig::overhead(), detector.cloned());
    shim.keep_trace = false;
    shim
}

/// The golden run at one VM exit, on `plat` itself (positioned right after
/// [`Platform::run_to_exit`] returned `reason`): the fault-free handler,
/// `at_entry` on the platform at the matching VM entry, then the post
/// window and its observables. The campaign's golden pass runs it on each
/// hand-off snapshot and keeps only the scalars; [`prepare_point`] runs it
/// on a fork and keeps the VM-entry state too.
///
/// Returns `None` if the golden run itself does not complete healthily
/// (cannot happen in practice; defensive). The meta's walk position
/// (`ordinal`, `skipped_before`) is for the caller to fill in.
pub(crate) fn golden_run(
    plat: &mut Platform,
    cpu: CpuId,
    dom: usize,
    reason: ExitReason,
    post_window: usize,
    detector: Option<&xentry::VmTransitionDetector>,
    at_entry: impl FnOnce(&Platform),
) -> Option<PointMeta> {
    let mut shim = shim_for(detector);
    let act = plat.run_handler(cpu, reason, 0, &mut shim);
    if !act.outcome.is_healthy() {
        return None;
    }
    let golden_features = shim.last_features()?;
    at_entry(plat);
    // Forward window for consequence reference.
    for _ in 0..post_window {
        let a = plat.run_activation(cpu, &mut shim);
        if !a.outcome.is_healthy() {
            return None;
        }
    }
    let ga = guest_addrs(dom);
    Some(PointMeta {
        ordinal: 0,
        reason,
        skipped_before: 0,
        golden_len: act.handler_insns,
        golden_features,
        golden_post_bursts: plat.machine.mem.peek(ga.iter_count).ok()?,
        golden_post_result: plat.machine.mem.peek(ga.result).ok()?,
        golden_post_traps: plat.machine.mem.peek(ga.trap_count).ok()?,
    })
}

/// Prepare an injection point from a platform positioned at a VM exit
/// (i.e. right after [`Platform::run_to_exit`] returned `reason`):
/// the golden run (the body the campaign's golden pass runs in place) on a
/// fork of it, keeping the VM-entry state.
///
/// Returns `None` if the golden run itself does not complete healthily
/// (cannot happen in practice; defensive).
pub fn prepare_point(
    at_exit: Platform,
    cpu: CpuId,
    dom: usize,
    reason: ExitReason,
    post_window: usize,
    detector: Option<&xentry::VmTransitionDetector>,
) -> Option<InjectionPoint> {
    let mut golden = fork_of(&at_exit);
    let mut golden_entry = None;
    let meta = golden_run(
        &mut golden,
        cpu,
        dom,
        reason,
        post_window,
        detector,
        |entry| golden_entry = Some(fork_of(entry)),
    );
    recycle(golden);
    let meta = meta?;
    Some(InjectionPoint {
        at_exit,
        cpu,
        reason,
        golden_entry: golden_entry.expect("a completed golden run passed VM entry"),
        golden_len: meta.golden_len,
        golden_features: meta.golden_features,
        golden_post_bursts: meta.golden_post_bursts,
        golden_post_result: meta.golden_post_result,
        golden_post_traps: meta.golden_post_traps,
        dom,
        post_window,
    })
}

/// Rebuild an injection point from a checkpoint-forked platform positioned
/// at the same VM exit the golden pass recorded as `meta`. Re-runs only the
/// golden *handler* (needed for the entry-state reference); the post-window
/// observables come from `meta`, so the fork skips `post_window`
/// activations per point — the bulk of [`prepare_point`]'s cost.
///
/// # Panics
/// If the replayed handler diverges from the golden pass (wrong health,
/// length or features). The platform is deterministic, so divergence means
/// the fork was started from the wrong state — never continue silently.
pub fn prepare_point_forked(
    at_exit: Platform,
    cpu: CpuId,
    dom: usize,
    post_window: usize,
    meta: &PointMeta,
    detector: Option<&xentry::VmTransitionDetector>,
) -> InjectionPoint {
    let mut golden = fork_of(&at_exit);
    let mut shim = shim_for(detector);
    let act = golden.run_handler(cpu, meta.reason, 0, &mut shim);
    assert!(
        act.outcome.is_healthy(),
        "forked golden handler died at point {}: {:?}",
        meta.ordinal,
        act.outcome
    );
    assert_eq!(
        act.handler_insns, meta.golden_len,
        "forked golden handler length diverged at point {}",
        meta.ordinal
    );
    let golden_features = shim.last_features().expect("golden features collected");
    assert_eq!(
        golden_features, meta.golden_features,
        "forked golden features diverged at point {}",
        meta.ordinal
    );
    InjectionPoint {
        at_exit,
        cpu,
        reason: meta.reason,
        golden_entry: golden,
        golden_len: meta.golden_len,
        golden_features,
        golden_post_bursts: meta.golden_post_bursts,
        golden_post_result: meta.golden_post_result,
        golden_post_traps: meta.golden_post_traps,
        dom,
        post_window,
    }
}

/// Consequence classification by running `f`, a fork of the faulty machine
/// at VM entry, forward until the benchmark guest reaches the golden burst
/// count (or dies / stalls). `None` means the divergence washed out
/// completely (masked after entry).
fn classify_consequence(
    point: &InjectionPoint,
    f: &mut Platform,
    entry_diff: &StateDiff,
    shim: &mut Xentry,
    nr_doms: usize,
) -> Option<Consequence> {
    let cpu = point.cpu;
    let ga = guest_addrs(point.dom);
    // Budget: generous multiple of the golden window.
    let budget = (point.post_window * 4).max(8);
    let mut died = false;
    for _ in 0..budget {
        let bursts = f.machine.mem.peek(ga.iter_count).unwrap_or(0);
        if bursts >= point.golden_post_bursts {
            break;
        }
        let a = f.run_activation(cpu, shim);
        if !a.outcome.is_healthy() {
            died = true;
            break;
        }
    }
    if died {
        // The hypervisor itself crashed after the guest resumed: every VM
        // on the host is gone.
        return Some(Consequence::AllVmFailure);
    }
    let bursts = f.machine.mem.peek(ga.iter_count).unwrap_or(0);
    if bursts < point.golden_post_bursts {
        // The benchmark VM stopped making progress.
        return Some(Consequence::OneVmFailure);
    }
    let traps = f.machine.mem.peek(ga.trap_count).unwrap_or(0);
    if traps > point.golden_post_traps {
        // The guest took unexpected traps: the application crashed.
        return Some(Consequence::AppCrash);
    }
    if f.machine.mem.peek(ga.result).unwrap_or(0) != point.golden_post_result {
        // Application finished its bursts with a wrong checksum: SDC.
        return Some(Consequence::AppSdc);
    }
    // Structural invariants (pointers, descriptors, dispatch table) can be
    // compared even though the two machines are not activation-aligned —
    // those words are constant during normal operation, so the golden entry
    // state is as valid a reference as any later golden state; volatile
    // accounting counters cannot, so the classification relies on
    // observables plus this check.
    if crate::golden::structural_corruption(&point.golden_entry.machine, &f.machine, nr_doms) {
        return Some(Consequence::AllVmFailure);
    }
    // Entry-aligned evidence: wrong bytes already reached a device, or the
    // only corruption was guest-visible time.
    if entry_diff.any_site(&[DiffSite::Device]) {
        return Some(Consequence::AppSdc);
    }
    if entry_diff.sites.iter().all(|s| {
        matches!(
            s,
            DiffSite::TimeValue | DiffSite::StackOrSaveArea | DiffSite::Vmcs
        )
    }) && entry_diff.any_site(&[DiffSite::TimeValue])
    {
        // Wrong time values delivered to the guest: silent data corruption
        // in everything that consumes timestamps.
        return Some(Consequence::AppSdc);
    }
    // No observable effect within the window.
    None
}

/// Table-II categorization of an undetected fault.
fn categorize_undetected(
    golden_features: &FeatureVec,
    faulty_features: &FeatureVec,
    diff: &StateDiff,
) -> UndetectedCategory {
    if golden_features.rt != faulty_features.rt
        || golden_features.br != faulty_features.br
        || golden_features.rm != faulty_features.rm
        || golden_features.wm != faulty_features.wm
    {
        // The counter footprint changed: the VM-transition detector had a
        // visible anomaly and still passed it.
        return UndetectedCategory::MisClassified;
    }
    if diff.only_sites(&[DiffSite::TimeValue]) {
        return UndetectedCategory::TimeValues;
    }
    // Time values are staged to guests through register save-area slots
    // (emulated RDTSC writes guest RAX/RDX and the TSC stamp): corruption
    // touching time words plus save-area staging is time-value corruption,
    // the paper's "the hypervisor sends time values to the requesting
    // domains" channel.
    let stacky = [DiffSite::StackOrSaveArea, DiffSite::Vmcs];
    if diff.any_site(&[DiffSite::TimeValue])
        && diff
            .sites
            .iter()
            .all(|s| stacky.contains(s) || *s == DiffSite::TimeValue)
    {
        return UndetectedCategory::TimeValues;
    }
    if diff.sites.iter().all(|s| stacky.contains(s)) && diff.any_site(&stacky) {
        return UndetectedCategory::StackValues;
    }
    UndetectedCategory::OtherValues
}

/// Execute one injection at a prepared point.
pub fn inject(
    point: &InjectionPoint,
    spec: InjectionSpec,
    detector: Option<&xentry::VmTransitionDetector>,
) -> InjectionRecord {
    inject_with_flips(point, &[(spec.target, spec.bit)], spec.at_step, detector)
}

/// Execute one injection applying several simultaneous bit flips — the
/// multi-bit upset model the paper motivates ("uncorrected errors may still
/// occur when the number of errors are beyond the ECC capabilities").
pub fn inject_with_flips(
    point: &InjectionPoint,
    flips: &[(FlipTarget, u8)],
    at_step: u64,
    detector: Option<&xentry::VmTransitionDetector>,
) -> InjectionRecord {
    assert!(!flips.is_empty());
    let spec = InjectionSpec {
        target: flips[0].0,
        bit: flips[0].1,
        at_step,
    };
    let (outcome, features) = inject_core(point, at_step, detector, false, |m, c| {
        for &(target, bit) in flips {
            m.cpu_mut(c).flip_bit(target, bit);
        }
    });
    InjectionRecord {
        vmer: point.reason.vmer(),
        target: spec.target,
        bit: spec.bit,
        at_step: spec.at_step,
        outcome,
        features,
        golden_features: point.golden_features,
    }
}

/// Execute one model fault — any [`RecoverySpec`]: register flip, private
/// memory strike, spatial burst, PTE corruption or PMC corruption — at a
/// prepared point, returning the outcome and the faulty feature vector
/// (present when the handler reached VM entry).
pub fn inject_spec(
    point: &InjectionPoint,
    spec: &RecoverySpec,
    detector: Option<&xentry::VmTransitionDetector>,
) -> (FaultOutcome, Option<FeatureVec>) {
    let s = *spec;
    // PMC corruption lands in PMU state the entry diff deliberately
    // excludes, so a detector flag on an architecturally clean diff is a
    // true detection of the corrupted counter — not a false positive.
    let flag_on_clean_diff = matches!(spec, RecoverySpec::Pmc(_));
    inject_core(
        point,
        spec.at_step(),
        detector,
        flag_on_clean_diff,
        move |m, c| s.apply(m, c),
    )
}

/// Shared execution core of every injection flavour, on a fork of the
/// point's VM exit.
fn inject_core(
    point: &InjectionPoint,
    at_step: u64,
    detector: Option<&xentry::VmTransitionDetector>,
    flag_on_clean_diff: bool,
    apply: impl FnOnce(&mut Machine, CpuId),
) -> (FaultOutcome, Option<FeatureVec>) {
    let mut f = fork_of(&point.at_exit);
    let result = faulty_run(&mut f, point, at_step, detector, flag_on_clean_diff, apply);
    recycle(f);
    result
}

/// Run the handler on `f` (the point's VM exit) with the fault hook
/// attached, diff against the golden entry state, classify the
/// consequence, and give deployed detection its post-window chance.
fn faulty_run(
    f: &mut Platform,
    point: &InjectionPoint,
    at_step: u64,
    detector: Option<&xentry::VmTransitionDetector>,
    flag_on_clean_diff: bool,
    apply: impl FnOnce(&mut Machine, CpuId),
) -> (FaultOutcome, Option<FeatureVec>) {
    let cpu = point.cpu;
    let nr_doms = point.at_exit.topo.domains.len();
    let mut shim = shim_for(detector);
    // The latency clock starts at activation: the flips land after
    // `at_step` retired host instructions.
    shim.injection_mark = Some(f.machine.cpu(cpu).insns_retired + at_step);

    let act = f.run_handler_hooked(cpu, point.reason, 0, &mut shim, Some(at_step), apply);

    let base = |outcome, features| (outcome, features);

    match act.outcome {
        ActivationOutcome::HostException(_)
        | ActivationOutcome::AssertFailed(_)
        | ActivationOutcome::Flagged => {
            // Runtime detection fired before VM entry (short-latency path).
            let d = shim.detections.first().expect("detection recorded");
            return base(
                FaultOutcome::Detected {
                    technique: d.technique,
                    latency: d.latency.unwrap_or(0),
                    same_activation: true,
                    consequence: Some(Consequence::HypervisorCrash),
                },
                None,
            );
        }
        ActivationOutcome::Hung => {
            // Watchdog: the handler livelocked *before VM entry* — a
            // short-latency hypervisor failure (the paper's Path 1), not a
            // long-latency propagation. Xentry has no hang detector, so it
            // goes undetected.
            return base(
                FaultOutcome::Undetected {
                    consequence: Consequence::HypervisorCrash,
                    category: UndetectedCategory::OtherValues,
                },
                None,
            );
        }
        ActivationOutcome::Resumed | ActivationOutcome::WentIdle => {}
    }

    // Handler completed: the VM-transition detector has classified (in
    // continue mode a positive is recorded, not fatal).
    let faulty_features = shim.last_features().expect("features collected");
    let entry_diff = diff_machines(&point.golden_entry.machine, &f.machine, cpu, nr_doms);

    if entry_diff.is_empty() {
        if flag_on_clean_diff && shim.detected() {
            // The caller declared clean-diff flags to be true detections
            // (PMC corruption: the strike is invisible to the diff by
            // construction, and the counter anomaly IS the manifestation).
            let d = &shim.detections[0];
            return base(
                FaultOutcome::Detected {
                    technique: d.technique,
                    latency: d.latency.unwrap_or(0),
                    same_activation: true,
                    consequence: None,
                },
                Some(faulty_features),
            );
        }
        // Architecturally clean execution. A positive verdict here is a
        // false positive (recovery would re-execute and succeed); it is not
        // a detection of a manifested fault, so the record stays benign —
        // FP rates are measured on fault-free runs, as in the paper.
        return base(FaultOutcome::Benign, Some(faulty_features));
    }

    // Fault propagated across VM entry: long-latency error. Determine the
    // would-be consequence by running the faulty machine forward.
    let mut fwd = fork_of(f);
    let consequence = classify_consequence(
        point,
        &mut fwd,
        &entry_diff,
        &mut shim_for(detector),
        nr_doms,
    );
    recycle(fwd);

    if shim.detected() {
        let d = &shim.detections[0];
        return base(
            FaultOutcome::Detected {
                technique: d.technique,
                latency: d.latency.unwrap_or(0),
                same_activation: true,
                consequence,
            },
            Some(faulty_features),
        );
    }
    let Some(consequence) = consequence else {
        return base(FaultOutcome::MaskedAfterEntry, Some(faulty_features));
    };

    // Give the deployed runtime detection a chance during the observation
    // window (late hardware exceptions / assertions on corrupted state).
    let mut fwd = fork_of(f);
    let mut late_shim = shim_for(detector);
    late_shim.injection_mark = shim.injection_mark;
    for _ in 0..point.post_window {
        let a = fwd.run_activation(cpu, &mut late_shim);
        if late_shim.detected() || !a.outcome.is_healthy() {
            break;
        }
    }
    recycle(fwd);
    if let Some(d) = late_shim.detections.first() {
        return base(
            FaultOutcome::Detected {
                technique: d.technique,
                latency: d.latency.unwrap_or(0),
                same_activation: false,
                consequence: Some(consequence),
            },
            Some(faulty_features),
        );
    }

    let category = categorize_undetected(&point.golden_features, &faulty_features, &entry_diff);
    base(
        FaultOutcome::Undetected {
            consequence,
            category,
        },
        Some(faulty_features),
    )
}
