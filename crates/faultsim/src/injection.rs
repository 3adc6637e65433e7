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
use crate::golden::{diff_machines, structural_corruption, DiffSite, StateDiff};
use crate::outcome::{Consequence, FaultOutcome, UndetectedCategory};
use crate::policy::TierResult;
use crate::recovery::RecoverySpec;
use guest_sim::guest_addrs;
use sim_machine::cpu::FlipTarget;
use sim_machine::{CpuId, ExitReason, Machine};
use xen_like::{ActivationOutcome, Platform};
use xentry::{Detection, FeatureVec, Xentry, XentryConfig};

/// One fault to inject.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct InjectionSpec {
    pub target: FlipTarget,
    pub bit: u8,
    /// Host-mode dynamic instruction offset within the handler at which the
    /// flip occurs.
    pub at_step: u64,
}

/// A reusable injection point: the platform frozen at a VM exit, the
/// golden state at the matching VM entry, and the golden run's scalar
/// record. Only the *observables* of the golden post window are kept (in
/// `meta`) — not the post-window platform itself, which would triple the
/// memory held per point for state the guest judge never word-compares.
#[derive(Debug, Clone)]
pub struct InjectionPoint {
    /// Platform state at the VM exit (host entry, VMCS filled).
    pub at_exit: Platform,
    pub cpu: CpuId,
    /// Golden platform state at the matching VM entry.
    pub golden_entry: Platform,
    /// The golden run this point was built from: exit reason, handler
    /// length and features, post-window observables.
    pub meta: PointMeta,
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
    /// Dynamic length of the fault-free handler execution.
    pub golden_len: u64,
    /// Fault-free feature vector.
    pub golden_features: FeatureVec,
    /// Benchmark-guest burst count `post_window` activations past VM entry
    /// in the golden run (the guest judge's alignment target).
    pub golden_post_bursts: u64,
    /// Benchmark-guest checksum at that burst count.
    pub golden_post_result: u64,
    /// Guest trap count in the golden post state.
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

/// The measurement shim every golden, faulty and judging run is charged
/// by. continue_after_positive keeps golden/faulty cycle charging identical
/// and lets us inspect the post-entry propagation even for detected faults
/// (needed to know the would-be consequence for Fig. 9).
pub(crate) fn shim_for(detector: Option<&xentry::VmTransitionDetector>) -> Xentry {
    Xentry::new(XentryConfig::overhead(), detector.cloned())
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
/// (cannot happen in practice; defensive). The point's `meta` carries no
/// walk position (`ordinal` and `skipped_before` are 0).
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
        golden_entry: golden_entry.expect("a completed golden run passed VM entry"),
        meta,
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
        golden_entry: golden,
        meta: meta.clone(),
        dom,
        post_window,
    }
}

/// The guest-observable judge, shared by the campaign's consequence
/// classifier and every recovery tier: run `f`, a platform past the point's
/// VM entry, forward under `shim` until the benchmark guest reaches the
/// golden burst count (at most `max(post_window × 4, 8) × budget_scale`
/// activations), then compare what the guest shows with the golden run.
/// The two machines are not activation-aligned, so it compares guest
/// observables (burst progress, traps, checksum) and the structural
/// invariants, never whole states.
pub(crate) fn judge_guest(
    point: &InjectionPoint,
    f: &mut Platform,
    shim: &mut Xentry,
    budget_scale: u64,
) -> TierResult {
    let (meta, ga) = (&point.meta, guest_addrs(point.dom));
    let peek = |f: &Platform, addr| f.machine.mem.peek(addr).unwrap_or(0);
    let budget = (point.post_window as u64 * 4).max(8) * budget_scale.max(1);
    for _ in 0..budget {
        if peek(f, ga.iter_count) >= meta.golden_post_bursts {
            break;
        }
        if !f.run_activation(point.cpu, shim).outcome.is_healthy() {
            return TierResult::HypervisorDead;
        }
    }
    let nr_doms = point.at_exit.topo.domains.len();
    let residual = if peek(f, ga.iter_count) < meta.golden_post_bursts {
        // The benchmark VM stopped making progress.
        Some(Consequence::OneVmFailure)
    } else if peek(f, ga.trap_count) > meta.golden_post_traps {
        // The guest took unexpected traps: the application crashed.
        Some(Consequence::AppCrash)
    } else if peek(f, ga.result) != meta.golden_post_result {
        // Application finished its bursts with a wrong checksum: SDC.
        Some(Consequence::AppSdc)
    } else if structural_corruption(&point.golden_entry.machine, &f.machine, nr_doms) {
        // Structural invariant words (pointers, descriptors, dispatch
        // table) are constant during normal operation, so the golden entry
        // state is as valid a reference as any later golden state.
        Some(Consequence::AllVmFailure)
    } else {
        None
    };
    residual.map_or(TierResult::Converged, TierResult::Residual)
}

/// Consequence classification of a fault that crossed VM entry: the guest
/// judge on `f`, a fork of the faulty machine at VM entry, then the
/// entry-aligned evidence. `None` means the divergence washed out
/// completely (masked after entry).
fn classify_consequence(
    point: &InjectionPoint,
    f: &mut Platform,
    entry_diff: &StateDiff,
    shim: &mut Xentry,
) -> Option<Consequence> {
    match judge_guest(point, f, shim, 1) {
        // The hypervisor itself crashed after the guest resumed: every VM
        // on the host is gone.
        TierResult::HypervisorDead => return Some(Consequence::AllVmFailure),
        TierResult::Residual(c) => return Some(c),
        TierResult::Converged => {}
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

/// Execute one injection at a prepared point: the register case of
/// [`inject_spec`], recorded.
pub fn inject(
    point: &InjectionPoint,
    spec: InjectionSpec,
    detector: Option<&xentry::VmTransitionDetector>,
) -> InjectionRecord {
    record(
        point,
        spec,
        inject_spec(point, &RecoverySpec::Reg(spec), detector),
    )
}

/// The record of one register-fault injection at `point`; a multi-bit
/// upset is recorded under its first flip.
pub(crate) fn record(
    point: &InjectionPoint,
    spec: InjectionSpec,
    (outcome, features): (FaultOutcome, Option<FeatureVec>),
) -> InjectionRecord {
    InjectionRecord {
        vmer: point.meta.reason.vmer(),
        target: spec.target,
        bit: spec.bit,
        at_step: spec.at_step,
        outcome,
        features,
        golden_features: point.meta.golden_features,
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
    // PMC corruption lands in PMU state the entry diff deliberately
    // excludes, so a detector flag on an architecturally clean diff is a
    // true detection of the corrupted counter — not a false positive.
    let flag_on_clean_diff = matches!(spec, RecoverySpec::Pmc(_));
    inject_core(
        point,
        spec.at_step(),
        detector,
        flag_on_clean_diff,
        |m, c| spec.apply(m, c),
    )
}

/// The faulted handler, the one run every injection and every detection
/// starts with: a fork of the point's VM exit services the exit under
/// `shim`, and `strike` lands after `at_step` retired host instructions.
/// The shim's latency clock starts at the strike. The caller recycles the
/// returned fork.
pub(crate) fn run_faulted(
    point: &InjectionPoint,
    shim: &mut Xentry,
    at_step: u64,
    strike: impl FnOnce(&mut Machine, CpuId),
) -> (Platform, ActivationOutcome) {
    let cpu = point.cpu;
    let mut f = fork_of(&point.at_exit);
    shim.injection_mark = Some(f.machine.cpu(cpu).insns_retired + at_step);
    let act = f.run_handler_hooked(cpu, point.meta.reason, 0, shim, Some(at_step), strike);
    (f, act.outcome)
}

/// Shared execution core of every injection flavour: the faulted handler
/// under the measurement shim, then its outcome.
pub(crate) fn inject_core(
    point: &InjectionPoint,
    at_step: u64,
    detector: Option<&xentry::VmTransitionDetector>,
    flag_on_clean_diff: bool,
    strike: impl FnOnce(&mut Machine, CpuId),
) -> (FaultOutcome, Option<FeatureVec>) {
    let mut shim = shim_for(detector);
    let (f, outcome) = run_faulted(point, &mut shim, at_step, strike);
    let result = fault_outcome(point, &f, &shim, outcome, detector, flag_on_clean_diff);
    recycle(f);
    result
}

/// The outcome of a fault `d` caught.
fn detected(
    d: &Detection,
    same_activation: bool,
    consequence: Option<Consequence>,
) -> FaultOutcome {
    FaultOutcome::Detected {
        technique: d.technique,
        latency: d.latency.unwrap_or(0),
        same_activation,
        consequence,
    }
}

/// Classify the faulted handler's run on `f` (ended with `outcome`, under
/// `shim`): diff against the golden entry state, classify the consequence,
/// and give deployed detection its post-window chance.
fn fault_outcome(
    point: &InjectionPoint,
    f: &Platform,
    shim: &Xentry,
    outcome: ActivationOutcome,
    detector: Option<&xentry::VmTransitionDetector>,
    flag_on_clean_diff: bool,
) -> (FaultOutcome, Option<FeatureVec>) {
    let cpu = point.cpu;
    match outcome {
        ActivationOutcome::HostException(_)
        | ActivationOutcome::AssertFailed(_)
        | ActivationOutcome::Flagged => {
            // Runtime detection fired before VM entry (short-latency path).
            let d = shim.detections.first().expect("detection recorded");
            return (detected(d, true, Some(Consequence::HypervisorCrash)), None);
        }
        ActivationOutcome::Hung => {
            // Watchdog: the handler livelocked *before VM entry* — a
            // short-latency hypervisor failure (the paper's Path 1), not a
            // long-latency propagation. Xentry has no hang detector, so it
            // goes undetected.
            return (
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
    let features = shim.last_features().expect("features collected");
    let nr_doms = point.at_exit.topo.domains.len();
    let entry_diff = diff_machines(&point.golden_entry.machine, &f.machine, cpu, nr_doms);

    if entry_diff.is_empty() {
        if flag_on_clean_diff && shim.detected() {
            // The caller declared clean-diff flags to be true detections
            // (PMC corruption: the strike is invisible to the diff by
            // construction, and the counter anomaly IS the manifestation).
            return (detected(&shim.detections[0], true, None), Some(features));
        }
        // Architecturally clean execution. A positive verdict here is a
        // false positive (recovery would re-execute and succeed); it is not
        // a detection of a manifested fault, so the record stays benign —
        // FP rates are measured on fault-free runs, as in the paper.
        return (FaultOutcome::Benign, Some(features));
    }

    // Fault propagated across VM entry: long-latency error. Determine the
    // would-be consequence by running the faulty machine forward.
    let mut fwd = fork_of(f);
    let consequence = classify_consequence(point, &mut fwd, &entry_diff, &mut shim_for(detector));
    recycle(fwd);

    if shim.detected() {
        return (
            detected(&shim.detections[0], true, consequence),
            Some(features),
        );
    }
    let Some(consequence) = consequence else {
        return (FaultOutcome::MaskedAfterEntry, Some(features));
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
        return (detected(d, false, Some(consequence)), Some(features));
    }

    let category = categorize_undetected(&point.meta.golden_features, &features, &entry_diff);
    (
        FaultOutcome::Undetected {
            consequence,
            category,
        },
        Some(features),
    )
}
