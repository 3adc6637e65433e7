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
use crate::golden::{diff_machines, structural_corruption, structural_words, DiffSite, StateDiff};
use crate::outcome::{Consequence, FaultOutcome, UndetectedCategory};
use crate::policy::TierResult;
use crate::recovery::RecoverySpec;
use guest_sim::guest_addrs;
use sim_machine::cpu::FlipTarget;
use sim_machine::{CpuId, ExitReason, FetchWindow, Insn, Machine, RegSet, RegUses};
use std::sync::OnceLock;
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
/// `meta`) — not the post-window platforms themselves, which would
/// multiply the memory held per point for state the guest judge never
/// word-compares.
///
/// A point built by [`prepare_point_forked`] — the campaign engine's fork
/// phase — also carries the golden handler's path, and so settles without
/// simulation what the golden run already proves: a register flip the
/// handler overwrites before reading it ([`inject`]), and a fault whose
/// platform is the golden one again after one activation of the
/// consequence judge. A point built by [`prepare_point`] carries neither
/// and simulates every injection: the from-boot oracle checks the
/// shortcuts against it.
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
    /// What the shortcuts read; `None` on a [`prepare_point`] point.
    shortcuts: Option<Shortcuts>,
}

/// What a [`prepare_point_forked`] point settles injections from.
#[derive(Debug, Clone)]
struct Shortcuts {
    /// The `rip` of every instruction the golden handler executed, in
    /// order, `VmEntry` last ([`Platform::run_handler_recorded`]).
    pcs: Vec<u64>,
    /// Per step of `pcs`, and one past its end, the register classes
    /// ([`RegSet::bits`]) whose next access from that step on is a write:
    /// a flip there is dead. Built on first need.
    dead: OnceLock<Vec<u32>>,
    /// The golden entry state one activation on, under a fresh measurement
    /// shim: what a fault that washed out is after the judge's first
    /// activation. Built on first need.
    after_one: OnceLock<Platform>,
}

impl InjectionPoint {
    /// Done with the point: its platforms become the next forks.
    pub(crate) fn recycle(self) {
        recycle(self.at_exit);
        recycle(self.golden_entry);
        if let Some(after_one) = self.shortcuts.and_then(|s| s.after_one.into_inner()) {
            recycle(after_one);
        }
    }

    /// Whether the register flip `spec` is dead: the golden handler,
    /// from the flip's step on, overwrites the flipped class
    /// ([`RegSet::of_flip`]) before any instruction reads it
    /// ([`Insn::reg_uses`]). The faulty run is then the golden run, state
    /// for state, from that write on. A RIP flip is never dead (every
    /// instruction reads RIP), nor is a class nothing touches before VM
    /// entry: the entry diff sees it. Always `false` on a point without a
    /// recorded path.
    pub(crate) fn flip_is_dead(&self, spec: &InjectionSpec) -> bool {
        let Some(s) = &self.shortcuts else {
            return false;
        };
        let dead = s.dead.get_or_init(|| {
            // One backward pass: a class is dead at a step that writes it
            // without reading it, or that leaves it alone when it is dead
            // at the next step. An undecodable word reads everything. A
            // handler loops, so a small direct-mapped table keyed by `pc`
            // decodes each of its words (`at_exit`'s, fixed) about once;
            // a pass costs less than the forward scans of a point's few
            // injections did.
            let text = &self.at_exit.machine.mem;
            let mut near = FetchWindow::default();
            let mut decoded = [(u64::MAX, RegUses::UNKNOWN); 512];
            let mut dead = vec![0u32; s.pcs.len() + 1];
            for (step, &pc) in s.pcs.iter().enumerate().rev() {
                let slot = &mut decoded[(pc / 8) as usize % 512];
                if slot.0 != pc {
                    let uses = (text.fetch_near(&mut near, pc).ok())
                        .and_then(|word| Insn::decode(word).ok())
                        .map_or(RegUses::UNKNOWN, |insn| insn.reg_uses());
                    *slot = (pc, uses);
                }
                let (r, w) = (slot.1.reads.bits(), slot.1.writes.bits());
                dead[step] = (w & !r) | (dead[step + 1] & !(r | w));
            }
            dead
        });
        let class = RegSet::of_flip(spec.target, spec.bit).bits();
        (dead.get(spec.at_step as usize)).is_some_and(|&d| d & class != 0)
    }

    /// Whether `f`, a faulty platform the consequence judge (budget
    /// `budget`) has just taken through its first activation, is judged
    /// `Converged` without running on: it is exactly the golden platform
    /// one activation past VM entry ([`Platform::same_state`]), so the
    /// rest of the judge would run along the golden post window, and that
    /// window, read by the judge's own rules from step 1 on, converges.
    fn settled_after_one(
        &self,
        f: &Platform,
        budget: u64,
        detector: Option<&xentry::VmTransitionDetector>,
    ) -> bool {
        let Some(s) = &self.shortcuts else {
            return false;
        };
        if !self.meta.window_converges_from_one(budget) {
            return false;
        }
        let after_one = s.after_one.get_or_init(|| {
            let mut g = fork_of(&self.golden_entry);
            g.run_activation(self.cpu, &mut shim_for(detector));
            g
        });
        f.same_state(after_one)
    }
}

/// Scalar record of one golden injection point, produced once by the
/// campaign's golden pass and replayed by every checkpoint fork. Carrying
/// the golden post window's observables here is what lets the fork skip
/// the post window entirely, and lets the consequence judge stop at its
/// first activation when the fault has washed out.
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
    /// The golden post window, as the guest judge reads it: at VM entry,
    /// then after each of the `post_window` activations that follow.
    pub window: Vec<WindowEntry>,
}

/// What the guest judge reads of one golden state of the post window.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct WindowEntry {
    /// Benchmark-guest burst count.
    pub bursts: u64,
    /// Guest trap count.
    pub traps: u64,
    /// Benchmark-guest checksum.
    pub result: u64,
    /// Whether the structural words ([`structural_words`]) differ from
    /// those at VM entry.
    pub structural_changed: bool,
}

impl PointMeta {
    /// The golden state `post_window` activations past VM entry: the guest
    /// judge's alignment target.
    pub fn golden_post(&self) -> &WindowEntry {
        self.window.last().expect("the window starts at VM entry")
    }

    /// What [`judge_guest`] (at `budget` activations) concludes on the
    /// golden trajectory from step 1 on — where it stops, the first state
    /// with the golden burst count, and what it finds there — is
    /// `Converged`. `false` when the window is too short to say.
    fn window_converges_from_one(&self, budget: u64) -> bool {
        let post = self.golden_post();
        (self.window.iter().enumerate().skip(1))
            .take_while(|&(step, _)| (step as u64) < budget)
            .find(|(_, w)| w.bursts >= post.bursts)
            .is_some_and(|(_, w)| {
                w.traps <= post.traps && w.result == post.result && !w.structural_changed
            })
    }
}

/// Outcome of one injection, with everything the campaign aggregates.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
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
    let (ga, nr_doms) = (guest_addrs(dom), plat.topo.domains.len());
    let entry_words: Vec<_> = structural_words(&plat.machine, nr_doms).collect();
    let observe = |plat: &Platform, structural_changed| {
        let peek = |addr| plat.machine.mem.peek(addr).ok();
        Some(WindowEntry {
            bursts: peek(ga.iter_count)?,
            traps: peek(ga.trap_count)?,
            result: peek(ga.result)?,
            structural_changed,
        })
    };
    let mut window = Vec::with_capacity(post_window + 1);
    window.push(observe(plat, false)?);
    for _ in 0..post_window {
        let a = plat.run_activation(cpu, &mut shim);
        if !a.outcome.is_healthy() {
            return None;
        }
        let changed = structural_words(&plat.machine, nr_doms).ne(entry_words.iter().copied());
        window.push(observe(plat, changed)?);
    }
    Some(PointMeta {
        ordinal: 0,
        reason,
        skipped_before: 0,
        golden_len: act.handler_insns,
        golden_features,
        window,
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
        shortcuts: None,
    })
}

/// Rebuild an injection point from a checkpoint-forked platform positioned
/// at the same VM exit the golden pass recorded as `meta`. Re-runs only the
/// golden *handler* (needed for the entry-state reference); the post-window
/// observables come from `meta`, so the fork skips `post_window`
/// activations per point — the bulk of [`prepare_point`]'s cost.
///
/// The handler runs recorded ([`Platform::run_handler_recorded`]) and the
/// point keeps its path, so the point settles dead register flips and
/// faults that reconverge after one judged activation without simulating
/// them (see [`InjectionPoint`]). `detector` must be the one the golden
/// pass ran under.
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
    let mut pcs = Vec::with_capacity(meta.golden_len as usize);
    let act = golden.run_handler_recorded(cpu, meta.reason, &mut shim, &mut pcs);
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
        shortcuts: Some(Shortcuts {
            pcs,
            dead: OnceLock::new(),
            after_one: OnceLock::new(),
        }),
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
    judge_within(point, f, shim, judge_budget(point, budget_scale))
}

/// The guest judge's activation budget.
fn judge_budget(point: &InjectionPoint, budget_scale: u64) -> u64 {
    (point.post_window as u64 * 4).max(8) * budget_scale.max(1)
}

/// Whether the benchmark guest on `f` has not yet reached the golden burst
/// count: the judge runs another activation.
fn behind_golden(point: &InjectionPoint, f: &Platform) -> bool {
    let bursts = guest_addrs(point.dom).iter_count;
    f.machine.mem.peek(bursts).unwrap_or(0) < point.meta.golden_post().bursts
}

/// [`judge_guest`] with `budget` activations left.
fn judge_within(
    point: &InjectionPoint,
    f: &mut Platform,
    shim: &mut Xentry,
    budget: u64,
) -> TierResult {
    let (post, ga) = (point.meta.golden_post(), guest_addrs(point.dom));
    let peek = |f: &Platform, addr| f.machine.mem.peek(addr).unwrap_or(0);
    for _ in 0..budget {
        if !behind_golden(point, f) {
            break;
        }
        if !f.run_activation(point.cpu, shim).outcome.is_healthy() {
            return TierResult::HypervisorDead;
        }
    }
    let nr_doms = point.at_exit.topo.domains.len();
    let residual = if behind_golden(point, f) {
        // The benchmark VM stopped making progress.
        Some(Consequence::OneVmFailure)
    } else if peek(f, ga.trap_count) > post.traps {
        // The guest took unexpected traps: the application crashed.
        Some(Consequence::AppCrash)
    } else if peek(f, ga.result) != post.result {
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

/// The guest judge as the consequence classifier runs it: on a point that
/// carries the golden path, a fault whose platform is the golden one again
/// after the judge's first activation, on a golden window that converges,
/// is `Converged` without the rest of the run
/// ([`InjectionPoint::settled_after_one`]).
fn judge_consequence(
    point: &InjectionPoint,
    f: &mut Platform,
    detector: Option<&xentry::VmTransitionDetector>,
) -> TierResult {
    let mut shim = shim_for(detector);
    let budget = judge_budget(point, 1);
    if point.shortcuts.is_none() || !behind_golden(point, f) {
        return judge_within(point, f, &mut shim, budget);
    }
    // The judge's first activation, taken here.
    if !f.run_activation(point.cpu, &mut shim).outcome.is_healthy() {
        return TierResult::HypervisorDead;
    }
    if point.settled_after_one(f, budget, detector) {
        fired(1);
        debug_assert_eq!(
            judge_within(point, f, &mut shim, budget - 1),
            TierResult::Converged,
            "a fault settled after one activation at point {}",
            point.meta.ordinal
        );
        return TierResult::Converged;
    }
    judge_within(point, f, &mut shim, budget - 1)
}

#[cfg(test)]
thread_local! {
    /// How often each shortcut fired on this thread: dead flips, then
    /// faults settled after one judged activation. Tests drive a
    /// campaign's chunks on their own thread to read it.
    pub(crate) static FIRED: std::cell::Cell<[u64; 2]> = const { std::cell::Cell::new([0; 2]) };
}

/// Count one firing of `shortcut` (an index into `FIRED`) in tests.
#[cfg_attr(not(test), allow(unused_variables))]
fn fired(shortcut: usize) {
    #[cfg(test)]
    FIRED.with(|n| {
        let mut count = n.get();
        count[shortcut] += 1;
        n.set(count);
    });
}

/// Consequence classification of a fault that crossed VM entry: the guest
/// judge on `f`, a fork of the faulty machine at VM entry, then the
/// entry-aligned evidence. `None` means the divergence washed out
/// completely (masked after entry).
fn classify_consequence(
    point: &InjectionPoint,
    f: &mut Platform,
    entry_diff: &StateDiff,
    detector: Option<&xentry::VmTransitionDetector>,
) -> Option<Consequence> {
    match judge_consequence(point, f, detector) {
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
/// [`inject_spec`], recorded. On a point built by
/// [`prepare_point_forked`], a dead flip — one the golden handler
/// overwrites before reading it (see [`InjectionPoint`]) — is not
/// simulated: the faulty run is the golden run, so its record is `Benign`
/// with the golden features.
pub fn inject(
    point: &InjectionPoint,
    spec: InjectionSpec,
    detector: Option<&xentry::VmTransitionDetector>,
) -> InjectionRecord {
    let simulate = || {
        record(
            point,
            spec,
            inject_spec(point, &RecoverySpec::Reg(spec), detector),
        )
    };
    if !point.flip_is_dead(&spec) {
        return simulate();
    }
    fired(0);
    let dead = record(
        point,
        spec,
        (FaultOutcome::Benign, Some(point.meta.golden_features)),
    );
    debug_assert_eq!(
        dead,
        simulate(),
        "a dead flip at point {}",
        point.meta.ordinal
    );
    dead
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
    let consequence = classify_consequence(point, &mut fwd, &entry_diff, detector);
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{campaign_platform, CampaignConfig};
    use guest_sim::Benchmark;

    /// The healthy points among `exits` exits past warm-up, as
    /// [`prepare_point`] builds them (no shortcuts).
    fn plain_points(exits: usize) -> Vec<InjectionPoint> {
        let cfg = CampaignConfig::paper(Benchmark::Freqmine, 16, 7);
        let mut plat = campaign_platform(&cfg, cfg.seed);
        let mut collector = Xentry::collector();
        plat.boot(1, &mut collector);
        for _ in 0..cfg.warmup {
            plat.run_activation(1, &mut collector);
        }
        let mut points = Vec::new();
        for _ in 0..exits {
            let (reason, _) = plat.run_to_exit(1);
            points.extend(prepare_point(
                plat.clone(),
                1,
                1,
                reason,
                cfg.post_window,
                None,
            ));
            plat.run_handler(1, reason, 0, &mut collector);
        }
        points
    }

    /// `plain` as the fork phase rebuilds it from the same exit.
    fn forked(plain: &InjectionPoint) -> InjectionPoint {
        prepare_point_forked(
            plain.at_exit.clone(),
            1,
            1,
            plain.post_window,
            &plain.meta,
            None,
        )
    }

    /// The shortest handler among forty exits past warm-up, as
    /// [`prepare_point`] builds it and as the fork phase rebuilds it.
    fn short_point() -> (InjectionPoint, InjectionPoint) {
        let plain = (plain_points(40).into_iter())
            .min_by_key(|p| p.meta.golden_len)
            .expect("a healthy exit");
        let forked = forked(&plain);
        (plain, forked)
    }

    /// The dead-flip rule as one forward scan of the golden path per
    /// flip: the first access to the flipped class from the flip's step
    /// on decides, a write before any read meaning dead.
    fn scanned_dead(point: &InjectionPoint, spec: &InjectionSpec) -> bool {
        let class = RegSet::of_flip(spec.target, spec.bit);
        let text = &point.at_exit.machine.mem;
        let pcs = &point.shortcuts.as_ref().expect("a forked point").pcs;
        for &pc in pcs.get(spec.at_step as usize..).unwrap_or_default() {
            let uses = (text.fetch(pc).ok())
                .and_then(|word| Insn::decode(word).ok())
                .map_or(RegUses::UNKNOWN, |insn| insn.reg_uses());
            if uses.reads.meets(class) {
                return false;
            }
            if uses.writes.meets(class) {
                return true;
            }
        }
        false
    }

    /// The per-step masks answer as the forward scan, at the first six
    /// healthy points past warm-up, for every register class at every
    /// step of the golden path and past its end.
    #[test]
    fn dead_masks_answer_as_the_forward_scan() {
        let rflags_bit = |class| {
            (0..64)
                .find(|&b| RegSet::of_flip(FlipTarget::Rflags, b) == class)
                .expect("RFLAGS holds both flag classes")
        };
        let mut flips: Vec<(FlipTarget, u8)> = (FlipTarget::all().into_iter())
            .filter(|&t| t != FlipTarget::Rflags)
            .map(|t| (t, 0))
            .collect();
        flips.push((FlipTarget::Rflags, rflags_bit(RegSet::COND)));
        flips.push((FlipTarget::Rflags, rflags_bit(RegSet::FLAGS_REST)));
        let points = plain_points(8);
        assert!(points.len() >= 6, "{} healthy points", points.len());
        let (mut dead, mut all) = (0u64, 0u64);
        for point in points.iter().take(6).map(forked) {
            for &(target, bit) in &flips {
                for at_step in 0..=point.meta.golden_len + 1 {
                    let spec = InjectionSpec {
                        target,
                        bit,
                        at_step,
                    };
                    let is_dead = point.flip_is_dead(&spec);
                    assert_eq!(is_dead, scanned_dead(&point, &spec), "{spec:?}");
                    dead += is_dead as u64;
                    all += 1;
                }
            }
        }
        assert!(dead > 0 && dead < all, "{dead} of {all} dead");
    }

    /// Soundness of the dead-flip rule against the simulator: at one golden
    /// point, every (target, bit, step) the rule calls dead, simulated on a
    /// point that takes no shortcut, is `Benign` with the golden features —
    /// the record the shortcut gives it.
    #[test]
    fn every_flip_the_rule_calls_dead_simulates_benign() {
        let (plain, forked) = short_point();
        let len = plain.meta.golden_len;
        let (mut dead, mut all) = (0u64, 0u64);
        for target in FlipTarget::all() {
            for bit in 0..64 {
                for at_step in 0..len {
                    let spec = InjectionSpec {
                        target,
                        bit,
                        at_step,
                    };
                    all += 1;
                    assert!(
                        !plain.flip_is_dead(&spec),
                        "prepare_point takes no shortcut"
                    );
                    if !forked.flip_is_dead(&spec) {
                        continue;
                    }
                    dead += 1;
                    let rec = inject(&plain, spec, None);
                    assert_eq!(
                        (rec.outcome, rec.features),
                        (FaultOutcome::Benign, Some(plain.meta.golden_features)),
                        "{spec:?} was called dead"
                    );
                }
            }
        }
        eprintln!(
            "{:?} handler, {len} instructions: {dead} of {all} flips called dead, \
             each simulated benign",
            plain.meta.reason
        );
        assert!(dead > 0 && dead < all);
    }
}
