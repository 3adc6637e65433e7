//! The benchmark's whole API surface: every call into a layer crate is
//! made here, through a thin wrapper that also opens the span the traced
//! pass reads. Nothing inside the crates is instrumented; a layer is
//! measured from outside, by timing these calls. The other files of the
//! benchmark import layer types and functions from this module only.
//!
//! Entry points used (the names an engine or inference refactor must keep
//! callable, if only as thin wrappers):
//!
//! * `faultsim`: `CampaignConfig::paper`, `campaign_platform`,
//!   `golden_trace`, `GoldenTrace::{checkpoint_stats, correct_samples}`,
//!   `run_campaign_with`, `run_recovery_campaign_with`,
//!   `run_campaign_from_boot`, `dataset_from_records`, `coverage_breakdown`,
//!   `prepare_point`, `inject`, `recover_with_policy`,
//!   `CheckpointStore::{new, push, restore}`, `HmTable::{tiered,
//!   max_attempts}`, `FaultOutcome::{manifested, detected}`
//! * `xen-like`: `Platform::{new, boot, snapshot, delta_against,
//!   apply_delta, state_digest, run_activation, run_to_exit, run_handler,
//!   microreboot_restore}`, `NullMonitor`
//! * `sim-machine`: `Machine::state_digest`, `Cpu::{insns_retired, cycles}`,
//!   `fold64`
//! * `guest-sim`: `workload_platform`, `guest_addrs`
//! * `xentry`: `run_until_bursts`, `Xentry::{new, collector}`,
//!   `XentryConfig::{overhead, with_recovery}`,
//!   `VmTransitionDetector::{new, classify, classify_cost, classify_batch,
//!   classify_batch_with}`, `CriticalState::{capture, restore}`
//! * `mltree`: `DecisionTree::{train, classify, compile}`,
//!   `RandomForest::{train, compile, classify}`,
//!   `CompiledForest::classify_batch`, `active_kernel_name`
//! * `xentry-fleet`: `FleetService::{start, ingest_record,
//!   hot_swap_validated, shutdown}`, `replay::workload_trace`
//! * `xentry-wire`: `Frame::{encode, decode}`

use crate::span::Recorder;
use std::sync::Arc;

pub use faultsim::{
    CampaignConfig, CampaignResult, CheckpointStore, GoldenTrace, HmTable, InjectionPoint,
    InjectionRecord, InjectionSpec, PolicyRecovery, RecoveryAction, RecoveryCampaignResult,
    RecoveryOutcome, RecoveryRecord, RecoverySpec,
};
pub use guest_sim::Benchmark;
pub use mltree::{BatchWalker, CompiledForest, Dataset, DecisionTree, Label, RandomForest};
pub use sim_machine::{fold64, ExitReason};
pub use xen_like::{Activation, Monitor, NullMonitor, Platform};
pub use xentry::{FeatureVec, VmTransitionDetector, Xentry};
pub use xentry_fleet::{FleetService, FleetVerdict, ServiceSnapshot, TelemetryRecord, VerdictSink};

/// Span names, one per wrapped entry point.
pub mod name {
    pub const GOLDEN_TRACE: &str = "faultsim::golden_trace";
    pub const RUN_CAMPAIGN: &str = "faultsim::run_campaign_with";
    pub const RUN_RECOVERY_CAMPAIGN: &str = "faultsim::run_recovery_campaign_with";
    pub const RUN_FROM_BOOT: &str = "faultsim::run_campaign_from_boot";
    pub const PREPARE_POINT: &str = "faultsim::prepare_point";
    pub const INJECT: &str = "faultsim::inject";
    pub const RECOVER: &str = "faultsim::recover_with_policy";
    pub const CHECKPOINT_PUSH: &str = "CheckpointStore::push";
    pub const CHECKPOINT_RESTORE: &str = "CheckpointStore::restore";
    pub const PLATFORM_NEW: &str = "Platform::new";
    pub const BOOT: &str = "Platform::boot";
    pub const SNAPSHOT: &str = "Platform::snapshot";
    pub const DELTA_PAIR: &str = "Platform::delta_against+apply_delta";
    pub const STATE_DIGEST: &str = "Machine::state_digest";
    pub const RUN_ACTIVATION: &str = "Platform::run_activation";
    pub const RUN_TO_EXIT: &str = "Platform::run_to_exit";
    pub const RUN_HANDLER: &str = "Platform::run_handler";
    pub const MICROREBOOT_RESTORE: &str = "Platform::microreboot_restore";
    pub const WORKLOAD_PLATFORM: &str = "guest_sim::workload_platform";
    pub const RUN_UNTIL_BURSTS: &str = "xentry::run_until_bursts";
    pub const CRITICAL_COPY: &str = "CriticalState::capture+restore";
    pub const TRAIN_TREE: &str = "DecisionTree::train";
    pub const TRAIN_FOREST: &str = "RandomForest::train";
    pub const COMPILE: &str = "VmTransitionDetector::new";
    pub const COMPILE_FOREST: &str = "RandomForest::compile";
    pub const CLASSIFY_BATCH: &str = "VmTransitionDetector::classify_batch";
    pub const CLASSIFY_BATCH_SCALAR: &str = "VmTransitionDetector::classify_batch_with(Scalar)";
    pub const CLASSIFY_BATCH_AVX2: &str = "VmTransitionDetector::classify_batch_with(Avx2)";
    pub const CLASSIFY_SINGLE: &str = "VmTransitionDetector::classify";
    pub const CLASSIFY_BOXED: &str = "DecisionTree::classify";
    pub const FOREST_BATCH: &str = "CompiledForest::classify_batch";
    pub const FOREST_BOXED: &str = "RandomForest::classify";
    pub const WORKLOAD_TRACE: &str = "replay::workload_trace";
    pub const FLEET_START: &str = "FleetService::start";
    pub const FLEET_INGEST: &str = "FleetService::ingest_record";
    pub const FLEET_HOT_SWAP: &str = "FleetService::hot_swap_validated";
    pub const FLEET_SHUTDOWN: &str = "FleetService::shutdown";
    pub const FRAME_ENCODE: &str = "Frame::encode";
    pub const FRAME_DECODE: &str = "Frame::decode";
}

// ---------------------------------------------------------------------------
// faultsim
// ---------------------------------------------------------------------------

/// `CampaignConfig::paper` with the thread count fixed by the benchmark.
pub fn campaign_config(
    b: Benchmark,
    injections: usize,
    seed: u64,
    threads: usize,
) -> CampaignConfig {
    let mut cfg = CampaignConfig::paper(b, injections, seed);
    cfg.threads = threads;
    cfg
}

pub fn golden_trace(
    rec: &mut Recorder,
    cfg: &CampaignConfig,
    det: Option<&VmTransitionDetector>,
) -> GoldenTrace {
    rec.counted(name::GOLDEN_TRACE, |_| {
        let t = faultsim::golden_trace(cfg, det);
        let n = t.points.len() as u64;
        (t, n)
    })
}

pub fn run_campaign_with(
    rec: &mut Recorder,
    cfg: &CampaignConfig,
    trace: &GoldenTrace,
    det: Option<&VmTransitionDetector>,
) -> CampaignResult {
    rec.counted(name::RUN_CAMPAIGN, |_| {
        let r = faultsim::run_campaign_with(cfg, trace, det);
        let n = r.records.len() as u64;
        (r, n)
    })
}

pub fn run_recovery_campaign_with(
    rec: &mut Recorder,
    cfg: &CampaignConfig,
    trace: &GoldenTrace,
    det: Option<&VmTransitionDetector>,
    tables: &[HmTable],
) -> RecoveryCampaignResult {
    rec.counted(name::RUN_RECOVERY_CAMPAIGN, |_| {
        let r = faultsim::run_recovery_campaign_with(cfg, trace, det, tables);
        let n = r.records.len() as u64;
        (r, n)
    })
}

pub fn run_campaign_from_boot(
    rec: &mut Recorder,
    cfg: &CampaignConfig,
    det: Option<&VmTransitionDetector>,
) -> CampaignResult {
    rec.counted(name::RUN_FROM_BOOT, |_| {
        let r = faultsim::run_campaign_from_boot(cfg, det);
        let n = r.records.len() as u64;
        (r, n)
    })
}

pub fn campaign_platform(cfg: &CampaignConfig) -> Platform {
    faultsim::campaign_platform(cfg, cfg.seed)
}

/// `(words carried by the delta chain, compression against full snapshots)`.
pub fn checkpoint_stats(trace: &GoldenTrace) -> (usize, f64) {
    let s = trace.checkpoint_stats();
    (s.delta_mem_words, s.compression_ratio())
}

/// Labeled samples of one detector-less training campaign: the faulty
/// executions that reached VM entry plus `n_correct` fault-free ones from
/// the same golden walk.
pub fn training_samples(
    records: &[InjectionRecord],
    trace: &GoldenTrace,
    n_correct: usize,
) -> Vec<mltree::Sample> {
    let mut s = faultsim::dataset_from_records(records).samples;
    s.extend(trace.correct_samples(n_correct).samples);
    s
}

/// Fig. 8 counts of a register campaign.
pub struct Coverage {
    pub injected: usize,
    pub manifested: usize,
    pub detected: usize,
    pub undetected: usize,
    /// `coverage_breakdown(records).coverage()`, 0..=1.
    pub coverage: f64,
}

pub fn coverage(records: &[InjectionRecord]) -> Coverage {
    let b = faultsim::coverage_breakdown(records);
    Coverage {
        injected: records.len(),
        manifested: b.manifested,
        detected: records.iter().filter(|r| r.outcome.detected()).count(),
        undetected: b.undetected,
        coverage: b.coverage(),
    }
}

pub fn spec_of(r: &InjectionRecord) -> InjectionSpec {
    InjectionSpec {
        target: r.target,
        bit: r.bit,
        at_step: r.at_step,
    }
}

pub fn prepare_point(
    rec: &mut Recorder,
    at_exit: Platform,
    cpu: usize,
    dom: usize,
    reason: ExitReason,
    post_window: usize,
    det: Option<&VmTransitionDetector>,
) -> Option<InjectionPoint> {
    rec.span(name::PREPARE_POINT, |_| {
        faultsim::prepare_point(at_exit, cpu, dom, reason, post_window, det)
    })
}

pub fn inject(
    rec: &mut Recorder,
    point: &InjectionPoint,
    spec: InjectionSpec,
    det: Option<&VmTransitionDetector>,
) -> InjectionRecord {
    rec.span(name::INJECT, |_| faultsim::inject(point, spec, det))
}

pub fn recover_with_policy(
    rec: &mut Recorder,
    point: &InjectionPoint,
    spec: RecoverySpec,
    det: Option<&VmTransitionDetector>,
    table: &HmTable,
) -> Option<PolicyRecovery> {
    rec.span(name::RECOVER, |_| {
        faultsim::recover_with_policy(point, spec, det, table)
    })
}

pub fn checkpoint_new(base: Platform) -> CheckpointStore {
    CheckpointStore::new(base)
}

pub fn checkpoint_push(rec: &mut Recorder, store: &mut CheckpointStore, plat: &Platform) {
    rec.span(name::CHECKPOINT_PUSH, |_| store.push(plat))
}

pub fn checkpoint_restore(rec: &mut Recorder, store: &CheckpointStore, k: usize) -> Platform {
    rec.span(name::CHECKPOINT_RESTORE, |_| store.restore(k))
}

pub fn tiered_policy() -> HmTable {
    HmTable::tiered()
}

pub fn max_ladder_steps(table: &HmTable) -> usize {
    table.max_attempts() as usize
}

// ---------------------------------------------------------------------------
// xen-like / sim-machine
// ---------------------------------------------------------------------------

/// `Platform::new` on the campaign topology (3 CPUs, Dom0 + 2 DomUs):
/// assembles the hypervisor image through `sim-asm`.
pub fn platform_new(rec: &mut Recorder, seed: u64) -> Platform {
    rec.span(name::PLATFORM_NEW, |_| {
        let topo = xen_like::Topology {
            nr_cpus: 3,
            domains: vec![xen_like::DomainSpec { nr_vcpus: 1 }; 3],
            virt_mode: sim_machine::VirtMode::Para,
            seed,
            cycle_model: Default::default(),
        };
        Platform::new(topo).0
    })
}

pub fn boot<M: Monitor>(rec: &mut Recorder, plat: &mut Platform, cpu: usize, monitor: &mut M) {
    rec.span(name::BOOT, |_| {
        let outcome = plat.boot(cpu, monitor);
        assert!(outcome.is_healthy(), "boot died: {outcome:?}");
    })
}

pub fn snapshot(rec: &mut Recorder, plat: &Platform) -> Platform {
    rec.span(name::SNAPSHOT, |_| plat.snapshot())
}

/// Delta-compress `now` against `base`, then apply the delta to `base`:
/// the checkpoint push / restore pair. Afterwards `base` is `now`.
pub fn delta_pair(rec: &mut Recorder, base: &mut Platform, now: &Platform) {
    rec.counted(name::DELTA_PAIR, |_| {
        let d = now.delta_against(base);
        base.apply_delta(&d);
        ((), d.mem_words() as u64)
    })
}

pub fn machine_digest(rec: &mut Recorder, plat: &Platform) -> u64 {
    rec.span(name::STATE_DIGEST, |_| plat.machine.state_digest())
}

pub fn platform_digest(plat: &Platform) -> u64 {
    plat.state_digest()
}

pub fn insns_retired(plat: &Platform, cpu: usize) -> u64 {
    plat.machine.cpu(cpu).insns_retired
}

pub fn cycles(plat: &Platform, cpu: usize) -> u64 {
    plat.machine.cpu(cpu).cycles
}

pub fn cycle_hz(plat: &Platform) -> u64 {
    plat.machine.config.cycle_model.hz
}

/// One activation; the span counts instructions retired (guest + host).
pub fn run_activation<M: Monitor>(
    rec: &mut Recorder,
    plat: &mut Platform,
    cpu: usize,
    monitor: &mut M,
) -> Activation {
    rec.counted(name::RUN_ACTIVATION, |_| {
        let before = insns_retired(plat, cpu);
        let act = plat.run_activation(cpu, monitor);
        assert!(
            act.outcome.is_healthy(),
            "fault-free activation died: {:?}",
            act.outcome
        );
        (act, insns_retired(plat, cpu) - before)
    })
}

/// Guest phase: the pure `Machine::step` loop. Counts guest instructions.
pub fn run_to_exit(rec: &mut Recorder, plat: &mut Platform, cpu: usize) -> (ExitReason, u64) {
    rec.counted(name::RUN_TO_EXIT, |_| {
        let before = insns_retired(plat, cpu);
        let out = plat.run_to_exit(cpu);
        (out, insns_retired(plat, cpu) - before)
    })
}

/// Host phase: the handler under `monitor`. Counts handler instructions.
pub fn run_handler<M: Monitor>(
    rec: &mut Recorder,
    plat: &mut Platform,
    cpu: usize,
    reason: ExitReason,
    guest_cycles: u64,
    monitor: &mut M,
) -> Activation {
    rec.counted(name::RUN_HANDLER, |_| {
        let act = plat.run_handler(cpu, reason, guest_cycles, monitor);
        assert!(
            act.outcome.is_healthy(),
            "fault-free handler died: {:?}",
            act.outcome
        );
        (act, act.handler_insns)
    })
}

/// Returns the simulated cycles the reboot is charged.
pub fn microreboot_restore(rec: &mut Recorder, plat: &mut Platform, cpu: usize) -> u64 {
    rec.counted(name::MICROREBOOT_RESTORE, |_| {
        let report = plat.microreboot_restore(cpu);
        (report.cycles, report.words_lost as u64)
    })
}

// ---------------------------------------------------------------------------
// guest-sim / xentry
// ---------------------------------------------------------------------------

/// The Fig. 7 platform: Dom0 on CPU 0, one DomU running `b` on CPU 1.
pub fn workload_platform(
    rec: &mut Recorder,
    b: Benchmark,
    kernel_scale: u64,
    seed: u64,
) -> Platform {
    rec.span(name::WORKLOAD_PLATFORM, |_| {
        guest_sim::workload_platform(b, sim_machine::VirtMode::Para, 2, 1, kernel_scale, seed)
    })
}

/// Kernel bursts domain `dom` has completed.
pub fn bursts_done(plat: &Platform, dom: usize) -> u64 {
    plat.machine
        .mem
        .peek(guest_sim::guest_addrs(dom).iter_count)
        .expect("guest data mapped")
}

/// Returns simulated cycles consumed; the span counts instructions retired.
pub fn run_until_bursts<M: Monitor>(
    rec: &mut Recorder,
    plat: &mut Platform,
    cpu: usize,
    dom: usize,
    bursts: u64,
    monitor: &mut M,
) -> u64 {
    rec.counted(name::RUN_UNTIL_BURSTS, |_| {
        let before = insns_retired(plat, cpu);
        let cycles = xentry::run_until_bursts(plat, cpu, dom, bursts, monitor);
        (cycles, insns_retired(plat, cpu) - before)
    })
}

/// A monitor that counts VM exits and otherwise is `inner`: the activation
/// count `run_until_bursts` does not return.
pub struct CountExits<M> {
    pub inner: M,
    pub exits: u64,
}

impl<M: Monitor> Monitor for CountExits<M> {
    fn on_vm_exit(&mut self, m: &mut sim_machine::Machine, cpu: usize, reason: ExitReason) {
        self.exits += 1;
        self.inner.on_vm_exit(m, cpu, reason)
    }
    fn on_vm_entry(&mut self, m: &mut sim_machine::Machine, cpu: usize) -> xen_like::Verdict {
        self.inner.on_vm_entry(m, cpu)
    }
    fn on_host_exception(
        &mut self,
        m: &mut sim_machine::Machine,
        cpu: usize,
        e: sim_machine::Exception,
    ) {
        self.inner.on_host_exception(m, cpu, e)
    }
    fn on_assert_fail(&mut self, m: &mut sim_machine::Machine, cpu: usize, id: u16) {
        self.inner.on_assert_fail(m, cpu, id)
    }
}

/// Feature-collecting shim (what the campaign engine walks under).
pub fn collector() -> Xentry {
    Xentry::collector()
}

/// The deployed shim of the Fig. 7 overhead runs.
pub fn overhead_shim(det: &VmTransitionDetector, keep_trace: bool) -> Xentry {
    let mut shim = Xentry::new(xentry::XentryConfig::overhead(), Some(det.clone()));
    shim.keep_trace = keep_trace;
    shim
}

/// Simulated cycles the shim charges for the critical-state copy.
pub fn critical_copy_cycles() -> u64 {
    xentry::XentryConfig::with_recovery().costs.state_copy
}

/// `CriticalState::capture` then `restore` on a platform parked at a VM
/// exit; the span counts the words copied.
pub fn critical_copy(rec: &mut Recorder, plat: &mut Platform, cpu: usize) {
    rec.counted(name::CRITICAL_COPY, |_| {
        let c = xentry::CriticalState::capture(&plat.machine, cpu);
        c.restore(&mut plat.machine);
        ((), c.size_words() as u64)
    })
}

// ---------------------------------------------------------------------------
// mltree / detector
// ---------------------------------------------------------------------------

pub fn dataset(samples: impl IntoIterator<Item = mltree::Sample>) -> Dataset {
    let mut ds = Dataset::new(&xentry::FEATURE_NAMES);
    ds.extend_samples(samples);
    ds
}

pub fn is_incorrect(s: &mltree::Sample) -> bool {
    s.label == Label::Incorrect
}

/// The paper's deployed model: a WEKA-style random tree.
pub fn train_tree(rec: &mut Recorder, ds: &Dataset, seed: u64) -> DecisionTree {
    rec.counted(name::TRAIN_TREE, |_| {
        let cfg = mltree::TrainConfig::random_tree(ds.nr_features(), seed);
        (DecisionTree::train(ds, &cfg), ds.len() as u64)
    })
}

pub fn train_forest(rec: &mut Recorder, ds: &Dataset, trees: usize, seed: u64) -> RandomForest {
    rec.counted(name::TRAIN_FOREST, |_| {
        let mut cfg = mltree::ForestConfig::default_random_forest(ds.nr_features(), seed);
        cfg.nr_trees = trees;
        (RandomForest::train(ds, &cfg), ds.len() as u64)
    })
}

/// Compiles the arena form; the span counts tree nodes.
pub fn detector_new(rec: &mut Recorder, tree: DecisionTree) -> VmTransitionDetector {
    rec.counted(name::COMPILE, |_| {
        let d = VmTransitionDetector::new(tree);
        let n = d.nr_nodes() as u64;
        (d, n)
    })
}

pub fn compile_forest(rec: &mut Recorder, forest: &RandomForest) -> CompiledForest {
    rec.span(name::COMPILE_FOREST, |_| forest.compile())
}

/// The pool as plain feature rows, for the walkers that take `&[u64]`.
pub fn rows(pool: &[FeatureVec]) -> Vec<[u64; 5]> {
    pool.iter().map(FeatureVec::columns).collect()
}

/// The boxed tree the detector was compiled from: the reference walker.
pub fn boxed_tree(det: &VmTransitionDetector) -> &DecisionTree {
    det.tree()
}

pub fn fingerprint(det: &VmTransitionDetector) -> u64 {
    det.fingerprint()
}

/// `(nodes, depth, arena bytes)` of the deployed tree.
pub fn detector_shape(det: &VmTransitionDetector) -> (usize, usize, usize) {
    (det.nr_nodes(), det.depth(), det.arena_bytes())
}

pub fn classify_cost(det: &VmTransitionDetector, f: &FeatureVec) -> usize {
    det.classify_cost(f)
}

/// Simulated cycles the shim charges for that walk.
pub fn classify_cycles(det: &VmTransitionDetector, f: &FeatureVec) -> u64 {
    det.classify_cost(f) as u64 * xentry::XentryConfig::overhead().costs.classify_per_node
}

pub fn classify(det: &VmTransitionDetector, f: &FeatureVec) -> Label {
    det.classify(f)
}

/// One pass of `classify_batch` (or a pinned kernel) over the pool.
pub fn classify_batch_pass(
    rec: &mut Recorder,
    det: &VmTransitionDetector,
    walker: BatchWalker,
    pool: &[FeatureVec],
    out: &mut [Label],
) {
    let span = match walker {
        BatchWalker::Auto => name::CLASSIFY_BATCH,
        BatchWalker::Scalar => name::CLASSIFY_BATCH_SCALAR,
        _ => name::CLASSIFY_BATCH_AVX2,
    };
    rec.counted(span, |_| {
        match walker {
            BatchWalker::Auto => det.classify_batch(pool, out),
            w => det.classify_batch_with(w, pool, out),
        }
        ((), pool.len() as u64)
    })
}

/// One pass of per-record `classify` over the pool.
pub fn classify_single_pass(
    rec: &mut Recorder,
    det: &VmTransitionDetector,
    pool: &[FeatureVec],
    out: &mut [Label],
) {
    rec.counted(name::CLASSIFY_SINGLE, |_| {
        for (f, o) in pool.iter().zip(out.iter_mut()) {
            *o = det.classify(std::hint::black_box(f));
        }
        ((), pool.len() as u64)
    })
}

/// One pass of the boxed reference walker over the pool.
pub fn classify_boxed_pass(
    rec: &mut Recorder,
    tree: &DecisionTree,
    rows: &[[u64; 5]],
    out: &mut [Label],
) {
    rec.counted(name::CLASSIFY_BOXED, |_| {
        for (r, o) in rows.iter().zip(out.iter_mut()) {
            *o = tree.classify(std::hint::black_box(r));
        }
        ((), rows.len() as u64)
    })
}

pub fn forest_batch_pass(
    rec: &mut Recorder,
    forest: &CompiledForest,
    rows: &[[u64; 5]],
    out: &mut [Label],
) {
    rec.counted(name::FOREST_BATCH, |_| {
        forest.classify_batch(rows, out);
        ((), rows.len() as u64)
    })
}

pub fn forest_boxed_pass(
    rec: &mut Recorder,
    forest: &RandomForest,
    rows: &[[u64; 5]],
    out: &mut [Label],
) {
    rec.counted(name::FOREST_BOXED, |_| {
        for (r, o) in rows.iter().zip(out.iter_mut()) {
            *o = forest.classify(std::hint::black_box(r));
        }
        ((), rows.len() as u64)
    })
}

pub fn active_kernel_name() -> &'static str {
    mltree::active_kernel_name()
}

// ---------------------------------------------------------------------------
// xentry-fleet / xentry-wire
// ---------------------------------------------------------------------------

/// `n` real activation feature vectors of a fault-free guest run.
pub fn workload_trace(rec: &mut Recorder, b: Benchmark, n: usize, seed: u64) -> Vec<FeatureVec> {
    rec.counted(name::WORKLOAD_TRACE, |_| {
        (xentry_fleet::replay::workload_trace(b, n, seed), n as u64)
    })
}

/// One shard, a queue deep enough that rejection means backlog, everything
/// else as shipped. `traced: false` turns the always-on flight rings off.
pub fn fleet_start(
    rec: &mut Recorder,
    queue_capacity: usize,
    traced: bool,
    det: &VmTransitionDetector,
    sink: Arc<dyn VerdictSink>,
) -> FleetService {
    rec.span(name::FLEET_START, |_| {
        let mut cfg = xentry_fleet::FleetConfig {
            shards: 1,
            queue_capacity,
            ..Default::default()
        };
        if !traced {
            cfg.trace_depth = 0;
        }
        FleetService::start(cfg, det.clone(), sink)
    })
}

pub fn telemetry_record(seq: u64, features: FeatureVec) -> TelemetryRecord {
    TelemetryRecord::new(0, 0, seq, features)
}

/// Not spanned per record (a span costs as much as the call): the fleet
/// workload opens one `FLEET_INGEST` span per chunk of calls.
#[inline]
pub fn ingest_record(svc: &FleetService, rec: TelemetryRecord) -> bool {
    svc.ingest_record(rec)
}

/// Swap in a model with the incumbent's fingerprint through the validated
/// gate; returns the new version.
pub fn hot_swap_validated(
    rec: &mut Recorder,
    svc: &FleetService,
    det: &VmTransitionDetector,
) -> u64 {
    rec.span(name::FLEET_HOT_SWAP, |_| {
        svc.hot_swap_validated(det.clone(), true)
            .expect("identical model passes the swap gate")
    })
}

pub fn fleet_shutdown(rec: &mut Recorder, svc: FleetService) -> ServiceSnapshot {
    rec.span(name::FLEET_SHUTDOWN, |_| svc.shutdown())
}

/// `n` encodes then `n` decodes of one `Summary` frame.
pub fn summary_frame_round_trips(rec: &mut Recorder, n: usize, seed: u64) {
    let frame = xentry_wire::Frame::Summary(xentry_wire::SummaryFrame {
        seq: seed,
        counters: xentry_wire::HostCounters {
            ingested: 1_000_000,
            classified: 999_000,
            lost: 0,
            dropped: 10,
            incorrect: 12,
            in_flight: 1_000,
        },
        model_epoch: 3,
        model_fingerprint: fold64(seed, 0x7769_7265),
        window_classified: 4_096,
        window_incorrect: 1,
        queue_p99_ns: 2_047,
        classify_p99_ns: 16_383,
    });
    let bytes = rec.counted(name::FRAME_ENCODE, |_| {
        let mut bytes = Vec::new();
        for _ in 0..n {
            bytes = std::hint::black_box(&frame).encode();
        }
        (bytes, n as u64)
    });
    rec.counted(name::FRAME_DECODE, |_| {
        for _ in 0..n {
            let (back, used) = xentry_wire::Frame::decode(std::hint::black_box(&bytes))
                .expect("summary frame decodes");
            assert!(
                used == bytes.len() && back == frame,
                "summary frame round trip"
            );
        }
        ((), n as u64)
    });
}
