//! `campaign-reg` and `campaign-recovery`: the checkpoint-forking campaign
//! engine used two ways, plus the serial injection ladder the traced pass
//! walks through public calls to price each rung of one injection.

use super::{
    check, fold_bytes, tree_walk_cycles, Check, Inputs, LayerValues, Outcome, WorkloadImpl,
};
use crate::layers::{
    self, name, Benchmark, CampaignConfig, InjectionPoint, InjectionRecord, RecoveryAction,
    RecoveryOutcome, RecoveryRecord, VmTransitionDetector,
};
use crate::metrics::Workload;
use crate::span::Recorder;
use crate::stats::{series_sum, Slices};
use std::time::Instant;

/// The benchmark's own grouping span: one replay-to-point rung
/// (stride × `run_activation`, then `run_to_exit`).
const LADDER_REPLAY: &str = "ladder::replay_to_point";
const CPU: usize = 1;
const DOM: usize = 1;

pub struct CampaignReg;
pub struct CampaignRecovery;

/// Slice series: the serial golden walk and the fork phase of each
/// sub-campaign of a repeat.
const GOLDEN: &str = "golden_trace";
const FORK: &str = "fork_phase";

/// Host timings and sizes every campaign repeat keeps. A repeat is
/// `campaign_parts` sub-campaigns, each drawn from its own seed, so that
/// one repeat samples as many injections as one large campaign would and
/// still gives a timed slice every few tenths of a second.
pub struct Phases {
    /// The first sub-campaign: the one the traced pass's ladder walks.
    pub cfg: CampaignConfig,
    pub first_records: usize,
    /// Over all sub-campaigns.
    pub injections: usize,
    pub golden_s: f64,
    pub fork_s: f64,
    pub points: usize,
    pub failed: u64,
    pub slices: Slices,
    /// `layers::checkpoint_stats` of the golden traces: delta words summed,
    /// compression of the first.
    pub checkpoint_delta_words: usize,
    pub checkpoint_compression: f64,
}

pub struct RegDetail {
    pub phases: Phases,
    pub records: Vec<InjectionRecord>,
}

pub struct RecoveryDetail {
    pub phases: Phases,
    pub records: Vec<RecoveryRecord>,
}

/// Sub-campaign `part` of the register-flip campaign (`seed + 1`).
fn reg_config(inp: &Inputs, part: usize, injections: usize, threads: usize) -> CampaignConfig {
    let seed = layers::fold64(inp.seed + 1, part as u64);
    layers::campaign_config(Benchmark::Freqmine, injections, seed, threads)
}

/// Sub-campaign `part` of the recovery campaign (`seed + 2`).
fn recovery_config(inp: &Inputs, part: usize, injections: usize) -> CampaignConfig {
    let seed = layers::fold64(inp.seed + 2, part as u64);
    layers::campaign_config(Benchmark::IrqStorm, injections, seed, inp.threads)
}

fn json<T: serde::Serialize + ?Sized>(v: &T) -> String {
    serde_json::to_string(v).expect("records serialize")
}

/// Missing or surplus records, and golden points the walk skipped.
fn failed_ops(cfg: &CampaignConfig, records: usize, points: usize) -> u64 {
    (cfg.injections.abs_diff(records) + cfg.nr_points().abs_diff(points)) as u64
}

/// One repeat: every sub-campaign's golden walk, then its fork phase
/// (`fork` returns the records and what of the result the digest covers).
/// Returns the phases, all records in sub-campaign order and the digest.
fn run_parts<R>(
    rec: &mut Recorder,
    inp: &Inputs,
    det: Option<&VmTransitionDetector>,
    cfg_of: impl Fn(usize, usize) -> CampaignConfig,
    mut fork: impl FnMut(&mut Recorder, &CampaignConfig, &layers::GoldenTrace) -> (Vec<R>, String),
) -> (Phases, Vec<R>, u64) {
    let parts = inp.sizes.campaign_parts.max(1);
    let per_part = (inp.sizes.campaign_injections / parts).max(1);
    let (mut golden_ns, mut fork_ns) = (Vec::new(), Vec::new());
    let mut records = Vec::new();
    let mut digest = inp.fingerprint;
    let mut first = None;
    let (mut points, mut failed, mut delta_words) = (0, 0, 0);
    for part in 0..parts {
        let cfg = cfg_of(part, per_part);
        let t = Instant::now();
        let trace = layers::golden_trace(rec, &cfg, det);
        golden_ns.push(t.elapsed().as_nanos() as f64);
        let t = Instant::now();
        let (part_records, serialized) = fork(rec, &cfg, &trace);
        fork_ns.push(t.elapsed().as_nanos() as f64);
        digest = fold_bytes(digest, serialized.as_bytes());
        points += trace.points.len();
        failed += failed_ops(&cfg, part_records.len(), trace.points.len());
        let (words, compression) = layers::checkpoint_stats(&trace);
        delta_words += words;
        first.get_or_insert((cfg, part_records.len(), compression));
        records.extend(part_records);
    }
    let (cfg, first_records, checkpoint_compression) = first.expect("at least one sub-campaign");
    let phases = Phases {
        cfg,
        first_records,
        injections: parts * per_part,
        golden_s: golden_ns.iter().sum::<f64>() / 1e9,
        fork_s: fork_ns.iter().sum::<f64>() / 1e9,
        points,
        failed,
        slices: vec![(GOLDEN, golden_ns), (FORK, fork_ns)],
        checkpoint_delta_words: delta_words,
        checkpoint_compression,
    };
    (phases, records, digest)
}

/// Host metrics both campaign workloads share, `native` being the
/// workload's own name for injections per second.
fn campaign_host_metrics(
    native: &'static str,
    p: &Phases,
    nr_records: usize,
    slices: &Slices,
) -> Vec<(&'static str, f64)> {
    let (golden_ns, fork_ns) = (series_sum(slices, GOLDEN), series_sum(slices, FORK));
    let per_s = 1e9 * p.injections as f64 / (golden_ns + fork_ns);
    vec![
        (native, per_s),
        ("ops_per_s", per_s),
        ("op_latency_ns", golden_ns / p.points.max(1) as f64),
        ("op_latency2_ns", fork_ns / nr_records.max(1) as f64),
    ]
}

fn campaign_outcome(
    p: &Phases,
    digest: u64,
    mut metrics: Vec<(&'static str, f64)>,
    host_metrics: Vec<(&'static str, f64)>,
) -> Outcome {
    metrics.extend(host_metrics);
    Outcome {
        metrics,
        slices: p.slices.clone(),
        digest,
        attempted: p.injections as u64,
        failed: p.failed,
        wall_s: p.golden_s + p.fork_s,
    }
}

impl WorkloadImpl for CampaignReg {
    type Detail = RegDetail;
    const ID: Workload = Workload::CampaignReg;

    fn repeat(rec: &mut Recorder, inp: &Inputs) -> (Outcome, RegDetail) {
        let det = Some(&inp.detector);
        let (phases, records, digest) = run_parts(
            rec,
            inp,
            det,
            |part, injections| reg_config(inp, part, injections, inp.threads),
            |rec, cfg, trace| {
                let res = layers::run_campaign_with(rec, cfg, trace, det);
                let serialized = json(&res);
                (res.records, serialized)
            },
        );
        let cov = layers::coverage(&records);
        let detail = RegDetail { phases, records };
        let outcome = campaign_outcome(
            &detail.phases,
            digest,
            vec![
                ("detect_coverage_pct", 100.0 * cov.coverage),
                ("sim_merit_pct", 100.0 * cov.coverage),
                (
                    "sim_cost_cycles",
                    tree_walk_cycles(
                        &inp.detector,
                        detail.records.iter().map(|r| &r.golden_features),
                    ),
                ),
            ],
            Self::host_metrics(&detail, &detail.phases.slices),
        );
        (outcome, detail)
    }

    fn host_metrics(d: &RegDetail, slices: &Slices) -> Vec<(&'static str, f64)> {
        campaign_host_metrics("campaign_inj_per_s", &d.phases, d.records.len(), slices)
    }

    fn checks(rec: &mut Recorder, inp: &Inputs, repeats: &[(Outcome, RegDetail)]) -> Vec<Check> {
        let det = Some(&inp.detector);
        let mut out = vec![check(
            "records.len() == injections in every repeat",
            repeats
                .iter()
                .all(|(_, d)| d.records.len() == d.phases.injections),
        )];

        // The result must not depend on the thread count.
        let one = reg_config(inp, 0, inp.sizes.thread_check_injections, 1);
        let wide = crate::env::wide_threads();
        let many = reg_config(inp, 0, inp.sizes.thread_check_injections, wide);
        let trace = layers::golden_trace(rec, &one, det);
        let serial = json(&layers::run_campaign_with(rec, &one, &trace, det));
        let parallel = json(&layers::run_campaign_with(rec, &many, &trace, det));
        out.push(check(
            format!(
                "threads=1 == threads={wide} on {} injections",
                one.injections
            ),
            serial == parallel,
        ));

        // Nor on forking from checkpoints instead of replaying from boot.
        let slice = reg_config(inp, 0, inp.sizes.from_boot_injections, 1);
        let trace = layers::golden_trace(rec, &slice, det);
        let forked = json(&layers::run_campaign_with(rec, &slice, &trace, det));
        let booted = json(&layers::run_campaign_from_boot(rec, &slice, det));
        out.push(check(
            format!("fork == from-boot on {} injections", slice.injections),
            forked == booted,
        ));
        out
    }

    fn layers(
        rec: &mut Recorder,
        inp: &Inputs,
        traced: &(Outcome, RegDetail),
        out: &mut LayerValues,
        checks: &mut Vec<Check>,
    ) {
        let d = &traced.1;
        let det = Some(&inp.detector);
        let per_point = d.phases.cfg.per_point;
        let ladder = walk_ladder(
            rec,
            &d.phases.cfg,
            det,
            inp.sizes.ladder_points,
            |rec, ord, point| {
                // Re-inject the engine's own specs for this ordinal of the
                // first sub-campaign and demand the engine's own records back.
                let lo = (ord * per_point).min(d.phases.first_records);
                let hi = ((ord + 1) * per_point).min(d.phases.first_records);
                d.records[lo..hi]
                    .iter()
                    .filter(|theirs| {
                        let ours = layers::inject(rec, point, layers::spec_of(theirs), det);
                        json(&ours) != json(*theirs)
                    })
                    .count() as u64
            },
        );
        phase_layers(rec, inp, &d.phases, &ladder, out);
        checks.push(check(
            format!(
                "serial ladder == engine records over {} golden points",
                ladder.points
            ),
            ladder.mismatches == 0,
        ));

        // Fork phase of the first sub-campaign again, at one thread and at
        // every CPU, over the same golden trace.
        let trace = layers::golden_trace(rec, &d.phases.cfg, det);
        let mut fork_at = |threads: usize| {
            let cfg = CampaignConfig {
                threads,
                ..d.phases.cfg.clone()
            };
            let t = Instant::now();
            let res = layers::run_campaign_with(rec, &cfg, &trace, det);
            (t.elapsed().as_secs_f64(), res)
        };
        let (serial_s, serial) = fork_at(1);
        let (wide_s, wide) = fork_at(crate::env::wide_threads());
        out.insert("faultsim.fork_scaling", serial_s / wide_s);
        let engine = json(&d.records[..d.phases.first_records]);
        checks.push(check(
            "fork phase at one thread and at every CPU reproduces the traced repeat's records",
            json(&serial.records) == engine && json(&wide.records) == engine,
        ));

        // The from-boot reference engine was timed by the fork == from-boot
        // check, which the traced pass runs under this recorder.
        let (boot_ns, boot_injections) = rec.totals(name::RUN_FROM_BOOT);
        out.insert(
            "faultsim.from_boot_inj_per_s",
            1e9 * boot_injections as f64 / boot_ns.max(1) as f64,
        );

        let cov = layers::coverage(&d.records);
        out.insert(
            "faultsim.manifested_ratio",
            cov.manifested as f64 / cov.injected.max(1) as f64,
        );
        out.insert("faultsim.detected", cov.detected as f64);
        out.insert("faultsim.undetected", cov.undetected as f64);
        out.insert("faultsim.benign", (cov.injected - cov.manifested) as f64);
        out.insert("faultsim.detect_coverage_pct", 100.0 * cov.coverage);
    }
}

/// The ladder entry of a recovery record under the one policy table.
fn ladder_of(r: &RecoveryRecord) -> Option<&layers::PolicyRecovery> {
    r.per_policy.first().and_then(Option::as_ref)
}

fn recovered_pct(records: &[RecoveryRecord]) -> f64 {
    let detected = records.iter().filter_map(ladder_of).count();
    let recovered = records
        .iter()
        .filter_map(ladder_of)
        .filter(|p| matches!(p.outcome, RecoveryOutcome::Recovered { .. }))
        .count();
    100.0 * recovered as f64 / detected.max(1) as f64
}

/// Simulated cycles of one microreboot attempt (the paper-side ~121k),
/// averaged over the attempts the ladders made. Not the ladder's mean cost
/// per fault: that follows how many faults happen to need the reboot tier,
/// a coin the seed flips (7% spread across ten seeds).
fn microreboot_cycles_avg(records: &[RecoveryRecord]) -> f64 {
    let (mut attempts, mut cycles) = (0usize, 0u64);
    for p in records.iter().filter_map(ladder_of) {
        attempts += p
            .steps
            .iter()
            .filter(|s| s.action == RecoveryAction::Microreboot)
            .count();
        cycles += p.microreboot_cycles;
    }
    cycles as f64 / attempts.max(1) as f64
}

impl WorkloadImpl for CampaignRecovery {
    type Detail = RecoveryDetail;
    const ID: Workload = Workload::CampaignRecovery;

    fn repeat(rec: &mut Recorder, inp: &Inputs) -> (Outcome, RecoveryDetail) {
        let det = Some(&inp.detector);
        let tables = [layers::tiered_policy()];
        let (phases, records, digest) = run_parts(
            rec,
            inp,
            det,
            |part, injections| recovery_config(inp, part, injections),
            |rec, cfg, trace| {
                let res = layers::run_recovery_campaign_with(rec, cfg, trace, det, &tables);
                let serialized = json(&res.records);
                (res.records, serialized)
            },
        );
        let detail = RecoveryDetail { phases, records };
        let recovered = recovered_pct(&detail.records);
        let outcome = campaign_outcome(
            &detail.phases,
            digest,
            vec![
                ("recovered_pct", recovered),
                ("sim_merit_pct", recovered),
                ("sim_cost_cycles", microreboot_cycles_avg(&detail.records)),
            ],
            Self::host_metrics(&detail, &detail.phases.slices),
        );
        (outcome, detail)
    }

    fn host_metrics(d: &RecoveryDetail, slices: &Slices) -> Vec<(&'static str, f64)> {
        campaign_host_metrics("recovery_inj_per_s", &d.phases, d.records.len(), slices)
    }

    fn checks(_: &mut Recorder, _: &Inputs, repeats: &[(Outcome, RecoveryDetail)]) -> Vec<Check> {
        let max = layers::max_ladder_steps(&layers::tiered_policy());
        let all = |f: &dyn Fn(&RecoveryRecord) -> bool| {
            repeats.iter().all(|(_, d)| d.records.iter().all(f))
        };
        vec![
            check(
                "records.len() == injections in every repeat",
                repeats
                    .iter()
                    .all(|(_, d)| d.records.len() == d.phases.injections),
            ),
            check(
                "every record has one per_policy entry",
                all(&|r| r.per_policy.len() == 1),
            ),
            check(
                format!("every ladder has at most {max} steps"),
                all(&|r| ladder_of(r).is_none_or(|p| p.steps.len() <= max)),
            ),
        ]
    }

    fn layers(
        rec: &mut Recorder,
        inp: &Inputs,
        traced: &(Outcome, RecoveryDetail),
        out: &mut LayerValues,
        checks: &mut Vec<Check>,
    ) {
        let d = &traced.1;
        let det = Some(&inp.detector);
        let table = layers::tiered_policy();
        let mut reboot_cycles = 0u64;
        let ladder = walk_ladder(
            rec,
            &d.phases.cfg,
            det,
            inp.sizes.ladder_points,
            |rec, ord, point| {
                // What the recovery tiers are built from, priced on this
                // point's VM-exit state.
                let mut scratch = point.at_exit.clone();
                layers::critical_copy(rec, &mut scratch, CPU);
                reboot_cycles = layers::microreboot_restore(rec, &mut scratch, CPU);
                d.records[..d.phases.first_records]
                    .iter()
                    .filter(|r| r.ordinal == ord)
                    .filter(|theirs| {
                        let ours =
                            layers::recover_with_policy(rec, point, theirs.spec, det, &table);
                        ours.as_ref() != ladder_of(theirs)
                    })
                    .count() as u64
            },
        );
        phase_layers(rec, inp, &d.phases, &ladder, out);
        checks.push(check(
            format!(
                "serial ladder == engine records over {} golden points",
                ladder.points
            ),
            ladder.mismatches == 0,
        ));

        out.insert(
            "faultsim.recover_us",
            rec.timing(name::RECOVER).median / 1e3,
        );
        out.insert(
            "xen-like.microreboot_us",
            rec.timing(name::MICROREBOOT_RESTORE).median / 1e3,
        );
        out.insert("xen-like.microreboot_cycles", reboot_cycles as f64);
        out.insert(
            "xentry.critical_copy_ns",
            rec.timing(name::CRITICAL_COPY).median,
        );
        out.insert(
            "xentry.critical_copy_cycles",
            layers::critical_copy_cycles() as f64,
        );

        let ladders: Vec<_> = d.records.iter().filter_map(ladder_of).collect();
        let n = ladders.len().max(1) as f64;
        out.insert(
            "faultsim.ladder_steps_avg",
            ladders.iter().map(|p| p.steps.len()).sum::<usize>() as f64 / n,
        );
        out.insert(
            "faultsim.microreboot_attempts",
            ladders
                .iter()
                .flat_map(|p| &p.steps)
                .filter(|s| s.action == RecoveryAction::Microreboot)
                .count() as f64,
        );
        out.insert(
            "faultsim.reexec_cycles_avg",
            ladders.iter().map(|p| p.reexec_cycles).sum::<u64>() as f64 / n,
        );
        out.insert("faultsim.detected", ladders.len() as f64);
        out.insert(
            "faultsim.undetected",
            (d.records.len() - ladders.len()) as f64,
        );
        out.insert("faultsim.recovered_pct", recovered_pct(&d.records));
    }
}

struct Ladder {
    points: usize,
    mismatches: u64,
    /// Instructions retired on the walk's CPU, and the host-mode part.
    insns: u64,
    host_insns: u64,
}

/// Walk the first `points` golden points of `cfg` serially, the way the
/// engine's golden pass and forks do, but through public calls with a span
/// on each: checkpoint push / restore at segment boundaries, replay to the
/// point, snapshot, `prepare_point`, then `at_point` (which injects and
/// returns how many of its records disagree with the engine's), then the
/// live handler. Spans of one point share its ordinal as id.
fn walk_ladder(
    rec: &mut Recorder,
    cfg: &CampaignConfig,
    det: Option<&VmTransitionDetector>,
    points: usize,
    mut at_point: impl FnMut(&mut Recorder, usize, &InjectionPoint) -> u64,
) -> Ladder {
    let points = points.min(cfg.nr_points());
    let ci = cfg.checkpoint_interval.max(1);
    let mut mismatches = 0u64;
    let mut host_insns = 0u64;
    let mut plat = layers::campaign_platform(cfg);
    let mut collector = layers::collector();
    layers::boot(rec, &mut plat, CPU, &mut collector);
    let boot_insns = layers::insns_retired(&plat, CPU);
    for _ in 0..cfg.warmup {
        host_insns += layers::run_activation(rec, &mut plat, CPU, &mut collector).handler_insns;
    }
    let mut tip = layers::snapshot(rec, &plat);
    let mut store = layers::checkpoint_new(tip.clone());
    for ordinal in 0..points {
        rec.set_id(ordinal as u64);
        if ordinal > 0 && ordinal.is_multiple_of(ci) {
            // Segment boundary: the delta pair alone, then the store's
            // push and restore; each must land on the live state.
            layers::checkpoint_push(rec, &mut store, &plat);
            layers::delta_pair(rec, &mut tip, &plat);
            let live = layers::machine_digest(rec, &plat);
            mismatches += (layers::machine_digest(rec, &tip) != live) as u64;
            let restored = layers::checkpoint_restore(rec, &store, ordinal / ci);
            mismatches +=
                (layers::platform_digest(&restored) != layers::platform_digest(&plat)) as u64;
            plat = restored;
        }
        let reason = rec.span(LADDER_REPLAY, |rec| {
            for _ in 0..cfg.stride {
                host_insns +=
                    layers::run_activation(rec, &mut plat, CPU, &mut collector).handler_insns;
            }
            layers::run_to_exit(rec, &mut plat, CPU).0
        });
        let at_exit = layers::snapshot(rec, &plat);
        match layers::prepare_point(rec, at_exit, CPU, DOM, reason, cfg.post_window, det) {
            Some(point) => mismatches += at_point(rec, ordinal, &point),
            None => mismatches += 1,
        }
        host_insns +=
            layers::run_handler(rec, &mut plat, CPU, reason, 0, &mut collector).handler_insns;
    }
    Ladder {
        points,
        mismatches,
        insns: layers::insns_retired(&plat, CPU) - boot_insns,
        host_insns,
    }
}

/// Per-layer rows both campaign workloads share: the two engine phases of
/// the traced repeat and the ladder's rungs.
fn phase_layers(
    rec: &mut Recorder,
    inp: &Inputs,
    p: &Phases,
    ladder: &Ladder,
    out: &mut LayerValues,
) {
    out.insert("faultsim.golden_trace_s", p.golden_s);
    out.insert(
        "faultsim.golden_point_us",
        1e6 * p.golden_s / p.points.max(1) as f64,
    );
    out.insert("faultsim.fork_phase_s", p.fork_s);
    out.insert(
        "faultsim.serial_share",
        p.golden_s / (p.golden_s + p.fork_s),
    );
    out.insert(
        "faultsim.checkpoint_delta_words",
        p.checkpoint_delta_words as f64,
    );
    out.insert("faultsim.checkpoint_compression", p.checkpoint_compression);

    let median_us = |rec: &Recorder, span: &str| rec.timing(span).median / 1e3;
    out.insert(
        "faultsim.restore_us",
        median_us(rec, name::CHECKPOINT_RESTORE),
    );
    out.insert(
        "faultsim.checkpoint_push_us",
        median_us(rec, name::CHECKPOINT_PUSH),
    );
    out.insert("faultsim.replay_us", median_us(rec, LADDER_REPLAY));
    out.insert("faultsim.prepare_us", median_us(rec, name::PREPARE_POINT));
    out.insert("faultsim.inject_us", median_us(rec, name::INJECT));
    out.insert("sim-machine.snapshot_us", median_us(rec, name::SNAPSHOT));
    out.insert("sim-machine.delta_us", median_us(rec, name::DELTA_PAIR));
    out.insert(
        "sim-machine.state_digest_us",
        median_us(rec, name::STATE_DIGEST),
    );
    out.insert("xen-like.boot_us", median_us(rec, name::BOOT));

    let (guest_ns, guest_insns) = rec.totals(name::RUN_TO_EXIT);
    out.insert(
        "sim-machine.guest_step_ns",
        guest_ns as f64 / guest_insns.max(1) as f64,
    );
    let (host_ns, host_insns) = rec.totals(name::RUN_HANDLER);
    out.insert(
        "sim-machine.host_step_ns",
        host_ns as f64 / host_insns.max(1) as f64,
    );
    out.insert("benchmark.ladder_mismatches", ladder.mismatches as f64);
    out.insert("sim-machine.insns_retired", ladder.insns as f64);
    out.insert(
        "sim-machine.guest_insn_share",
        1.0 - ladder.host_insns as f64 / ladder.insns.max(1) as f64,
    );

    // Assembling the hypervisor image: what every campaign_platform pays.
    for i in 0..3 {
        layers::platform_new(rec, inp.seed + i);
    }
    out.insert(
        "xen-like.platform_new_ms",
        rec.timing(name::PLATFORM_NEW).median / 1e6,
    );
}
