//! `guest-run`: the Fig. 7 methodology at paper-calibrated guest scale.
//! The same Postmark guest runs to a fixed number of kernel bursts twice,
//! under `NullMonitor` and under the deployed shim. Nearly every retired
//! instruction is guest-mode, so this is the simulator's step loop at full
//! size with the campaign engine idle.

use super::{check, Check, Inputs, LayerValues, Outcome, WorkloadImpl};
use crate::layers::{self, name, Benchmark, CountExits, Monitor, NullMonitor, Xentry};
use crate::metrics::Workload;
use crate::span::Recorder;
use crate::stats::{series_sum, Slices};
use std::time::Instant;

/// The benchmark's own grouping spans: one activation (`run_to_exit` then
/// `run_handler`) of each leg.
const ACTIVATION_BASELINE: &str = "guest-run::activation(NullMonitor)";
const ACTIVATION_XENTRY: &str = "guest-run::activation(Xentry)";
const CPU: usize = 1;
const DOM: usize = 1;
/// Paper-calibrated guest compute (campaigns divide it by 24).
const KERNEL_SCALE: u64 = 1;
/// Slice series: one slice per `guest_slice_bursts` kernel bursts of a leg.
const BASELINE: &str = "baseline";
const SHIM: &str = "shim";

pub struct GuestRun;

/// One leg: the guest run to the burst target under one monitor.
pub struct Leg {
    pub cycles: u64,
    pub insns: u64,
    pub exits: u64,
    pub bursts: u64,
    pub wall_s: f64,
    /// Host ns of each slice of the leg (the traced leg is one slice).
    pub slice_ns: Vec<f64>,
    pub state_digest: u64,
    /// Simulated clock rate, cycles per simulated second.
    pub hz: u64,
    /// Traced legs only: handler work summed over the activations.
    pub handler_insns: u64,
    pub handler_cycles: u64,
}

pub struct GuestDetail {
    pub baseline: Leg,
    pub xentry: Leg,
    pub shim: Xentry,
}

/// `xentry::run_until_bursts`, called once per slice with the burst target
/// moved up (the platform carries on where it stopped, so the legs retire
/// the same instructions however they are sliced), or — traced — the same
/// loop spelled out with a span on each half of each activation. Both
/// consume the same simulated cycles; the traced pass checks that they do.
fn run_leg<M: Monitor>(
    rec: &mut Recorder,
    inp: &Inputs,
    activation_span: &'static str,
    monitor: M,
) -> (Leg, M) {
    let mut plat = layers::workload_platform(rec, Benchmark::Postmark, KERNEL_SCALE, inp.seed);
    let bursts = inp.sizes.guest_bursts;
    let mut counting = CountExits {
        inner: monitor,
        exits: 0,
    };
    let (mut handler_insns, mut handler_cycles) = (0u64, 0u64);
    let mut slice_ns = Vec::new();
    let t = Instant::now();
    let cycles = if rec.enabled() {
        layers::boot(rec, &mut plat, CPU, &mut counting);
        let start = layers::cycles(&plat, CPU);
        while layers::bursts_done(&plat, DOM) < bursts {
            rec.set_id(counting.exits);
            rec.span(activation_span, |rec| {
                let (reason, guest_cycles) = layers::run_to_exit(rec, &mut plat, CPU);
                let act =
                    layers::run_handler(rec, &mut plat, CPU, reason, guest_cycles, &mut counting);
                handler_insns += act.handler_insns;
                handler_cycles += act.handler_cycles;
            });
        }
        layers::cycles(&plat, CPU) - start
    } else {
        let step = inp.sizes.guest_slice_bursts.max(1);
        let (mut cycles, mut target) = (0, 0);
        while target < bursts {
            target = (target + step).min(bursts);
            let t = Instant::now();
            cycles += layers::run_until_bursts(rec, &mut plat, CPU, DOM, target, &mut counting);
            slice_ns.push(t.elapsed().as_nanos() as f64);
        }
        cycles
    };
    let wall_s = t.elapsed().as_secs_f64();
    if slice_ns.is_empty() {
        slice_ns.push(1e9 * wall_s);
    }
    let leg = Leg {
        cycles,
        insns: layers::insns_retired(&plat, CPU),
        exits: counting.exits,
        bursts: layers::bursts_done(&plat, DOM),
        wall_s,
        slice_ns,
        state_digest: layers::platform_digest(&plat),
        hz: layers::cycle_hz(&plat),
        handler_insns,
        handler_cycles,
    };
    (leg, counting.inner)
}

impl WorkloadImpl for GuestRun {
    type Detail = GuestDetail;
    const ID: Workload = Workload::GuestRun;

    fn repeat(rec: &mut Recorder, inp: &Inputs) -> (Outcome, GuestDetail) {
        let (baseline, _) = run_leg(rec, inp, ACTIVATION_BASELINE, NullMonitor);
        // The traced leg keeps the feature trace to price tree walks.
        let shim = layers::overhead_shim(&inp.detector, rec.enabled());
        let (xentry, shim) = run_leg(rec, inp, ACTIVATION_XENTRY, shim);

        let wall_s = baseline.wall_s + xentry.wall_s;
        let ratio = xentry.cycles as f64 / baseline.cycles as f64;
        let mut digest = inp.fingerprint;
        for v in [
            baseline.cycles,
            baseline.insns,
            baseline.exits,
            baseline.state_digest,
            xentry.cycles,
            xentry.insns,
            xentry.exits,
            xentry.state_digest,
            shim.classified,
            shim.positives,
            shim.added_cycles,
        ] {
            digest = layers::fold64(digest, v);
        }
        let mut metrics = vec![
            ("xentry_overhead_pct", 100.0 * (ratio - 1.0)),
            ("sim_merit_pct", 100.0 / ratio),
            (
                "sim_cost_cycles",
                xentry.cycles.saturating_sub(baseline.cycles) as f64 / xentry.exits.max(1) as f64,
            ),
        ];
        let slices = vec![
            (BASELINE, baseline.slice_ns.clone()),
            (SHIM, xentry.slice_ns.clone()),
        ];
        let attempted = baseline.exits + xentry.exits;
        let failed = baseline.bursts.abs_diff(xentry.bursts);
        let detail = GuestDetail {
            baseline,
            xentry,
            shim,
        };
        metrics.extend(Self::host_metrics(&detail, &slices));
        let outcome = Outcome {
            metrics,
            slices,
            digest,
            attempted,
            failed,
            wall_s,
        };
        (outcome, detail)
    }

    /// The two latency columns are each leg's host cost per thousand
    /// simulated instructions, not per activation: a leg is 150 bursts
    /// whatever the seed, but how many exits they take follows the seed
    /// (8% across ten), and how many instructions hardly does.
    fn host_metrics(d: &GuestDetail, slices: &Slices) -> Vec<(&'static str, f64)> {
        let (baseline_ns, shim_ns) = (series_sum(slices, BASELINE), series_sum(slices, SHIM));
        let insns_per_s =
            1e9 * (d.baseline.insns + d.xentry.insns) as f64 / (baseline_ns + shim_ns);
        vec![
            ("sim_minsn_per_s", insns_per_s / 1e6),
            ("ops_per_s", insns_per_s),
            (
                "op_latency_ns",
                1e3 * shim_ns / d.xentry.insns.max(1) as f64,
            ),
            (
                "op_latency2_ns",
                1e3 * baseline_ns / d.baseline.insns.max(1) as f64,
            ),
        ]
    }

    fn checks(_: &mut Recorder, inp: &Inputs, repeats: &[(Outcome, GuestDetail)]) -> Vec<Check> {
        vec![
            check(
                "both legs reach the same burst count",
                repeats.iter().all(|(_, d)| {
                    d.baseline.bursts == d.xentry.bursts
                        && d.baseline.bursts >= inp.sizes.guest_bursts
                }),
            ),
            check(
                "shim.classified == activations of its leg",
                repeats
                    .iter()
                    .all(|(_, d)| d.shim.classified == d.xentry.exits),
            ),
        ]
    }

    fn layers(
        rec: &mut Recorder,
        _: &Inputs,
        traced: &(Outcome, GuestDetail),
        out: &mut LayerValues,
        _: &mut Vec<Check>,
    ) {
        let d = &traced.1;
        let (guest_ns, guest_insns) = rec.totals(name::RUN_TO_EXIT);
        let (host_ns, host_insns) = rec.totals(name::RUN_HANDLER);
        out.insert(
            "sim-machine.guest_step_ns",
            guest_ns as f64 / guest_insns.max(1) as f64,
        );
        out.insert(
            "sim-machine.host_step_ns",
            host_ns as f64 / host_insns.max(1) as f64,
        );
        out.insert(
            "sim-machine.insns_retired",
            (d.baseline.insns + d.xentry.insns) as f64,
        );
        out.insert(
            "sim-machine.guest_insn_share",
            guest_insns as f64 / (guest_insns + host_insns).max(1) as f64,
        );

        let b = &d.baseline;
        out.insert("xen-like.boot_us", rec.timing(name::BOOT).median / 1e3);
        out.insert(
            "xen-like.activation_us",
            rec.timing(ACTIVATION_BASELINE).median / 1e3,
        );
        out.insert("xen-like.activations", b.exits as f64);
        out.insert(
            "xen-like.handler_insns_per_activation",
            b.handler_insns as f64 / b.exits.max(1) as f64,
        );
        out.insert(
            "xen-like.handler_cycle_share",
            b.handler_cycles as f64 / b.cycles.max(1) as f64,
        );
        out.insert(
            "guest-sim.workload_platform_ms",
            rec.timing(name::WORKLOAD_PLATFORM).median / 1e6,
        );
        out.insert(
            "guest-sim.activations_per_sim_s",
            b.exits as f64 * b.hz as f64 / b.cycles.max(1) as f64,
        );

        let s = &d.shim;
        let classified = s.classified.max(1) as f64;
        out.insert(
            "xentry.activation_us",
            rec.timing(ACTIVATION_XENTRY).median / 1e3,
        );
        out.insert(
            "xentry.added_cycles_per_activation",
            s.added_cycles as f64 / classified,
        );
        out.insert(
            "xentry.tree_nodes_visited_avg",
            s.trace
                .iter()
                .map(|f| layers::classify_cost(s.detector.as_ref().expect("deployed"), f))
                .sum::<usize>() as f64
                / s.trace.len().max(1) as f64,
        );
        out.insert(
            "xentry.false_positive_ratio",
            s.positives as f64 / classified,
        );
        out.insert("xentry.recovery_cycles", s.recovery_cycles as f64);
        out.insert(
            "xentry.overhead_pct",
            100.0 * (d.xentry.cycles as f64 / b.cycles as f64 - 1.0),
        );
    }
}
