//! Every name the benchmark prints: workloads, end-to-end metrics (the
//! fourteen native ones and the column view `BENCHMARK.json` gates),
//! and per-layer metrics. `benchmark list` prints these tables and a unit
//! test holds `BENCHMARK.json` to them.

/// Which of the two clocks a number is on. Simulated and counted values
/// are exact: for one seed they repeat bit for bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    /// Host nanoseconds: what the simulator and the services cost us.
    Host,
    /// Simulated cycles or counts: what the paper's claims are made in.
    Simulated,
}

impl Clock {
    pub fn name(self) -> &'static str {
        match self {
            Clock::Host => "host",
            Clock::Simulated => "simulated",
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    CampaignReg,
    CampaignRecovery,
    GuestRun,
    FleetServe,
    ClassifyPool,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::CampaignReg,
        Workload::CampaignRecovery,
        Workload::GuestRun,
        Workload::FleetServe,
        Workload::ClassifyPool,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::CampaignReg => "campaign-reg",
            Workload::CampaignRecovery => "campaign-recovery",
            Workload::GuestRun => "guest-run",
            Workload::FleetServe => "fleet-serve",
            Workload::ClassifyPool => "classify-pool",
        }
    }

    pub fn from_name(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// One line: why the workload exists (also `why` in `BENCHMARK.json`).
    pub fn why(self) -> &'static str {
        match self {
            Workload::CampaignReg => {
                "register-flip campaign, detector deployed: faultsim restore/replay/prepare/inject \
                 and host-mode stepping do the work; mltree and the fleet do almost none"
            }
            Workload::CampaignRecovery => {
                "same engine, writes beside reads: memory/burst/PTE/PMC strikes driven through \
                 re-execute and microreboot; only user of faultsim::policy and microreboot_restore"
            }
            Workload::GuestRun => {
                "Fig. 7 guest at paper scale, ~96% guest-mode instructions: sim-machine step loop \
                 at full size with faultsim idle; a checkpoint change must not move it"
            }
            Workload::FleetServe => {
                "one sender, one shard, open loop at 250k and 1M rec/s then closed loop: \
                 xentry-fleet queue, shard and trace rings do the work, the simulator is idle"
            }
            Workload::ClassifyPool => {
                "offline scoring of a fixed 8,192-vector pool: the only place mltree does most \
                 of the work; bypasses simulator, campaign engine and fleet"
            }
        }
    }

    /// Repeats of a pass asked to measure for `seconds` (`run` always asks
    /// for `RUN_SECONDS`): a count fixed by the request and by what one
    /// full-size repeat took on the 2-core sandbox when the sizes were
    /// chosen — never by how fast this build turns out to be, so faster code
    /// does not get more draws.
    pub fn repeats(self, seconds: f64) -> usize {
        let nominal_repeat_s = match self {
            Workload::CampaignReg | Workload::CampaignRecovery => 0.6,
            Workload::GuestRun => 0.55,
            Workload::FleetServe => 0.5,
            Workload::ClassifyPool => 0.3,
        };
        ((seconds / nominal_repeat_s).ceil() as usize).max(4)
    }
}

/// What `run` measures for, and `run_seconds` in `BENCHMARK.json`.
pub const RUN_SECONDS: f64 = 12.0;

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub clock: Clock,
    pub better: Better,
    /// Share of the baseline median by which the metric may worsen before
    /// a change counts as a regression.
    pub bound: f64,
    /// The workload it is measured on; `None` = every workload.
    pub workload: Option<Workload>,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    clock: Clock,
    better: Better,
    bound: f64,
    workload: Option<Workload>,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        clock,
        better,
        bound,
        workload,
    }
}

use Better::{Higher, Lower};
use Clock::{Host, Simulated};

/// The fourteen end-to-end metrics, each native to one workload (the
/// first two to all). `run` prints these and `compare` holds a same-seed
/// pair of runs to these bounds. A simulated metric's bound is zero: at one
/// seed it must not move at all. Host bounds are about three times the
/// same-seed run-to-run spread seen on the 2-core sandbox in a calm hour
/// (≤ 4% for the throughputs and latencies; peak RSS and set-up wander
/// more).
pub const END_TO_END: [MetricDef; 14] = [
    e2e("setup_s", "s", Host, Lower, 0.25, None),
    e2e("peak_rss_mb", "MiB", Host, Lower, 0.25, None),
    e2e(
        "campaign_inj_per_s",
        "1/s",
        Host,
        Higher,
        0.10,
        Some(Workload::CampaignReg),
    ),
    e2e(
        "detect_coverage_pct",
        "%",
        Simulated,
        Higher,
        0.0,
        Some(Workload::CampaignReg),
    ),
    e2e(
        "recovery_inj_per_s",
        "1/s",
        Host,
        Higher,
        0.10,
        Some(Workload::CampaignRecovery),
    ),
    e2e(
        "recovered_pct",
        "%",
        Simulated,
        Higher,
        0.0,
        Some(Workload::CampaignRecovery),
    ),
    e2e(
        "sim_minsn_per_s",
        "Minsn/s",
        Host,
        Higher,
        0.10,
        Some(Workload::GuestRun),
    ),
    e2e(
        "xentry_overhead_pct",
        "%",
        Simulated,
        Lower,
        0.0,
        Some(Workload::GuestRun),
    ),
    e2e(
        "fleet_capacity_rec_per_s",
        "1/s",
        Host,
        Higher,
        0.10,
        Some(Workload::FleetServe),
    ),
    e2e(
        "fleet_p50_ns_at_250k",
        "ns",
        Host,
        Lower,
        0.10,
        Some(Workload::FleetServe),
    ),
    e2e(
        "fleet_p50_ns_at_1m",
        "ns",
        Host,
        Lower,
        0.10,
        Some(Workload::FleetServe),
    ),
    e2e(
        "classify_batch_ns",
        "ns",
        Host,
        Lower,
        0.10,
        Some(Workload::ClassifyPool),
    ),
    e2e(
        "classify_single_ns",
        "ns",
        Host,
        Lower,
        0.10,
        Some(Workload::ClassifyPool),
    ),
    e2e(
        "forest_batch_ns",
        "ns",
        Host,
        Lower,
        0.10,
        Some(Workload::ClassifyPool),
    ),
];

/// The view `BENCHMARK.json` gates. Its driver runs one workload per
/// process and wants every end-to-end metric, never 0, from every run, so
/// the fourteen workload-native metrics are read through columns that exist
/// on every workload. Every native metric is gated in one of them, in its
/// own per-operation unit (README.md has the same table):
///
/// | column | campaign-reg | campaign-recovery | guest-run | fleet-serve | classify-pool |
/// |---|---|---|---|---|---|
/// | `ops_per_s` | `campaign_inj_per_s` | `recovery_inj_per_s` | `sim_minsn_per_s`×1e6 | `fleet_capacity_rec_per_s` | records/s = 1e9 / `classify_batch_ns` |
/// | `op_latency_ns` | golden walk per point | golden walk per point | host ns per 1,000 instructions under the shim | `fleet_p50_ns_at_1m` | `classify_single_ns` |
/// | `op_latency2_ns` | fork phase per injection | fork phase per injection | host ns per 1,000 instructions under `NullMonitor` | `fleet_p50_ns_at_250k` | `forest_batch_ns` |
/// | `sim_merit_pct` | `detect_coverage_pct` | `recovered_pct` | 100/(1+overhead) | % labelled Correct | % labelled Correct |
/// | `sim_cost_cycles` | tree-walk cycles per vector | cycles per microreboot attempt | shim cycles added per activation (numerator of `xentry_overhead_pct`) | tree-walk cycles per vector | tree-walk cycles per vector |
///
/// The driver varies `--seed` between runs, and its acceptance test is the
/// spread of each column *across seeds*, so a simulated column cannot keep
/// the zero bound it has at one seed (`compare` and `result_digest` hold
/// that): its bound is a sampling band. In the driver form the deployed
/// model is trained from `DEFAULT_SEED` whatever `--seed` says — a per-seed
/// tree put 15–25% of tree-shape spread under every per-record column — and
/// `--seed` draws the campaigns, the guest and the feature traces.
///
/// Bounds: the driver allows 25% at most and accepts a column only while
/// its ten-seed spread (interquartile range over median) fits inside the
/// bound. Simulated columns spread 0.1–2.5% (a repeat is 768 injections or
/// 150 bursts, so coverage and tree-walk cycles follow the sample drawn):
/// 8%, three times that. Host columns spread 1–8% in the sandbox's calmer
/// hours and more in its busy ones (README.md has the sets), so they stay at
/// the cap and not at the native 10%.
pub const DRIVER_END_TO_END: [MetricDef; 7] = [
    e2e("ops_per_s", "1/s", Host, Higher, 0.25, None),
    e2e("op_latency_ns", "ns", Host, Lower, 0.25, None),
    e2e("op_latency2_ns", "ns", Host, Lower, 0.25, None),
    e2e("sim_merit_pct", "%", Simulated, Higher, 0.08, None),
    e2e("sim_cost_cycles", "cycles", Simulated, Lower, 0.08, None),
    e2e("peak_rss_mb", "MiB", Host, Lower, 0.25, None),
    e2e("setup_s", "s", Host, Lower, 0.25, None),
];

const fn layer(name: &'static str, unit: &'static str, clock: Clock, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        clock,
        better,
        bound: 0.0,
        workload: None,
    }
}

/// Per-layer metrics, `layer.metric`; the layers are the crates. A traced
/// run of any workload reports all of them, 0 where the workload does not
/// exercise the layer (which is itself the prediction being checked).
pub const PER_LAYER: [MetricDef; 87] = [
    // sim-machine
    layer("sim-machine.guest_step_ns", "ns", Host, Lower),
    layer("sim-machine.host_step_ns", "ns", Host, Lower),
    layer("sim-machine.snapshot_us", "us", Host, Lower),
    layer("sim-machine.delta_us", "us", Host, Lower),
    layer("sim-machine.state_digest_us", "us", Host, Lower),
    layer("sim-machine.insns_retired", "count", Simulated, Higher),
    layer("sim-machine.guest_insn_share", "ratio", Simulated, Higher),
    // xen-like
    layer("xen-like.platform_new_ms", "ms", Host, Lower),
    layer("xen-like.boot_us", "us", Host, Lower),
    layer("xen-like.activation_us", "us", Host, Lower),
    layer("xen-like.activations", "count", Simulated, Higher),
    layer(
        "xen-like.handler_insns_per_activation",
        "count",
        Simulated,
        Lower,
    ),
    layer("xen-like.handler_cycle_share", "ratio", Simulated, Lower),
    layer("xen-like.microreboot_us", "us", Host, Lower),
    layer("xen-like.microreboot_cycles", "cycles", Simulated, Lower),
    // guest-sim
    layer("guest-sim.workload_platform_ms", "ms", Host, Lower),
    layer("guest-sim.activations_per_sim_s", "1/s", Simulated, Lower),
    // xentry
    layer("xentry.activation_us", "us", Host, Lower),
    layer(
        "xentry.added_cycles_per_activation",
        "cycles",
        Simulated,
        Lower,
    ),
    layer("xentry.tree_nodes_visited_avg", "count", Simulated, Lower),
    layer("xentry.false_positive_ratio", "ratio", Simulated, Lower),
    layer("xentry.recovery_cycles", "cycles", Simulated, Lower),
    layer("xentry.critical_copy_ns", "ns", Host, Lower),
    layer("xentry.critical_copy_cycles", "cycles", Simulated, Lower),
    layer("xentry.overhead_pct", "%", Simulated, Lower),
    // mltree
    layer("mltree.batch_auto_ns", "ns", Host, Lower),
    layer("mltree.batch_scalar_ns", "ns", Host, Lower),
    layer("mltree.batch_avx2_ns", "ns", Host, Lower),
    layer("mltree.single_compiled_ns", "ns", Host, Lower),
    layer("mltree.single_boxed_ns", "ns", Host, Lower),
    layer("mltree.forest_batch_ns", "ns", Host, Lower),
    layer("mltree.forest_boxed_ns", "ns", Host, Lower),
    layer("mltree.train_tree_ms", "ms", Host, Lower),
    layer("mltree.train_forest_ms", "ms", Host, Lower),
    layer("mltree.compile_us", "us", Host, Lower),
    layer("mltree.tree_nodes", "count", Simulated, Lower),
    layer("mltree.tree_depth", "count", Simulated, Lower),
    layer("mltree.arena_bytes", "bytes", Simulated, Lower),
    // faultsim
    layer("faultsim.golden_trace_s", "s", Host, Lower),
    layer("faultsim.golden_point_us", "us", Host, Lower),
    layer("faultsim.fork_phase_s", "s", Host, Lower),
    layer("faultsim.serial_share", "ratio", Host, Lower),
    layer("faultsim.fork_scaling", "ratio", Host, Higher),
    layer("faultsim.restore_us", "us", Host, Lower),
    layer("faultsim.checkpoint_push_us", "us", Host, Lower),
    layer("faultsim.replay_us", "us", Host, Lower),
    layer("faultsim.prepare_us", "us", Host, Lower),
    layer("faultsim.inject_us", "us", Host, Lower),
    layer("faultsim.recover_us", "us", Host, Lower),
    layer("faultsim.ladder_steps_avg", "count", Simulated, Lower),
    layer("faultsim.microreboot_attempts", "count", Simulated, Lower),
    layer("faultsim.reexec_cycles_avg", "cycles", Simulated, Lower),
    layer("faultsim.checkpoint_delta_words", "count", Simulated, Lower),
    layer(
        "faultsim.checkpoint_compression",
        "ratio",
        Simulated,
        Higher,
    ),
    layer("faultsim.manifested_ratio", "ratio", Simulated, Higher),
    layer("faultsim.detected", "count", Simulated, Higher),
    layer("faultsim.undetected", "count", Simulated, Lower),
    layer("faultsim.benign", "count", Simulated, Lower),
    layer("faultsim.detect_coverage_pct", "%", Simulated, Higher),
    layer("faultsim.recovered_pct", "%", Simulated, Higher),
    layer("faultsim.from_boot_inj_per_s", "1/s", Host, Higher),
    // xentry-fleet
    layer("xentry-fleet.ingest_ns", "ns", Host, Lower),
    layer("xentry-fleet.retries_per_record", "ratio", Host, Lower),
    layer("xentry-fleet.queue_wait_p50_ns", "ns", Host, Lower),
    layer("xentry-fleet.queue_wait_p99_ns", "ns", Host, Lower),
    layer("xentry-fleet.classify_p50_ns", "ns", Host, Lower),
    layer("xentry-fleet.verdict_p50_ns_at_250k", "ns", Host, Lower),
    layer("xentry-fleet.verdict_p90_ns_at_1m", "ns", Host, Lower),
    layer("xentry-fleet.verdict_p99_ns_at_1m", "ns", Host, Lower),
    layer("xentry-fleet.verdict_p999_ns_at_1m", "ns", Host, Lower),
    layer("xentry-fleet.generator_late_max_us", "us", Host, Lower),
    layer("xentry-fleet.open_loop_turned_away", "count", Host, Lower),
    layer(
        "xentry-fleet.untraced_capacity_rec_per_s",
        "1/s",
        Host,
        Higher,
    ),
    layer("xentry-fleet.hot_swap_us", "us", Host, Lower),
    layer("xentry-fleet.start_ms", "ms", Host, Lower),
    layer("xentry-fleet.shutdown_ms", "ms", Host, Lower),
    layer("xentry-fleet.ingested", "count", Simulated, Higher),
    layer("xentry-fleet.classified", "count", Simulated, Higher),
    layer("xentry-fleet.dropped", "count", Simulated, Lower),
    layer("xentry-fleet.lost", "count", Simulated, Lower),
    layer("xentry-fleet.incidents", "count", Simulated, Lower),
    // xentry-wire
    layer("xentry-wire.summary_encode_ns", "ns", Host, Lower),
    layer("xentry-wire.summary_decode_ns", "ns", Host, Lower),
    // the benchmark itself
    layer("benchmark.setup_s", "s", Host, Lower),
    layer("benchmark.trace_overhead_pct", "%", Host, Lower),
    layer("benchmark.trace_spans", "count", Host, Lower),
    layer("benchmark.ladder_mismatches", "count", Simulated, Lower),
];

pub fn end_to_end(name: &str) -> Option<&'static MetricDef> {
    END_TO_END
        .iter()
        .chain(DRIVER_END_TO_END.iter())
        .find(|m| m.name == name)
}
