//! The two passes over a workload: `run` (untraced, repeated, the source
//! of every end-to-end metric) and `trace` (one traced repeat plus layer
//! probes, the source of every per-layer metric).

use crate::env;
use crate::layers::name;
use crate::metrics::{self, Clock, Workload, PER_LAYER};
use crate::sizes::Sizes;
use crate::span::{Recorder, SelfTime};
use crate::stats::{quiet_slices, series_sum, summarize, Slices, Summary, Timing};
use crate::workloads::{self, check, Check, LayerValues, Outcome, WorkloadImpl};
use std::time::Instant;

/// Grouping spans of the traced pass itself.
const ROOT: &str = "benchmark::trace";
const SETUP: &str = "benchmark::setup";
const UNTRACED_REPEAT: &str = "benchmark::untraced_repeat";
const TRACED_REPEAT: &str = "benchmark::traced_repeat";
const CHECKS: &str = "benchmark::checks";
const LAYER_PROBES: &str = "benchmark::layer_probes";
/// Set-ups per `run` pass (a single shot wanders ±30%). `setup_s` is
/// reported like any other host metric: from the quiet view of the
/// set-ups' slices, one slice per phase.
const SETUPS: usize = 3;

#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// Draws the workload: campaign seeds, guest platform, feature traces.
    pub seed: u64,
    /// Draws the training campaigns and the trees. `seed` again for `run`
    /// and `trace`; fixed in the driver form (see `DRIVER_END_TO_END`).
    pub model_seed: u64,
    pub sizes: Sizes,
    /// Repeats of the `run` pass, fixed before anything is measured.
    pub repeats: usize,
}

pub struct RunReport {
    pub workload: Workload,
    pub seed: u64,
    pub smoke: bool,
    /// Summary of each metric a repeat reported (its `value` from the
    /// quiet slices of all repeats where the metric is a host one), plus
    /// `setup_s` (likewise over the set-ups) and `peak_rss_mb`.
    pub metrics: Vec<(&'static str, Summary)>,
    pub attempted: u64,
    pub failed: u64,
    pub digest: u64,
    pub checks: Vec<Check>,
}

impl RunReport {
    pub fn correct(&self) -> bool {
        self.checks.iter().all(|c| c.pass)
    }

    pub fn summary(&self, name: &str) -> Option<&Summary> {
        self.metrics
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, s)| s)
    }
}

fn run_setups(
    rec: &mut Recorder,
    w: Workload,
    plan: &Plan,
    threads: usize,
) -> (workloads::Inputs, Summary) {
    let mut slices: Vec<Slices> = Vec::new();
    let mut inputs = None;
    for _ in 0..SETUPS {
        drop(inputs.take());
        let inp = workloads::setup(rec, w, plan, threads);
        slices.push(inp.setup_slices.clone());
        inputs = Some(inp);
    }
    let seconds = |s: &Slices| series_sum(s, workloads::SETUP) / 1e9;
    let whole: Vec<f64> = slices.iter().map(seconds).collect();
    let all: Vec<&Slices> = slices.iter().collect();
    let summary = Summary {
        value: seconds(&quiet_slices(&all)),
        ..summarize(&whole)
    };
    (inputs.expect("at least one set-up"), summary)
}

/// Checks every workload shares: exactness across repeats and no failed op.
fn common_checks(repeats: &[&Outcome]) -> Vec<Check> {
    let first = repeats[0];
    let simulated_equal = repeats.iter().all(|o| {
        o.metrics
            .iter()
            .zip(&first.metrics)
            .all(|((n, v), (_, v0))| {
                metrics::end_to_end(n).is_none_or(|m| m.clock == Clock::Host) || v == v0
            })
    });
    vec![
        check(
            format!("result_digest identical across {} repeats", repeats.len()),
            repeats.iter().all(|o| o.digest == first.digest),
        ),
        check(
            "simulated and counted metrics identical across repeats",
            simulated_equal,
        ),
        check("ops_failed == 0", repeats.iter().all(|o| o.failed == 0)),
    ]
}

pub fn run<W: WorkloadImpl>(plan: &Plan) -> RunReport {
    let threads = env::campaign_threads();
    let mut off = Recorder::new(false);
    let (inp, setup) = run_setups(&mut off, W::ID, plan, threads);

    let repeats: Vec<_> = (0..plan.repeats.max(1))
        .map(|_| W::repeat(&mut off, &inp))
        .collect();
    // Before the checks, which run campaigns of their own.
    let peak_rss_mb = env::peak_rss_mb();

    let outcomes: Vec<&Outcome> = repeats.iter().map(|(o, _)| o).collect();
    let mut checks = common_checks(&outcomes);
    checks.extend(W::checks(&mut off, &inp, &repeats));

    // Host metrics are read off the quiet view of every repeat's slices;
    // what each whole repeat read is kept beside them as spread.
    let all_slices: Vec<&Slices> = outcomes.iter().map(|o| &o.slices).collect();
    let quiet = W::host_metrics(&repeats[0].1, &quiet_slices(&all_slices));
    let mut metrics: Vec<(&'static str, Summary)> = outcomes[0]
        .metrics
        .iter()
        .enumerate()
        .map(|(i, (name, _))| {
            let values: Vec<f64> = outcomes.iter().map(|o| o.metrics[i].1).collect();
            let mut summary = summarize(&values);
            if let Some((_, value)) = quiet.iter().find(|(n, _)| n == name) {
                summary.value = *value;
            }
            (*name, summary)
        })
        .collect();
    metrics.push(("setup_s", setup));
    metrics.push(("peak_rss_mb", summarize(&[peak_rss_mb])));
    RunReport {
        workload: W::ID,
        seed: plan.seed,
        smoke: plan.sizes.divisor > 1,
        metrics,
        attempted: outcomes.iter().map(|o| o.attempted).sum(),
        failed: outcomes.iter().map(|o| o.failed).sum(),
        digest: outcomes[0].digest,
        checks,
    }
}

/// One span name's row in `layers.json`.
pub struct SpanRow {
    pub name: &'static str,
    pub timing: Timing,
    pub total_ns: u64,
    pub self_ns: u64,
    pub count: u64,
}

pub struct TraceReport {
    pub workload: Workload,
    pub seed: u64,
    pub smoke: bool,
    /// Every `PER_LAYER` name, 0 where this workload leaves the layer idle.
    pub layers: LayerValues,
    pub spans: Vec<SpanRow>,
    pub self_times: Vec<SelfTime>,
    pub root_ns: u64,
    pub attempted: u64,
    pub failed: u64,
    pub digest: u64,
    pub checks: Vec<Check>,
    pub chrome_trace: String,
}

impl TraceReport {
    pub fn correct(&self) -> bool {
        self.checks.iter().all(|c| c.pass)
    }
}

pub fn trace<W: WorkloadImpl>(plan: &Plan) -> TraceReport {
    let threads = env::campaign_threads();
    let mut off = Recorder::new(false);
    let mut on = Recorder::new(true);
    let mut layers: LayerValues = PER_LAYER.iter().map(|m| (m.name, 0.0)).collect();
    let mut checks = Vec::new();

    let (untraced, traced, setup_s, (nodes, depth, arena)) = on.span(ROOT, |on| {
        let t = Instant::now();
        let inp = on.span(SETUP, |on| workloads::setup(on, W::ID, plan, threads));
        let setup_s = t.elapsed().as_secs_f64();
        // Same repeat twice: tracing off, then on. They must agree on the
        // digest, and the ratio of their times is the tracing overhead.
        let untraced = on.span(UNTRACED_REPEAT, |_| W::repeat(&mut off, &inp).0);
        let traced = on.span(TRACED_REPEAT, |on| W::repeat(on, &inp));
        checks.extend(common_checks(&[&untraced, &traced.0]));
        checks.extend(on.span(CHECKS, |on| {
            W::checks(on, &inp, std::slice::from_ref(&traced))
        }));
        on.span(LAYER_PROBES, |on| {
            W::layers(on, &inp, &traced, &mut layers, &mut checks)
        });
        let shape = crate::layers::detector_shape(&inp.detector);
        (untraced, traced.0, setup_s, shape)
    });

    let self_times = on.self_times();
    let root_ns = on.root_ns();
    let ms = |span| on.timing(span).median / 1e6;
    layers.insert("mltree.train_tree_ms", ms(name::TRAIN_TREE));
    layers.insert("mltree.train_forest_ms", ms(name::TRAIN_FOREST));
    layers.insert("mltree.compile_us", on.timing(name::COMPILE).median / 1e3);
    layers.insert("mltree.tree_nodes", nodes as f64);
    layers.insert("mltree.tree_depth", depth as f64);
    layers.insert("mltree.arena_bytes", arena as f64);
    layers.insert("benchmark.setup_s", setup_s);
    layers.insert(
        "benchmark.trace_overhead_pct",
        100.0 * (traced.wall_s / untraced.wall_s - 1.0),
    );
    layers.insert("benchmark.trace_spans", on.spans().len() as f64);
    checks.push(check(
        "every per-layer value has a PER_LAYER row",
        layers.len() == PER_LAYER.len(),
    ));

    let spans = self_times
        .iter()
        .map(|row| {
            let (total_ns, count) = on.totals(row.name);
            SpanRow {
                name: row.name,
                timing: on.timing(row.name),
                total_ns,
                self_ns: row.self_ns,
                count,
            }
        })
        .collect();
    TraceReport {
        workload: W::ID,
        seed: plan.seed,
        smoke: plan.sizes.divisor > 1,
        layers,
        spans,
        self_times,
        root_ns,
        attempted: untraced.attempted + traced.attempted,
        failed: untraced.failed + traced.failed,
        digest: traced.digest,
        checks,
        chrome_trace: on.chrome_trace(),
    }
}
