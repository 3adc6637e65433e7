//! One experiment per table/figure of the paper's evaluation. Each function
//! returns a serializable report with a `render()` that prints the same
//! rows/series the paper reports.

use crate::pipeline::{Scale, Study, TrainingReport};
use faultsim::{
    coverage_breakdown, latency_data_filtered, long_latency_coverage, run_campaign,
    undetected_breakdown, CampaignConfig, CoverageBreakdown, LatencyData, LongLatencyCoverage,
    UndetectedBreakdown,
};
use guest_sim::{measure_activation_rate, rate_stats, workload_platform, Benchmark, RateStats};
use mltree::{evaluate, Dataset, DecisionTree, TrainConfig};
use serde::{Deserialize, Serialize};
use sim_machine::VirtMode;
use std::fmt::Write as _;
use xentry::{
    measure_overhead, OverheadSetup, VmTransitionDetector, Xentry, XentryConfig, FEATURE_NAMES,
};

pub(crate) fn pct(x: f64) -> String {
    format!("{:.1}%", 100.0 * x)
}

// ---------------------------------------------------------------------------
// Fig. 3 — hypervisor activation frequency
// ---------------------------------------------------------------------------

/// One box-plot row of Fig. 3.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RateRow {
    pub benchmark: String,
    pub mode: String,
    pub min: f64,
    pub p25: f64,
    pub median: f64,
    pub p75: f64,
    pub max: f64,
}

/// Fig. 3 report.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig3Report {
    pub rows: Vec<RateRow>,
}

/// Measure hypervisor activation frequency for every benchmark in both
/// virtualization modes ("we measure the number of hypervisor activities
/// every second while applications are running").
pub fn fig3_activation_frequency(scale: &Scale, seed: u64) -> Fig3Report {
    let mut rows = Vec::new();
    for mode in [VirtMode::Para, VirtMode::Hvm] {
        for b in Benchmark::ALL {
            let mut plat = workload_platform(b, mode, 2, 1, 1, seed);
            let samples =
                measure_activation_rate(&mut plat, 1, scale.rate_windows, scale.rate_window_secs);
            let st: RateStats = rate_stats(&samples);
            rows.push(RateRow {
                benchmark: b.name().to_string(),
                mode: format!("{mode:?}"),
                min: st.min,
                p25: st.p25,
                median: st.median,
                p75: st.p75,
                max: st.max,
            });
        }
    }
    Fig3Report { rows }
}

impl Fig3Report {
    pub fn render(&self) -> String {
        let mut s = String::new();
        writeln!(
            s,
            "Fig. 3 — hypervisor activation frequency (activations/s)"
        )
        .unwrap();
        writeln!(
            s,
            "{:<10} {:<5} {:>9} {:>9} {:>9} {:>9} {:>9}",
            "benchmark", "mode", "min", "p25", "median", "p75", "max"
        )
        .unwrap();
        for r in &self.rows {
            writeln!(
                s,
                "{:<10} {:<5} {:>9.0} {:>9.0} {:>9.0} {:>9.0} {:>9.0}",
                r.benchmark, r.mode, r.min, r.p25, r.median, r.p75, r.max
            )
            .unwrap();
        }
        s.push_str("paper shape: PV 5K-100K/s (freqmine peak ~650K/s); HVM mostly 2K-10K/s\n");
        s
    }
}

// ---------------------------------------------------------------------------
// Table I — selected features
// ---------------------------------------------------------------------------

/// Table I report (static: the five features and their sources).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Table1Report {
    pub features: Vec<(String, String, String)>,
}

/// Enumerate Table I.
pub fn table1_features() -> Table1Report {
    let rows = [
        (
            "VM exit reason",
            "Xentry shim (VMCS exit-reason field)",
            "VMER",
        ),
        ("# of committed instructions", "INST_RETIRED", "RT"),
        ("# of branch instructions", "BR_INST_RETIRED", "BR"),
        ("# of read memory access", "MEM_INST_RETIRED.LOADS", "RM"),
        ("# of write memory access", "MEM_INST_RETIRED.STORES", "WM"),
    ];
    Table1Report {
        features: rows
            .iter()
            .map(|(a, b, c)| (a.to_string(), b.to_string(), c.to_string()))
            .collect(),
    }
}

impl Table1Report {
    pub fn render(&self) -> String {
        let mut s = String::from("Table I — selected features for VM transition detection\n");
        for (f, src, syn) in &self.features {
            writeln!(s, "{f:<32} {src:<38} {syn}").unwrap();
        }
        assert_eq!(self.features.len(), FEATURE_NAMES.len());
        s
    }
}

// ---------------------------------------------------------------------------
// §III-B — classifier accuracy (random tree vs decision tree), Fig. 6
// ---------------------------------------------------------------------------

/// Classifier-accuracy report (the paper's 98.6% vs 96.1% comparison).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MlAccuracyReport {
    pub training: TrainingReport,
    /// Pooled 5-fold cross-validated accuracy (lower-variance estimate
    /// than the paper's single split).
    pub cv_accuracy: f64,
    pub cv_fp_rate: f64,
    /// Fig.-6-style rule dump of the deployed tree (truncated).
    pub sample_rules: String,
}

/// The study's two trees and its cross-validation, as the §III-B report.
pub fn ml_accuracy(study: &Study) -> MlAccuracyReport {
    let full_rules = study.detector.dump_rules();
    MlAccuracyReport {
        training: study.training.clone(),
        cv_accuracy: study.cv.accuracy(),
        cv_fp_rate: study.cv.false_positive_rate(),
        sample_rules: full_rules.lines().take(24).collect::<Vec<_>>().join("\n"),
    }
}

impl MlAccuracyReport {
    pub fn render(&self) -> String {
        let t = &self.training;
        let mut s = String::from("SIII-B — VM transition classifier accuracy\n");
        writeln!(
            s,
            "training set: {} samples ({} correct / {} incorrect), test: {}",
            t.train_samples, t.train_correct, t.train_incorrect, t.test_samples
        )
        .unwrap();
        writeln!(
            s,
            "random tree:   accuracy {}  FP rate {}  ({} nodes, depth {})",
            pct(t.random_tree.accuracy()),
            pct(t.random_tree.false_positive_rate()),
            t.random_tree_nodes,
            t.random_tree_depth
        )
        .unwrap();
        writeln!(
            s,
            "decision tree: accuracy {}  FP rate {}  ({} nodes, depth {})",
            pct(t.decision_tree.accuracy()),
            pct(t.decision_tree.false_positive_rate()),
            t.decision_tree_nodes,
            t.decision_tree_depth
        )
        .unwrap();
        writeln!(
            s,
            "5-fold CV:     accuracy {}  FP rate {}",
            pct(self.cv_accuracy),
            pct(self.cv_fp_rate)
        )
        .unwrap();
        writeln!(
            s,
            "paper: random tree 98.6%, decision tree 96.1%, FP rate 0.7%"
        )
        .unwrap();
        writeln!(
            s,
            "\nFig. 6 — sample of the deployed rules:\n{}",
            self.sample_rules
        )
        .unwrap();
        s
    }
}

// ---------------------------------------------------------------------------
// Fig. 7 — fault-free performance overhead
// ---------------------------------------------------------------------------

/// One benchmark's overhead row.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct OverheadRow {
    pub benchmark: String,
    pub runtime_only_avg: f64,
    pub runtime_only_max: f64,
    pub full_avg: f64,
    pub full_max: f64,
}

/// Fig. 7 report.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig7Report {
    pub rows: Vec<OverheadRow>,
    pub avg_full: f64,
}

impl Fig7Report {
    pub fn render(&self) -> String {
        let mut s = String::from("Fig. 7 — normalized performance overhead of Xentry\n");
        writeln!(
            s,
            "{:<10} {:>14} {:>14} {:>14} {:>14}",
            "benchmark", "runtime avg", "runtime max", "full avg", "full max"
        )
        .unwrap();
        for r in &self.rows {
            writeln!(
                s,
                "{:<10} {:>14} {:>14} {:>14} {:>14}",
                r.benchmark,
                pct(r.runtime_only_avg),
                pct(r.runtime_only_max),
                pct(r.full_avg),
                pct(r.full_max)
            )
            .unwrap();
        }
        writeln!(s, "average full overhead: {}", pct(self.avg_full)).unwrap();
        s.push_str("paper shape: avg 2.5%; bzip2 lowest (0.19%); postmark highest (max 11.7%)\n");
        s
    }
}

// ---------------------------------------------------------------------------
// Fig. 8 / Fig. 9 / Fig. 10 / Table II — fault-injection evaluation
// ---------------------------------------------------------------------------

/// Per-benchmark coverage plus the aggregates — everything the injection
/// campaigns produce.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct InjectionReport {
    pub per_benchmark: Vec<(String, CoverageBreakdown)>,
    pub overall: CoverageBreakdown,
    pub long_latency: LongLatencyCoverage,
    pub latency_same_activation: LatencyData,
    pub latency_all: LatencyData,
    pub undetected: UndetectedBreakdown,
    pub total_injections: usize,
}

/// Run the evaluation campaign for every benchmark with the deployed
/// detector; aggregates feed Figs. 8-10 and Table II.
pub fn injection_evaluation(
    benchmarks: &[Benchmark],
    detector: &VmTransitionDetector,
    scale: &Scale,
    seed: u64,
) -> InjectionReport {
    let mut per_benchmark = Vec::new();
    let mut all_records = Vec::new();
    for (i, &b) in benchmarks.iter().enumerate() {
        let cfg = CampaignConfig::paper(b, scale.eval_injections, seed + 1000 + i as u64 * 37);
        let res = run_campaign(&cfg, Some(detector));
        per_benchmark.push((b.name().to_string(), coverage_breakdown(&res.records)));
        all_records.extend(res.records);
    }
    let overall = coverage_breakdown(&all_records);
    InjectionReport {
        per_benchmark,
        overall,
        long_latency: long_latency_coverage(&all_records),
        latency_same_activation: latency_data_filtered(&all_records, true),
        latency_all: latency_data_filtered(&all_records, false),
        undetected: undetected_breakdown(&all_records),
        total_injections: all_records.len(),
    }
}

impl InjectionReport {
    /// Fig. 8 rendering.
    pub fn render_fig8(&self) -> String {
        let mut s =
            String::from("Fig. 8 — overall detection results (fraction of manifested faults)\n");
        writeln!(
            s,
            "{:<10} {:>10} {:>8} {:>8} {:>10} {:>11} {:>9}",
            "benchmark", "manifested", "hw-exc", "sw-asrt", "vm-trans", "undetected", "coverage"
        )
        .unwrap();
        for (name, b) in &self.per_benchmark {
            writeln!(
                s,
                "{:<10} {:>10} {:>8} {:>8} {:>10} {:>11} {:>9}",
                name,
                b.manifested,
                pct(b.fraction(b.hw_exception)),
                pct(b.fraction(b.sw_assertion)),
                pct(b.fraction(b.vm_transition)),
                pct(b.fraction(b.undetected)),
                pct(b.coverage())
            )
            .unwrap();
        }
        let o = &self.overall;
        writeln!(
            s,
            "{:<10} {:>10} {:>8} {:>8} {:>10} {:>11} {:>9}",
            "AVG",
            o.manifested,
            pct(o.fraction(o.hw_exception)),
            pct(o.fraction(o.sw_assertion)),
            pct(o.fraction(o.vm_transition)),
            pct(o.fraction(o.undetected)),
            pct(o.coverage())
        )
        .unwrap();
        writeln!(
            s,
            "({} total injections; {} manifested)",
            self.total_injections, o.manifested
        )
        .unwrap();
        s.push_str(
            "paper: avg coverage 97.6% (up to 99.4%); hw 85.1%, sw 5.2%, vm-transition 6.9%\n",
        );
        s
    }

    /// Fig. 9 rendering.
    pub fn render_fig9(&self) -> String {
        let ll = &self.long_latency;
        let mut s =
            String::from("Fig. 9 — detection coverage of long-latency errors by consequence\n");
        for (name, row, paper) in [
            ("APP SDC", ll.app_sdc, "92.6%"),
            ("APP crash", ll.app_crash, "96.8%"),
            ("All VM failure", ll.all_vm, "(high)"),
            ("One VM failure", ll.one_vm, "(high)"),
        ] {
            writeln!(
                s,
                "{:<16} detected {:>4}/{:<4} = {:>6}   (paper: {})",
                name,
                row.detected,
                row.total,
                pct(row.rate()),
                paper
            )
            .unwrap();
        }
        s
    }

    /// Fig. 10 rendering: CDF of detection latency by technique.
    pub fn render_fig10(&self) -> String {
        let mut s = String::from(
            "Fig. 10 — CDF of detection latency (instructions; detections before VM entry)\n",
        );
        let d = &self.latency_same_activation;
        writeln!(
            s,
            "{:>8} {:>12} {:>12} {:>12}",
            "latency", "hw-exc", "sw-asrt", "vm-trans"
        )
        .unwrap();
        for x in [
            100u64, 200, 300, 400, 500, 600, 700, 800, 900, 1000, 1500, 2000, 3000,
        ] {
            writeln!(
                s,
                "{:>8} {:>12} {:>12} {:>12}",
                x,
                pct(LatencyData::cdf(&d.hw_exception, x)),
                pct(LatencyData::cdf(&d.sw_assertion, x)),
                pct(LatencyData::cdf(&d.vm_transition, x))
            )
            .unwrap();
        }
        writeln!(
            s,
            "p95: hw {}  sw {}  vm {}",
            LatencyData::percentile(&d.hw_exception, 95.0),
            LatencyData::percentile(&d.sw_assertion, 95.0),
            LatencyData::percentile(&d.vm_transition, 95.0)
        )
        .unwrap();
        writeln!(
            s,
            "late (post-entry) detections: hw {}  sw {}  vm {}",
            self.latency_all.hw_exception.len() - d.hw_exception.len(),
            self.latency_all.sw_assertion.len() - d.sw_assertion.len(),
            self.latency_all.vm_transition.len() - d.vm_transition.len()
        )
        .unwrap();
        s.push_str("paper shape: hw/sw latencies shortest; 95% of vm-transition detections < 700 instructions\n(our handlers run ~2-3x longer than Xen's hot paths, which scales the x-axis accordingly)\n");
        s
    }

    /// Table II rendering.
    pub fn render_table2(&self) -> String {
        let u = &self.undetected;
        let mut s = String::from("Table II — undetected faults by corruption site\n");
        writeln!(
            s,
            "{:<14} {:<14} {:<14} {:<14}",
            "Mis-Classify", "Stack Values", "Time Values", "Other Values"
        )
        .unwrap();
        writeln!(
            s,
            "{:<14} {:<14} {:<14} {:<14}",
            pct(u.fraction(u.mis_classified)),
            pct(u.fraction(u.stack_values)),
            pct(u.fraction(u.time_values)),
            pct(u.fraction(u.other_values))
        )
        .unwrap();
        writeln!(s, "({} undetected faults total)", u.total).unwrap();
        s.push_str("paper: 10% / 20% / 53% / 17%\n");
        s
    }
}

// ---------------------------------------------------------------------------
// Fig. 11 — recovery overhead with false positives
// ---------------------------------------------------------------------------

/// One benchmark's recovery-overhead row.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RecoveryRow {
    pub benchmark: String,
    pub avg: f64,
    pub max: f64,
}

/// Fig. 11 report.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig11Report {
    pub rows: Vec<RecoveryRow>,
    pub avg: f64,
}

/// Fig. 7 and Fig. 11 from one pass of the overhead harness: each
/// benchmark's unmodified-Xen runs are simulated once, and every
/// configuration the wanted figures price runs against them. Fig. 7
/// (`fig7`) prices runtime detection only and the full framework, both
/// with no deployed tree, so its full column charges PMC programming and
/// reads but no tree walk. Fig. 11 (`fig11`, the trained detector) prices
/// recovery support: critical state copied at every VM exit (the paper's
/// measured 1,900 ns), and the detector's false positives trigger restore
/// and re-execution.
pub fn overhead_figures(
    fig7: bool,
    fig11: Option<&VmTransitionDetector>,
    scale: &Scale,
    seed: u64,
) -> (Option<Fig7Report>, Option<Fig11Report>) {
    let runtime_only = || Xentry::new(XentryConfig::runtime_only(), None);
    let full = || Xentry::new(XentryConfig::overhead(), None);
    let recovery =
        fig11.map(|det| move || Xentry::new(XentryConfig::with_recovery(), Some(det.clone())));
    let mut shims: Vec<&(dyn Fn() -> Xentry + Sync)> = Vec::new();
    if fig7 {
        shims.push(&runtime_only);
        shims.push(&full);
    }
    if let Some(recovery) = &recovery {
        shims.push(recovery);
    }
    let setups = Benchmark::ALL.map(|benchmark| OverheadSetup {
        benchmark,
        mode: VirtMode::Para,
        kernel_scale: 1, // paper-calibrated activation rates
        bursts: scale.overhead_bursts,
        seed,
    });
    let priced = measure_overhead(&setups, scale.overhead_runs, &shims);
    let benchmarks = || Benchmark::ALL.iter().map(|b| b.name().to_string());
    let fig7 = fig7.then(|| {
        let rows: Vec<OverheadRow> = (benchmarks().zip(&priced))
            .map(|(benchmark, p)| OverheadRow {
                benchmark,
                runtime_only_avg: p[0].avg,
                runtime_only_max: p[0].max,
                full_avg: p[1].avg,
                full_max: p[1].max,
            })
            .collect();
        let avg_full = rows.iter().map(|r| r.full_avg).sum::<f64>() / rows.len() as f64;
        Fig7Report { rows, avg_full }
    });
    let fig11 = recovery.is_some().then(|| {
        let rows: Vec<RecoveryRow> = (benchmarks().zip(&priced))
            .map(|(benchmark, p)| RecoveryRow {
                benchmark,
                avg: p[shims.len() - 1].avg,
                max: p[shims.len() - 1].max,
            })
            .collect();
        let avg = rows.iter().map(|r| r.avg).sum::<f64>() / rows.len() as f64;
        Fig11Report { rows, avg }
    });
    (fig7, fig11)
}

impl Fig11Report {
    pub fn render(&self) -> String {
        let mut s = String::from("Fig. 11 — recovery overhead with false-positive cases\n");
        writeln!(s, "{:<10} {:>10} {:>10}", "benchmark", "avg", "max").unwrap();
        for r in &self.rows {
            writeln!(
                s,
                "{:<10} {:>10} {:>10}",
                r.benchmark,
                pct(r.avg),
                pct(r.max)
            )
            .unwrap();
        }
        writeln!(s, "average: {}", pct(self.avg)).unwrap();
        s.push_str("paper: avg 2.7%; mcf/bzip2 ~1.6%; postmark highest (6.3%)\n");
        s
    }
}

// ---------------------------------------------------------------------------
// Ablations (DESIGN.md §5): feature ablation, tree depth, training size
// ---------------------------------------------------------------------------

/// Accuracy with one feature removed, for every feature.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AblationReport {
    /// (dropped feature, accuracy, detection rate)
    pub feature_drop: Vec<(String, f64, f64)>,
    /// (max depth, accuracy)
    pub depth_sweep: Vec<(usize, f64)>,
    /// (training fraction x1000, accuracy)
    pub size_sweep: Vec<(usize, f64)>,
}

/// Training fractions (x1000) of the size sweep.
const SIZE_FRACTIONS: [usize; 4] = [125, 250, 500, 1000];

/// Every `1000 / frac`-th row of `ds`. The rows arrive grouped by workload
/// and class, so a stride keeps their mix where a prefix would not.
fn stride_subset(ds: &Dataset, frac: usize) -> Dataset {
    let mut sub = Dataset::new(&FEATURE_NAMES);
    sub.extend_samples(ds.samples.iter().step_by(1000 / frac).cloned());
    sub
}

/// The feature/depth/training-size ablations the paper mentions but omits
/// for space ("we omit the evaluation results and discussions on various
/// features, tree depth, and training set size"), on the study's split.
pub fn ablations(study: &Study) -> AblationReport {
    let (balanced, test, seed) = (&study.train, &study.test, study.seed);

    // Feature ablation: drop one column at a time.
    let mut feature_drop = Vec::new();
    for (drop, name) in FEATURE_NAMES.iter().enumerate() {
        let cols: Vec<usize> = (0..FEATURE_NAMES.len()).filter(|&c| c != drop).collect();
        let tr = balanced.project(&cols);
        let te = test.project(&cols);
        let tree = DecisionTree::train(&tr, &TrainConfig::random_tree(cols.len(), seed));
        let cm = evaluate(&tree, &te);
        feature_drop.push((name.to_string(), cm.accuracy(), cm.detection_rate()));
    }

    // Depth sweep.
    let mut depth_sweep = Vec::new();
    for depth in [2usize, 4, 8, 16, 24] {
        let mut cfg = TrainConfig::random_tree(FEATURE_NAMES.len(), seed);
        cfg.max_depth = depth;
        let tree = DecisionTree::train(balanced, &cfg);
        depth_sweep.push((depth, evaluate(&tree, test).accuracy()));
    }

    // Training-size sweep.
    let mut size_sweep = Vec::new();
    for frac in SIZE_FRACTIONS {
        let sub = stride_subset(balanced, frac);
        let tree = DecisionTree::train(&sub, &TrainConfig::random_tree(FEATURE_NAMES.len(), seed));
        size_sweep.push((frac, evaluate(&tree, test).accuracy()));
    }

    AblationReport {
        feature_drop,
        depth_sweep,
        size_sweep,
    }
}

impl AblationReport {
    pub fn render(&self) -> String {
        let mut s = String::from("Ablations — feature / depth / training-size sweeps\n");
        s.push_str("drop feature -> accuracy (detection rate):\n");
        for (f, acc, det) in &self.feature_drop {
            writeln!(s, "  without {f:<5} {} ({})", pct(*acc), pct(*det)).unwrap();
        }
        s.push_str("max depth -> accuracy:\n");
        for (d, acc) in &self.depth_sweep {
            writeln!(s, "  depth {d:<3} {}", pct(*acc)).unwrap();
        }
        s.push_str("training fraction -> accuracy:\n");
        for (f, acc) in &self.size_sweep {
            writeln!(s, "  {:>5.1}% of data: {}", *f as f64 / 10.0, pct(*acc)).unwrap();
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mltree::Label;

    /// Rows grouped by class, as a gathered set's are by workload and
    /// class: every size-sweep subset keeps the whole set's class ratio.
    #[test]
    fn size_sweep_subsets_keep_the_class_mix() {
        let mut ds = Dataset::new(&FEATURE_NAMES);
        for (label, rows) in [(Label::Correct, 800), (Label::Incorrect, 200)] {
            ds.extend_samples((0..rows).map(|i| mltree::Sample::new(vec![i; 5], label)));
        }
        for frac in SIZE_FRACTIONS {
            let sub = stride_subset(&ds, frac);
            assert_eq!(sub.len(), frac);
            assert!(sub.class_counts().1.abs_diff(frac / 5) <= 1, "{frac}");
        }
    }
}
