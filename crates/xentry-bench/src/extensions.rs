//! Extension experiments beyond the paper's published evaluation:
//!
//! * **Recovery** — the §VI sketch executed for real and extended into a
//!   tiered ARINC-653-style health-monitor comparison: every detected
//!   fault is driven through competing policy tables (detection-only,
//!   re-execute-only, tiered with ReHype-style hypervisor microreboot)
//!   and the per-tier recovery rates, state-loss and cycle costs are
//!   measured head-to-head on identical faults.
//! * **Forest vs single tree** — the §VIII future-work direction "further
//!   increase the detection coverage and reduce the false positive rate":
//!   a bagged random forest with a tunable vote threshold.
//! * **Per-register vulnerability** — which architectural state is most
//!   dangerous to the hypervisor (classic AVF-style analysis).

use crate::pipeline::{gather_dataset, rebalance, Scale, OVERSAMPLE_INCORRECT};
use faultsim::policy::{HmTable, RecoveryAction, RecoveryOutcome};
use faultsim::{
    coverage_breakdown, golden_trace, merge_vulnmaps, run, run_campaign, run_with,
    target_breakdown, vulnmap_from_model_records, vulnmap_from_records, CampaignConfig,
    CoverageBreakdown, Models, Multibit, Recovery, RegFlips, TargetRow, VulnMap,
};
use guest_sim::Benchmark;
use mltree::{
    evaluate, evaluate_forest, ConfusionMatrix, DecisionTree, ForestConfig, RandomForest,
    TrainConfig,
};
use serde::{Deserialize, Serialize};
use std::fmt::Write as _;
use xentry::VmTransitionDetector;

fn pct(x: f64) -> String {
    format!("{:.1}%", 100.0 * x)
}

/// Recovery rate within one detection-technique class, for one policy.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ClassRate {
    /// Detection technique (the fault class recovery is triggered by).
    pub class: String,
    pub detected: usize,
    pub recovered: usize,
}

/// Aggregate of one policy table over one benchmark's recovery campaign.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PolicyStats {
    pub policy: String,
    /// Detected injections (identical across policies by construction).
    pub detected: usize,
    pub recovered: usize,
    pub vm_lost: usize,
    pub failed_recovery: usize,
    /// recovered / detected.
    pub recovery_rate: f64,
    /// Recovered count per tier that closed the fault.
    pub recovered_by_tier: Vec<(String, usize)>,
    /// Recovery rate per fault class (detection technique).
    pub per_class: Vec<ClassRate>,
    /// Recovery rate per fault model ("reg" register flips vs "hv-mem"
    /// hypervisor-private memory flips — the class re-execution cannot
    /// heal).
    pub per_model: Vec<ClassRate>,
    /// Total `ReExecute` attempts the ladder spent.
    pub reexec_attempts: usize,
    /// Total `Microreboot` attempts the ladder spent.
    pub microreboot_attempts: usize,
    /// Longest ladder observed (must stay within `attempt_cap`).
    pub max_ladder_steps: usize,
    /// The policy's proven termination bound on ladder steps.
    pub attempt_cap: u32,
    /// Mean simulated cycles per `ReExecute` attempt.
    pub avg_reexec_cycles: f64,
    /// Mean simulated cycles per `Microreboot` attempt.
    pub avg_microreboot_cycles: f64,
    /// Mean hypervisor-private words discarded per microreboot — the
    /// state-loss accounting of the ReHype tier.
    pub avg_words_lost: f64,
}

/// One benchmark's recovery campaign, all policies side by side.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BenchmarkRecovery {
    pub benchmark: String,
    pub injections: usize,
    pub detected: usize,
    pub policies: Vec<PolicyStats>,
}

/// The recovery experiment: competing health-monitor policy tables
/// measured head-to-head on identical detected faults.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RecoveryExperimentReport {
    /// Policy table names, in comparison order.
    pub policies: Vec<String>,
    pub per_benchmark: Vec<BenchmarkRecovery>,
    /// Detected injections across all benchmarks.
    pub total_detected: usize,
    /// Recovered across all benchmarks, per policy.
    pub total_recovered: Vec<(String, usize)>,
    /// Receipt: the tiered (microreboot-enabled) policy recovered
    /// strictly more detected faults than the re-execute-only baseline.
    pub microreboot_beats_reexec: bool,
    /// Receipt: every escalation ladder terminated within its policy's
    /// proven attempt bound.
    pub escalation_caps_respected: bool,
}

fn tier_name(a: RecoveryAction) -> &'static str {
    match a {
        RecoveryAction::Ignore => "ignore",
        RecoveryAction::ReExecute => "reexecute",
        RecoveryAction::Microreboot => "microreboot",
        RecoveryAction::Halt => "halt",
    }
}

/// The policy tables the experiment compares. Order matters: the receipt
/// compares `tiered` (index 2) against `reexec-only` (index 1).
pub fn recovery_policies() -> Vec<HmTable> {
    vec![
        HmTable::ignore_all(),
        HmTable::reexecute_only(),
        HmTable::tiered(),
    ]
}

/// Run the recovery campaign on a subset of benchmarks and aggregate
/// per policy, per fault class and per tier.
pub fn recovery_experiment(
    benchmarks: &[Benchmark],
    detector: Option<&VmTransitionDetector>,
    scale: &Scale,
    seed: u64,
) -> RecoveryExperimentReport {
    let tables = recovery_policies();
    let policies: Vec<String> = tables.iter().map(|t| t.name.clone()).collect();
    let mut per_benchmark = Vec::new();
    for (i, &b) in benchmarks.iter().enumerate() {
        let mut cfg = CampaignConfig::paper(b, scale.eval_injections / 2, seed + i as u64);
        cfg.warmup = 40;
        let records = run(&cfg, detector, &Recovery(&tables));
        let detected = records.iter().filter(|r| r.per_policy[0].is_some()).count();
        let mut stats = Vec::new();
        for (pi, table) in tables.iter().enumerate() {
            let mut st = PolicyStats {
                policy: table.name.clone(),
                detected,
                recovered: 0,
                vm_lost: 0,
                failed_recovery: 0,
                recovery_rate: 0.0,
                recovered_by_tier: Vec::new(),
                per_class: Vec::new(),
                per_model: Vec::new(),
                reexec_attempts: 0,
                microreboot_attempts: 0,
                max_ladder_steps: 0,
                attempt_cap: table.max_attempts(),
                avg_reexec_cycles: 0.0,
                avg_microreboot_cycles: 0.0,
                avg_words_lost: 0.0,
            };
            let mut by_tier: Vec<(String, usize)> = Vec::new();
            let mut by_class: Vec<ClassRate> = Vec::new();
            let mut by_model: Vec<ClassRate> = Vec::new();
            let (mut reexec_cycles, mut mr_cycles, mut words) = (0u64, 0u64, 0usize);
            fn bucket(rows: &mut Vec<ClassRate>, class: String) -> &mut ClassRate {
                match rows.iter().position(|c| c.class == class) {
                    Some(i) => &mut rows[i],
                    None => {
                        rows.push(ClassRate {
                            class,
                            detected: 0,
                            recovered: 0,
                        });
                        rows.last_mut().unwrap()
                    }
                }
            }
            for (spec, rec) in records
                .iter()
                .filter_map(|r| r.per_policy[pi].as_ref().map(|p| (r.spec, p)))
            {
                let recovered = matches!(rec.outcome, RecoveryOutcome::Recovered { .. });
                let c = bucket(&mut by_class, format!("{:?}", rec.technique));
                c.detected += 1;
                c.recovered += recovered as usize;
                let m = bucket(&mut by_model, spec.class().to_string());
                m.detected += 1;
                m.recovered += recovered as usize;
                match rec.outcome {
                    RecoveryOutcome::Recovered { tier } => {
                        st.recovered += 1;
                        let name = tier_name(tier).to_string();
                        match by_tier.iter_mut().find(|(n, _)| *n == name) {
                            Some((_, n)) => *n += 1,
                            None => by_tier.push((name, 1)),
                        }
                    }
                    RecoveryOutcome::VmLost => st.vm_lost += 1,
                    RecoveryOutcome::FailedRecovery => st.failed_recovery += 1,
                }
                st.max_ladder_steps = st.max_ladder_steps.max(rec.steps.len());
                for step in &rec.steps {
                    match step.action {
                        RecoveryAction::ReExecute => st.reexec_attempts += 1,
                        RecoveryAction::Microreboot => st.microreboot_attempts += 1,
                        _ => {}
                    }
                }
                reexec_cycles += rec.reexec_cycles;
                mr_cycles += rec.microreboot_cycles;
                words += rec.words_lost;
            }
            st.recovery_rate = if detected > 0 {
                st.recovered as f64 / detected as f64
            } else {
                0.0
            };
            if st.reexec_attempts > 0 {
                st.avg_reexec_cycles = reexec_cycles as f64 / st.reexec_attempts as f64;
            }
            if st.microreboot_attempts > 0 {
                st.avg_microreboot_cycles = mr_cycles as f64 / st.microreboot_attempts as f64;
                st.avg_words_lost = words as f64 / st.microreboot_attempts as f64;
            }
            st.recovered_by_tier = by_tier;
            st.per_class = by_class;
            st.per_model = by_model;
            stats.push(st);
        }
        per_benchmark.push(BenchmarkRecovery {
            benchmark: b.name().to_string(),
            injections: records.len(),
            detected,
            policies: stats,
        });
    }
    let total_detected: usize = per_benchmark.iter().map(|b| b.detected).sum();
    let total_recovered: Vec<(String, usize)> = policies
        .iter()
        .enumerate()
        .map(|(pi, name)| {
            (
                name.clone(),
                per_benchmark.iter().map(|b| b.policies[pi].recovered).sum(),
            )
        })
        .collect();
    let microreboot_beats_reexec = total_recovered[2].1 > total_recovered[1].1;
    let escalation_caps_respected = per_benchmark.iter().all(|b| {
        b.policies
            .iter()
            .all(|p| p.max_ladder_steps <= p.attempt_cap as usize)
    });
    RecoveryExperimentReport {
        policies,
        per_benchmark,
        total_detected,
        total_recovered,
        microreboot_beats_reexec,
        escalation_caps_respected,
    }
}

impl RecoveryExperimentReport {
    pub fn render(&self) -> String {
        let mut s = String::from(
            "Extension — recovery: health-monitor policy tables head-to-head\n\
             (every detected fault driven through each policy's escalation ladder)\n",
        );
        for b in &self.per_benchmark {
            writeln!(
                s,
                "\n{} — {} injections, {} detected",
                b.benchmark, b.injections, b.detected
            )
            .unwrap();
            writeln!(
                s,
                "{:<14} {:>9} {:>8} {:>7} {:>7} {:>13} {:>10} {:>10}",
                "policy",
                "recovered",
                "rate",
                "vmlost",
                "failed",
                "ladder(max/cap)",
                "re-exec",
                "microboot"
            )
            .unwrap();
            for p in &b.policies {
                writeln!(
                    s,
                    "{:<14} {:>9} {:>8} {:>7} {:>7} {:>13} {:>10} {:>10}",
                    p.policy,
                    p.recovered,
                    pct(p.recovery_rate),
                    p.vm_lost,
                    p.failed_recovery,
                    format!("{}/{}", p.max_ladder_steps, p.attempt_cap),
                    p.reexec_attempts,
                    p.microreboot_attempts,
                )
                .unwrap();
            }
            for p in &b.policies {
                for c in p.per_class.iter().chain(&p.per_model) {
                    writeln!(
                        s,
                        "  recovery rate [{} / {:<13}] {:>4}/{:<4} = {}",
                        p.policy,
                        c.class,
                        c.recovered,
                        c.detected,
                        pct(if c.detected > 0 {
                            c.recovered as f64 / c.detected as f64
                        } else {
                            0.0
                        })
                    )
                    .unwrap();
                }
                if !p.recovered_by_tier.is_empty() {
                    let tiers: Vec<String> = p
                        .recovered_by_tier
                        .iter()
                        .map(|(t, n)| format!("{t}={n}"))
                        .collect();
                    writeln!(s, "  closed by tier [{}]: {}", p.policy, tiers.join(" ")).unwrap();
                }
                if p.microreboot_attempts > 0 {
                    writeln!(
                        s,
                        "  microreboot cost [{}]: {:.0} cycles/reboot, {:.0} private words lost/reboot",
                        p.policy, p.avg_microreboot_cycles, p.avg_words_lost
                    )
                    .unwrap();
                }
            }
        }
        writeln!(
            s,
            "\nmicroreboot beats reexec-only: {} ({} vs {} of {} detected)",
            self.microreboot_beats_reexec,
            self.total_recovered[2].1,
            self.total_recovered[1].1,
            self.total_detected
        )
        .unwrap();
        writeln!(
            s,
            "escalation caps respected: {} (every ladder terminated within its bound)",
            self.escalation_caps_respected
        )
        .unwrap();
        s
    }
}

/// Forest-vs-tree comparison at several vote thresholds.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ForestReport {
    pub tree: ConfusionMatrix,
    /// (trees, vote threshold, metrics, total nodes)
    pub forests: Vec<(usize, usize, ConfusionMatrix, usize)>,
}

/// Train and compare.
pub fn forest_comparison(benchmarks: &[Benchmark], scale: &Scale, seed: u64) -> ForestReport {
    let ds = gather_dataset(benchmarks, scale, seed);
    let (train, test) = ds.split(3);
    let balanced = rebalance(&train, OVERSAMPLE_INCORRECT);
    let tree = DecisionTree::train(&balanced, &TrainConfig::random_tree(5, seed));
    let tree_cm = evaluate(&tree, &test);
    let mut forests = Vec::new();
    for (nr_trees, threshold) in [(9usize, 5usize), (9, 7), (15, 8), (15, 12)] {
        let mut cfg = ForestConfig::default_random_forest(5, seed);
        cfg.nr_trees = nr_trees;
        cfg.vote_threshold = Some(threshold);
        let forest = RandomForest::train(&balanced, &cfg);
        let cm = evaluate_forest(&forest, &test);
        forests.push((nr_trees, threshold, cm, forest.nr_nodes()));
    }
    ForestReport {
        tree: tree_cm,
        forests,
    }
}

impl ForestReport {
    pub fn render(&self) -> String {
        let mut s =
            String::from("Extension — random forest vs single random tree (SVIII direction)\n");
        writeln!(
            s,
            "{:<22} {:>9} {:>9} {:>9} {:>9}",
            "model", "accuracy", "FP rate", "recall", "nodes"
        )
        .unwrap();
        writeln!(
            s,
            "{:<22} {:>9} {:>9} {:>9} {:>9}",
            "single random tree",
            pct(self.tree.accuracy()),
            pct(self.tree.false_positive_rate()),
            pct(self.tree.detection_rate()),
            "-"
        )
        .unwrap();
        for (n, t, cm, nodes) in &self.forests {
            writeln!(
                s,
                "{:<22} {:>9} {:>9} {:>9} {:>9}",
                format!("forest {n} trees, vote {t}"),
                pct(cm.accuracy()),
                pct(cm.false_positive_rate()),
                pct(cm.detection_rate()),
                nodes
            )
            .unwrap();
        }
        s
    }
}

/// Per-register vulnerability report.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct VulnerabilityReport {
    pub rows: Vec<TargetRow>,
}

/// Classify which architectural targets hurt the hypervisor most.
pub fn register_vulnerability(
    benchmark: Benchmark,
    detector: Option<&VmTransitionDetector>,
    scale: &Scale,
    seed: u64,
) -> VulnerabilityReport {
    let cfg = CampaignConfig::paper(benchmark, scale.eval_injections * 2, seed);
    let res = run_campaign(&cfg, detector);
    VulnerabilityReport {
        rows: target_breakdown(&res.records),
    }
}

impl VulnerabilityReport {
    pub fn render(&self) -> String {
        let mut s =
            String::from("Extension — per-register vulnerability (flip target -> outcome)\n");
        writeln!(
            s,
            "{:<8} {:>10} {:>11} {:>12} {:>11}",
            "target", "injections", "manifested", "manif. rate", "escape rate"
        )
        .unwrap();
        for r in &self.rows {
            writeln!(
                s,
                "{:<8} {:>10} {:>11} {:>12} {:>11}",
                r.target,
                r.injections,
                r.manifested,
                pct(r.manifestation_rate()),
                pct(r.escape_rate())
            )
            .unwrap();
        }
        s
    }
}

/// Envelope-baseline comparison: the tree vs a per-VMER min/max anomaly
/// envelope trained on fault-free executions only.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EnvelopeReport {
    pub tree: ConfusionMatrix,
    /// (slack, metrics, trained vmers)
    pub envelopes: Vec<(u64, ConfusionMatrix, usize)>,
}

/// Compare the learned tree against envelope baselines at several slacks.
pub fn envelope_comparison(benchmarks: &[Benchmark], scale: &Scale, seed: u64) -> EnvelopeReport {
    let ds = gather_dataset(benchmarks, scale, seed);
    let (train, test) = ds.split(3);
    let balanced = rebalance(&train, OVERSAMPLE_INCORRECT);
    let tree = DecisionTree::train(&balanced, &TrainConfig::random_tree(5, seed));
    let tree_cm = evaluate(&tree, &test);

    // The envelope only learns from fault-free (correct) samples.
    let correct_trace: Vec<xentry::FeatureVec> = train
        .samples
        .iter()
        .filter(|s| s.label == mltree::Label::Correct)
        .map(|s| xentry::FeatureVec {
            vmer: s.features[0] as u16,
            rt: s.features[1],
            br: s.features[2],
            rm: s.features[3],
            wm: s.features[4],
        })
        .collect();
    let mut envelopes = Vec::new();
    for slack in [0u64, 8, 32, 128] {
        let env = xentry::EnvelopeDetector::train(&correct_trace, slack, 8);
        let mut cm = ConfusionMatrix::default();
        for s in &test.samples {
            let f = xentry::FeatureVec {
                vmer: s.features[0] as u16,
                rt: s.features[1],
                br: s.features[2],
                rm: s.features[3],
                wm: s.features[4],
            };
            cm.record(s.label, env.classify(&f));
        }
        envelopes.push((slack, cm, env.trained_vmers()));
    }
    EnvelopeReport {
        tree: tree_cm,
        envelopes,
    }
}

impl EnvelopeReport {
    pub fn render(&self) -> String {
        let mut s = String::from(
            "Extension — learned tree vs per-VMER min/max envelope baseline
",
        );
        writeln!(
            s,
            "{:<22} {:>9} {:>9} {:>9}",
            "model", "accuracy", "FP rate", "recall"
        )
        .unwrap();
        writeln!(
            s,
            "{:<22} {:>9} {:>9} {:>9}",
            "random tree",
            pct(self.tree.accuracy()),
            pct(self.tree.false_positive_rate()),
            pct(self.tree.detection_rate())
        )
        .unwrap();
        for (slack, cm, vmers) in &self.envelopes {
            writeln!(
                s,
                "{:<22} {:>9} {:>9} {:>9}   ({vmers} trained reasons)",
                format!("envelope slack {slack}"),
                pct(cm.accuracy()),
                pct(cm.false_positive_rate()),
                pct(cm.detection_rate())
            )
            .unwrap();
        }
        s
    }
}

/// The per-bit vulnerability map experiment: every fault model × every
/// workload, bucketed by (target × bit position × outcome class).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct VulnmapReport {
    /// Workloads campaigned over (paper benchmark + the adversarial mix).
    pub workloads: Vec<String>,
    /// Fault-model classes represented in the map.
    pub models: Vec<String>,
    /// Total injections aggregated into the map.
    pub injections: usize,
    /// Populated (target, bit) cells.
    pub cells: usize,
    pub detected: usize,
    pub silent: usize,
    pub crash: usize,
    pub benign: usize,
    /// `target name -> bit position -> outcome counts`.
    pub map: VulnMap,
}

/// Build the per-bit vulnerability map: for each workload, one single-bit
/// register campaign plus one extended-model campaign (bursts, PTE
/// strikes, PMC strikes) over a *shared* golden trace, all merged into a
/// single `(register × bit-position) -> outcome` map.
pub fn vulnmap_experiment(
    workloads: &[Benchmark],
    detector: Option<&VmTransitionDetector>,
    scale: &Scale,
    seed: u64,
) -> VulnmapReport {
    let mut maps = Vec::new();
    let mut models = std::collections::BTreeSet::new();
    let mut injections = 0usize;
    for (i, &b) in workloads.iter().enumerate() {
        let mut cfg = CampaignConfig::paper(b, scale.eval_injections / 2, seed + i as u64 * 17);
        cfg.warmup = 40;
        let trace = golden_trace(&cfg, detector);
        let reg = run_with(&cfg, &trace, detector, &RegFlips);
        let model = run_with(&cfg, &trace, detector, &Models);
        injections += reg.len() + model.len();
        if !reg.is_empty() {
            models.insert("reg".to_string());
        }
        for r in &model {
            models.insert(r.class.clone());
        }
        maps.push(vulnmap_from_records(&reg));
        maps.push(vulnmap_from_model_records(&model));
    }
    let map = merge_vulnmaps(maps);
    let (mut detected, mut silent, mut crash, mut benign, mut cells) = (0, 0, 0, 0, 0);
    for bits in map.values() {
        for c in bits.values() {
            cells += 1;
            detected += c.detected;
            silent += c.silent;
            crash += c.crash;
            benign += c.benign;
        }
    }
    VulnmapReport {
        workloads: workloads.iter().map(|b| b.name().to_string()).collect(),
        models: models.into_iter().collect(),
        injections,
        cells,
        detected,
        silent,
        crash,
        benign,
        map,
    }
}

impl VulnmapReport {
    pub fn render(&self) -> String {
        let mut s =
            String::from("Extension — per-bit vulnerability map (fault model x workload x bit)\n");
        writeln!(s, "vulnmap workloads: {}", self.workloads.join(" ")).unwrap();
        writeln!(s, "vulnmap models: {}", self.models.join(" ")).unwrap();
        writeln!(
            s,
            "vulnmap cells: {} ({} injections: {} detected, {} silent, {} crash, {} benign)",
            self.cells, self.injections, self.detected, self.silent, self.crash, self.benign
        )
        .unwrap();
        writeln!(
            s,
            "{:<14} {:>5} {:>10} {:>9} {:>7} {:>6} {:>17}",
            "target", "bits", "injections", "detected", "silent", "crash", "worst bit(escapes)"
        )
        .unwrap();
        for (target, bits) in &self.map {
            let injections: usize = bits.values().map(|c| c.total()).sum();
            let detected: usize = bits.values().map(|c| c.detected).sum();
            let silent: usize = bits.values().map(|c| c.silent).sum();
            let crash: usize = bits.values().map(|c| c.crash).sum();
            // Worst bit: the position whose strikes escaped detection the
            // most — ties broken toward the lower bit for determinism.
            let (worst, escapes) = bits
                .iter()
                .map(|(b, c)| (*b, c.silent + c.crash))
                .max_by(|a, b| a.1.cmp(&b.1).then(b.0.cmp(&a.0)))
                .unwrap_or((0, 0));
            writeln!(
                s,
                "{:<14} {:>5} {:>10} {:>9} {:>7} {:>6} {:>17}",
                target,
                bits.len(),
                injections,
                detected,
                silent,
                crash,
                format!("{worst} ({escapes})"),
            )
            .unwrap();
        }
        s
    }
}

/// Single- vs multi-bit comparison report.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MultibitReport {
    pub bits: usize,
    pub single: CoverageBreakdown,
    pub multi: CoverageBreakdown,
}

/// Paired single-bit vs `bits`-bit campaign: the beyond-ECC scenario.
pub fn multibit_comparison(
    benchmark: Benchmark,
    bits: usize,
    detector: Option<&VmTransitionDetector>,
    scale: &Scale,
    seed: u64,
) -> MultibitReport {
    let mut cfg = CampaignConfig::paper(benchmark, scale.eval_injections, seed + 5);
    cfg.warmup = 40;
    let pairs = run(&cfg, detector, &Multibit { bits });
    let (single, multi): (Vec<_>, Vec<_>) = pairs.into_iter().unzip();
    MultibitReport {
        bits,
        single: coverage_breakdown(&single),
        multi: coverage_breakdown(&multi),
    }
}

impl MultibitReport {
    pub fn render(&self) -> String {
        let mut s = format!(
            "Extension — single-bit vs {}-bit upsets (paired injection points)
",
            self.bits
        );
        writeln!(
            s,
            "{:<12} {:>11} {:>9} {:>11}",
            "fault model", "manifested", "coverage", "undetected"
        )
        .unwrap();
        for (name, b) in [("1-bit", &self.single), ("k-bit", &self.multi)] {
            writeln!(
                s,
                "{:<12} {:>11} {:>9} {:>11}",
                name,
                b.manifested,
                pct(b.coverage()),
                pct(b.fraction(b.undetected))
            )
            .unwrap();
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recovery_experiment_compares_policies() {
        let scale = Scale {
            eval_injections: 160,
            ..Scale::quick()
        };
        let rep = recovery_experiment(&[Benchmark::Freqmine], None, &scale, 3);
        assert_eq!(rep.per_benchmark.len(), 1);
        assert_eq!(rep.policies, ["ignore-all", "reexec-only", "tiered"]);
        assert!(rep.total_detected > 10, "too few detections");
        assert!(rep.escalation_caps_respected);
        // Re-execution must beat doing nothing, and the microreboot tier
        // must recover faults re-execution alone cannot (the hv-mem
        // latent-corruption class).
        assert!(rep.total_recovered[1].1 > rep.total_recovered[0].1);
        assert!(rep.microreboot_beats_reexec, "{:?}", rep.total_recovered);
        let text = rep.render();
        assert!(text.contains("recovery rate"));
        assert!(text.contains("escalation caps respected: true"));
    }

    #[test]
    fn vulnmap_covers_models_and_workloads() {
        let scale = Scale {
            eval_injections: 120,
            ..Scale::quick()
        };
        let rep = vulnmap_experiment(&[Benchmark::Freqmine, Benchmark::IrqStorm], None, &scale, 7);
        assert_eq!(rep.workloads, ["freqmine", "irq-storm"]);
        for model in ["reg", "burst", "pte", "pmc"] {
            assert!(
                rep.models.iter().any(|m| m == model),
                "model {model} missing from {:?}",
                rep.models
            );
        }
        assert!(rep.cells > 10, "map too sparse: {} cells", rep.cells);
        assert_eq!(
            rep.injections,
            rep.detected + rep.silent + rep.crash + rep.benign,
            "every injection lands in exactly one outcome class"
        );
        let text = rep.render();
        assert!(text.contains("vulnmap models: burst pmc pte reg"));
        assert!(text.contains("vulnmap workloads: freqmine irq-storm"));
    }

    #[test]
    fn vulnerability_rip_is_highly_manifesting() {
        let scale = Scale {
            eval_injections: 150,
            ..Scale::quick()
        };
        let rep = register_vulnerability(Benchmark::Freqmine, None, &scale, 5);
        let rip = rep
            .rows
            .iter()
            .find(|r| r.target == "rip")
            .expect("rip row");
        // An instruction-pointer flip is live by definition.
        assert!(
            rip.manifestation_rate() > 0.5,
            "rip manifestation {:.2}",
            rip.manifestation_rate()
        );
        // RIP should be among the most vulnerable targets.
        let rank = rep.rows.iter().position(|r| r.target == "rip").unwrap();
        assert!(rank < 6, "rip ranked {rank}: {:?}", rep.rows);
    }
}
