//! The train-then-deploy pipeline shared by all evaluation experiments.
//!
//! Mirrors the paper's §III-B workflow: run fault-injection campaigns on
//! the simulator to gather labeled samples, train a decision tree and a
//! random tree offline (WEKA stand-in), compare their accuracy, and deploy
//! the random tree (the paper selects it for its slightly higher accuracy)
//! into the Xentry shim for the evaluation campaigns. A [`Study`] runs it
//! once, and every experiment reads that one training set and detector.

use faultsim::{dataset_from_records, golden_trace, run_campaign_with, CampaignConfig};
use guest_sim::Benchmark;
use mltree::{evaluate, ConfusionMatrix, Dataset, DecisionTree, Label, TrainConfig};
use serde::{Deserialize, Serialize};
use xentry::{VmTransitionDetector, FEATURE_NAMES};

/// Sizing of the experiment suite.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct Scale {
    /// Injections per benchmark in the training campaign.
    pub train_injections: usize,
    /// Fault-free samples per benchmark for the training set.
    pub train_correct: usize,
    /// Injections per benchmark in the evaluation campaign.
    pub eval_injections: usize,
    /// Repetitions of the overhead experiments (paper: 10).
    pub overhead_runs: usize,
    /// Guest work per overhead run, in kernel bursts.
    pub overhead_bursts: u64,
    /// Fig. 3: number of sampled windows.
    pub rate_windows: usize,
    /// Fig. 3: window length in virtual seconds.
    pub rate_window_secs: f64,
}

impl Scale {
    /// Fast smoke-test scale (CI-sized).
    pub fn quick() -> Scale {
        Scale {
            train_injections: 1200,
            train_correct: 1500,
            eval_injections: 800,
            overhead_runs: 2,
            overhead_bursts: 600,
            rate_windows: 6,
            rate_window_secs: 0.004,
        }
    }

    /// Paper-shaped scale: totals comparable to the paper's 23,400 training
    /// and 30,000 evaluation injections across the benchmark suite.
    pub fn paper() -> Scale {
        Scale {
            train_injections: 4000,
            train_correct: 4000,
            eval_injections: 5000,
            overhead_runs: 10,
            overhead_bursts: 1500,
            rate_windows: 30,
            rate_window_secs: 0.01,
        }
    }
}

/// Oversampling factor for incorrect training samples (class rebalancing;
/// the detector must not drown the rare incorrect class).
const OVERSAMPLE_INCORRECT: usize = 8;

/// Outcome of model training: both trees, their test metrics, and the
/// dataset sizes (the paper reports 12,024 training / 6,596 test samples).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TrainingReport {
    pub train_samples: usize,
    pub train_correct: usize,
    pub train_incorrect: usize,
    pub test_samples: usize,
    pub random_tree: ConfusionMatrix,
    pub decision_tree: ConfusionMatrix,
    pub random_tree_nodes: usize,
    pub decision_tree_nodes: usize,
    pub random_tree_depth: usize,
    pub decision_tree_depth: usize,
}

/// One pass of the §III-B workflow that every experiment of a `figures`
/// invocation reads: one training campaign gathered, split and rebalanced
/// once, the deployed random tree and the comparison decision tree
/// trained on it, and the random tree cross-validated over the whole set.
pub struct Study {
    pub seed: u64,
    /// The rebalanced training half every tree of the study learns from.
    pub train: Dataset,
    /// The held-out half every tree of the study is scored on.
    pub test: Dataset,
    /// The deployed random tree.
    pub detector: VmTransitionDetector,
    pub training: TrainingReport,
    /// The random tree's pooled 5-fold cross-validation.
    pub cv: ConfusionMatrix,
}

impl Study {
    /// Run the training campaign over the workloads the evaluation
    /// campaigns run on — the paper's suite plus the adversarial profiles,
    /// whose exit-reason mix the classifier must have seen — then split,
    /// rebalance and train.
    pub fn new(scale: Scale, seed: u64) -> Study {
        let workloads = [&Benchmark::ALL[..], &Benchmark::ADVERSARIAL].concat();
        let ds = gather_dataset(&workloads, &scale, seed);
        let (train, test) = ds.split(3);
        let balance = |part: &Dataset| rebalance(part, OVERSAMPLE_INCORRECT);
        let random_tree = TrainConfig::random_tree(FEATURE_NAMES.len(), seed);
        let cv = mltree::cross_validate(&ds, 5, |fold| {
            DecisionTree::train(&balance(fold), &random_tree)
        });
        let (train_correct, train_incorrect) = train.class_counts();
        let train_samples = train.len();
        let train = balance(&train);
        let rt = DecisionTree::train(&train, &random_tree);
        let dt = DecisionTree::train(&train, &TrainConfig::decision_tree());
        let training = TrainingReport {
            train_samples,
            train_correct,
            train_incorrect,
            test_samples: test.len(),
            random_tree: evaluate(&rt, &test),
            decision_tree: evaluate(&dt, &test),
            random_tree_nodes: rt.nr_nodes(),
            decision_tree_nodes: dt.nr_nodes(),
            random_tree_depth: rt.depth(),
            decision_tree_depth: dt.depth(),
        };
        Study {
            seed,
            train,
            test,
            detector: VmTransitionDetector::new(rt),
            training,
            cv,
        }
    }
}

/// Gather a labeled dataset across benchmarks (campaign + fault-free runs).
///
/// One golden trace is walked per benchmark and shared by both halves of
/// the dataset: the checkpoint-forked campaign supplies the labeled fault
/// samples, and the same trace's fault-free feature stream supplies the
/// correct samples — no second fault-free execution per benchmark.
fn gather_dataset(benchmarks: &[Benchmark], scale: &Scale, seed: u64) -> Dataset {
    let mut ds = Dataset::new(&FEATURE_NAMES);
    for (i, &b) in benchmarks.iter().enumerate() {
        let cfg = CampaignConfig::paper(b, scale.train_injections, seed + i as u64 * 101);
        let trace = golden_trace(&cfg, None);
        let res = run_campaign_with(&cfg, &trace, None);
        ds.extend_samples(dataset_from_records(&res.records).samples);
        ds.extend_samples(trace.correct_samples(scale.train_correct).samples);
    }
    ds
}

/// Oversample the incorrect class (training-set rebalancing).
fn rebalance(train: &Dataset, factor: usize) -> Dataset {
    let mut out = Dataset::new(&FEATURE_NAMES);
    for s in &train.samples {
        let n = if s.label == Label::Incorrect {
            factor
        } else {
            1
        };
        for _ in 0..n {
            out.push(s.clone());
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_pipeline_trains_a_usable_detector() {
        let scale = Scale {
            train_injections: 700,
            train_correct: 900,
            ..Scale::quick()
        };
        let study = Study::new(scale, 3);
        let (det, report) = (&study.detector, &study.training);
        assert!(report.train_samples > 700);
        assert!(
            report.train_incorrect > 0,
            "campaign must produce incorrect samples"
        );
        assert!(
            report.random_tree.accuracy() > 0.8,
            "rt acc {}",
            report.random_tree.accuracy()
        );
        assert!(det.nr_nodes() > 3);
    }

    #[test]
    fn rebalance_multiplies_only_incorrect() {
        let mut ds = Dataset::new(&FEATURE_NAMES);
        ds.push(mltree::Sample::new(vec![1, 2, 3, 4, 5], Label::Correct));
        ds.push(mltree::Sample::new(vec![9, 9, 9, 9, 9], Label::Incorrect));
        let r = rebalance(&ds, 5);
        let (c, i) = r.class_counts();
        assert_eq!(c, 1);
        assert_eq!(i, 5);
    }
}
