//! Entropy-split decision trees over integer features.
//!
//! Training follows the paper's §III-B description: at each node, candidate
//! cut points are evaluated by the expected entropy reduction
//! `D(T, T_L, T_R) = Entropy(T) − (P_L·Entropy(T_L) + P_R·Entropy(T_R))`,
//! and the split maximizing `D` wins. The *random tree* variant (WEKA's
//! `RandomTree`, which the paper selects for its slightly higher accuracy)
//! considers only `⌊log₂(#features)⌋ + 1` randomly drawn features per node.

use crate::dataset::{Dataset, Label, Sample};
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

/// A tree node. Thresholds are integers; traversal is branch-and-compare
/// only, as required for in-hypervisor deployment.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Node {
    /// Majority-class leaf with the training counts that reached it.
    Leaf {
        label: Label,
        correct: usize,
        incorrect: usize,
    },
    /// Binary split: `features[feature] <= threshold` goes left.
    Split {
        feature: usize,
        threshold: u64,
        left: Box<Node>,
        right: Box<Node>,
    },
}

impl Node {
    /// Classify a feature vector — the single shared traversal every
    /// boxed-walker caller (tree, forest voting, pruning) goes through.
    pub fn classify(&self, features: &[u64]) -> Label {
        let mut node = self;
        loop {
            match node {
                Node::Leaf { label, .. } => return *label,
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    node = if features[*feature] <= *threshold {
                        left
                    } else {
                        right
                    };
                }
            }
        }
    }

    /// Comparisons performed to classify `features`.
    pub fn classify_cost(&self, features: &[u64]) -> usize {
        let mut node = self;
        let mut cost = 0;
        loop {
            match node {
                Node::Leaf { .. } => return cost,
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    cost += 1;
                    node = if features[*feature] <= *threshold {
                        left
                    } else {
                        right
                    };
                }
            }
        }
    }

    fn depth(&self) -> usize {
        match self {
            Node::Leaf { .. } => 0,
            Node::Split { left, right, .. } => 1 + left.depth().max(right.depth()),
        }
    }

    fn count_nodes(&self) -> usize {
        match self {
            Node::Leaf { .. } => 1,
            Node::Split { left, right, .. } => 1 + left.count_nodes() + right.count_nodes(),
        }
    }
}

/// Training configuration.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct TrainConfig {
    /// Maximum tree depth.
    pub max_depth: usize,
    /// Minimum samples to attempt a split.
    pub min_split: usize,
    /// `Some(k)`: random-tree mode considering `k` random features per
    /// node; `None`: classic decision tree considering all features.
    pub random_features: Option<usize>,
    /// RNG seed for random-tree feature sampling.
    pub seed: u64,
}

impl TrainConfig {
    /// Classic decision tree.
    pub fn decision_tree() -> TrainConfig {
        TrainConfig {
            max_depth: 24,
            min_split: 4,
            random_features: None,
            seed: 0,
        }
    }

    /// WEKA-style random tree: `⌊log₂ F⌋ + 1` features per node.
    pub fn random_tree(nr_features: usize, seed: u64) -> TrainConfig {
        let k = (nr_features.max(1) as f64).log2().floor() as usize + 1;
        TrainConfig {
            max_depth: 24,
            min_split: 2,
            random_features: Some(k.min(nr_features)),
            seed,
        }
    }
}

/// A trained classifier.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DecisionTree {
    pub feature_names: Vec<String>,
    pub root: Node,
}

/// Shannon entropy of a (correct, incorrect) count pair, in bits.
pub fn entropy(correct: usize, incorrect: usize) -> f64 {
    let n = (correct + incorrect) as f64;
    if correct == 0 || incorrect == 0 {
        return 0.0;
    }
    let pc = correct as f64 / n;
    let pi = incorrect as f64 / n;
    -(pc * pc.log2() + pi * pi.log2())
}

fn counts(samples: &[&Sample]) -> (usize, usize) {
    let inc = samples
        .iter()
        .filter(|s| s.label == Label::Incorrect)
        .count();
    (samples.len() - inc, inc)
}

fn majority(correct: usize, incorrect: usize) -> Label {
    // Ties resolve to Correct: an ambiguous execution should not trigger
    // recovery (false positives are the expensive error).
    if incorrect > correct {
        Label::Incorrect
    } else {
        Label::Correct
    }
}

/// Find the best `(threshold, gain)` for one feature, or `None` when the
/// column is constant.
fn best_cut_for_feature(
    samples: &[&Sample],
    feature: usize,
    parent_entropy: f64,
) -> Option<(u64, f64)> {
    // Sort (value, is_incorrect) pairs; scan boundaries between distinct
    // values accumulating class counts — O(n log n) per feature.
    let mut vals: Vec<(u64, bool)> = samples
        .iter()
        .map(|s| (s.features[feature], s.label == Label::Incorrect))
        .collect();
    vals.sort_unstable();
    let n = vals.len();
    let total_inc = vals.iter().filter(|v| v.1).count();
    let total_cor = n - total_inc;

    let mut best: Option<(u64, f64)> = None;
    let mut left_inc = 0usize;
    let mut left_cor = 0usize;
    for i in 0..n - 1 {
        if vals[i].1 {
            left_inc += 1;
        } else {
            left_cor += 1;
        }
        if vals[i].0 == vals[i + 1].0 {
            continue; // not a boundary
        }
        // Integer midpoint threshold: x <= t goes left.
        let threshold = vals[i].0 + (vals[i + 1].0 - vals[i].0) / 2;
        let left_n = (left_cor + left_inc) as f64;
        let right_cor = total_cor - left_cor;
        let right_inc = total_inc - left_inc;
        let right_n = (right_cor + right_inc) as f64;
        let gain = parent_entropy
            - (left_n / n as f64) * entropy(left_cor, left_inc)
            - (right_n / n as f64) * entropy(right_cor, right_inc);
        if best.is_none_or(|(_, g)| gain > g) {
            best = Some((threshold, gain));
        }
    }
    best
}

fn build(
    samples: Vec<&Sample>,
    depth: usize,
    cfg: &TrainConfig,
    nr_features: usize,
    rng: &mut ChaCha8Rng,
) -> Node {
    let (correct, incorrect) = counts(&samples);
    let leaf = || Node::Leaf {
        label: majority(correct, incorrect),
        correct,
        incorrect,
    };
    if depth >= cfg.max_depth || samples.len() < cfg.min_split || correct == 0 || incorrect == 0 {
        return leaf();
    }
    let parent_entropy = entropy(correct, incorrect);

    // Candidate features: all, or a random subset (random-tree mode).
    let candidates: Vec<usize> = match cfg.random_features {
        None => (0..nr_features).collect(),
        Some(k) => {
            let mut all: Vec<usize> = (0..nr_features).collect();
            all.shuffle(rng);
            all.truncate(k.max(1));
            all
        }
    };

    let mut best: Option<(usize, u64, f64)> = None;
    for &f in &candidates {
        if let Some((t, gain)) = best_cut_for_feature(&samples, f, parent_entropy) {
            if best.is_none_or(|(_, _, g)| gain > g) {
                best = Some((f, t, gain));
            }
        }
    }
    let Some((feature, threshold, gain)) = best else {
        return leaf();
    };
    if gain <= 1e-12 {
        return leaf();
    }

    let (left, right): (Vec<&Sample>, Vec<&Sample>) = samples
        .into_iter()
        .partition(|s| s.features[feature] <= threshold);
    if left.is_empty() || right.is_empty() {
        return leaf();
    }
    Node::Split {
        feature,
        threshold,
        left: Box::new(build(left, depth + 1, cfg, nr_features, rng)),
        right: Box::new(build(right, depth + 1, cfg, nr_features, rng)),
    }
}

impl DecisionTree {
    /// Train on a dataset.
    pub fn train(data: &Dataset, cfg: &TrainConfig) -> DecisionTree {
        DecisionTree::train_on(data.samples.iter().collect(), &data.feature_names, cfg)
    }

    /// [`DecisionTree::train`] on borrowed samples of a dataset with
    /// columns `feature_names`, in the order given — how a forest trains
    /// each tree on its bag without copying the drawn samples.
    pub(crate) fn train_on(
        samples: Vec<&Sample>,
        feature_names: &[String],
        cfg: &TrainConfig,
    ) -> DecisionTree {
        assert!(!samples.is_empty(), "cannot train on an empty dataset");
        let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed);
        let root = build(samples, 0, cfg, feature_names.len(), &mut rng);
        DecisionTree {
            feature_names: feature_names.to_vec(),
            root,
        }
    }

    /// Classify a feature vector — integer compares only.
    pub fn classify(&self, features: &[u64]) -> Label {
        self.root.classify(features)
    }

    /// Number of comparisons performed to classify `features` (the
    /// per-VM-entry cost the overhead model charges).
    pub fn classify_cost(&self, features: &[u64]) -> usize {
        self.root.classify_cost(features)
    }

    /// Flatten into the arena form used on the deployment hot path.
    pub fn compile(&self) -> crate::compiled::CompiledTree {
        crate::compiled::CompiledTree::compile(self)
    }

    /// Maximum depth.
    pub fn depth(&self) -> usize {
        self.root.depth()
    }

    /// Total node count.
    pub fn nr_nodes(&self) -> usize {
        self.root.count_nodes()
    }

    /// Render the rule set as indented text (the paper's Fig. 6 form).
    pub fn dump_rules(&self) -> String {
        let mut out = String::new();
        self.dump_node(&self.root, 0, &mut out);
        out
    }

    fn dump_node(&self, node: &Node, indent: usize, out: &mut String) {
        let pad = "  ".repeat(indent);
        match node {
            Node::Leaf {
                label,
                correct,
                incorrect,
            } => {
                out.push_str(&format!(
                    "{pad}=> {label:?} ({correct} correct / {incorrect} incorrect)\n"
                ));
            }
            Node::Split {
                feature,
                threshold,
                left,
                right,
            } => {
                let name = &self.feature_names[*feature];
                out.push_str(&format!("{pad}if {name} <= {threshold}:\n"));
                self.dump_node(left, indent + 1, out);
                out.push_str(&format!("{pad}else:\n"));
                self.dump_node(right, indent + 1, out);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::Sample;

    /// The paper's worked example (§III-B): 15 points, cutting RT at 200
    /// separates perfectly while cutting at 100 gains almost nothing.
    #[test]
    fn paper_example_cut_point_is_chosen() {
        let mut d = Dataset::new(&["RT"]);
        // 10 correct points with RT <= 200, 5 incorrect with RT > 200.
        for i in 0..10u64 {
            d.push(Sample::new(vec![50 + i * 15], Label::Correct)); // 50..185
        }
        for i in 0..5u64 {
            d.push(Sample::new(vec![250 + i * 40], Label::Incorrect));
        }
        let t = DecisionTree::train(&d, &TrainConfig::decision_tree());
        match &t.root {
            Node::Split {
                feature: 0,
                threshold,
                ..
            } => {
                assert!(
                    (185..250).contains(threshold),
                    "cut point {threshold} should separate the classes"
                );
            }
            other => panic!("expected a root split, got {other:?}"),
        }
        // Perfect classification of the training set.
        for s in &d.samples {
            assert_eq!(t.classify(&s.features), s.label);
        }
    }

    #[test]
    fn entropy_matches_paper_arithmetic() {
        // The paper's 15-sample example: Entropy(T) with 10/5 split.
        // (The paper's printed 0.276 uses log10; in bits this is 0.918.)
        let e = entropy(10, 5);
        assert!((e - 0.9183).abs() < 1e-3, "got {e}");
        assert_eq!(entropy(10, 0), 0.0);
        assert_eq!(entropy(0, 5), 0.0);
    }

    #[test]
    fn pure_dataset_yields_single_leaf() {
        let mut d = Dataset::new(&["x"]);
        for i in 0..20u64 {
            d.push(Sample::new(vec![i], Label::Correct));
        }
        let t = DecisionTree::train(&d, &TrainConfig::decision_tree());
        assert_eq!(t.nr_nodes(), 1);
        assert_eq!(t.classify(&[1000]), Label::Correct);
    }

    #[test]
    fn two_feature_interaction_is_learned() {
        // Incorrect iff (a > 10 AND b <= 5): needs two levels.
        let mut d = Dataset::new(&["a", "b"]);
        for a in 0..20u64 {
            for b in 0..10u64 {
                let label = if a > 10 && b <= 5 {
                    Label::Incorrect
                } else {
                    Label::Correct
                };
                d.push(Sample::new(vec![a, b], label));
            }
        }
        let t = DecisionTree::train(&d, &TrainConfig::decision_tree());
        assert!(t.depth() >= 2);
        assert_eq!(t.classify(&[15, 3]), Label::Incorrect);
        assert_eq!(t.classify(&[15, 8]), Label::Correct);
        assert_eq!(t.classify(&[5, 3]), Label::Correct);
    }

    #[test]
    fn random_tree_uses_log2_plus_one_features() {
        let cfg = TrainConfig::random_tree(5, 1);
        assert_eq!(
            cfg.random_features,
            Some(3),
            "paper: 3 of 5 features per node"
        );
        let cfg2 = TrainConfig::random_tree(8, 1);
        assert_eq!(cfg2.random_features, Some(4));
    }

    #[test]
    fn random_tree_is_deterministic_per_seed() {
        let mut d = Dataset::new(&["a", "b", "c"]);
        for i in 0..200u64 {
            let label = if (i * 7 + 3) % 5 < 2 {
                Label::Incorrect
            } else {
                Label::Correct
            };
            d.push(Sample::new(vec![i % 17, i % 23, i % 31], label));
        }
        let t1 = DecisionTree::train(&d, &TrainConfig::random_tree(3, 42));
        let t2 = DecisionTree::train(&d, &TrainConfig::random_tree(3, 42));
        assert_eq!(t1.root, t2.root);
        let t3 = DecisionTree::train(&d, &TrainConfig::random_tree(3, 43));
        // Different seed is allowed to differ (usually does).
        let _ = t3;
    }

    #[test]
    fn max_depth_is_respected() {
        let mut d = Dataset::new(&["x"]);
        for i in 0..1000u64 {
            let label = if i % 2 == 0 {
                Label::Correct
            } else {
                Label::Incorrect
            };
            d.push(Sample::new(vec![i], label));
        }
        let mut cfg = TrainConfig::decision_tree();
        cfg.max_depth = 3;
        let t = DecisionTree::train(&d, &cfg);
        assert!(t.depth() <= 3);
    }

    #[test]
    fn classify_cost_bounded_by_depth() {
        let mut d = Dataset::new(&["a", "b"]);
        for i in 0..100u64 {
            let label = if i % 3 == 0 {
                Label::Incorrect
            } else {
                Label::Correct
            };
            d.push(Sample::new(vec![i, i * 2 % 41], label));
        }
        let t = DecisionTree::train(&d, &TrainConfig::decision_tree());
        for s in &d.samples {
            assert!(t.classify_cost(&s.features) <= t.depth());
        }
    }

    #[test]
    fn dump_rules_mentions_feature_names() {
        let mut d = Dataset::new(&["WM", "RT"]);
        for i in 0..50u64 {
            let label = if i < 25 {
                Label::Correct
            } else {
                Label::Incorrect
            };
            d.push(Sample::new(vec![i, 500 - i], label));
        }
        let t = DecisionTree::train(&d, &TrainConfig::decision_tree());
        let rules = t.dump_rules();
        assert!(rules.contains("if "), "rules: {rules}");
        assert!(rules.contains("WM") || rules.contains("RT"));
    }

    #[test]
    fn serde_round_trip_preserves_classification() {
        let mut d = Dataset::new(&["a"]);
        for i in 0..60u64 {
            let label = if i > 30 {
                Label::Incorrect
            } else {
                Label::Correct
            };
            d.push(Sample::new(vec![i], label));
        }
        let t = DecisionTree::train(&d, &TrainConfig::decision_tree());
        let json = serde_json::to_string(&t).unwrap();
        let back: DecisionTree = serde_json::from_str(&json).unwrap();
        for s in &d.samples {
            assert_eq!(back.classify(&s.features), t.classify(&s.features));
        }
    }
}
