//! Random forest — the natural extension of the paper's single random tree
//! ("we plan to develop new techniques to further increase the detection
//! coverage and reduce the false positive rate", §VIII).
//!
//! A bagged ensemble of random trees with majority voting. Inference is
//! still integer-only (N tree walks + one counter compare), so it remains
//! deployable on the hypervisor hot path at N× the single-tree cost.

use crate::dataset::{Dataset, Label, Sample};
use crate::tree::{DecisionTree, TrainConfig};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

/// Forest training configuration.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct ForestConfig {
    /// Number of trees.
    pub nr_trees: usize,
    /// Bootstrap sample size as a fraction of the training set (x1000;
    /// 1000 = classic bagging with |D| draws with replacement).
    pub bag_permille: usize,
    /// Per-tree training configuration (the seed is perturbed per tree).
    pub tree: TrainConfig,
    /// Votes required to call an execution incorrect; `None` = strict
    /// majority. Raising it trades recall for a lower false-positive rate —
    /// exactly the §VIII goal.
    pub vote_threshold: Option<usize>,
    /// RNG seed for bagging.
    pub seed: u64,
}

impl ForestConfig {
    /// A reasonable default: 15 random trees, full-size bags.
    pub fn default_random_forest(nr_features: usize, seed: u64) -> ForestConfig {
        ForestConfig {
            nr_trees: 15,
            bag_permille: 1000,
            tree: TrainConfig::random_tree(nr_features, seed),
            vote_threshold: None,
            seed,
        }
    }
}

/// A trained forest.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RandomForest {
    pub feature_names: Vec<String>,
    pub trees: Vec<DecisionTree>,
    pub vote_threshold: usize,
}

/// Per-tree bagging seed: splitmix64 over the forest seed and tree index.
/// Each tree owns an independent RNG stream, so the model is a pure
/// function of `(data, cfg)` no matter how trees are scheduled across
/// threads — parallel training is bit-identical to serial by construction.
fn bag_seed(forest_seed: u64, tree: u64) -> u64 {
    let mut z = forest_seed.wrapping_add((tree + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Bag and train tree `t` of the forest.
fn train_one(data: &Dataset, cfg: &ForestConfig, bag_size: usize, t: usize) -> DecisionTree {
    let mut rng = ChaCha8Rng::seed_from_u64(bag_seed(cfg.seed, t as u64));
    let bag: Vec<&Sample> = (0..bag_size)
        .map(|_| &data.samples[rng.gen_range(0..data.len())])
        .collect();
    let mut tree_cfg = cfg.tree;
    tree_cfg.seed = cfg.seed.wrapping_add(t as u64 * 0x9E37_79B9);
    DecisionTree::train_on(bag, &data.feature_names, &tree_cfg)
}

impl RandomForest {
    /// Train by bagging, using every available core. Identical output to
    /// [`RandomForest::train_with_threads`] at any thread count.
    pub fn train(data: &Dataset, cfg: &ForestConfig) -> RandomForest {
        let threads = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        RandomForest::train_with_threads(data, cfg, threads)
    }

    /// Train by bagging on `threads` worker threads. Tree `t` always draws
    /// its bag from its own seeded stream (`bag_seed`) and trains with
    /// its own perturbed tree seed, so the resulting forest is
    /// bit-identical regardless of `threads` (1 == serial).
    pub fn train_with_threads(data: &Dataset, cfg: &ForestConfig, threads: usize) -> RandomForest {
        assert!(cfg.nr_trees >= 1);
        assert!(!data.is_empty());
        assert!(threads >= 1, "need at least one training thread");
        let bag_size = (data.len() * cfg.bag_permille / 1000).max(2);
        let threads = threads.min(cfg.nr_trees);
        let trees: Vec<DecisionTree> = if threads == 1 {
            (0..cfg.nr_trees)
                .map(|t| train_one(data, cfg, bag_size, t))
                .collect()
        } else {
            // Stride-partition tree indices across workers; reassemble in
            // index order so the output order matches serial training.
            let mut slots: Vec<Option<DecisionTree>> = vec![None; cfg.nr_trees];
            let done: Vec<Vec<(usize, DecisionTree)>> = std::thread::scope(|s| {
                let handles: Vec<_> = (0..threads)
                    .map(|w| {
                        s.spawn(move || {
                            (w..cfg.nr_trees)
                                .step_by(threads)
                                .map(|t| (t, train_one(data, cfg, bag_size, t)))
                                .collect()
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("forest training worker panicked"))
                    .collect()
            });
            for (t, tree) in done.into_iter().flatten() {
                slots[t] = Some(tree);
            }
            slots
                .into_iter()
                .map(|t| t.expect("tree trained"))
                .collect()
        };
        let vote_threshold = cfg.vote_threshold.unwrap_or(cfg.nr_trees / 2 + 1);
        RandomForest {
            feature_names: data.feature_names.clone(),
            trees,
            vote_threshold,
        }
    }

    /// Flatten into the shared-arena form used on the deployment hot path.
    pub fn compile(&self) -> crate::compiled::CompiledForest {
        crate::compiled::CompiledForest::compile(self)
    }

    /// Number of trees voting `Incorrect`.
    pub fn incorrect_votes(&self, features: &[u64]) -> usize {
        self.trees
            .iter()
            .filter(|t| t.classify(features) == Label::Incorrect)
            .count()
    }

    /// Majority-vote classification.
    pub fn classify(&self, features: &[u64]) -> Label {
        if self.incorrect_votes(features) >= self.vote_threshold {
            Label::Incorrect
        } else {
            Label::Correct
        }
    }

    /// Total comparisons performed (the in-hypervisor cost).
    pub fn classify_cost(&self, features: &[u64]) -> usize {
        self.trees.iter().map(|t| t.classify_cost(features)).sum()
    }

    /// Total node count across trees.
    pub fn nr_nodes(&self) -> usize {
        self.trees.iter().map(|t| t.nr_nodes()).sum()
    }
}

/// Evaluate a forest on a test set (compiles once, classifies in batch).
pub fn evaluate_forest(forest: &RandomForest, test: &Dataset) -> crate::eval::ConfusionMatrix {
    let compiled = forest.compile();
    let rows: Vec<&[u64]> = test.samples.iter().map(|s| s.features.as_slice()).collect();
    let mut predicted = vec![Label::Correct; rows.len()];
    compiled.classify_batch(&rows, &mut predicted);
    let mut cm = crate::eval::ConfusionMatrix::default();
    for (s, p) in test.samples.iter().zip(predicted) {
        cm.record(s.label, p);
    }
    cm
}

#[cfg(test)]
mod tests {
    use super::*;

    fn separable_dataset(n: usize) -> Dataset {
        let mut ds = Dataset::new(&["a", "b"]);
        for i in 0..n as u64 {
            let (f, l) = if i % 4 == 0 {
                (vec![500 + i % 97, 40 + i % 7], Label::Incorrect)
            } else {
                (vec![100 + i % 97, 10 + i % 7], Label::Correct)
            };
            ds.push(Sample::new(f, l));
        }
        ds
    }

    #[test]
    fn forest_separates_like_a_tree() {
        let ds = separable_dataset(400);
        let cfg = ForestConfig::default_random_forest(2, 7);
        let forest = RandomForest::train(&ds, &cfg);
        let cm = evaluate_forest(&forest, &ds);
        assert!(cm.accuracy() > 0.97, "accuracy {}", cm.accuracy());
        assert_eq!(forest.trees.len(), 15);
    }

    #[test]
    fn raising_vote_threshold_reduces_false_positives() {
        // Noisy overlapping data: a stricter vote must not increase FP.
        let mut ds = Dataset::new(&["x"]);
        for i in 0..600u64 {
            let label = if (i * 7) % 10 < 3 {
                Label::Incorrect
            } else {
                Label::Correct
            };
            ds.push(Sample::new(vec![i % 40], label));
        }
        let (train, test) = ds.split(3);
        let mut lax = ForestConfig::default_random_forest(1, 3);
        lax.vote_threshold = Some(4);
        let mut strict = lax;
        strict.vote_threshold = Some(13);
        let f_lax = RandomForest::train(&train, &lax);
        let f_strict = RandomForest::train(&train, &strict);
        let cm_lax = evaluate_forest(&f_lax, &test);
        let cm_strict = evaluate_forest(&f_strict, &test);
        assert!(
            cm_strict.false_positive_rate() <= cm_lax.false_positive_rate(),
            "strict {} vs lax {}",
            cm_strict.false_positive_rate(),
            cm_lax.false_positive_rate()
        );
    }

    #[test]
    fn forest_is_deterministic_per_seed() {
        let ds = separable_dataset(200);
        let cfg = ForestConfig::default_random_forest(2, 11);
        let a = RandomForest::train(&ds, &cfg);
        let b = RandomForest::train(&ds, &cfg);
        for s in &ds.samples {
            assert_eq!(a.classify(&s.features), b.classify(&s.features));
        }
    }

    #[test]
    fn parallel_training_is_bit_identical_to_serial() {
        let ds = separable_dataset(300);
        let cfg = ForestConfig::default_random_forest(2, 29);
        let serial = RandomForest::train_with_threads(&ds, &cfg, 1);
        for threads in [2, 3, 8, 64] {
            let parallel = RandomForest::train_with_threads(&ds, &cfg, threads);
            assert_eq!(
                serial, parallel,
                "threads={threads} must not change the model"
            );
        }
        assert_eq!(serial, RandomForest::train(&ds, &cfg));
    }

    #[test]
    fn cost_scales_with_tree_count() {
        let ds = separable_dataset(200);
        let mut cfg = ForestConfig::default_random_forest(2, 5);
        cfg.nr_trees = 3;
        let small = RandomForest::train(&ds, &cfg);
        cfg.nr_trees = 12;
        let big = RandomForest::train(&ds, &cfg);
        let probe = vec![150u64, 20];
        assert!(big.classify_cost(&probe) > small.classify_cost(&probe));
    }

    #[test]
    fn serde_round_trip() {
        let ds = separable_dataset(200);
        let f = RandomForest::train(&ds, &ForestConfig::default_random_forest(2, 9));
        let json = serde_json::to_string(&f).unwrap();
        let back: RandomForest = serde_json::from_str(&json).unwrap();
        for s in &ds.samples {
            assert_eq!(back.classify(&s.features), f.classify(&s.features));
        }
    }
}
