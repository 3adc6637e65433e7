//! Property-based tests for the tree learner.

use mltree::{
    evaluate, Dataset, DecisionTree, ForestConfig, Label, RandomForest, Sample, TrainConfig,
};
use proptest::prelude::*;

fn arb_dataset() -> impl Strategy<Value = Dataset> {
    // 2-4 features, 20-200 samples, values in a modest range.
    (2usize..5, 20usize..200).prop_flat_map(|(nf, ns)| {
        proptest::collection::vec(
            (proptest::collection::vec(0u64..1000, nf), any::<bool>()),
            ns,
        )
        .prop_map(move |rows| {
            let names: Vec<String> = (0..nf).map(|i| format!("f{i}")).collect();
            let name_refs: Vec<&str> = names.iter().map(|s| s.as_str()).collect();
            let mut ds = Dataset::new(&name_refs);
            for (features, bad) in rows {
                ds.push(Sample::new(
                    features,
                    if bad {
                        Label::Incorrect
                    } else {
                        Label::Correct
                    },
                ));
            }
            ds
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Training never panics and always yields a classifier that answers
    /// for arbitrary inputs.
    #[test]
    fn training_is_total(ds in arb_dataset(), probe in proptest::collection::vec(any::<u64>(), 4)) {
        let tree = DecisionTree::train(&ds, &TrainConfig::decision_tree());
        let mut input = probe;
        input.resize(ds.nr_features(), 0);
        let _ = tree.classify(&input);
        prop_assert!(tree.depth() <= 24);
    }

    /// Training accuracy on a *consistently labeled* dataset (labels are a
    /// function of the features) is perfect when the tree can grow deep
    /// enough: the learner must be able to memorize consistent data.
    #[test]
    fn consistent_data_is_memorized(rows in proptest::collection::vec(
        proptest::collection::vec(0u64..50, 3), 10..120)) {
        let mut ds = Dataset::new(&["a", "b", "c"]);
        for f in &rows {
            // Deterministic labeling rule.
            let label = if (f[0] ^ f[1].wrapping_mul(3) ^ f[2]) % 5 < 2 {
                Label::Incorrect
            } else {
                Label::Correct
            };
            ds.push(Sample::new(f.clone(), label));
        }
        let mut cfg = TrainConfig::decision_tree();
        cfg.max_depth = 64;
        cfg.min_split = 2;
        let tree = DecisionTree::train(&ds, &cfg);
        // Duplicated feature vectors may carry both labels (the rule is
        // deterministic, so they cannot); training accuracy must be 1.
        let cm = evaluate(&tree, &ds);
        prop_assert!(cm.accuracy() == 1.0, "training accuracy {}", cm.accuracy());
    }

    /// Classification is scale-consistent: the random tree with a fixed
    /// seed produces identical structures on identical data.
    #[test]
    fn random_tree_deterministic(ds in arb_dataset(), seed in any::<u64>()) {
        let a = DecisionTree::train(&ds, &TrainConfig::random_tree(ds.nr_features(), seed));
        let b = DecisionTree::train(&ds, &TrainConfig::random_tree(ds.nr_features(), seed));
        prop_assert_eq!(a.root, b.root);
    }

    /// Tree `t` of a forest depends only on the seed and `t`, so a smaller
    /// forest is a larger one's first trees: `xentry-bench`'s forest
    /// comparison trains one forest and reads its prefixes.
    #[test]
    fn smaller_forest_is_a_prefix_of_a_larger_one(ds in arb_dataset(), seed in any::<u64>(), n in 1usize..8) {
        let mut cfg = ForestConfig::default_random_forest(ds.nr_features(), seed);
        cfg.nr_trees = 8;
        let big = RandomForest::train(&ds, &cfg);
        cfg.nr_trees = n;
        prop_assert_eq!(RandomForest::train(&ds, &cfg).trees, big.trees[..n].to_vec());
    }

    /// The confusion matrix always partitions the test set.
    #[test]
    fn confusion_matrix_partitions(ds in arb_dataset()) {
        let tree = DecisionTree::train(&ds, &TrainConfig::decision_tree());
        let cm = evaluate(&tree, &ds);
        prop_assert_eq!(cm.total(), ds.len());
        prop_assert!(cm.accuracy() >= 0.0 && cm.accuracy() <= 1.0);
        prop_assert!(cm.false_positive_rate() >= 0.0 && cm.false_positive_rate() <= 1.0);
    }

    /// Serialization round trip preserves every classification.
    #[test]
    fn serde_preserves_classification(ds in arb_dataset()) {
        let tree = DecisionTree::train(&ds, &TrainConfig::random_tree(ds.nr_features(), 5));
        let json = serde_json::to_string(&tree).unwrap();
        let back: DecisionTree = serde_json::from_str(&json).unwrap();
        for s in &ds.samples {
            prop_assert_eq!(back.classify(&s.features), tree.classify(&s.features));
        }
    }

    /// classify_cost is bounded by the tree depth for all inputs.
    #[test]
    fn cost_bounded_by_depth(ds in arb_dataset(), probe in proptest::collection::vec(any::<u64>(), 4)) {
        let tree = DecisionTree::train(&ds, &TrainConfig::decision_tree());
        let mut input = probe;
        input.resize(ds.nr_features(), 0);
        prop_assert!(tree.classify_cost(&input) <= tree.depth());
    }
}
