//! Property-based equivalence: the compiled arena engine must be
//! bit-identical to the boxed walkers — same verdicts, same costs — on
//! randomized trees, forests and inputs. The compiled form is what ships
//! on the VM-entry hot path, so "fast" is only admissible as "fast and
//! provably the same function".

use mltree::{
    BatchWalker, CompiledForest, CompiledTree, Dataset, DecisionTree, ForestConfig, Label,
    RandomForest, Sample, TrainConfig,
};
use proptest::prelude::*;

/// Every kernel the batch entry can dispatch to. Requesting a width the
/// CPU lacks falls back to the next narrower kernel, so iterating all of
/// these is safe on any host — on AVX-512 hardware it covers the packed
/// zmm, packed ymm and scalar lockstep walkers plus the calibrated
/// `Auto` pick.
const WALKERS: [BatchWalker; 4] = [
    BatchWalker::Scalar,
    BatchWalker::Avx2,
    BatchWalker::Avx512,
    BatchWalker::Auto,
];

/// One SIMD lane group: a batch engine walks a call of fewer rows singly.
const LANES: usize = 8;

/// Rows the batch engines stage and deduplicate as one window.
const WINDOW: usize = 1024;

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

/// Like [`arb_dataset`] but with feature values drawn from the full u64
/// range, so trained thresholds routinely exceed the packed walker's
/// 12-bit envelope (0xFFF) and its saturation path gets real coverage.
fn arb_wide_dataset() -> impl Strategy<Value = Dataset> {
    (2usize..5, 20usize..120).prop_flat_map(|(nf, ns)| {
        proptest::collection::vec(
            (proptest::collection::vec(any::<u64>(), nf), any::<bool>()),
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

/// Probe vectors resized to the dataset's feature count: a mix of
/// in-distribution values and extremes the training data never saw.
fn probes(ds: &Dataset, raw: &[Vec<u64>]) -> Vec<Vec<u64>> {
    let nf = ds.nr_features();
    let mut out: Vec<Vec<u64>> = raw
        .iter()
        .map(|p| {
            let mut p = p.clone();
            p.resize(nf, 0);
            p
        })
        .collect();
    out.push(vec![0; nf]);
    out.push(vec![u64::MAX; nf]);
    out.extend(ds.samples.iter().map(|s| s.features.clone()));
    out
}

/// The probes as fixed-width rows (zero-padded) for the row-producer entry.
fn rows4(inputs: &[Vec<u64>]) -> Vec<[u64; 4]> {
    inputs
        .iter()
        .map(|p| std::array::from_fn(|j| p.get(j).copied().unwrap_or(0)))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// CompiledTree::classify and classify_cost — and the one walk that
    /// answers both — match the boxed walker on every probe, and the batch
    /// path matches the single-sample path.
    #[test]
    fn compiled_tree_is_bit_identical(
        ds in arb_dataset(),
        seed in any::<u64>(),
        raw in proptest::collection::vec(proptest::collection::vec(any::<u64>(), 4), 1..12),
    ) {
        let tree = DecisionTree::train(&ds, &TrainConfig::random_tree(ds.nr_features(), seed));
        let compiled = CompiledTree::compile(&tree);
        let inputs = probes(&ds, &raw);
        let mut batch = vec![Label::Correct; inputs.len()];
        compiled.classify_batch(&inputs, &mut batch);
        for (f, b) in inputs.iter().zip(batch) {
            prop_assert_eq!(compiled.classify(f), tree.classify(f));
            prop_assert_eq!(compiled.classify_cost(f), tree.classify_cost(f));
            prop_assert_eq!(
                compiled.classify_with_cost(f),
                (tree.classify(f), tree.classify_cost(f))
            );
            prop_assert_eq!(b, tree.classify(f));
        }
        prop_assert_eq!(compiled.depth(), tree.depth());
    }

    /// CompiledForest verdicts, vote counts and costs match the boxed
    /// forest for every vote threshold from 0 to one above the tree count
    /// (the ones the early exit decides before the first tree, on it, or
    /// only on the last), and the batch path matches single-sample
    /// classification.
    #[test]
    fn compiled_forest_is_bit_identical(
        ds in arb_dataset(),
        seed in any::<u64>(),
        shape in (1usize..9).prop_flat_map(|n| (Just(n), 0..n + 2)),
        raw in proptest::collection::vec(proptest::collection::vec(any::<u64>(), 4), 1..8),
    ) {
        let (nr_trees, threshold) = shape;
        let mut cfg = ForestConfig::default_random_forest(ds.nr_features(), seed);
        cfg.nr_trees = nr_trees;
        cfg.vote_threshold = Some(threshold);
        let forest = RandomForest::train(&ds, &cfg);
        let compiled = CompiledForest::compile(&forest);
        let inputs = probes(&ds, &raw);
        let mut batch = vec![Label::Correct; inputs.len()];
        compiled.classify_batch(&inputs, &mut batch);
        for (f, b) in inputs.iter().zip(batch) {
            prop_assert_eq!(compiled.classify(f), forest.classify(f));
            prop_assert_eq!(compiled.incorrect_votes(f), forest.incorrect_votes(f));
            prop_assert_eq!(compiled.classify_cost(f), forest.classify_cost(f));
            prop_assert_eq!(b, forest.classify(f));
        }
    }

    /// Training the same forest config on any thread count yields the
    /// same compiled arena (parallel training is bit-identical).
    #[test]
    fn parallel_forest_compiles_identically(ds in arb_dataset(), seed in any::<u64>()) {
        let cfg = ForestConfig::default_random_forest(ds.nr_features(), seed);
        let serial = RandomForest::train_with_threads(&ds, &cfg, 1);
        let parallel = RandomForest::train_with_threads(&ds, &cfg, 4);
        prop_assert_eq!(&serial, &parallel);
        prop_assert_eq!(CompiledForest::compile(&serial), CompiledForest::compile(&parallel));
    }

    /// Every vector kernel is bit-identical to the scalar lockstep
    /// oracle, on full batches and on every short tail (1..=9 rows) —
    /// tails are where lane padding and the parked-lane logic live.
    #[test]
    fn every_batch_walker_matches_the_scalar_oracle(
        ds in arb_dataset(),
        seed in any::<u64>(),
        raw in proptest::collection::vec(proptest::collection::vec(any::<u64>(), 4), 1..12),
    ) {
        let tree = DecisionTree::train(&ds, &TrainConfig::random_tree(ds.nr_features(), seed));
        let compiled = CompiledTree::compile(&tree);
        let inputs = probes(&ds, &raw);
        let mut oracle = vec![Label::Correct; inputs.len()];
        compiled.classify_batch_with(BatchWalker::Scalar, &inputs, &mut oracle);
        for (f, o) in inputs.iter().zip(&oracle) {
            prop_assert_eq!(*o, tree.classify(f));
        }
        for walker in WALKERS {
            let mut got = vec![Label::Correct; inputs.len()];
            compiled.classify_batch_with(walker, &inputs, &mut got);
            prop_assert_eq!(&got, &oracle);
            for tail in 1..inputs.len().min(10) {
                let mut t = vec![Label::Correct; tail];
                compiled.classify_batch_with(walker, &inputs[..tail], &mut t);
                prop_assert_eq!(&t[..], &oracle[..tail]);
            }
        }
    }

    /// The packed 12-bit envelope's edges are exact under every kernel:
    /// arenas whose thresholds exceed 0xFFF (saturated at pack time) must
    /// still verdict correctly for in-envelope inputs, and chunks holding
    /// any out-of-envelope value (4096, u64::MAX) — down to a single one
    /// in the chunk's last row — must drop to the exact row-by-row walk
    /// without disturbing their neighbours, from the tree, the
    /// row-producer and the forest entries alike.
    #[test]
    fn packed_envelope_edges_match_the_boxed_walker(
        ds in arb_wide_dataset(),
        seed in any::<u64>(),
        small in proptest::collection::vec(proptest::collection::vec(0u64..4096, 4), 1..8),
    ) {
        let tree = DecisionTree::train(&ds, &TrainConfig::random_tree(ds.nr_features(), seed));
        let compiled = CompiledTree::compile(&tree);
        let mut cfg = ForestConfig::default_random_forest(ds.nr_features(), seed);
        cfg.nr_trees = 3;
        let forest = RandomForest::train(&ds, &cfg);
        let compiled_forest = CompiledForest::compile(&forest);
        let nf = ds.nr_features();
        // First 64 rows stay inside the envelope, so chunk 0 is
        // guaranteed to take the packed path against saturated
        // thresholds. Chunk 1 is in-envelope except for one value in its
        // last row; the rows after it force more fallback chunks.
        let mut inputs: Vec<Vec<u64>> = (0..128)
            .map(|i| {
                let mut p = small[i % small.len()].clone();
                p.resize(nf, 0);
                if i == 0 {
                    p.fill(0xFFF); // largest in-envelope value
                }
                p
            })
            .collect();
        inputs[127][nf - 1] = 4096; // smallest out-of-envelope value
        inputs.push(vec![4096; nf]);
        inputs.push(vec![u64::MAX; nf]);
        inputs.extend(ds.samples.iter().map(|s| s.features.clone()));
        let rows = rows4(&inputs);
        for walker in WALKERS {
            let mut got = vec![Label::Correct; inputs.len()];
            compiled.classify_batch_with(walker, &inputs, &mut got);
            let mut by_row = vec![Label::Correct; inputs.len()];
            compiled.classify_batch_rows::<4>(walker, rows.len(), |i| rows[i], &mut by_row);
            let mut voted = vec![Label::Correct; inputs.len()];
            compiled_forest.classify_batch_with(walker, &inputs, &mut voted);
            for (i, f) in inputs.iter().enumerate() {
                prop_assert_eq!(got[i], tree.classify(f));
                prop_assert_eq!(by_row[i], tree.classify(f));
                prop_assert_eq!(voted[i], forest.classify(f));
            }
        }
    }

    /// The staging-fused row entry ([`CompiledTree::classify_batch_rows`])
    /// is bit-identical to materializing the rows and calling
    /// `classify_batch`, on every kernel and every tail length. Rows are
    /// padded to a fixed width of 4, so datasets with arity 4 exercise
    /// the const-unrolled packer and narrower ones the runtime-arity
    /// packer; probe rows holding u64::MAX exercise the row-by-row
    /// fallback chunk path.
    #[test]
    fn classify_batch_rows_matches_materialized_batches(
        ds in arb_dataset(),
        seed in any::<u64>(),
        raw in proptest::collection::vec(proptest::collection::vec(any::<u64>(), 4), 1..12),
    ) {
        let tree = DecisionTree::train(&ds, &TrainConfig::random_tree(ds.nr_features(), seed));
        let compiled = CompiledTree::compile(&tree);
        let inputs = probes(&ds, &raw);
        let rows = rows4(&inputs);
        let mut expect = vec![Label::Correct; inputs.len()];
        compiled.classify_batch(&inputs, &mut expect);
        for walker in WALKERS {
            let mut got = vec![Label::Correct; rows.len()];
            compiled.classify_batch_rows::<4>(walker, rows.len(), |i| rows[i], &mut got);
            prop_assert_eq!(&got, &expect);
            for tail in 1..rows.len().min(10) {
                let mut t = vec![Label::Correct; tail];
                compiled.classify_batch_rows::<4>(walker, tail, |i| rows[i], &mut t);
                prop_assert_eq!(&t[..], &expect[..tail]);
            }
        }
        // Zero rows is a no-op, not a panic.
        compiled.classify_batch_rows::<4>(BatchWalker::Auto, 0, |i| rows[i], &mut []);
    }

    /// An injected single-bit fault stays visible on the batch fast path:
    /// either `validate()` rejects the corrupted arena at the deploy
    /// gate, or — for semantic corruption that keeps the structure valid
    /// — every batch kernel computes the same (corrupted) function as
    /// the checked single-sample walk, so the canary layer sees the flip
    /// regardless of which path classified. A stale packed shadow would
    /// fail exactly this. Flipping the same bit twice restores the arena
    /// bit-for-bit, packed shadow included.
    #[test]
    fn flipped_bits_stay_visible_on_the_batch_path(
        ds in arb_dataset(),
        seed in any::<u64>(),
        bitsel in any::<u64>(),
    ) {
        let tree = DecisionTree::train(&ds, &TrainConfig::random_tree(ds.nr_features(), seed));
        let pristine = CompiledTree::compile(&tree);
        prop_assume!(pristine.nr_splits() > 0);
        let inputs = probes(&ds, &[]);
        let mut corrupt = pristine.clone();
        let bit = (bitsel as usize) % pristine.logical_bits();
        corrupt.flip_bit(bit);
        if corrupt.validate().is_ok() {
            let single: Vec<Label> = inputs.iter().map(|f| corrupt.classify(f)).collect();
            for walker in WALKERS {
                let mut got = vec![Label::Correct; inputs.len()];
                corrupt.classify_batch_with(walker, &inputs, &mut got);
                prop_assert_eq!(&got, &single);
            }
        }
        corrupt.flip_bit(bit);
        prop_assert_eq!(&corrupt, &pristine);
        // A high bit flipped into record 0's left reference makes it
        // neither a well-formed leaf tag nor an in-bounds index — the
        // deploy gate must always catch it.
        let mut oob = pristine.clone();
        oob.flip_bit(64 + 30);
        prop_assert!(oob.validate().is_err());
    }

    /// A model slab struck many times over is still never a host panic:
    /// after each of up to 16 random bit flips, a tree and a forest either
    /// fail `validate()` or classify every probe through the single walker
    /// and through every batch size up to two lane groups and one row and
    /// one past a window edge, on every kernel, the batch answering as the
    /// single walk does.
    #[test]
    fn arenas_struck_by_many_flips_are_rejected_or_classify_consistently(
        ds in arb_dataset(),
        seed in any::<u64>(),
        flips in proptest::collection::vec(any::<u64>(), 1..16),
    ) {
        let tree = DecisionTree::train(&ds, &TrainConfig::random_tree(ds.nr_features(), seed));
        let mut cfg = ForestConfig::default_random_forest(ds.nr_features(), seed);
        cfg.nr_trees = 5;
        let (mut ct, mut cf) = (
            CompiledTree::compile(&tree),
            CompiledForest::compile(&RandomForest::train(&ds, &cfg)),
        );
        prop_assume!(ct.nr_splits() > 0 && cf.nr_splits() > 0);
        let inputs: Vec<Vec<u64>> = (probes(&ds, &[]).into_iter().cycle())
            .take(WINDOW + 1)
            .collect();
        for &f in &flips {
            ct.flip_bit(f as usize % ct.logical_bits());
            cf.flip_bit((f >> 32) as usize % cf.logical_bits());
            if ct.validate().is_ok() {
                let single: Vec<Label> = inputs.iter().map(|r| ct.classify(r)).collect();
                for walker in WALKERS {
                    for n in (0..=2 * LANES + 1).chain([inputs.len()]) {
                        let mut got = vec![Label::Correct; n];
                        ct.classify_batch_with(walker, &inputs[..n], &mut got);
                        prop_assert_eq!(&got[..], &single[..n]);
                    }
                }
            }
            if cf.validate().is_ok() {
                let single: Vec<Label> = inputs.iter().map(|r| cf.classify(r)).collect();
                for walker in WALKERS {
                    for n in (0..=2 * LANES + 1).chain([inputs.len()]) {
                        let mut got = vec![Label::Correct; n];
                        cf.classify_batch_with(walker, &inputs[..n], &mut got);
                        prop_assert_eq!(&got[..], &single[..n]);
                    }
                }
            }
        }
    }

    /// The forest batch path agrees with the boxed forest under every
    /// kernel, including on short tails, and on a batch of three
    /// 1,024-row windows plus a ragged tail — in the packed envelope but
    /// for one chunk of the middle window — at thresholds 0, 1, a strict
    /// majority, all trees and one more than that: the live set carries
    /// undecided rows across many chunks and every window edge.
    #[test]
    fn forest_batch_walkers_match_the_boxed_forest(
        ds in arb_dataset(),
        seed in any::<u64>(),
        nr_trees in 1usize..6,
        raw in proptest::collection::vec(proptest::collection::vec(any::<u64>(), 4), 1..6),
    ) {
        let mut cfg = ForestConfig::default_random_forest(ds.nr_features(), seed);
        cfg.nr_trees = nr_trees;
        let forest = RandomForest::train(&ds, &cfg);
        let compiled = CompiledForest::compile(&forest);
        let inputs = probes(&ds, &raw);
        for walker in WALKERS {
            let mut got = vec![Label::Correct; inputs.len()];
            compiled.classify_batch_with(walker, &inputs, &mut got);
            for (f, b) in inputs.iter().zip(&got) {
                prop_assert_eq!(*b, forest.classify(f));
            }
            for tail in 1..inputs.len().min(6) {
                let mut t = vec![Label::Correct; tail];
                compiled.classify_batch_with(walker, &inputs[..tail], &mut t);
                prop_assert_eq!(&t[..], &got[..tail]);
            }
        }
        let windows = three_windows(&ds);
        for threshold in [0, 1, nr_trees / 2 + 1, nr_trees, nr_trees + 1] {
            let mut voting = forest.clone();
            voting.vote_threshold = threshold;
            let compiled = CompiledForest::compile(&voting);
            let want: Vec<Label> = windows.iter().map(|f| voting.classify(f)).collect();
            for walker in WALKERS {
                let mut got = vec![Label::Correct; windows.len()];
                compiled.classify_batch_with(walker, &windows, &mut got);
                prop_assert_eq!(&got, &want);
            }
        }
    }

    /// The tree twin of the forest's window test: both batch entries, on
    /// every kernel, over three duplicate-heavy 1,024-row windows and a
    /// ragged tail, one chunk of the middle window outside the envelope.
    #[test]
    fn tree_batch_windows_match_the_boxed_tree(ds in arb_dataset(), seed in any::<u64>()) {
        let tree = DecisionTree::train(&ds, &TrainConfig::random_tree(ds.nr_features(), seed));
        let compiled = CompiledTree::compile(&tree);
        let windows = three_windows(&ds);
        let rows = rows4(&windows);
        let want: Vec<Label> = windows.iter().map(|f| tree.classify(f)).collect();
        for walker in WALKERS {
            let mut got = vec![Label::Correct; windows.len()];
            compiled.classify_batch_with(walker, &windows, &mut got);
            prop_assert_eq!(&got, &want);
            let mut by_row = vec![Label::Correct; rows.len()];
            compiled.classify_batch_rows::<4>(walker, rows.len(), |i| rows[i], &mut by_row);
            prop_assert_eq!(&by_row, &want);
        }
    }
}

/// Three 1,024-row windows plus a ragged tail of the dataset's rows,
/// cycled, with one 4,096 in a chunk of the middle window.
fn three_windows(ds: &Dataset) -> Vec<Vec<u64>> {
    let mut windows: Vec<Vec<u64>> = (0..3 * 1024 + 37)
        .map(|i| ds.samples[i % ds.len()].features.clone())
        .collect();
    windows[1024 + 5 * 64 + 17][0] = 4096;
    windows
}

/// Distinct in-envelope rows for `i < 4096` (the last column is `i`).
fn word(i: u64) -> [u64; 4] {
    let h = i.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    [h >> 52, (h >> 40) & 0xfff, (h >> 28) & 0xfff, i & 0xfff]
}

/// 600 labelled [`word`] rows.
fn word_dataset() -> Dataset {
    let mut ds = Dataset::new(&["a", "b", "c", "d"]);
    for i in 0..600 {
        let r = word(i);
        let bad = ((r[0] > 2048) != (r[1] < 1000)) ^ (i % 7 == 0);
        ds.push(Sample::new(
            r.to_vec(),
            [Label::Correct, Label::Incorrect][bad as usize],
        ));
    }
    ds
}

/// A tree and a five-tree forest trained on [`word_dataset`].
fn word_models() -> (DecisionTree, RandomForest) {
    let ds = word_dataset();
    let mut cfg = ForestConfig::default_random_forest(4, 5);
    cfg.nr_trees = 5;
    (
        DecisionTree::train(&ds, &TrainConfig::decision_tree()),
        RandomForest::train(&ds, &cfg),
    )
}

/// A window of 1,024 distinct words, so the dedup table's single probe
/// meets slots naming other words; then a window where each word comes
/// twice, over the first window's stale slots; then a ragged one. Both
/// engines, both tree entries, every kernel, and 1- and 8-row calls.
#[test]
fn all_distinct_windows_match_the_boxed_walkers() {
    let (tree, forest) = word_models();
    let (ct, cf) = (
        CompiledTree::compile(&tree),
        CompiledForest::compile(&forest),
    );
    let rows: Vec<[u64; 4]> = (0..1024)
        .chain((0..1024).map(|k| 1024 + k / 2))
        .chain(2048..3109)
        .map(word)
        .collect();
    let by_tree: Vec<Label> = rows.iter().map(|r| tree.classify(r)).collect();
    let by_forest: Vec<Label> = rows.iter().map(|r| forest.classify(r)).collect();
    for walker in WALKERS {
        for n in [1, 8, rows.len()] {
            let mut got = vec![Label::Correct; n];
            ct.classify_batch_with(walker, &rows[..n], &mut got);
            assert_eq!(got, by_tree[..n], "{walker:?}, {n} rows");
            got.fill(Label::Correct);
            ct.classify_batch_rows::<4>(walker, n, |i| rows[i], &mut got);
            assert_eq!(got, by_tree[..n], "{walker:?}, {n} rows");
            cf.classify_batch_with(walker, &rows[..n], &mut got);
            assert_eq!(got, by_forest[..n], "{walker:?}, {n} rows");
        }
    }
}

/// Every batch size around one lane group and across a window edge, from
/// all three batch entries on every kernel, agrees with the
/// single-sample walk and the boxed walker, for a tree and a 15-tree
/// forest: once over in-envelope rows (the kernels' padding at 9–15 rows
/// and past the window edge), once with a row above the packed 12-bit
/// envelope near the start and one just past the window edge. The first
/// lane group's labels are mixed, so a small-call path that answered any
/// row with another row's verdict fails here.
#[test]
fn every_batch_size_around_a_lane_group_and_a_window_edge_matches_the_walkers() {
    let (tree, _) = word_models();
    let mut cfg = ForestConfig::default_random_forest(4, 5);
    cfg.nr_trees = 15;
    let forest = RandomForest::train(&word_dataset(), &cfg);
    let (ct, cf) = (
        CompiledTree::compile(&tree),
        CompiledForest::compile(&forest),
    );
    let clean: Vec<[u64; 4]> = (0..(WINDOW + LANES) as u64)
        .map(|i| word(i % 600))
        .collect();
    let mut mixed = clean.clone();
    mixed[3][2] = 4096;
    mixed[WINDOW + 1][0] = u64::MAX;
    for rows in [&clean, &mixed] {
        let by_tree: Vec<Label> = rows.iter().map(|r| tree.classify(r)).collect();
        let by_forest: Vec<Label> = rows.iter().map(|r| forest.classify(r)).collect();
        for labels in [&by_tree, &by_forest] {
            assert!(
                labels[1..LANES].iter().any(|&l| l != labels[0]),
                "the first lane group needs mixed labels"
            );
        }
        for (i, r) in rows.iter().enumerate() {
            assert_eq!(ct.classify(r), by_tree[i]);
            assert_eq!(cf.classify(r), by_forest[i]);
        }
        for walker in WALKERS {
            for n in (0..=2 * LANES + 1).chain(WINDOW - 1..=WINDOW + LANES) {
                let mut got = vec![Label::Correct; n];
                ct.classify_batch_with(walker, &rows[..n], &mut got);
                assert_eq!(got, by_tree[..n], "tree, {walker:?}, {n} rows");
                got.fill(Label::Correct);
                ct.classify_batch_rows::<4>(walker, n, |i| rows[i], &mut got);
                assert_eq!(got, by_tree[..n], "tree rows, {walker:?}, {n} rows");
                got.fill(Label::Correct);
                cf.classify_batch_with(walker, &rows[..n], &mut got);
                assert_eq!(got, by_forest[..n], "forest, {walker:?}, {n} rows");
            }
        }
    }
}

/// Batches share nothing across threads or nesting: four threads
/// classifying different pools at once match the serial verdicts, and a
/// row producer that classifies a batch itself gets correct labels from
/// both calls.
#[test]
fn concurrent_and_nested_batches_keep_their_own_verdicts() {
    let (tree, forest) = word_models();
    let (ct, cf) = (
        CompiledTree::compile(&tree),
        CompiledForest::compile(&forest),
    );
    let pools: Vec<Vec<[u64; 4]>> = (0..4u64)
        .map(|t| {
            (0..2500)
                .map(|i| word(t * 700 + i % (50 + 400 * t)))
                .collect()
        })
        .collect();
    let serial: Vec<(Vec<Label>, Vec<Label>)> = pools
        .iter()
        .map(|pool| {
            let mut by_tree = vec![Label::Correct; pool.len()];
            ct.classify_batch(pool, &mut by_tree);
            let mut by_forest = by_tree.clone();
            cf.classify_batch(pool, &mut by_forest);
            (by_tree, by_forest)
        })
        .collect();
    for (pool, (by_tree, by_forest)) in pools.iter().zip(&serial) {
        for (r, (t, f)) in pool.iter().zip(by_tree.iter().zip(by_forest)) {
            assert_eq!((*t, *f), (tree.classify(r), forest.classify(r)));
        }
    }
    let start = std::sync::Barrier::new(pools.len());
    std::thread::scope(|s| {
        for (pool, (by_tree, by_forest)) in pools.iter().zip(&serial) {
            let (ct, cf, start) = (&ct, &cf, &start);
            s.spawn(move || {
                start.wait();
                let mut got = vec![Label::Correct; pool.len()];
                for _ in 0..20 {
                    ct.classify_batch(pool, &mut got);
                    assert_eq!(&got, by_tree);
                    cf.classify_batch(pool, &mut got);
                    assert_eq!(&got, by_forest);
                }
            });
        }
    });

    let rows = &pools[1];
    let inner = std::cell::RefCell::new(vec![Label::Correct; rows.len()]);
    let mut outer = vec![Label::Correct; rows.len()];
    ct.classify_batch_rows::<4>(
        BatchWalker::Auto,
        rows.len(),
        |i| {
            let n = 9.min(rows.len() - i);
            let mut voted = [Label::Correct; 9];
            cf.classify_batch(&rows[i..i + n], &mut voted[..n]);
            inner.borrow_mut()[i] = voted[0];
            rows[i]
        },
        &mut outer,
    );
    assert_eq!(outer, serial[1].0);
    assert_eq!(*inner.borrow(), serial[1].1);
}

/// Rows distinct for every `i < 2^24`, all inside the packed envelope.
fn distinct_word(i: u64) -> [u64; 4] {
    let h = i.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    [i & 0xfff, (i >> 12) & 0xfff, h >> 52, (h >> 40) & 0xfff]
}

/// A batch call's windows share one entry table, so its verdicts must
/// not depend on which window first held a word. Over calls of ten and
/// more windows, for a tree and a 15-tree forest whose words are decided
/// at different trees, from all three batch entries on every kernel,
/// batch ≡ single ≡ boxed when: later windows repeat the first window's
/// words; new words first appear in the last window, a few of them
/// (fewer than a lane group) or many; chunks outside the packed envelope
/// sit between windows; and 20,000 all-distinct rows outgrow the table,
/// which starts over several times, then repeat their first words.
#[test]
fn calls_of_many_windows_match_the_boxed_walkers() {
    let (tree, _) = word_models();
    let mut cfg = ForestConfig::default_random_forest(4, 5);
    cfg.nr_trees = 15;
    let forest = RandomForest::train(&word_dataset(), &cfg);
    let (ct, cf) = (
        CompiledTree::compile(&tree),
        CompiledForest::compile(&forest),
    );
    let repeats = |last_new: u64| -> Vec<[u64; 4]> {
        let mut rows: Vec<[u64; 4]> = (0..9 * WINDOW as u64 + 300)
            .map(|i| match i / WINDOW as u64 {
                0 => word(i % 200),
                9 if i % 97 < last_new => word(600 + i % 97),
                w => word((w * 23 + i % (5 + 20 * w)) % 200),
            })
            .collect();
        rows[3 * WINDOW + 64 + 5][2] = 4096;
        rows[6 * WINDOW - 1][0] = u64::MAX;
        rows[8 * WINDOW + 3 * 64][3] = 1 << 40;
        rows
    };
    let distinct: Vec<[u64; 4]> = (0..20_000)
        .map(distinct_word)
        .chain((0..3_000).map(|i| distinct_word(i % 50)))
        .collect();
    let (few, many) = (repeats(3), repeats(40));
    for rows in [&few, &many, &distinct] {
        let by_tree: Vec<Label> = rows.iter().map(|r| tree.classify(r)).collect();
        let by_forest: Vec<Label> = rows.iter().map(|r| forest.classify(r)).collect();
        for (i, r) in rows.iter().enumerate() {
            assert_eq!(ct.classify(r), by_tree[i], "tree single, row {i}");
            assert_eq!(cf.classify(r), by_forest[i], "forest single, row {i}");
        }
        for labels in [&by_tree, &by_forest] {
            let incorrect = labels.iter().filter(|&&l| l == Label::Incorrect).count();
            assert!((1..labels.len()).contains(&incorrect), "labels must mix");
        }
        for walker in WALKERS {
            let n = rows.len();
            let mut got = vec![Label::Correct; n];
            ct.classify_batch_with(walker, rows, &mut got);
            assert_eq!(got, by_tree, "tree, {walker:?}, {n} rows");
            got.fill(Label::Correct);
            ct.classify_batch_rows::<4>(walker, n, |i| rows[i], &mut got);
            assert_eq!(got, by_tree, "tree rows, {walker:?}, {n} rows");
            got.fill(Label::Correct);
            cf.classify_batch_with(walker, rows, &mut got);
            assert_eq!(got, by_forest, "forest, {walker:?}, {n} rows");
        }
    }
}
