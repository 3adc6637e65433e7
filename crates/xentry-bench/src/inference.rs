//! Inference-engine throughput: boxed walker vs compiled arena vs batch
//! vs forest, the perf-trajectory numbers behind `BENCH_inference.json`.
//!
//! A serializable report the `figures` harness writes to
//! `results/inference.json` and mirrors to the repo root, so every PR
//! has a comparable measurement of the VM-entry hot path.

use mltree::{Dataset, DecisionTree, ForestConfig, Label, RandomForest, Sample, TrainConfig};
use serde::{Deserialize, Serialize};
use std::time::Instant;
use xentry::{FeatureVec, VmTransitionDetector, FEATURE_NAMES};

use crate::pipeline::Scale;

/// Feature-vector pool a measurement sweeps over (power of two so the
/// index wrap is a mask).
const POOL: usize = 8192;

/// Detector models in the fleet-shaped working set (power of two so the
/// round-robin pick is a mask). One tree per tenant/shard is exactly how
/// `xentry-fleet` deploys the detector: the hot path's cost is set by the
/// *aggregate* model working set, not one L1-warm tree.
const MODELS: usize = 128;

/// One measured configuration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct InferenceCase {
    pub name: String,
    pub ns_per_classify: f64,
    pub classifications_per_sec: f64,
}

/// The perf-trajectory record.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct InferenceReport {
    /// Representative tree shape (model 0) of the fleet working set.
    pub tree_depth: usize,
    pub tree_nodes: usize,
    /// Distinct detector models classified round-robin per sweep.
    pub models: usize,
    /// Ensemble shape for the forest numbers.
    pub forest_trees: usize,
    /// Samples classified per measurement round.
    pub pool: usize,
    pub rounds: usize,
    /// Batch-walk kernel the calibration race picked for `Auto` on this
    /// host ("scalar", "avx2", "avx512") — the one every `_batch` case
    /// except `detector_batch_scalar` ran on.
    pub kernel: String,
    pub cases: Vec<InferenceCase>,
    /// Compiled single-sample throughput over boxed single-sample. This
    /// walk is latency-bound — one dependent load chain per level for
    /// both walkers — so the gain here is the cache-footprint ratio, not
    /// the tentpole headline.
    pub compiled_speedup_vs_boxed: f64,
    /// Batch (lane-interleaved) throughput over the boxed walker it
    /// replaced on every consumer's hot path — the engine's headline.
    pub batch_speedup_vs_boxed: f64,
    /// Batch throughput over compiled single-sample (how much the lane
    /// interleave buys on top of the arena itself).
    pub batch_speedup_vs_single: f64,
    /// Compiled-forest batch throughput over boxed forest.
    pub forest_batch_speedup_vs_boxed: f64,
}

/// Best-of-`rounds` nanoseconds per classification for a closure that
/// classifies the whole pool once. Best-of filters scheduler noise the
/// same way criterion's minimum does.
fn measure(rounds: usize, pool: usize, mut sweep: impl FnMut() -> u64) -> f64 {
    let mut best = f64::INFINITY;
    let mut sink = 0u64;
    for _ in 0..rounds {
        let t = Instant::now();
        sink = sink.wrapping_add(sweep());
        let ns = t.elapsed().as_nanos() as f64 / pool as f64;
        if ns < best {
            best = ns;
        }
    }
    std::hint::black_box(sink);
    best
}

fn case(name: &str, ns: f64) -> InferenceCase {
    InferenceCase {
        name: name.to_string(),
        ns_per_classify: ns,
        classifications_per_sec: 1e9 / ns.max(1e-3),
    }
}

/// The bench workload: Table-I-shaped counters with a labeling rule that
/// interacts all five features, so training yields a deployment-scale
/// tree (thousands of splits, depth near the cap) rather than a one-cut
/// toy — the regime where walker memory behaviour actually matters.
/// `salt` varies the rule per model so the fleet holds distinct trees.
pub(crate) fn bench_dataset(n: usize, salt: u64) -> Dataset {
    let mut ds = Dataset::new(&FEATURE_NAMES);
    for i in 0..n as u64 {
        let vmer = (i * 7919) % 91;
        let rt = 60 + (i * 2_654_435_761) % 3940;
        let br = rt / 6 + (i * 97) % 40;
        let rm = rt / 5 + (i * 193) % 60;
        let wm = 4 + (i * 389) % 120;
        let label = if (vmer * 31 + rt * 7 + br * 13 + rm * 3 + wm + salt * 17) % 11 < 3 {
            Label::Incorrect
        } else {
            Label::Correct
        };
        ds.push(Sample::new(vec![vmer, rt, br, rm, wm], label));
    }
    ds
}

/// Measure the boxed walker, the compiled arena (single-sample and
/// batch), the detector end-to-end path, and the forest forms — all over
/// a fleet-shaped working set of `MODELS` distinct detectors classified
/// round-robin (single-sample cases) or per-model batches (batch cases,
/// exactly how `xentry-fleet` shards drain their queues).
pub fn inference_experiment(scale: &Scale, seed: u64) -> InferenceReport {
    // More rounds / a bigger fleet at --paper scale; the in-test run
    // (overhead_runs == 1) shrinks everything to stay fast.
    let rounds = if scale.overhead_runs > 5 { 41 } else { 13 };
    let (models, samples) = if scale.overhead_runs >= 2 {
        (MODELS, 8000)
    } else {
        (8, 1500)
    };
    let trees: Vec<DecisionTree> = (0..models)
        .map(|m| {
            let ds = bench_dataset(samples, m as u64);
            DecisionTree::train(
                &ds,
                &TrainConfig::random_tree(5, seed.wrapping_add(m as u64)),
            )
        })
        .collect();
    let compiled: Vec<_> = trees.iter().map(|t| t.compile()).collect();
    let detectors: Vec<VmTransitionDetector> = trees
        .iter()
        .map(|t| VmTransitionDetector::new(t.clone()))
        .collect();
    let ds0 = bench_dataset(samples, 0);
    let mut forest_cfg = ForestConfig::default_random_forest(5, seed);
    forest_cfg.nr_trees = 15;
    let forest = RandomForest::train(&ds0, &forest_cfg);
    let cforest = forest.compile();

    // A pool of feature rows drawn from the bench distribution, so the
    // walk exercises varied paths instead of one branch-predicted leaf.
    let rows: Vec<[u64; 5]> = (0..POOL)
        .map(|i| {
            let s = &ds0.samples[i % ds0.len()];
            [
                s.features[0],
                s.features[1],
                s.features[2],
                s.features[3],
                s.features[4],
            ]
        })
        .collect();
    let features: Vec<FeatureVec> = rows
        .iter()
        .map(|r| FeatureVec {
            vmer: r[0] as u16,
            rt: r[1],
            br: r[2],
            rm: r[3],
            wm: r[4],
        })
        .collect();
    let mut labels = vec![Label::Correct; POOL];
    let mask = models - 1; // MODELS is a power of two
    let per_model = POOL / models;

    let boxed_ns = measure(rounds, POOL, || {
        rows.iter()
            .enumerate()
            .map(|(k, r)| {
                (trees[k & mask].classify(std::hint::black_box(r)) == Label::Incorrect) as u64
            })
            .sum()
    });
    let compiled_ns = measure(rounds, POOL, || {
        rows.iter()
            .enumerate()
            .map(|(k, r)| {
                (compiled[k & mask].classify(std::hint::black_box(r)) == Label::Incorrect) as u64
            })
            .sum()
    });
    let batch_ns = measure(rounds, POOL, || {
        for (m, (rs, ls)) in rows
            .chunks(per_model)
            .zip(labels.chunks_mut(per_model))
            .enumerate()
        {
            compiled[m & mask].classify_batch(rs, ls);
        }
        labels.iter().filter(|&&l| l == Label::Incorrect).count() as u64
    });
    let detector_ns = measure(rounds, POOL, || {
        features
            .iter()
            .enumerate()
            .map(|(k, f)| {
                (detectors[k & mask].classify(std::hint::black_box(f)) == Label::Incorrect) as u64
            })
            .sum()
    });
    let detector_batch_ns = measure(rounds, POOL, || {
        for (m, (fs, ls)) in features
            .chunks(per_model)
            .zip(labels.chunks_mut(per_model))
            .enumerate()
        {
            detectors[m & mask].classify_batch(fs, ls);
        }
        labels.iter().filter(|&&l| l == Label::Incorrect).count() as u64
    });
    // Same sweep pinned to the scalar lockstep kernel: the vector
    // speedup isolated from everything else in the path.
    let detector_batch_scalar_ns = measure(rounds, POOL, || {
        for (m, (fs, ls)) in features
            .chunks(per_model)
            .zip(labels.chunks_mut(per_model))
            .enumerate()
        {
            detectors[m & mask].classify_batch_with(mltree::BatchWalker::Scalar, fs, ls);
        }
        labels.iter().filter(|&&l| l == Label::Incorrect).count() as u64
    });
    let forest_boxed_ns = measure(rounds, POOL, || {
        rows.iter()
            .map(|r| (forest.classify(std::hint::black_box(r)) == Label::Incorrect) as u64)
            .sum()
    });
    let forest_compiled_ns = measure(rounds, POOL, || {
        rows.iter()
            .map(|r| (cforest.classify(std::hint::black_box(r)) == Label::Incorrect) as u64)
            .sum()
    });
    let forest_batch_ns = measure(rounds, POOL, || {
        cforest.classify_batch(&rows, &mut labels);
        labels.iter().filter(|&&l| l == Label::Incorrect).count() as u64
    });

    InferenceReport {
        tree_depth: trees[0].depth(),
        tree_nodes: trees[0].nr_nodes(),
        models,
        forest_trees: forest.trees.len(),
        pool: POOL,
        rounds,
        kernel: mltree::active_kernel_name().to_string(),
        compiled_speedup_vs_boxed: boxed_ns / compiled_ns.max(1e-3),
        batch_speedup_vs_boxed: boxed_ns / batch_ns.max(1e-3),
        batch_speedup_vs_single: compiled_ns / batch_ns.max(1e-3),
        forest_batch_speedup_vs_boxed: forest_boxed_ns / forest_batch_ns.max(1e-3),
        cases: vec![
            case("tree_boxed", boxed_ns),
            case("tree_compiled", compiled_ns),
            case("tree_compiled_batch", batch_ns),
            case("detector_single", detector_ns),
            case("detector_batch", detector_batch_ns),
            case("detector_batch_scalar", detector_batch_scalar_ns),
            case("forest_boxed", forest_boxed_ns),
            case("forest_compiled", forest_compiled_ns),
            case("forest_compiled_batch", forest_batch_ns),
        ],
    }
}

impl InferenceReport {
    pub fn render(&self) -> String {
        let mut out = format!(
            "Inference engine ({} models round-robin, tree depth {}, {} nodes each; \
             forest of {} trees; kernel {}; best of {} rounds x {} samples)\n\
             --------------------------------------------------------------------\n",
            self.models,
            self.tree_depth,
            self.tree_nodes,
            self.forest_trees,
            self.kernel,
            self.rounds,
            self.pool
        );
        for c in &self.cases {
            out.push_str(&format!(
                "{:<24} {:>8.1} ns/classify {:>14.0} classifications/s\n",
                c.name, c.ns_per_classify, c.classifications_per_sec
            ));
        }
        out.push_str(&format!(
            "\nsingle compiled vs boxed {:>6.2}x\n\
             batch vs boxed           {:>6.2}x\n\
             batch vs single compiled {:>6.2}x\n\
             forest batch vs boxed    {:>6.2}x\n",
            self.compiled_speedup_vs_boxed,
            self.batch_speedup_vs_boxed,
            self.batch_speedup_vs_single,
            self.forest_batch_speedup_vs_boxed
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inference_experiment_reports_all_cases() {
        let mut scale = Scale::quick();
        scale.overhead_runs = 1; // minimum rounds: keep the test snappy
        let rep = inference_experiment(&scale, 7);
        assert_eq!(rep.cases.len(), 9);
        assert!(rep.cases.iter().all(|c| c.ns_per_classify > 0.0));
        assert!(rep.compiled_speedup_vs_boxed > 0.0);
        assert!(
            ["scalar", "avx2", "avx512"].contains(&rep.kernel.as_str()),
            "{}",
            rep.kernel
        );
        let text = rep.render();
        assert!(text.contains("tree_compiled_batch"), "{text}");
        let back: InferenceReport =
            serde_json::from_str(&serde_json::to_string(&rep).unwrap()).unwrap();
        assert_eq!(back.cases.len(), rep.cases.len());
    }
}
