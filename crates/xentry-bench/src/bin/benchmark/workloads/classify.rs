//! `classify-pool`: offline scoring of a fixed pool of real feature
//! vectors. The only workload where `mltree` does most of the work; it
//! bypasses the simulator, the campaign engine and the fleet entirely, so
//! it is the guard an inference-path change has to hold.

use super::{
    check, correct_share_pct, fold_bytes, tree_walk_cycles, Check, Inputs, LayerValues, Outcome,
    WorkloadImpl,
};
use crate::layers::{self, name, BatchWalker, Label};
use crate::metrics::Workload;
use crate::span::Recorder;
use crate::stats::{series_sum, Slices};
use std::time::Instant;

pub struct ClassifyPool;

/// Slice series: a slice is a few whole passes over the pool.
const BATCH: &str = "classify_batch";
const SINGLE: &str = "classify_single";
const FOREST: &str = "forest_batch";

pub struct ClassifyDetail {
    /// Records each series classified: passes × pool.
    pub batch_records: usize,
    pub single_records: usize,
    pub forest_records: usize,
    /// Records whose label differs between two walkers that must agree.
    pub tree_mismatches: u64,
    pub forest_mismatches: u64,
}

fn mismatches(a: &[Label], b: &[Label]) -> u64 {
    a.iter().zip(b).filter(|(x, y)| x != y).count() as u64
}

/// Host ns of `passes` runs of `pass`, timed `per_slice` passes at a time.
fn timed_slices(passes: usize, per_slice: usize, mut pass: impl FnMut()) -> Vec<f64> {
    let per_slice = per_slice.max(1);
    (0..passes.div_ceil(per_slice))
        .map(|slice| {
            let t = Instant::now();
            for _ in slice * per_slice..passes.min((slice + 1) * per_slice) {
                pass();
            }
            t.elapsed().as_nanos() as f64
        })
        .collect()
}

impl WorkloadImpl for ClassifyPool {
    type Detail = ClassifyDetail;
    const ID: Workload = Workload::ClassifyPool;

    fn repeat(rec: &mut Recorder, inp: &Inputs) -> (Outcome, ClassifyDetail) {
        let pool = &inp.trace;
        let n = pool.len();
        let rows = layers::rows(pool);
        let det = &inp.detector;
        let (forest, compiled_forest) = inp.forest.as_ref().expect("set-up trains the forest");
        let sz = &inp.sizes;
        let mut batch = vec![Label::Correct; n];
        let mut single = batch.clone();
        let mut voted = batch.clone();
        let mut reference = batch.clone();

        let [batch_slice, single_slice, forest_slice] = sz.classify_slice_passes;
        let t = Instant::now();
        let batch_ns = timed_slices(sz.batch_passes, batch_slice, || {
            layers::classify_batch_pass(rec, det, BatchWalker::Auto, pool, &mut batch)
        });
        let single_ns = timed_slices(sz.single_passes, single_slice, || {
            layers::classify_single_pass(rec, det, pool, &mut single)
        });
        let forest_ns = timed_slices(sz.forest_passes, forest_slice, || {
            layers::forest_batch_pass(rec, compiled_forest, &rows, &mut voted)
        });
        let wall_s = t.elapsed().as_secs_f64();

        // Batch ≡ single ≡ the boxed reference tree over the whole pool;
        // compiled forest ≡ the boxed forest.
        layers::classify_boxed_pass(rec, layers::boxed_tree(det), &rows, &mut reference);
        let tree_mismatches = mismatches(&batch, &single) + mismatches(&batch, &reference);
        layers::forest_boxed_pass(rec, forest, &rows, &mut reference);
        let forest_mismatches = mismatches(&voted, &reference);

        let bits = |ls: &[Label]| -> Vec<u8> {
            ls.iter().map(|&l| (l == Label::Incorrect) as u8).collect()
        };
        let digest = fold_bytes(fold_bytes(inp.fingerprint, &bits(&batch)), &bits(&voted));
        let detail = ClassifyDetail {
            batch_records: sz.batch_passes * n,
            single_records: sz.single_passes * n,
            forest_records: sz.forest_passes * n,
            tree_mismatches,
            forest_mismatches,
        };
        let slices = vec![(BATCH, batch_ns), (SINGLE, single_ns), (FOREST, forest_ns)];
        let mut metrics = vec![
            (
                "sim_merit_pct",
                correct_share_pct(batch.iter().map(|&l| l == Label::Correct)),
            ),
            ("sim_cost_cycles", tree_walk_cycles(det, pool.iter())),
        ];
        metrics.extend(Self::host_metrics(&detail, &slices));
        let outcome = Outcome {
            metrics,
            slices,
            digest,
            attempted: (detail.batch_records + detail.single_records + detail.forest_records)
                as u64,
            failed: tree_mismatches + forest_mismatches,
            wall_s,
        };
        (outcome, detail)
    }

    fn host_metrics(d: &ClassifyDetail, slices: &Slices) -> Vec<(&'static str, f64)> {
        let batch_ns = series_sum(slices, BATCH) / d.batch_records as f64;
        let single_ns = series_sum(slices, SINGLE) / d.single_records as f64;
        let forest_ns = series_sum(slices, FOREST) / d.forest_records as f64;
        vec![
            ("classify_batch_ns", batch_ns),
            ("classify_single_ns", single_ns),
            ("forest_batch_ns", forest_ns),
            ("ops_per_s", 1e9 / batch_ns),
            ("op_latency_ns", single_ns),
            ("op_latency2_ns", forest_ns),
        ]
    }

    fn checks(_: &mut Recorder, _: &Inputs, repeats: &[(Outcome, ClassifyDetail)]) -> Vec<Check> {
        vec![
            check(
                "batch == single == boxed DecisionTree::classify over the pool",
                repeats.iter().all(|(_, d)| d.tree_mismatches == 0),
            ),
            check(
                "forest batch == RandomForest::classify over the pool",
                repeats.iter().all(|(_, d)| d.forest_mismatches == 0),
            ),
        ]
    }

    fn layers(
        rec: &mut Recorder,
        inp: &Inputs,
        _: &(Outcome, ClassifyDetail),
        out: &mut LayerValues,
        checks: &mut Vec<Check>,
    ) {
        let pool = &inp.trace;
        let rows = layers::rows(pool);
        let det = &inp.detector;
        let (forest, _) = inp.forest.as_ref().expect("set-up trains the forest");
        let mut auto = vec![Label::Correct; pool.len()];
        layers::classify_batch_pass(rec, det, BatchWalker::Auto, pool, &mut auto);
        // The pinned kernels and the boxed walkers, for the ladder beside
        // the three gated rows.
        let mut labels = auto.clone();
        let mut kernel_mismatches = 0;
        for _ in 0..inp.sizes.reference_passes {
            for walker in [BatchWalker::Scalar, BatchWalker::Avx2] {
                layers::classify_batch_pass(rec, det, walker, pool, &mut labels);
                kernel_mismatches += mismatches(&auto, &labels);
            }
            layers::classify_boxed_pass(rec, layers::boxed_tree(det), &rows, &mut labels);
            layers::forest_boxed_pass(rec, forest, &rows, &mut labels);
        }
        checks.push(check(
            "scalar and AVX2 batch kernels == auto kernel over the pool",
            kernel_mismatches == 0,
        ));

        let per_record = |rec: &Recorder, span| {
            let (ns, records) = rec.totals(span);
            ns as f64 / records.max(1) as f64
        };
        for (metric, span) in [
            ("mltree.batch_auto_ns", name::CLASSIFY_BATCH),
            ("mltree.batch_scalar_ns", name::CLASSIFY_BATCH_SCALAR),
            ("mltree.batch_avx2_ns", name::CLASSIFY_BATCH_AVX2),
            ("mltree.single_compiled_ns", name::CLASSIFY_SINGLE),
            ("mltree.single_boxed_ns", name::CLASSIFY_BOXED),
            ("mltree.forest_batch_ns", name::FOREST_BATCH),
            ("mltree.forest_boxed_ns", name::FOREST_BOXED),
        ] {
            out.insert(metric, per_record(rec, span));
        }
    }
}
