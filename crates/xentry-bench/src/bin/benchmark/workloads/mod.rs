//! The five workloads behind one interface, and the set-up they share.

pub mod campaign;
pub mod classify;
pub mod fleet;
pub mod guest;

use crate::layers::{self, Benchmark, FeatureVec, VmTransitionDetector};
use crate::metrics::Workload;
use crate::pass::Plan;
use crate::sizes::{Sizes, FOREST_TREES, OVERSAMPLE_INCORRECT};
use crate::span::Recorder;
use crate::stats::Slices;
use std::collections::BTreeMap;
use std::time::Instant;

/// What set-up hands a workload: generated from the seed, and the only
/// thing (with the sizes) a layer ever receives.
pub struct Inputs {
    pub seed: u64,
    pub sizes: Sizes,
    /// Campaign worker threads (`env::campaign_threads`).
    pub threads: usize,
    /// The deployed random tree, and its fingerprint (folded into every
    /// `result_digest`, so a digest also names the model it was run with).
    pub detector: VmTransitionDetector,
    pub fingerprint: u64,
    /// Boxed and compiled 15-tree forest (`classify-pool` only).
    pub forest: Option<(layers::RandomForest, layers::CompiledForest)>,
    /// Fault-free Postmark feature trace (`fleet-serve`, `classify-pool`).
    pub trace: Vec<FeatureVec>,
    /// What this set-up took, one slice per phase (series `SETUP`): the
    /// golden walk and the fork phase of each training sub-campaign, then
    /// training, compiling and the feature trace together.
    pub setup_slices: Slices,
}

/// The one slice series of a set-up.
pub const SETUP: &str = "setup";

/// One repeat's numbers. `metrics` holds the workload's native end-to-end
/// metrics and the driver columns, by name: the simulated ones, and the host
/// ones as this repeat alone read them (`host_metrics` of its own slices).
pub struct Outcome {
    pub metrics: Vec<(&'static str, f64)>,
    /// The repeat's timed slices; the reported host metrics come from the
    /// quiet view of all repeats' slices (`stats::quiet_slices`).
    pub slices: Slices,
    /// Fold of the serialized records / verdict labels / cycle counts.
    pub digest: u64,
    pub attempted: u64,
    pub failed: u64,
    /// Host seconds of the measured part of the repeat.
    pub wall_s: f64,
}

#[derive(Debug, Clone)]
pub struct Check {
    pub name: String,
    pub pass: bool,
}

pub fn check(name: impl Into<String>, pass: bool) -> Check {
    Check {
        name: name.into(),
        pass,
    }
}

/// Per-layer values of one traced run, keyed by `PER_LAYER` name.
pub type LayerValues = BTreeMap<&'static str, f64>;

pub trait WorkloadImpl {
    /// What a repeat keeps for the checks and the per-layer pass.
    type Detail;
    const ID: Workload;

    /// One repeat: a fixed operation count on identical inputs. With an
    /// enabled recorder this is the traced repeat (spans at every call
    /// into a layer; same operations, same digest).
    fn repeat(rec: &mut Recorder, inp: &Inputs) -> (Outcome, Self::Detail);

    /// The workload's host-clock end-to-end metrics (native names and
    /// driver columns) from a set of slice costs: one repeat's own, or the
    /// quiet view of all repeats. `detail` supplies the operation counts,
    /// which are the same in every repeat.
    fn host_metrics(detail: &Self::Detail, slices: &Slices) -> Vec<(&'static str, f64)>;

    /// Correctness checks beyond what each repeat counts as failed ops.
    fn checks(rec: &mut Recorder, inp: &Inputs, repeats: &[(Outcome, Self::Detail)]) -> Vec<Check>;

    /// Per-layer metrics from the traced repeat's spans plus whatever
    /// extra probes the layer needs; may append checks of its own.
    fn layers(
        rec: &mut Recorder,
        inp: &Inputs,
        traced: &(Outcome, Self::Detail),
        out: &mut LayerValues,
        checks: &mut Vec<Check>,
    );
}

/// Fold bytes into a digest with the workspace `fold64`, eight at a time.
pub fn fold_bytes(mut h: u64, bytes: &[u8]) -> u64 {
    for chunk in bytes.chunks(8) {
        let mut w = [0u8; 8];
        w[..chunk.len()].copy_from_slice(chunk);
        h = layers::fold64(h, u64::from_le_bytes(w));
    }
    layers::fold64(h, bytes.len() as u64)
}

const TRAIN_BENCHMARKS: [Benchmark; 3] = [
    Benchmark::Freqmine,
    Benchmark::Postmark,
    Benchmark::IrqStorm,
];

/// Shared set-up, the paper's §III-B pipeline: three detector-less training
/// campaigns (each run as `train_parts` sub-campaigns, so that set-up has
/// slices too) plus fault-free samples from their golden walks, incorrect
/// samples oversampled, the random tree trained and compiled; the forest
/// and the feature trace where the workload uses them. Set-up runs
/// campaigns, so a campaign-engine gain legitimately shows in `setup_s`.
pub fn setup(rec: &mut Recorder, w: Workload, plan: &Plan, threads: usize) -> Inputs {
    let Plan {
        seed,
        model_seed,
        sizes,
        ..
    } = *plan;
    let mut samples = Vec::new();
    let mut phases = Vec::new();
    let mut t = Instant::now();
    let mut lap = |phases: &mut Vec<f64>| {
        phases.push(t.elapsed().as_nanos() as f64);
        t = Instant::now();
    };
    let parts = sizes.train_parts.max(1);
    for (i, b) in TRAIN_BENCHMARKS.into_iter().enumerate() {
        let seed = layers::fold64(model_seed, 0x7472_6169 + i as u64);
        for part in 0..parts {
            let cfg = layers::campaign_config(
                b,
                (sizes.train_injections / parts).max(1),
                layers::fold64(seed, part as u64),
                threads,
            );
            let trace = layers::golden_trace(rec, &cfg, None);
            lap(&mut phases);
            let res = layers::run_campaign_with(rec, &cfg, &trace, None);
            lap(&mut phases);
            let correct = (sizes.train_correct / parts).max(1);
            for s in layers::training_samples(&res.records, &trace, correct) {
                let copies = if layers::is_incorrect(&s) {
                    OVERSAMPLE_INCORRECT
                } else {
                    1
                };
                samples.extend(std::iter::repeat_n(s, copies));
            }
        }
    }
    let ds = layers::dataset(samples);
    let tree = layers::train_tree(rec, &ds, model_seed);
    let detector = layers::detector_new(rec, tree);
    let forest = (w == Workload::ClassifyPool).then(|| {
        let f = layers::train_forest(rec, &ds, FOREST_TREES, model_seed);
        let c = layers::compile_forest(rec, &f);
        (f, c)
    });
    let trace = match w {
        Workload::FleetServe => {
            layers::workload_trace(rec, Benchmark::Postmark, sizes.fleet_trace, seed)
        }
        Workload::ClassifyPool => {
            layers::workload_trace(rec, Benchmark::Postmark, sizes.pool, seed)
        }
        _ => Vec::new(),
    };
    lap(&mut phases);
    Inputs {
        seed,
        sizes,
        threads,
        fingerprint: layers::fingerprint(&detector),
        detector,
        forest,
        trace,
        setup_slices: vec![(SETUP, phases)],
    }
}

/// Simulated cycles the shim charges to walk the deployed tree, averaged
/// over `vectors`: the `sim_cost_cycles` column wherever the operation is
/// classifying a feature vector. A deeper model shows here at any speed.
pub fn tree_walk_cycles<'a>(
    det: &VmTransitionDetector,
    vectors: impl Iterator<Item = &'a FeatureVec>,
) -> f64 {
    let (mut n, mut cycles) = (0u64, 0u64);
    for f in vectors {
        n += 1;
        cycles += layers::classify_cycles(det, f);
    }
    cycles as f64 / n.max(1) as f64
}

/// Share of `trace` the deployed detector labels `Correct`, in percent:
/// the simulated-side figure of merit of the two serving workloads (the
/// trace is fault-free, so every `Incorrect` is a false positive).
pub fn correct_share_pct(labelled_correct: impl Iterator<Item = bool>) -> f64 {
    let (mut n, mut ok) = (0u64, 0u64);
    for correct in labelled_correct {
        n += 1;
        ok += correct as u64;
    }
    100.0 * ok as f64 / n.max(1) as f64
}
