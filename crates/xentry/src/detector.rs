//! The VM-transition detector: a trained tree deployed behind an
//! integer-compare interface.

use crate::features::{FeatureVec, FEATURE_NAMES};
use mltree::{CompiledTree, DecisionTree, Label};
use serde::{Deserialize, Serialize, Value};
use std::sync::Arc;

/// Measurement of one [`classify_batch_timed`] call: the span a flight
/// tracer records for the batch.
///
/// [`classify_batch_timed`]: VmTransitionDetector::classify_batch_timed
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchSpan {
    /// Records classified in the batch.
    pub records: usize,
    /// Wall time of the compiled-arena walk, nanoseconds.
    pub elapsed_ns: u64,
}

impl BatchSpan {
    /// Amortized per-record cost (0 for an empty batch).
    pub fn per_record_ns(&self) -> u64 {
        self.elapsed_ns
            .checked_div(self.records as u64)
            .unwrap_or(0)
    }
}

/// A deployable VM-transition classifier.
///
/// Construction compiles the boxed tree into a flat arena
/// ([`CompiledTree`]) and caches the model fingerprint; the hot-path
/// entry points ([`classify`], [`classify_cost`], [`classify_batch`])
/// only ever touch the compiled form. The boxed tree is retained for
/// training-side work: rule dumps, pruning and the code generator. Both
/// forms are immutable and shared, so cloning a detector (the campaign
/// engine hands one to every shim it builds, several per injection)
/// copies two pointers, not 159 boxed nodes and the arena.
///
/// [`classify`]: VmTransitionDetector::classify
/// [`classify_cost`]: VmTransitionDetector::classify_cost
/// [`classify_batch`]: VmTransitionDetector::classify_batch
#[derive(Debug, Clone)]
pub struct VmTransitionDetector {
    tree: Arc<DecisionTree>,
    compiled: Arc<CompiledTree>,
    fingerprint: u64,
}

/// The wire form: `{"tree": <DecisionTree>}`, the shape the derive used
/// to produce, so `results/detector.json` artifacts parse unchanged.
fn wire_value(tree: &DecisionTree) -> Value {
    Value::Object(vec![("tree".to_string(), tree.to_value())])
}

/// FNV-1a over `bytes`.
fn fnv1a(bytes: &[u8]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    for b in bytes {
        h ^= *b as u64;
        h = h.wrapping_mul(PRIME);
    }
    h
}

impl VmTransitionDetector {
    /// Wrap a trained tree. The tree must have been trained on the five
    /// Table-I features in canonical order. Compiles the arena form and
    /// computes the fingerprint once, here; both are immutable for the
    /// detector's lifetime (a fleet hot-swap installs a whole new
    /// detector, so the compiled model and fingerprint swap atomically
    /// with it).
    pub fn new(tree: DecisionTree) -> VmTransitionDetector {
        assert_eq!(
            tree.feature_names,
            FEATURE_NAMES
                .iter()
                .map(|s| s.to_string())
                .collect::<Vec<_>>(),
            "detector tree must use the Table-I feature layout"
        );
        let compiled = tree.compile();
        let json = serde_json::to_string(&wire_value(&tree)).expect("detector serializes");
        let fingerprint = fnv1a(json.as_bytes());
        VmTransitionDetector {
            tree: Arc::new(tree),
            compiled: Arc::new(compiled),
            fingerprint,
        }
    }

    /// Classify one hypervisor execution.
    pub fn classify(&self, f: &FeatureVec) -> Label {
        self.compiled.classify(&f.columns())
    }

    /// Comparisons needed to classify `f` (the in-hypervisor cost).
    pub fn classify_cost(&self, f: &FeatureVec) -> usize {
        self.compiled.classify_cost(&f.columns())
    }

    /// [`classify`] and [`classify_cost`] from one lookup of the compiled
    /// tree's exit-leaf scorer: what the shim does at every VM entry.
    ///
    /// [`classify`]: VmTransitionDetector::classify
    /// [`classify_cost`]: VmTransitionDetector::classify_cost
    #[inline]
    pub fn classify_with_cost(&self, f: &FeatureVec) -> (Label, usize) {
        self.compiled.classify_with_cost(&f.columns())
    }

    /// Classify a batch of executions, one verdict per input. Feature
    /// columns are staged through a fixed stack chunk, so the only
    /// allocation is the caller's `out` buffer. A batch of fewer than
    /// eight records (one SIMD lane group, what a fleet shard drains at
    /// low load) classifies each record as [`classify`] does, which is
    /// cheaper than the lockstep kernels there; verdicts are the same.
    ///
    /// [`classify`]: VmTransitionDetector::classify
    pub fn classify_batch(&self, fs: &[FeatureVec], out: &mut [Label]) {
        self.classify_batch_with(mltree::BatchWalker::Auto, fs, out);
    }

    /// [`classify_batch`] with an explicit kernel choice — benchmarks
    /// pin kernels with this to attribute throughput to a specific
    /// walker; production callers should stay on the calibrated default.
    /// The pinned kernel applies from eight records (one lane group) up;
    /// a smaller batch takes the single-sample path whatever `walker` is.
    ///
    /// [`classify_batch`]: VmTransitionDetector::classify_batch
    pub fn classify_batch_with(
        &self,
        walker: mltree::BatchWalker,
        fs: &[FeatureVec],
        out: &mut [Label],
    ) {
        assert_eq!(
            fs.len(),
            out.len(),
            "classify_batch: inputs and out must have equal length"
        );
        // Staging-fused: the compiled tree packs each record's columns
        // straight into its kernel feature words, so there is no
        // intermediate row array — one read of the FeatureVec fields per
        // record, and the only allocation is the caller's `out` buffer.
        let base = fs.as_ptr();
        self.compiled.classify_batch_rows(
            walker,
            fs.len(),
            // SAFETY: classify_batch_rows documents it only passes
            // indices in 0..fs.len().
            |i| unsafe { (*base.add(i)).columns() },
            out,
        );
    }

    /// [`classify_batch`] wrapped in a measured span: classifies the
    /// batch and returns what a flight tracer needs to record it — the
    /// record count and the wall time of the compiled-arena walk itself,
    /// excluding any caller-side staging. This is the detector-level
    /// span hook the fleet's observability layer consumes; keeping the
    /// timing here means the traced cost is the classify call and
    /// nothing else.
    ///
    /// [`classify_batch`]: VmTransitionDetector::classify_batch
    pub fn classify_batch_timed(&self, fs: &[FeatureVec], out: &mut [Label]) -> BatchSpan {
        let t0 = std::time::Instant::now();
        self.classify_batch(fs, out);
        BatchSpan {
            records: fs.len(),
            elapsed_ns: t0.elapsed().as_nanos() as u64,
        }
    }

    /// The compiled arena the hot path runs on.
    pub fn compiled(&self) -> &CompiledTree {
        &self.compiled
    }

    /// Structural integrity check of the compiled arena — the deploy-time
    /// gate the fleet's validated hot-swap runs before publishing a
    /// detector ([`CompiledTree::validate`]). A detector built by [`new`]
    /// always passes; a corrupted arena (bit flip in the model slab) can
    /// fail, and executing one through the unchecked walkers would be UB.
    ///
    /// [`new`]: VmTransitionDetector::new
    pub fn validate(&self) -> Result<(), mltree::ArenaFault> {
        self.compiled.validate()
    }

    /// Chaos-injection entry point: flip one bit of the compiled arena,
    /// leaving the boxed tree and cached fingerprint untouched — exactly
    /// the state a soft error in the deployed model's memory produces.
    /// The result is for feeding *into* validation gates (swap canaries,
    /// the fleet chaos harness), never for classifying with.
    pub fn chaos_flip_arena_bit(&mut self, bit: usize) {
        Arc::make_mut(&mut self.compiled).flip_bit(bit);
    }

    /// Model statistics for reporting.
    pub fn depth(&self) -> usize {
        self.tree.depth()
    }

    /// Node count.
    pub fn nr_nodes(&self) -> usize {
        self.tree.nr_nodes()
    }

    /// Bytes of the compiled split arena the hot path walks — the
    /// model's cache footprint, exported as a fleet gauge.
    pub fn arena_bytes(&self) -> usize {
        self.compiled.arena_bytes()
    }

    /// Split records in the compiled arena (leaves cost zero bytes).
    pub fn nr_splits(&self) -> usize {
        self.compiled.nr_splits()
    }

    /// The underlying rules (Fig. 6-style dump).
    pub fn dump_rules(&self) -> String {
        self.tree.dump_rules()
    }

    /// The underlying tree (used by the code generator).
    pub fn tree(&self) -> &DecisionTree {
        &self.tree
    }

    /// Serialize to JSON (the train-offline / deploy-in-hypervisor split).
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("detector serializes")
    }

    /// Deserialize from JSON.
    pub fn from_json(s: &str) -> Result<VmTransitionDetector, serde_json::Error> {
        serde_json::from_str(s)
    }

    /// Stable 64-bit fingerprint of the deployed model (FNV-1a over the
    /// canonical JSON form, computed once at construction). Two detectors
    /// with identical trees fingerprint identically across processes;
    /// fleet verdicts carry this so any classification can be traced back
    /// to the exact model that made it.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }
}

impl Serialize for VmTransitionDetector {
    fn to_value(&self) -> Value {
        // Only the tree crosses the wire; the arena and fingerprint are
        // derived state, rebuilt by `new` on the other side.
        wire_value(&self.tree)
    }
}

impl Deserialize for VmTransitionDetector {
    fn from_value(v: &Value) -> Result<VmTransitionDetector, serde::Error> {
        let obj = v
            .as_object()
            .ok_or_else(|| serde::Error::expected("object", "VmTransitionDetector", v))?;
        let tree: DecisionTree = serde::field(obj, "tree", "VmTransitionDetector")?;
        if tree.feature_names
            != FEATURE_NAMES
                .iter()
                .map(|s| s.to_string())
                .collect::<Vec<_>>()
        {
            return Err(serde::Error::msg(format!(
                "detector tree must use the Table-I feature layout, got {:?}",
                tree.feature_names
            )));
        }
        Ok(VmTransitionDetector::new(tree))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mltree::{Dataset, Sample, TrainConfig};

    fn toy_detector() -> VmTransitionDetector {
        let mut d = Dataset::new(&FEATURE_NAMES);
        // Executions of VMER 17 normally retire < 100 instructions;
        // longer ones are incorrect.
        for i in 0..50u64 {
            d.push(Sample::new(vec![17, 40 + i % 30, 5, 3, 2], Label::Correct));
            d.push(Sample::new(vec![17, 200 + i, 25, 9, 6], Label::Incorrect));
        }
        VmTransitionDetector::new(DecisionTree::train(&d, &TrainConfig::decision_tree()))
    }

    #[test]
    fn classifies_by_learned_threshold() {
        let det = toy_detector();
        let ok = FeatureVec {
            vmer: 17,
            rt: 55,
            br: 5,
            rm: 3,
            wm: 2,
        };
        let bad = FeatureVec {
            vmer: 17,
            rt: 230,
            br: 25,
            rm: 9,
            wm: 6,
        };
        assert_eq!(det.classify(&ok), Label::Correct);
        assert_eq!(det.classify(&bad), Label::Incorrect);
        assert!(det.classify_cost(&ok) >= 1);
        for f in [&ok, &bad] {
            assert_eq!(
                det.classify_with_cost(f),
                (det.classify(f), det.classify_cost(f))
            );
        }
        assert!(det.depth() >= 1);
    }

    #[test]
    #[should_panic(expected = "Table-I feature layout")]
    fn rejects_mismatched_feature_names() {
        let d = Dataset::new(&["bogus"]);
        let mut d2 = d;
        d2.push(Sample::new(vec![1], Label::Correct));
        d2.push(Sample::new(vec![2], Label::Incorrect));
        let tree = DecisionTree::train(&d2, &TrainConfig::decision_tree());
        VmTransitionDetector::new(tree);
    }

    #[test]
    fn batch_matches_single_sample() {
        let det = toy_detector();
        // More than one chunk's worth, straddling the chunk boundary.
        let fs: Vec<FeatureVec> = (0..150u64)
            .map(|i| FeatureVec {
                vmer: 17,
                rt: 30 + i * 2,
                br: i % 30,
                rm: i % 11,
                wm: i % 7,
            })
            .collect();
        let mut out = vec![Label::Correct; fs.len()];
        det.classify_batch(&fs, &mut out);
        for (f, o) in fs.iter().zip(out) {
            assert_eq!(o, det.classify(f));
        }
    }

    #[test]
    fn timed_batch_matches_untimed_and_measures() {
        let det = toy_detector();
        let fs: Vec<FeatureVec> = (0..100u64)
            .map(|i| FeatureVec {
                vmer: 17,
                rt: 30 + i * 3,
                br: i % 20,
                rm: i % 5,
                wm: i % 3,
            })
            .collect();
        let mut plain = vec![Label::Correct; fs.len()];
        det.classify_batch(&fs, &mut plain);
        let mut timed = vec![Label::Correct; fs.len()];
        let span = det.classify_batch_timed(&fs, &mut timed);
        assert_eq!(plain, timed, "the span wrapper must not change verdicts");
        assert_eq!(span.records, fs.len());
        assert!(span.per_record_ns() <= span.elapsed_ns);
        let empty = BatchSpan {
            records: 0,
            elapsed_ns: 0,
        };
        assert_eq!(empty.per_record_ns(), 0);
    }

    #[test]
    fn fingerprint_matches_json_hash() {
        // The cached fingerprint must equal FNV-1a over the wire JSON —
        // the contract the pre-cache implementation established.
        let det = toy_detector();
        assert_eq!(det.fingerprint(), super::fnv1a(det.to_json().as_bytes()));
        assert_eq!(det.fingerprint(), det.clone().fingerprint());
    }

    #[test]
    fn json_round_trip() {
        let det = toy_detector();
        let back = VmTransitionDetector::from_json(&det.to_json()).unwrap();
        let f = FeatureVec {
            vmer: 17,
            rt: 230,
            br: 25,
            rm: 9,
            wm: 6,
        };
        assert_eq!(back.classify(&f), det.classify(&f));
    }
}
