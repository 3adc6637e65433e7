//! Atomic model hot-swap, with deploy-time validation.
//!
//! The service must be able to load a newly trained `detector.json`
//! mid-flight without pausing classification. The design is an epoch
//! counter over a mutex-guarded `Arc`:
//!
//! * publishing a model takes the mutex (cold path, once per swap),
//!   replaces the `Arc`, then bumps the epoch with `Release`;
//! * every shard worker keeps a `ModelCache` — a clone of the `Arc`
//!   plus the epoch it was read at — and revalidates with a single
//!   `Acquire` load per batch. The mutex is only touched when the epoch
//!   actually moved, so the steady-state hot path never contends.
//!
//! Readers therefore see either the old or the new model, never a torn
//! state, and every verdict records which version classified it.
//!
//! The compiled inference arena and the cached fingerprint both live
//! *inside* [`VmTransitionDetector`] (built by its constructor), so a
//! swap atomically replaces tree, arena and fingerprint together — a
//! reader can never pair an old arena with a new fingerprint.
//!
//! Validation gates (`GoldenSet`, `ModelSlot::publish_validated`):
//! because the shard hot path classifies through *unchecked* arena
//! walkers, a corrupted candidate must never reach the slot. The slot and
//! the golden set are private to this crate, so a detector reaches a
//! worker only through `FleetService::start` and
//! `FleetService::hot_swap_validated`, and both gate it. A validated
//! publish runs (1) the structural arena check
//! ([`VmTransitionDetector::validate`]), (2) equality of the arena with
//! its boxed tree's compilation, which catches the flips no golden vector
//! happens to cross, and (3) a canary classification of a fingerprinted
//! golden-vector set, comparing the candidate's compiled arena against
//! its own boxed tree (and, for strict redeploys, against the labels the
//! incumbent model produced). Rolling back is the same gate:
//! republishing the earlier detector under a fresh version, so reader
//! epochs stay monotone and one publish path serves every deploy.

use mltree::Label;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use xentry::{FeatureVec, VmTransitionDetector};

/// Poison-tolerant lock: a panic on another thread while it held the
/// mutex (a panicking sink, say) must not cascade into every future
/// locker. The protected state here is always valid at rest — counters
/// and `Arc` swaps are single assignments — so recovering the guard is
/// safe.
pub(crate) fn lock_recovering<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A deployed detector plus its identity.
#[derive(Debug)]
pub(crate) struct VersionedModel {
    /// Monotone version: 1 for the model the service started with, +1 per
    /// hot swap.
    pub version: u64,
    /// [`VmTransitionDetector::fingerprint`] of the tree.
    pub fingerprint: u64,
    pub detector: VmTransitionDetector,
}

/// Why a validated publish refused a candidate model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SwapError {
    /// The compiled arena fails the structural integrity check; executing
    /// it through the unchecked walkers would be undefined behavior.
    Arena(mltree::ArenaFault),
    /// The candidate's compiled arena disagrees with its own boxed tree
    /// on a golden vector — the arena (or the compiler) is corrupt even
    /// though the structure checks out.
    SelfInconsistent {
        index: usize,
        compiled: Label,
        boxed: Label,
    },
    /// The candidate's batch walker disagrees with its single-sample
    /// walker on a golden vector.
    BatchDivergence { index: usize },
    /// The compiled arena is structurally sound, yet is not its boxed
    /// tree's compilation: a flip `validate` cannot see, such as one in a
    /// threshold. A low threshold bit moves a split by a few units, which
    /// no golden vector may cross.
    ArenaMismatch,
    /// Strict redeploy parity: the candidate disagrees with the expected
    /// golden labels captured from the incumbent model.
    CanaryDivergence {
        index: usize,
        got: Label,
        expected: Label,
    },
}

impl std::fmt::Display for SwapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SwapError::Arena(fault) => write!(f, "structural arena fault: {fault}"),
            SwapError::SelfInconsistent {
                index,
                compiled,
                boxed,
            } => write!(
                f,
                "golden vector {index}: compiled arena says {compiled:?}, boxed tree says {boxed:?}"
            ),
            SwapError::BatchDivergence { index } => {
                write!(
                    f,
                    "golden vector {index}: batch walker diverges from single-sample"
                )
            }
            SwapError::ArenaMismatch => {
                f.write_str("compiled arena is not its boxed tree's compilation")
            }
            SwapError::CanaryDivergence {
                index,
                got,
                expected,
            } => write!(
                f,
                "golden vector {index}: candidate says {got:?}, incumbent said {expected:?}"
            ),
        }
    }
}

impl std::error::Error for SwapError {}

/// FNV-1a over a stream of u64 words.
fn fnv1a_words<I: IntoIterator<Item = u64>>(words: I) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(PRIME);
        }
    }
    h
}

/// A fingerprinted canary set: feature vectors plus the labels the
/// incumbent model assigned them at capture time. Swap validation walks
/// every vector through the candidate's compiled arena (single-sample
/// *and* batch paths) and cross-checks against the candidate's boxed
/// tree; strict mode additionally requires agreement with the captured
/// labels (the "same tree, fresh training run" redeploy case).
#[derive(Debug, Clone)]
pub(crate) struct GoldenSet {
    vectors: Vec<FeatureVec>,
    expected: Vec<Label>,
    fingerprint: u64,
}

impl GoldenSet {
    /// Capture the golden set: classify `vectors` with `reference` and
    /// remember the verdicts. Private: `reference` is walked unchecked, so
    /// only [`GoldenSet::capture_verified`] and [`GoldenSet::recapture`]
    /// (of a deployed, hence gated, model) call it.
    fn capture(reference: &VmTransitionDetector, vectors: Vec<FeatureVec>) -> GoldenSet {
        assert!(!vectors.is_empty(), "golden set needs at least one vector");
        let expected: Vec<Label> = vectors.iter().map(|f| reference.classify(f)).collect();
        let fingerprint = fnv1a_words(
            vectors
                .iter()
                .flat_map(|f| [f.vmer as u64, f.rt, f.br, f.rm, f.wm])
                .chain(expected.iter().map(|l| l.as_positive() as u64))
                .chain([reference.fingerprint()]),
        );
        GoldenSet {
            vectors,
            expected,
            fingerprint,
        }
    }

    /// [`GoldenSet::capture`] of a reference that first passes
    /// [`GoldenSet::verify`]'s checks on `vectors`. Nothing classifies
    /// with `reference` before its arena validated, so a corrupt one is
    /// refused instead of walked.
    pub fn capture_verified(
        reference: &VmTransitionDetector,
        vectors: Vec<FeatureVec>,
    ) -> Result<GoldenSet, SwapError> {
        verify_on(reference, &vectors)?;
        Ok(GoldenSet::capture(reference, vectors))
    }

    /// Same vectors, expected labels re-captured under a new reference
    /// model. Call after the deployed model legitimately changes (any
    /// accepted swap) so strict parity tracks the incumbent.
    pub fn recapture(&self, reference: &VmTransitionDetector) -> GoldenSet {
        GoldenSet::capture(reference, self.vectors.clone())
    }

    /// Stable identity of this set (vectors + expected labels + the
    /// reference model's fingerprint): snapshot it next to verdicts so an
    /// audit can tell exactly which canary gate a deployment passed.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Validation every candidate must pass regardless of policy:
    /// structural arena integrity, then equality of the arena with the
    /// candidate's boxed tree's compilation, then canary classification
    /// proving the compiled arena agrees with that boxed tree on every
    /// golden vector, on both the single-sample and batch walkers.
    pub fn verify(&self, candidate: &VmTransitionDetector) -> Result<(), SwapError> {
        verify_on(candidate, &self.vectors)
    }

    /// [`GoldenSet::verify`] plus strict label parity with the captured
    /// expected verdicts. Use for redeploys that must not change
    /// behavior; a genuinely retrained model belongs behind
    /// [`GoldenSet::verify`] alone.
    pub fn verify_strict(&self, candidate: &VmTransitionDetector) -> Result<(), SwapError> {
        self.verify(candidate)?;
        for (index, (f, &expected)) in self.vectors.iter().zip(&self.expected).enumerate() {
            let got = candidate.classify(f);
            if got != expected {
                return Err(SwapError::CanaryDivergence {
                    index,
                    got,
                    expected,
                });
            }
        }
        Ok(())
    }
}

/// [`GoldenSet::verify`] over `vectors`. The arena validates first, so
/// nothing below walks an unsound one; then it must equal its boxed
/// tree's compilation, which no canary of finitely many vectors can
/// establish.
fn verify_on(candidate: &VmTransitionDetector, vectors: &[FeatureVec]) -> Result<(), SwapError> {
    candidate.validate().map_err(SwapError::Arena)?;
    if !candidate.compiled().is_compilation_of(candidate.tree()) {
        return Err(SwapError::ArenaMismatch);
    }
    let mut batch = vec![Label::Correct; vectors.len()];
    candidate.classify_batch(vectors, &mut batch);
    for (index, f) in vectors.iter().enumerate() {
        let compiled = candidate.classify(f);
        let boxed = candidate.tree().classify(&f.columns());
        if compiled != boxed {
            return Err(SwapError::SelfInconsistent {
                index,
                compiled,
                boxed,
            });
        }
        if batch[index] != compiled {
            return Err(SwapError::BatchDivergence { index });
        }
    }
    Ok(())
}

/// Shared slot holding the current model.
pub(crate) struct ModelSlot {
    epoch: AtomicU64,
    current: Mutex<Arc<VersionedModel>>,
}

impl ModelSlot {
    /// Install the initial model as version 1.
    pub fn new(detector: VmTransitionDetector) -> ModelSlot {
        let vm = Arc::new(VersionedModel {
            version: 1,
            fingerprint: detector.fingerprint(),
            detector,
        });
        ModelSlot {
            epoch: AtomicU64::new(1),
            current: Mutex::new(vm),
        }
    }

    /// Publish a new model; returns its version. Callers racing here
    /// serialize on the mutex; readers are never blocked. Unvalidated:
    /// the only caller outside this module's tests is
    /// [`ModelSlot::publish_validated`], after the canary gate.
    fn publish(&self, detector: VmTransitionDetector) -> u64 {
        let mut current = lock_recovering(&self.current);
        let version = current.version + 1;
        *current = Arc::new(VersionedModel {
            version,
            fingerprint: detector.fingerprint(),
            detector,
        });
        // Release pairs with the Acquire in `epoch()`: a reader that sees
        // the new epoch will also see the new Arc through the mutex.
        self.epoch.store(version, Ordering::Release);
        version
    }

    /// Validate `detector` against `golden` (strictly when
    /// `require_parity`), then publish. A rejected candidate leaves the
    /// slot untouched: the incumbent keeps classifying and the epoch never
    /// moves. Redeploying an earlier detector this way is the rollback.
    pub fn publish_validated(
        &self,
        detector: VmTransitionDetector,
        golden: &GoldenSet,
        require_parity: bool,
    ) -> Result<u64, SwapError> {
        if require_parity {
            golden.verify_strict(&detector)?;
        } else {
            golden.verify(&detector)?;
        }
        Ok(self.publish(detector))
    }

    /// Current epoch (== current model version).
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Clone the current model handle (cold path).
    pub fn load(&self) -> Arc<VersionedModel> {
        Arc::clone(&lock_recovering(&self.current))
    }
}

/// Per-worker cached handle, revalidated with one atomic load.
pub(crate) struct ModelCache {
    epoch: u64,
    model: Arc<VersionedModel>,
}

impl ModelCache {
    pub fn new(slot: &ModelSlot) -> ModelCache {
        ModelCache {
            epoch: slot.epoch(),
            model: slot.load(),
        }
    }

    /// The current model; refreshes from `slot` only when the epoch moved.
    pub fn get(&mut self, slot: &ModelSlot) -> &Arc<VersionedModel> {
        let e = slot.epoch();
        if e != self.epoch {
            self.model = slot.load();
            self.epoch = e;
        }
        &self.model
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mltree::{Dataset, DecisionTree, Sample, TrainConfig};
    use xentry::{FeatureVec, FEATURE_NAMES};

    fn detector(split: u64) -> VmTransitionDetector {
        let mut d = Dataset::new(&FEATURE_NAMES);
        for i in 0..40u64 {
            d.push(Sample::new(
                vec![17, split / 2 + i % 10, 5, 3, 2],
                Label::Correct,
            ));
            d.push(Sample::new(
                vec![17, split * 2 + i, 25, 9, 6],
                Label::Incorrect,
            ));
        }
        VmTransitionDetector::new(DecisionTree::train(&d, &TrainConfig::decision_tree()))
    }

    fn golden_for(det: &VmTransitionDetector) -> GoldenSet {
        let vectors: Vec<FeatureVec> = (0..64u64)
            .map(|i| FeatureVec {
                vmer: 17,
                rt: 10 + i * 13,
                br: 5 + i % 40,
                rm: 3 + i % 20,
                wm: 2 + i % 10,
            })
            .collect();
        GoldenSet::capture(det, vectors)
    }

    #[test]
    fn publish_bumps_version_and_swaps_tree() {
        let slot = ModelSlot::new(detector(100));
        let mut cache = ModelCache::new(&slot);
        assert_eq!(cache.get(&slot).version, 1);
        let f1 = cache.get(&slot).fingerprint;

        let v = slot.publish(detector(1000));
        assert_eq!(v, 2);
        let m = cache.get(&slot);
        assert_eq!(m.version, 2);
        assert_ne!(
            m.fingerprint, f1,
            "different tree must fingerprint differently"
        );
    }

    #[test]
    fn cache_refreshes_only_on_epoch_change() {
        let slot = ModelSlot::new(detector(100));
        let mut cache = ModelCache::new(&slot);
        let p1 = Arc::as_ptr(cache.get(&slot));
        let p2 = Arc::as_ptr(cache.get(&slot));
        assert_eq!(p1, p2, "no swap: cache must hand back the same Arc");
        slot.publish(detector(500));
        let p3 = Arc::as_ptr(cache.get(&slot));
        assert_ne!(p1, p3);
    }

    #[test]
    fn concurrent_readers_see_consistent_versions() {
        let slot = Arc::new(ModelSlot::new(detector(100)));
        let f = FeatureVec {
            vmer: 17,
            rt: 60,
            br: 5,
            rm: 3,
            wm: 2,
        };
        std::thread::scope(|s| {
            for _ in 0..4 {
                let slot = Arc::clone(&slot);
                s.spawn(move || {
                    let mut cache = ModelCache::new(&slot);
                    let mut last = 0;
                    for _ in 0..10_000 {
                        let m = cache.get(&slot);
                        assert!(m.version >= last, "versions must be monotone per reader");
                        last = m.version;
                        // The handle must always be a complete model.
                        let _ = m.detector.classify(&f);
                    }
                });
            }
            let slot2 = Arc::clone(&slot);
            s.spawn(move || {
                for i in 0..20 {
                    slot2.publish(detector(100 + i * 37));
                }
            });
        });
        assert_eq!(slot.epoch(), 21);
    }

    #[test]
    fn poisoned_slot_keeps_working() {
        let slot = Arc::new(ModelSlot::new(detector(100)));
        let slot2 = Arc::clone(&slot);
        // Poison the state mutex by panicking while holding it.
        let _ = std::thread::spawn(move || {
            let _guard = slot2.current.lock().unwrap();
            panic!("poison the slot");
        })
        .join();
        assert!(slot.current.is_poisoned(), "setup must actually poison");
        // Every entry point must recover instead of propagating the panic.
        assert_eq!(slot.load().version, 1);
        assert_eq!(slot.publish(detector(300)), 2);
        let golden = golden_for(&detector(300));
        assert_eq!(slot.publish_validated(detector(100), &golden, false), Ok(3));
    }

    #[test]
    fn golden_set_fingerprint_tracks_contents() {
        let d = detector(100);
        let g1 = golden_for(&d);
        let g2 = golden_for(&d);
        assert_eq!(
            g1.fingerprint(),
            g2.fingerprint(),
            "capture is deterministic"
        );
        let g3 = golden_for(&detector(5000));
        assert_ne!(
            g1.fingerprint(),
            g3.fingerprint(),
            "different reference model, different expected labels"
        );
    }

    #[test]
    fn validated_publish_accepts_healthy_and_rejects_corrupt() {
        let d1 = detector(100);
        let golden = golden_for(&d1);
        let slot = ModelSlot::new(d1.clone());

        // A clean redeploy (JSON round trip of the incumbent) passes the
        // strict gate.
        let redeploy = VmTransitionDetector::from_json(&d1.to_json()).unwrap();
        assert_eq!(slot.publish_validated(redeploy, &golden, true).unwrap(), 2);

        // A retrained model with different behavior passes the relaxed
        // gate but fails strict parity.
        let retrained = detector(4000);
        assert!(matches!(
            golden.verify_strict(&retrained),
            Err(SwapError::CanaryDivergence { .. })
        ));
        assert_eq!(
            slot.publish_validated(retrained, &golden, false).unwrap(),
            3
        );

        // Semantic corruption (threshold flip): structurally valid, not
        // the tree's compilation; the slot must not move.
        let mut corrupt = detector(100);
        corrupt.chaos_flip_arena_bit(63);
        let before = slot.epoch();
        assert_eq!(
            slot.publish_validated(corrupt, &golden, false),
            Err(SwapError::ArenaMismatch)
        );
        assert_eq!(slot.epoch(), before, "rejected swap must not publish");

        // Structural corruption (child-reference flip): caught before any
        // classification is attempted.
        let mut corrupt = detector(100);
        corrupt.chaos_flip_arena_bit(64 + 30);
        assert!(matches!(
            slot.publish_validated(corrupt, &golden, false),
            Err(SwapError::Arena(_))
        ));
        assert_eq!(slot.epoch(), before);

        // The root threshold's lowest bit: the split moves by one, which
        // no golden vector crosses, so the canary alone would pass it.
        let mut corrupt = detector(100);
        corrupt.chaos_flip_arena_bit(0);
        assert!(
            golden
                .vectors
                .iter()
                .all(|f| corrupt.classify(f) == corrupt.tree().classify(&f.columns())),
            "the canary alone would pass it"
        );
        assert_eq!(
            slot.publish_validated(corrupt, &golden, false),
            Err(SwapError::ArenaMismatch)
        );
        assert_eq!(slot.epoch(), before);
    }

    /// A rollback is a validated republish of the earlier detector: a
    /// fresh version carrying the old fingerprint. Roll-forward is the
    /// same call with the later one.
    #[test]
    fn rollback_restores_previous_model_under_new_version() {
        let d1 = detector(100);
        let d2 = detector(5000);
        let slot = ModelSlot::new(d1.clone());
        let golden = golden_for(&d1);
        assert_eq!(slot.publish_validated(d2.clone(), &golden, false), Ok(2));
        // d1 relabels the golden vectors captured under d2: the strict
        // gate refuses it, the relaxed one republishes it.
        let golden = golden.recapture(&slot.load().detector);
        assert!(golden.verify_strict(&d1).is_err());
        assert_eq!(slot.publish_validated(d1.clone(), &golden, false), Ok(3));
        let m = slot.load();
        assert_eq!(m.version, 3);
        assert_eq!(
            m.fingerprint,
            d1.fingerprint(),
            "rollback restores v1's tree"
        );
        let golden = golden.recapture(&m.detector);
        assert_eq!(slot.publish_validated(d2.clone(), &golden, false), Ok(4));
        assert_eq!(slot.load().fingerprint, d2.fingerprint());
    }
}
