//! The swap gate under arena bit flips: a single-bit soft error anywhere
//! in a candidate's compiled arena either never reaches the slot, or the
//! arena it reaches classifies every later record exactly like the
//! candidate's own boxed tree.
//!
//! The canary vectors alone do not make this hold: a flip of a low bit of
//! the base model's `RT <= 599` threshold passes all of them and then
//! labels about one synthetic-trace record in 16,000 against the tree.
//! The gate's check that the arena equals its tree's compilation rejects
//! every such flip.

use proptest::prelude::*;
use std::sync::Arc;
use xentry_fleet::{replay, CollectSink, FleetConfig, FleetService, VmTransitionDetector};

/// The deployed model and the one every candidate is a corrupted copy of.
fn base() -> VmTransitionDetector {
    replay::synthetic_detector(1)
}

/// Bits a flip may strike: every logical field bit of every arena record.
fn arena_bits() -> usize {
    base().compiled().logical_bits()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn a_flipped_arena_is_rejected_or_classifies_like_its_boxed_tree(
        bit in 0..arena_bits(),
        trace_seed in any::<u64>(),
    ) {
        let mut candidate = base();
        candidate.chaos_flip_arena_bit(bit);
        let sink = Arc::new(CollectSink::default());
        let cfg = FleetConfig {
            shards: 1,
            queue_capacity: 1024,
            ..FleetConfig::default()
        };
        let svc = FleetService::start(cfg, base(), Arc::clone(&sink) as _);
        let accepted = svc.hot_swap_validated(candidate.clone(), false).is_ok();
        let snap = svc.snapshot();
        if accepted {
            prop_assert_eq!(snap.model_version, 2);
            prop_assert_eq!(snap.swap_rejections, 0);
        } else {
            prop_assert_eq!(snap.model_version, 1, "a rejected swap moved the epoch");
            prop_assert_eq!(snap.swap_rejections, 1);
        }
        let serving = if accepted { candidate } else { base() };

        let trace = replay::synthetic_trace(512, trace_seed);
        for (seq, f) in trace.iter().enumerate() {
            prop_assert!(svc.ingest(0, 0, seq as u64, *f));
        }
        let snap = svc.shutdown();
        prop_assert_eq!(snap.classified, trace.len() as u64);
        let verdicts = sink.verdicts.lock().unwrap();
        for v in verdicts.iter() {
            prop_assert_eq!(v.model_version, snap.model_version);
            let f = trace[v.seq as usize];
            prop_assert_eq!(
                v.label,
                serving.tree().classify(&f.columns()),
                "bit {} (accepted: {}): seq {} differs from the boxed tree",
                bit,
                accepted,
                v.seq
            );
        }
    }
}
