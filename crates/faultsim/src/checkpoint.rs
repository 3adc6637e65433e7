//! The golden execution as one delta chain with copy-on-write keyframes.
//!
//! The campaign's golden pass walks the fault-free execution once and
//! pushes the platform **at every walk iteration's VM exit** (entry 0 is
//! the platform after warm-up). Consecutive exits differ by a few dozen
//! words on a handful of pages, so entry `k` is stored as a sparse
//! [`xen_like::PlatformDelta`] against entry `k - 1`; every
//! `interval`-th entry is also kept whole as a keyframe — a
//! copy-on-write clone that owns only the pages written since the
//! previous one. The fork phase never re-simulates the walk: a chunk
//! [`restore`](CheckpointStore::restore)s the entry its first point's
//! iteration started from (a keyframe; at most `interval - 1` deltas past
//! one if the walk skipped iterations) and then
//! [`advance`](CheckpointStore::advance)s from exit to exit.

use serde::{Deserialize, Serialize};
use xen_like::{Platform, PlatformDelta};

/// Sizing diagnostics for a checkpoint chain, reported by the campaign
/// benchmark so the compression claim is measured, not assumed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CheckpointStats {
    /// Entries in the chain (including entry 0).
    pub checkpoints: usize,
    /// Words in one full memory image.
    pub full_mem_words: usize,
    /// Total delta-carried words across the chain.
    pub delta_mem_words: usize,
}

impl CheckpointStats {
    /// Words a chain of full snapshots would hold per checkpoint, divided
    /// by the words the delta chain actually holds per checkpoint.
    pub fn compression_ratio(&self) -> f64 {
        if self.checkpoints <= 1 {
            return 1.0;
        }
        let deltas = (self.checkpoints - 1) as f64;
        let full = self.full_mem_words as f64 * deltas;
        full / (self.delta_mem_words as f64).max(1.0)
    }
}

/// A chain of platform states along one golden execution.
///
/// Entry `k > 0` is a delta against entry `k - 1`; entries `0, interval,
/// 2 * interval, ...` are also held whole. [`CheckpointStore::restore`]
/// rebuilds any entry by cloning the keyframe at or before it and applying
/// the deltas in between — O(changed words), not O(memory image), per step.
#[derive(Debug, Clone)]
pub struct CheckpointStore {
    /// Entry `i * interval`, whole.
    keyframes: Vec<Platform>,
    /// `deltas[k - 1]` takes entry `k - 1` to entry `k`.
    deltas: Vec<PlatformDelta>,
    interval: usize,
    /// Full copy of the newest entry, kept so the next push can be
    /// delta-compressed without re-materializing the chain.
    tip: Platform,
}

impl CheckpointStore {
    /// Start a chain at `base` (entry 0) whose only keyframe is the base.
    pub fn new(base: Platform) -> CheckpointStore {
        CheckpointStore::with_interval(base, usize::MAX)
    }

    /// Start a chain at `base` that keeps every `interval`-th entry whole.
    pub fn with_interval(base: Platform, interval: usize) -> CheckpointStore {
        CheckpointStore {
            keyframes: vec![base.clone()],
            deltas: Vec::new(),
            interval: interval.max(1),
            tip: base,
        }
    }

    /// Append the next entry, delta-compressed against the previous.
    pub fn push(&mut self, snap: &Platform) {
        self.deltas.push(snap.delta_against(&self.tip));
        if self.deltas.len().is_multiple_of(self.interval) {
            self.keyframes.push(snap.clone());
        }
        self.tip.clone_from(snap);
    }

    /// Number of entries in the chain.
    pub fn len(&self) -> usize {
        self.deltas.len() + 1
    }

    /// Whether the chain holds only the base.
    pub fn is_empty(&self) -> bool {
        self.deltas.is_empty()
    }

    /// Materialize entry `k` (0-based) from the nearest keyframe.
    pub fn restore(&self, k: usize) -> Platform {
        assert!(k < self.len(), "entry {k} beyond chain of {}", self.len());
        let key = k / self.interval;
        let mut p = self.keyframes[key].clone();
        for d in &self.deltas[key * self.interval..k] {
            p.apply_delta(d);
        }
        p
    }

    /// Step `plat`, which must hold entry `k - 1`, to entry `k`.
    pub fn advance(&self, plat: &mut Platform, k: usize) {
        plat.apply_delta(&self.deltas[k - 1]);
    }

    /// Sizing diagnostics.
    pub fn stats(&self) -> CheckpointStats {
        CheckpointStats {
            checkpoints: self.len(),
            full_mem_words: self.tip.machine.mem.len_words(),
            delta_mem_words: self.deltas.iter().map(|d| d.mem_words()).sum(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{campaign_platform, CampaignConfig};
    use guest_sim::Benchmark;
    use xentry::Xentry;

    fn walked_platform(n: usize) -> Platform {
        let cfg = CampaignConfig::paper(Benchmark::Freqmine, 1, 3);
        let mut plat = campaign_platform(&cfg, 3);
        let mut shim = Xentry::collector();
        plat.boot(1, &mut shim);
        for _ in 0..n {
            assert!(plat.run_activation(1, &mut shim).outcome.is_healthy());
        }
        plat
    }

    #[test]
    fn restore_reproduces_every_checkpoint_exactly() {
        let cfg = CampaignConfig::paper(Benchmark::Freqmine, 1, 3);
        let mut plat = campaign_platform(&cfg, 3);
        let mut shim = Xentry::collector();
        plat.boot(1, &mut shim);
        for _ in 0..10 {
            plat.run_activation(1, &mut shim);
        }
        let mut store = CheckpointStore::new(plat.snapshot());
        let mut digests = vec![plat.state_digest()];
        for _ in 0..4 {
            for _ in 0..5 {
                plat.run_activation(1, &mut shim);
            }
            store.push(&plat);
            digests.push(plat.state_digest());
        }
        assert_eq!(store.len(), 5);
        for (k, want) in digests.iter().enumerate() {
            assert_eq!(store.restore(k).state_digest(), *want, "checkpoint {k}");
        }
    }

    #[test]
    fn restored_checkpoint_evolves_like_the_original() {
        let plat = walked_platform(12);
        let mut store = CheckpointStore::new(plat.clone());
        let mut live = plat;
        let mut shim = Xentry::collector();
        for _ in 0..6 {
            live.run_activation(1, &mut shim);
        }
        store.push(&live);
        // Fork checkpoint 1 and run both forward in lockstep.
        let mut forked = store.restore(1);
        let mut shim_a = Xentry::collector();
        let mut shim_b = Xentry::collector();
        for _ in 0..8 {
            live.run_activation(1, &mut shim_a);
            forked.run_activation(1, &mut shim_b);
            assert_eq!(live.state_digest(), forked.state_digest());
        }
    }

    #[test]
    fn deltas_are_much_smaller_than_full_snapshots() {
        let plat = walked_platform(15);
        let mut store = CheckpointStore::new(plat.clone());
        let mut live = plat;
        let mut shim = Xentry::collector();
        for _ in 0..3 {
            for _ in 0..4 {
                live.run_activation(1, &mut shim);
            }
            store.push(&live);
        }
        let st = store.stats();
        assert_eq!(st.checkpoints, 4);
        assert!(
            st.compression_ratio() > 10.0,
            "checkpoint deltas should be sparse: {st:?}"
        );
    }
}
