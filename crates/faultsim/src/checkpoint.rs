//! Delta-compressed checkpoint chains over the golden execution.
//!
//! The campaign engine runs the golden (fault-free) execution once and
//! checkpoints the platform at segment boundaries; every injection then
//! forks from the nearest checkpoint at or before its injection point
//! instead of replaying from boot (the DETOx/ReHype idea applied to our
//! simulator). Consecutive checkpoints share almost the entire memory
//! image, so checkpoint `k` is stored as a sparse [`xen_like::PlatformDelta`]
//! against checkpoint `k-1`; only checkpoint 0 is a full snapshot.

use serde::{Deserialize, Serialize};
use xen_like::{Platform, PlatformDelta};

/// Sizing diagnostics for a checkpoint chain, reported by the campaign
/// benchmark so the compression claim is measured, not assumed.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct CheckpointStats {
    /// Checkpoints in the chain (including the full base).
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

/// A chain of platform checkpoints along one golden execution.
///
/// Checkpoint 0 is a full snapshot; checkpoint `k > 0` is a delta against
/// checkpoint `k-1`. [`CheckpointStore::restore`] rebuilds any checkpoint
/// by cloning the base and replaying the delta prefix — O(changed words),
/// not O(memory image), per step.
#[derive(Debug, Clone)]
pub struct CheckpointStore {
    base: Platform,
    deltas: Vec<PlatformDelta>,
    /// Full copy of the newest checkpoint, kept so the next push can be
    /// delta-compressed without re-materializing the chain.
    tip: Platform,
}

impl CheckpointStore {
    /// Start a chain at `base` (checkpoint 0).
    pub fn new(base: Platform) -> CheckpointStore {
        CheckpointStore {
            tip: base.clone(),
            base,
            deltas: Vec::new(),
        }
    }

    /// Append the next checkpoint, delta-compressed against the previous.
    pub fn push(&mut self, snap: &Platform) {
        self.deltas.push(snap.delta_against(&self.tip));
        self.tip = snap.clone();
    }

    /// Number of checkpoints in the chain.
    pub fn len(&self) -> usize {
        self.deltas.len() + 1
    }

    /// Whether the chain holds only the base.
    pub fn is_empty(&self) -> bool {
        self.deltas.is_empty()
    }

    /// Materialize checkpoint `k` (0-based).
    pub fn restore(&self, k: usize) -> Platform {
        assert!(
            k < self.len(),
            "checkpoint {k} beyond chain of {}",
            self.len()
        );
        let mut p = self.base.clone();
        for d in &self.deltas[..k] {
            p.apply_delta(d);
        }
        p
    }

    /// Sizing diagnostics.
    pub fn stats(&self) -> CheckpointStats {
        CheckpointStats {
            checkpoints: self.len(),
            full_mem_words: self.base.machine.mem.len_words(),
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
