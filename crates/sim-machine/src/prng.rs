//! Deterministic randomness for the `NOISE` instruction.
//!
//! Hypervisor handlers and guest workloads need data-dependent variability —
//! different loop trip counts, different pending-event populations — so that
//! correct executions of the same VM exit reason form a *distribution*, not a
//! single point. (Otherwise the VM-transition classifier's job would be
//! trivial exact-matching, which is not what the paper evaluates.)
//!
//! Two requirements shape the design:
//!
//! 1. **Snapshot determinism** — a golden re-run from the same snapshot
//!    replays the identical sequence (the fault-injection campaign's
//!    golden-run differencing relies on it).
//! 2. **Site independence** — a fault that lengthens one handler's path
//!    must not shift the random values seen later by *unrelated* code
//!    (guest workloads), or every injected fault would trivially look like
//!    an SDC. [`SiteNoise`] therefore dedicates an independent stream to
//!    every `NOISE` instruction address: the value is a pure function of
//!    `(seed, rip, per-site counter)`.

use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// SplitMix64 generator — tiny, fast, good enough for workload variability,
/// and trivially snapshottable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Seeded generator.
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64 { state: seed }
    }

    /// Next 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform value in `[0, bound)`; `bound == 0` is treated as 1.
    pub fn next_below(&mut self, bound: u64) -> u64 {
        let b = bound.max(1);
        self.next_u64() % b
    }

    /// Raw generator state (snapshot digests; the stream is a pure function
    /// of this value).
    pub fn state(&self) -> u64 {
        self.state
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_same_seed() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SplitMix64::new(1);
        let mut b = SplitMix64::new(2);
        let same = (0..32).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 2);
    }

    #[test]
    fn bound_zero_yields_zero() {
        let mut g = SplitMix64::new(7);
        assert_eq!(g.next_below(0), 0);
        assert_eq!(g.next_below(1), 0);
    }

    #[test]
    fn bounded_values_in_range() {
        let mut g = SplitMix64::new(9);
        for _ in 0..1000 {
            assert!(g.next_below(17) < 17);
        }
    }

    #[test]
    fn snapshot_replays_identically() {
        let mut g = SplitMix64::new(1234);
        g.next_u64();
        let snap = g; // Copy
        let a: Vec<u64> = {
            let mut x = g;
            (0..10).map(|_| x.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut x = snap;
            (0..10).map(|_| x.next_u64()).collect()
        };
        assert_eq!(a, b);
    }
}

/// Fold one value into a running 64-bit digest (SplitMix-style finalizer).
///
/// This is the one mixing function used by every state digest in the
/// workspace (memory images, machine state, campaign-config fingerprints).
/// It is deliberately *not* `std::hash::DefaultHasher`, whose output is not
/// guaranteed stable across Rust releases — digests written into campaign
/// journals must stay comparable across binaries.
pub fn fold64(h: u64, v: u64) -> u64 {
    let mut z = h
        .rotate_left(25)
        .wrapping_add(v.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Per-site noise source: every `NOISE` instruction address owns an
/// independent deterministic stream.
#[derive(Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SiteNoise {
    seed: u64,
    counters: HashMap<u64, u64>,
}

impl Clone for SiteNoise {
    fn clone(&self) -> SiteNoise {
        SiteNoise {
            seed: self.seed,
            counters: self.counters.clone(),
        }
    }

    /// Field by field, so the counter map keeps its allocation.
    fn clone_from(&mut self, source: &SiteNoise) {
        let SiteNoise { seed, counters } = source;
        self.seed = *seed;
        self.counters.clone_from(counters);
    }
}

fn mix3(a: u64, b: u64, c: u64) -> u64 {
    let mut z = a ^ b.rotate_left(23) ^ c.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl SiteNoise {
    /// Seeded source.
    pub fn new(seed: u64) -> SiteNoise {
        SiteNoise {
            seed,
            counters: HashMap::new(),
        }
    }

    /// Next value for the site at `rip`, uniform in `[0, bound)`
    /// (`bound == 0` acts as 1).
    pub fn next_at(&mut self, rip: u64, bound: u64) -> u64 {
        let c = self.counters.entry(rip).or_insert(0);
        let v = mix3(self.seed, rip, *c);
        *c += 1;
        v % bound.max(1)
    }

    /// Fold the noise state into a running digest. The counter map is
    /// HashMap-backed, so entries are folded in sorted key order to keep the
    /// digest independent of insertion history and hasher randomization.
    pub fn fold_digest(&self, mut h: u64) -> u64 {
        h = fold64(h, self.seed);
        let mut sites: Vec<(u64, u64)> = self.counters.iter().map(|(&k, &v)| (k, v)).collect();
        sites.sort_unstable();
        for (rip, count) in sites {
            h = fold64(h, rip);
            h = fold64(h, count);
        }
        h
    }
}

#[cfg(test)]
mod site_tests {
    use super::*;

    #[test]
    fn sites_are_independent() {
        // Drawing extra values at site A must not change site B's stream.
        let mut a = SiteNoise::new(7);
        let mut b = SiteNoise::new(7);
        for _ in 0..10 {
            a.next_at(0x1000, 1000);
        }
        let va: Vec<u64> = (0..5).map(|_| a.next_at(0x2000, 1000)).collect();
        let vb: Vec<u64> = (0..5).map(|_| b.next_at(0x2000, 1000)).collect();
        assert_eq!(va, vb);
    }

    #[test]
    fn per_site_streams_are_deterministic() {
        let mut a = SiteNoise::new(3);
        let mut b = SiteNoise::new(3);
        for i in 0..50 {
            let rip = 0x1000 + (i % 7) * 8;
            assert_eq!(a.next_at(rip, 97), b.next_at(rip, 97));
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SiteNoise::new(1);
        let mut b = SiteNoise::new(2);
        let same = (0..32)
            .filter(|_| a.next_at(0x10, 1 << 30) == b.next_at(0x10, 1 << 30))
            .count();
        assert!(same < 2);
    }

    #[test]
    fn bounds_respected() {
        let mut a = SiteNoise::new(5);
        assert_eq!(a.next_at(8, 0), 0);
        for _ in 0..200 {
            assert!(a.next_at(16, 13) < 13);
        }
    }

    #[test]
    fn values_cover_range_roughly_uniformly() {
        let mut a = SiteNoise::new(9);
        let mut seen = [0usize; 8];
        for _ in 0..8000 {
            seen[a.next_at(24, 8) as usize] += 1;
        }
        for (i, &n) in seen.iter().enumerate() {
            assert!(n > 700, "bucket {i} underfilled: {n}");
        }
    }
}
