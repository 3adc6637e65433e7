//! Exit-leaf scoring (QuickScorer, Lucchese et al., SIGIR 2015): the
//! single-sample path of [`CompiledTree`] without a chain of dependent
//! loads.
//!
//! Number a tree's leaves left to right. A split whose test fails (the
//! value exceeds its threshold) rules out every leaf of its left subtree,
//! and the walk's exit leaf is the leftmost leaf no failed test rules out:
//! a leaf left of it sits in the left subtree of a split where the walk
//! went right, and no split that went left rules out its own path. So a
//! vector is classified by ANDing one precomputed mask per feature, the
//! mask of the interval its value falls in between that feature's sorted
//! thresholds, and taking the lowest set bit. The lookups are independent
//! of each other: their cost barely grows with depth, where a walk's does.
//!
//! An interval is found by a 4,096-entry table for values inside the
//! packed shadow's 12-bit envelope and by binary search over the
//! thresholds above it, so the scorer is exact for every `u64`. Each leaf
//! keeps its depth, the comparisons a walk makes to reach it, so the
//! cost-charging calls answer as the walk does.
//!
//! [`CompiledTree`]: crate::compiled::CompiledTree

use crate::compiled::{leaf_label, CompiledNode, LEAF_BIT};
use crate::dataset::Label;
use crate::simd::PACKED_MAX_FEATURE;
use std::collections::BTreeMap;

/// Most leaves a scorer covers: one bit each of a `u128` mask. It also
/// bounds the splits (127), so every mask of every feature has an index
/// below 256 (a threshold adds one mask, a feature one more) and the
/// interval tables can name masks by `u8`.
const MAX_LEAVES: usize = u128::BITS as usize;

/// Values below this find their interval by table.
const TABLE: usize = PACKED_MAX_FEATURE as usize + 1;

/// The exit-leaf form of a compiled arena, derived from it whole.
#[derive(Clone, PartialEq, Eq)]
pub(crate) struct ExitLeafScorer {
    /// One per feature some split tests, in feature order.
    features: Vec<FeatureTests>,
    /// Per entry of `features`, the mask index of every value below
    /// [`TABLE`].
    interval: Vec<[u8; TABLE]>,
    /// Every feature's interval masks, one run per feature: the leaves
    /// that survive a value above exactly `j` of its thresholds are
    /// `masks[first + j]`.
    masks: Box<[u128; 256]>,
    /// Every leaf, left to right; the rest never survive.
    leaves: Box<[Leaf; MAX_LEAVES]>,
}

/// What one feature's splits test.
#[derive(Clone, PartialEq, Eq)]
struct FeatureTests {
    feature: usize,
    /// Index of its first mask (the one of values below every threshold).
    first: u8,
    /// The distinct thresholds, ascending.
    thresholds: Box<[u64]>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Leaf {
    label: Label,
    /// Comparisons on the path to it.
    depth: u8,
}

impl ExitLeafScorer {
    /// The scorer of the tree reached from `root`, or `None` when it
    /// unfolds to more than [`MAX_LEAVES`] leaves. A record two parents
    /// share is unfolded under each. Total on any arena: a reference past
    /// the end gives `None`, and a cycle runs into the depth bound, so
    /// deriving never panics, hangs or reads out of bounds (the verdicts
    /// are the walk's only on an arena `validate` accepts).
    pub(crate) fn build(nodes: &[CompiledNode], root: u32) -> Option<ExitLeafScorer> {
        let mut found = Vec::new();
        let mut tests: BTreeMap<u8, Vec<(u64, u128)>> = BTreeMap::new();
        unfold(nodes, root, 0, &mut found, &mut tests)?;
        let mut leaves = Box::new(
            [Leaf {
                label: Label::Correct,
                depth: 0,
            }; MAX_LEAVES],
        );
        leaves[..found.len()].copy_from_slice(&found);
        let mut masks = Box::new([0u128; 256]);
        let mut next = 0;
        let mut features = Vec::new();
        let mut interval = Vec::new();
        for (feature, mut tests) in tests {
            tests.sort_unstable_by_key(|&(threshold, _)| threshold);
            let first = next;
            let mut thresholds = Vec::new();
            masks[next] = u128::MAX;
            for (threshold, keep) in tests {
                if thresholds.last() != Some(&threshold) {
                    thresholds.push(threshold);
                    masks[next + 1] = masks[next];
                    next += 1;
                }
                masks[next] &= keep;
            }
            next += 1;
            let mut table = [0u8; TABLE];
            let mut mask = first;
            for (v, slot) in table.iter_mut().enumerate() {
                while thresholds.get(mask - first).is_some_and(|&t| t < v as u64) {
                    mask += 1;
                }
                *slot = mask as u8;
            }
            interval.push(table);
            features.push(FeatureTests {
                feature: feature as usize,
                first: first as u8,
                thresholds: thresholds.into(),
            });
        }
        Some(ExitLeafScorer {
            features,
            interval,
            masks,
            leaves,
        })
    }

    /// The exit leaf's label and depth. `features` must cover every
    /// feature a split tests (an index past it panics).
    #[inline(always)]
    pub(crate) fn score(&self, features: &[u64]) -> (Label, usize) {
        let mut alive = u128::MAX;
        for (f, table) in self.features.iter().zip(&self.interval) {
            let v = features[f.feature];
            let mask = if v <= PACKED_MAX_FEATURE {
                table[v as usize]
            } else {
                f.first + f.thresholds.partition_point(|&t| t < v) as u8
            };
            alive &= self.masks[mask as usize];
        }
        // The exit leaf survives, so the lowest set bit is below 128.
        let leaf = self.leaves[alive.trailing_zeros() as usize % MAX_LEAVES];
        (leaf.label, leaf.depth as usize)
    }
}

impl std::fmt::Debug for ExitLeafScorer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExitLeafScorer")
            .field(
                "features",
                &(self.features.iter())
                    .map(|t| (t.feature, t.thresholds.len()))
                    .collect::<Vec<_>>(),
            )
            .finish()
    }
}

/// Unfold the tree below `r`, `depth` comparisons down, into `leaves`
/// and, per feature, each split's threshold with the mask of leaves its
/// failed test keeps (all but its left subtree's).
fn unfold(
    nodes: &[CompiledNode],
    r: u32,
    depth: usize,
    leaves: &mut Vec<Leaf>,
    tests: &mut BTreeMap<u8, Vec<(u64, u128)>>,
) -> Option<()> {
    if r & LEAF_BIT != 0 {
        if leaves.len() == MAX_LEAVES {
            return None;
        }
        leaves.push(Leaf {
            label: leaf_label(r),
            depth: depth as u8,
        });
        return Some(());
    }
    // A split `depth` comparisons down heads a path of depth + 1 splits,
    // so the tree has at least depth + 2 leaves.
    if depth + 2 > MAX_LEAVES {
        return None;
    }
    let n = nodes.get(r as usize)?;
    let first = leaves.len();
    unfold(nodes, n.left, depth + 1, leaves, tests)?;
    let left = (u128::MAX >> (MAX_LEAVES - (leaves.len() - first))) << first;
    tests
        .entry(n.feature)
        .or_default()
        .push((n.threshold, !left));
    unfold(nodes, n.right, depth + 1, leaves, tests)
}
