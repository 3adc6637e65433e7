//! Compiled flat-arena inference: the deployable form of a trained model.
//!
//! The boxed [`Node`] tree is ideal for training, pruning and rule dumps,
//! but classifying with it chases one heap pointer per level — a cache
//! miss per comparison on the VM-entry hot path the paper fights to keep
//! near-zero. [`CompiledTree`] flattens the splits into a contiguous arena
//! of fixed-size records laid out in preorder (each split's left child is
//! the next record), so the common short path walks forward through memory
//! the prefetcher already has. Leaves are not stored at all: a child
//! reference with [`LEAF_BIT`] set *is* the verdict.
//!
//! ```text
//!  CompiledNode (repr C, 24 bytes):
//!  ┌───────────────┬────────┬────────┬─────────┐
//!  │ threshold u64 │ left   │ right  │ feature │
//!  │               │ u32    │ u32    │ u8      │
//!  └───────────────┴────────┴────────┴─────────┘
//!  child ref: bit31 = leaf flag, bit0 = label (1 ⇒ Incorrect),
//!             otherwise an arena index (preorder: left == self + 1)
//! ```
//!
//! A single sample is not walked, though: a walk is a chain of dependent
//! loads as deep as the tree (19 on the deployed detector). Each tree
//! also derives an *exit-leaf scorer* from its arena (QuickScorer,
//! Lucchese et al., SIGIR 2015). Leaves are numbered left to right, and a
//! failed test rules out its left subtree's leaves, so the exit leaf is
//! the lowest leaf no failed test rules out. Per feature some split tests:
//!
//! ```text
//!  ExitLeafScorer (derived from the arena, ≤ 128 leaves):
//!  per feature  thresholds   sorted distinct u64s  (t0 < t1 < … < tk-1)
//!               interval     [u8; 4096]: value → mask index (12-bit
//!                            envelope; above it, binary search of the
//!                            thresholds)
//!  shared       masks        [u128; 256]: per feature, k + 1 masks, the
//!                            leaves a value above exactly j thresholds
//!                            leaves alive
//!               leaves       [(label, depth); 128], left to right
//!  verdict = leaves[trailing_zeros(AND of one mask per feature)]
//! ```
//!
//! The lookups are independent of each other, so a classification costs
//! about the same at any depth. It is exact for every `u64` value, and a
//! leaf's depth is the walk's comparison count, so
//! [`CompiledTree::classify_cost`] answers as the walk does. A five-feature
//! tree carries ~25 KB of tables, ~21 KB of them touched: 20 KB of
//! interval tables, the 4 KB mask slab of which it uses at most one mask
//! per split plus one per feature (≤ 1.3 KB on the deployed 79-split
//! tree), and 256 B of leaves. Every
//! single-sample entry and every row a batch does not give its kernels
//! takes the scorer. Only arenas it does not cover still walk: one that
//! unfolds to more than 128 leaves (a record two parents share is unfolded
//! under each; the bound also keeps every mask index inside a `u8`), or
//! one [`CompiledTree::validate`] rejects. The batch kernels keep their
//! lockstep walk, which already overlaps eight lanes' chains per group.
//! The forest keeps its walk too: fifteen trees would carry ~20 KB of
//! tables each, and its single-sample path is not on a measured path.
//! The tables are a function of the model alone, derived again whenever
//! the arena changes, and hold no verdicts.
//!
//! [`CompiledForest`] concatenates every tree's arena into one allocation
//! and keeps per-tree root references, so an ensemble walk touches a
//! single slab. Forest classification early-exits as soon as the vote
//! threshold is decided either way, single-sample and batch alike, by one
//! shared rule: a batch walks the trees in arena order over a window's
//! new words, and after each tree compacts the words still undecided to
//! the front of a live set of their own, so later trees walk only those.
//!
//! Both batch engines stage rows through windows of up to 1,024 packed
//! words and walk each distinct word of a *call* once: Xentry's
//! fault-free vectors repeat heavily (0.35–1.18% distinct in 8,192
//! activations, 1.2–7.2% in each 1,024 of them), and equal in-envelope
//! words take the same path, so a row copies its word's verdict. The
//! distinct words and their verdicts are the call's *entries*, kept
//! across its windows up to 4,096 of them (four windows' worth); a
//! window that could overflow the table starts it over, so an
//! all-distinct call walks as often as a window-at-a-time one would. A
//! window walks only the entries new in it, none when it has none, and
//! fewer than one lane group of new entries take the exact single-sample
//! path each, through the row that made it. A batch's cost per row
//! therefore follows its call's distinct share, not its windows'.
//! Nothing persists across calls but a thread's reusable scratch
//! (~90 KB), which a call starts at zero entries and which holds no
//! verdict a later call can read.
//!
//! Batch classification ([`CompiledTree::classify_batch`]) walks many
//! samples in branchless lockstep: per-sample branches mispredict ~50%
//! on real trees and each flush discards the other samples' in-flight
//! loads, while independent dependency chains keep that many cache
//! misses overlapped. The lockstep round itself is vectorized in
//! [`crate::simd`]. At compile time each tree also builds a *packed
//! shadow arena* there — one u64 per split, leaves self-looping — and
//! any chunk whose runtime feature values fit 12 bits (every fault-free
//! Xentry vector does; checked per chunk, exact by construction) walks
//! it at one gather plus a few ALU ops per 8-lane group per level.
//! Kernels (AVX-512 / AVX2 / portable scalar oracle) are selectable per
//! call through [`CompiledTree::classify_batch_with`]; a short last group
//! is padded to full width by replicating a real word, so a call of at
//! least one 8-lane group stays on the wide path whatever its length. A
//! chunk outside that envelope, or a model with no packed shadow (more
//! than five features), has one exact fallback: the single-sample path,
//! row by row (the scorer; for a forest, the early-exiting
//! [`CompiledForest::classify`]) — rare by measurement (no fault-free
//! Xentry vector, about one faulty one in a thousand). A call of fewer
//! than eight rows takes the same path for every row: one lane group is
//! the kernels' unit, and below it their fixed cost exceeds the rows'
//! own lookups (a fleet shard at low load drains one or two records).
//!
//! [`Node`]: crate::tree::Node

use crate::dataset::Label;
use crate::forest::RandomForest;
use crate::scorer::ExitLeafScorer;
use crate::simd::{self, BatchWalker, PackedArena, LANES, PACKED_CHUNK};
use crate::tree::{DecisionTree, Node};
use std::cell::RefCell;
use std::ops::Range;

/// Child-reference tag: set ⇒ the reference is a leaf verdict, not an
/// arena index. Bit 0 then carries the label (1 ⇒ `Incorrect`).
pub const LEAF_BIT: u32 = 1 << 31;

/// Encode a leaf verdict as a child reference.
#[inline]
const fn leaf_ref(label: Label) -> u32 {
    LEAF_BIT
        | match label {
            Label::Correct => 0,
            Label::Incorrect => 1,
        }
}

/// Decode a leaf reference back into a label.
#[inline]
pub(crate) const fn leaf_label(r: u32) -> Label {
    if r & 1 == 1 {
        Label::Incorrect
    } else {
        Label::Correct
    }
}

/// One split record in the arena. `#[repr(C)]` keeps the layout fixed:
/// 8 (threshold) + 4 + 4 (children) + 1 (feature) + 7 padding = 24 bytes, so
/// two to three records share a cache line instead of one ~60-byte boxed
/// `Node::Split` allocation per miss.
#[repr(C)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompiledNode {
    /// `features[feature] <= threshold` goes left.
    pub threshold: u64,
    /// Left child reference (arena index or [`LEAF_BIT`]-tagged verdict).
    pub left: u32,
    /// Right child reference.
    pub right: u32,
    /// Feature column index (Table-I layouts have 5; 255 is plenty).
    pub feature: u8,
}

/// Keep the child select a real conditional branch. LLVM if-converts the
/// two register moves into a `cmov`/indexed load, which chains every
/// level's load behind the previous compare — the walk becomes one long
/// serial dependency and loses the speculation that makes tree descent
/// fast. An empty asm block in one arm forces a branch, so the predictor
/// can run ahead and issue the next level's load speculatively.
#[inline(always)]
fn branch_barrier() {
    #[cfg(any(target_arch = "x86_64", target_arch = "aarch64"))]
    // SAFETY: empty asm, no operands, no memory or flag effects.
    unsafe {
        std::arch::asm!("", options(nostack, preserves_flags));
    }
}

/// Walk the arena from `r` until a leaf reference; returns that reference.
///
/// # Safety
/// Every non-leaf reference reachable from `r` must be a valid arena index
/// (guaranteed by [`emit`]) and `features` must cover every `feature`
/// index stored in the arena — callers check `features.len() >= arity`
/// once, so the per-level loads can skip bounds checks on the chain.
#[inline]
unsafe fn walk(nodes: &[CompiledNode], mut r: u32, features: &[u64]) -> u32 {
    while r & LEAF_BIT == 0 {
        let n = *nodes.get_unchecked(r as usize);
        if *features.get_unchecked(n.feature as usize) <= n.threshold {
            r = n.left;
        } else {
            branch_barrier();
            r = n.right;
        }
    }
    r
}

/// Like [`walk`] but also counts the comparisons performed: the leaf
/// reference and how many splits were visited on the way to it.
///
/// # Safety
/// Same contract as [`walk`].
#[inline]
unsafe fn walk_cost(nodes: &[CompiledNode], mut r: u32, features: &[u64]) -> (u32, usize) {
    let mut cost = 0;
    while r & LEAF_BIT == 0 {
        let n = *nodes.get_unchecked(r as usize);
        cost += 1;
        if *features.get_unchecked(n.feature as usize) <= n.threshold {
            r = n.left;
        } else {
            branch_barrier();
            r = n.right;
        }
    }
    (r, cost)
}

/// Emit `node`'s splits into `nodes` in preorder; returns the reference
/// that reaches the subtree (an index, or a tagged verdict for a leaf).
fn emit(node: &Node, nodes: &mut Vec<CompiledNode>) -> u32 {
    match node {
        Node::Leaf { label, .. } => leaf_ref(*label),
        Node::Split {
            feature,
            threshold,
            left,
            right,
        } => {
            assert!(*feature < 256, "feature index {feature} exceeds u8 arena");
            let idx = u32::try_from(nodes.len()).expect("arena exceeds u32 indices");
            assert!(idx & LEAF_BIT == 0, "arena exceeds leaf-taggable indices");
            nodes.push(CompiledNode {
                threshold: *threshold,
                left: 0,
                right: 0,
                feature: *feature as u8,
            });
            // Preorder: the left subtree lands at idx + 1, so the hot
            // "<= threshold" path is a sequential read.
            let l = emit(left, nodes);
            let r = emit(right, nodes);
            nodes[idx as usize].left = l;
            nodes[idx as usize].right = r;
            idx
        }
    }
}

/// Highest feature index used by any record, plus one — the minimum
/// feature-slice length a walk may be given. Checked once per call so the
/// per-level loads can go unchecked.
fn arena_arity(nodes: &[CompiledNode]) -> usize {
    nodes
        .iter()
        .map(|n| n.feature as usize + 1)
        .max()
        .unwrap_or(0)
}

/// A [`DecisionTree`] compiled into a flat split arena.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompiledTree {
    nodes: Vec<CompiledNode>,
    /// Root reference: index 0 for any tree with at least one split, a
    /// tagged verdict for a single-leaf tree.
    root: u32,
    depth: usize,
    /// Minimum feature-slice length a classify call must provide.
    arity: usize,
    /// One-u64-per-split shadow arena for the gather-once batch kernels
    /// (see [`crate::simd`]); `None` when the model is outside the packed
    /// envelope. Derived from `nodes` by [`CompiledTree::rederive`].
    packed: Option<PackedArena>,
    /// Exit-leaf scorer of the single-sample paths; `None` where the
    /// arena fails [`CompiledTree::validate`] or unfolds to more than 128
    /// leaves, which then walk. Derived with `packed`.
    scorer: Option<ExitLeafScorer>,
}

impl CompiledTree {
    /// Flatten a trained tree. Pure layout transformation — verdicts and
    /// costs are bit-identical to the boxed walker by construction (and by
    /// the proptest in `tests/compiled_equivalence.rs`).
    pub fn compile(tree: &DecisionTree) -> CompiledTree {
        let mut nodes = Vec::with_capacity(tree.nr_nodes() / 2 + 1);
        let root = emit(&tree.root, &mut nodes);
        let mut compiled = CompiledTree {
            arity: arena_arity(&nodes),
            nodes,
            root,
            depth: tree.depth(),
            packed: None,
            scorer: None,
        };
        compiled.rederive();
        compiled
    }

    /// Rebuild every table derived from the arena — the packed shadow and
    /// the exit-leaf scorer. Every arena mutation ends here, so neither
    /// can go stale.
    fn rederive(&mut self) {
        self.packed = PackedArena::build(&self.nodes, self.arity);
        self.scorer =
            (self.validate().ok()).and_then(|()| ExitLeafScorer::build(&self.nodes, self.root));
    }

    /// Classify one feature vector — same contract as
    /// [`DecisionTree::classify`].
    #[inline]
    pub fn classify(&self, features: &[u64]) -> Label {
        assert!(features.len() >= self.arity, "feature vector too short");
        // SAFETY: arity checked.
        unsafe { self.exit(features) }.0
    }

    /// Comparisons performed — same contract as
    /// [`DecisionTree::classify_cost`].
    #[inline]
    pub fn classify_cost(&self, features: &[u64]) -> usize {
        assert!(features.len() >= self.arity, "feature vector too short");
        // SAFETY: arity checked.
        unsafe { self.exit(features) }.1
    }

    /// [`CompiledTree::classify`] and [`CompiledTree::classify_cost`] from
    /// one lookup, for a caller that wants both (the shim charges the
    /// comparisons a walk takes to reach the verdict).
    #[inline]
    pub fn classify_with_cost(&self, features: &[u64]) -> (Label, usize) {
        assert!(features.len() >= self.arity, "feature vector too short");
        // SAFETY: arity checked.
        unsafe { self.exit(features) }
    }

    /// The exit leaf of `features`: its label and the comparisons a walk
    /// makes to reach it, from the scorer, or from the walk itself where
    /// the arena has none. Every single-sample path, and every row a batch
    /// does not give the kernels, ends here.
    ///
    /// # Safety
    /// `features.len() >= self.arity` (the walk's contract; the scorer
    /// indexes checked).
    #[inline(always)]
    unsafe fn exit(&self, features: &[u64]) -> (Label, usize) {
        match &self.scorer {
            Some(s) => s.score(features),
            // SAFETY: the caller's contract.
            None => unsafe { self.walk_exit(features) },
        }
    }

    /// [`CompiledTree::exit`] of an arena without a scorer, kept out of
    /// line: it is the rare path.
    ///
    /// # Safety
    /// As [`CompiledTree::exit`].
    #[inline(never)]
    unsafe fn walk_exit(&self, features: &[u64]) -> (Label, usize) {
        // SAFETY: emit() produced only in-arena indices; the caller
        // checked arity.
        let (leaf, cost) = unsafe { walk_cost(&self.nodes, self.root, features) };
        (leaf_label(leaf), cost)
    }

    /// Classify a batch, one verdict per input row, with the widest
    /// batch-walk kernel the CPU supports. The call walks each distinct
    /// feature vector once, window by window of up to 1,024 rows as they
    /// first appear, in groups of eight that walk the arena in lockstep
    /// so their load chains overlap; the final short group is padded to
    /// full width with a real vector. A call of fewer than eight rows (one
    /// lane group), and a window with fewer than eight new vectors,
    /// classify those as [`CompiledTree::classify`] does instead, which is
    /// cheaper there.
    /// Accepts `[u64; 5]` rows (the Table-I layout), slices, or anything
    /// slice-like.
    pub fn classify_batch<I: AsRef<[u64]>>(&self, inputs: &[I], out: &mut [Label]) {
        self.classify_batch_with(BatchWalker::Auto, inputs, out);
    }

    /// [`CompiledTree::classify_batch`] with an explicit kernel choice —
    /// benchmarks pin kernels with this, and the equivalence suite uses
    /// [`BatchWalker::Scalar`] as the oracle against the vector paths.
    /// The pinned kernel applies from one lane group (eight rows) up; a
    /// smaller call takes the exact single-sample path whatever `walker`
    /// says, as do chunks outside the packed envelope.
    pub fn classify_batch_with<I: AsRef<[u64]>>(
        &self,
        walker: BatchWalker,
        inputs: &[I],
        out: &mut [Label],
    ) {
        assert_eq!(
            inputs.len(),
            out.len(),
            "classify_batch: inputs and out must have equal length"
        );
        if inputs.is_empty() {
            return;
        }
        for f in inputs {
            assert!(f.as_ref().len() >= self.arity, "feature vector too short");
        }
        self.batch(
            walker,
            out,
            |at, len, words| simd::stage_packed(&inputs[at..at + len], self.arity, words).is_some(),
            // SAFETY: every row was checked against the arity above.
            |i| unsafe { self.exit(inputs[i].as_ref()) }.0,
        );
    }

    /// Classify `n` rows produced on demand by `row(i)` — the
    /// staging-fused batch entry. Rows are packed straight into the
    /// kernel's per-lane feature words, so a caller whose records live
    /// in a different shape (the detector's `FeatureVec`) pays one read
    /// of its fields per record instead of a row-array copy plus a
    /// re-read. Verdicts are identical to materializing the rows and
    /// calling [`CompiledTree::classify_batch`]. `row` is invoked only
    /// with indices in `0..n` (each possibly more than once), which
    /// callers may rely on to skip their own bounds checks.
    pub fn classify_batch_rows<const A: usize>(
        &self,
        walker: BatchWalker,
        n: usize,
        row: impl Fn(usize) -> [u64; A],
        out: &mut [Label],
    ) {
        assert_eq!(
            n,
            out.len(),
            "classify_batch_rows: n and out must have equal length"
        );
        assert!(A >= self.arity, "feature rows too short");
        self.batch(
            walker,
            out,
            // Exact-arity rows stage through the const-unrolled packer;
            // over-wide rows only pack their leading arity fields
            // (trailing features are never compared).
            |at, len, words| {
                let row = |k| row(at + k);
                if self.arity == A {
                    simd::stage_packed_const::<A>(len, row, words).is_some()
                } else {
                    simd::stage_packed_with(len, row, self.arity, words).is_some()
                }
            },
            // SAFETY: A >= arity.
            |i| unsafe { self.exit(&row(i)) }.0,
        );
    }

    /// The tree's side of [`classify_windows`], behind both batch entries:
    /// one lockstep walk per window over the packed words new to the call.
    /// `exact(i)` is the single-sample verdict of row `i`.
    fn batch(
        &self,
        walker: BatchWalker,
        out: &mut [Label],
        stage: impl FnMut(usize, usize, &mut [u64; PACKED_CHUNK]) -> bool,
        exact: impl Fn(usize) -> Label,
    ) {
        let kernel = simd::resolve(walker);
        classify_windows(self.packed.as_ref(), out, stage, exact, |pa, s, new| {
            let lanes = new.len().next_multiple_of(LANES);
            s.refs[..lanes].fill(pa.entry(self.root));
            // SAFETY: packed references are in-bounds by construction;
            // kernel came from resolve().
            unsafe {
                simd::walk_packed(
                    kernel,
                    pa,
                    &mut s.refs[..lanes],
                    &s.words[new.start..new.start + lanes],
                    self.depth,
                )
            };
            for (k, e) in new.enumerate() {
                s.verdict[e] = pa.label(s.refs[k]);
            }
        });
    }

    /// Split records in the arena (the boxed tree's `nr_nodes` counts
    /// leaves too; here leaves cost zero bytes).
    pub fn nr_splits(&self) -> usize {
        self.nodes.len()
    }

    /// Maximum comparisons on any path.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Arena bytes actually touched by walks.
    pub fn arena_bytes(&self) -> usize {
        self.nodes.len() * std::mem::size_of::<CompiledNode>()
    }

    /// Defined (non-padding) bits per arena record, the coordinate space
    /// of [`CompiledTree::flip_bit`].
    pub const NODE_BITS: usize = 136;

    /// Total defined bits in the arena — the fault space a soft error in
    /// the deployed model slab could hit.
    pub fn logical_bits(&self) -> usize {
        self.nodes.len() * Self::NODE_BITS
    }

    /// Flip one bit of one arena record, in the logical field layout
    /// `[threshold:64 | left:32 | right:32 | feature:8]` (136 bits per
    /// record, padding excluded). This is the chaos-injection entry point:
    /// it models a soft error striking the deployed model's memory, the
    /// same single-bit-flip fault model `faultsim::injection` applies to
    /// architectural register state. The corrupted arena is exactly what
    /// [`CompiledTree::validate`] and the fleet's canary swap validation
    /// exist to catch — never deploy one.
    pub fn flip_bit(&mut self, bit: usize) {
        flip_record_bit(&mut self.nodes, bit);
        // Re-derive the shadows so the corruption is visible on the fast
        // paths too — a fault that only struck a stale copy would vanish
        // instead of being caught by validate()/canary layers.
        self.rederive();
    }

    /// Structural integrity check over the arena — the deploy-time gate
    /// in front of the `unsafe` unchecked walkers.
    ///
    /// `emit` guarantees these invariants by construction; a bit flip in
    /// a stored child reference or feature index silently breaks them, and
    /// the unchecked walk would then read out of bounds. `validate`
    /// re-proves, in O(arena):
    ///
    /// * every child reference is either a well-formed leaf tag (only the
    ///   label bit set below [`LEAF_BIT`]) or an in-bounds index;
    /// * every index reference points strictly forward (preorder), so
    ///   walks terminate and the arena is acyclic;
    /// * every feature index is below the recorded arity, so walks stay
    ///   inside the feature slice;
    /// * the recorded depth matches the longest root path — the lockstep
    ///   batch walker runs exactly `depth` rounds, so an understated depth
    ///   would truncate walks (wrong verdicts, not UB).
    ///
    /// Semantic corruption (a flipped threshold or swapped children) keeps
    /// the structure valid; catching it takes canary classification
    /// against a reference walker, which is the fleet model-swap layer's
    /// job.
    pub fn validate(&self) -> Result<(), ArenaFault> {
        if self.nodes.is_empty() {
            if !is_leaf_tag(self.root) {
                return Err(ArenaFault::MalformedLeaf {
                    parent: 0,
                    reference: self.root,
                });
            }
        } else if self.root != 0 {
            // emit() always lands the first split at index 0.
            return Err(ArenaFault::BadRoot {
                reference: self.root,
            });
        }
        validate_records(&self.nodes, self.arity, self.depth)
    }
}

/// Whether `r` is a well-formed leaf reference: [`LEAF_BIT`] and at most
/// the label bit.
fn is_leaf_tag(r: u32) -> bool {
    r & LEAF_BIT != 0 && r & !(LEAF_BIT | 1) == 0
}

/// [`CompiledTree::flip_bit`]'s fault on a record arena, in the same
/// logical coordinates.
fn flip_record_bit(nodes: &mut [CompiledNode], bit: usize) {
    const BITS: usize = CompiledTree::NODE_BITS;
    assert!(bit < nodes.len() * BITS, "bit {bit} outside the arena");
    let node = &mut nodes[bit / BITS];
    match bit % BITS {
        b @ 0..=63 => node.threshold ^= 1u64 << b,
        b @ 64..=95 => node.left ^= 1u32 << (b - 64),
        b @ 96..=127 => node.right ^= 1u32 << (b - 96),
        b => node.feature ^= 1u8 << (b - 128),
    }
}

/// The record checks of [`CompiledTree::validate`], for a tree's arena or
/// a forest's shared one: well-formed forward references, features below
/// `arity`, and `depth` equal to the longest path from any record.
fn validate_records(nodes: &[CompiledNode], arity: usize, depth: usize) -> Result<(), ArenaFault> {
    let check_ref = |parent: usize, r: u32| -> Result<(), ArenaFault> {
        if r & LEAF_BIT != 0 {
            if !is_leaf_tag(r) {
                return Err(ArenaFault::MalformedLeaf {
                    parent,
                    reference: r,
                });
            }
        } else if r as usize >= nodes.len() {
            return Err(ArenaFault::OutOfBounds {
                parent,
                reference: r,
            });
        } else if r as usize <= parent {
            return Err(ArenaFault::BackwardEdge {
                parent,
                reference: r,
            });
        }
        Ok(())
    };
    for (i, n) in nodes.iter().enumerate() {
        check_ref(i, n.left)?;
        check_ref(i, n.right)?;
        if n.feature as usize >= arity {
            return Err(ArenaFault::FeatureOutOfRange {
                parent: i,
                feature: n.feature,
                arity,
            });
        }
    }
    // Forward-only references make the arena a DAG over increasing
    // indices, so one pass in index order computes the longest path
    // without recursion. Every record of a compiled model lies on a path
    // from its root, so this is the longest root path.
    let mut path_len = vec![0usize; nodes.len()];
    let mut max_depth = 0usize;
    for (i, n) in nodes.iter().enumerate() {
        let here = path_len[i] + 1; // comparisons on paths through i
        for r in [n.left, n.right] {
            if r & LEAF_BIT != 0 {
                max_depth = max_depth.max(here);
            } else {
                let c = r as usize;
                path_len[c] = path_len[c].max(here);
            }
        }
    }
    if max_depth != depth {
        return Err(ArenaFault::DepthMismatch {
            recorded: depth,
            actual: max_depth,
        });
    }
    Ok(())
}

/// Why [`CompiledTree::validate`] or [`CompiledForest::validate`]
/// rejected an arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArenaFault {
    /// A leaf-tagged reference carries bits other than the label bit.
    MalformedLeaf { parent: usize, reference: u32 },
    /// An index reference points past the end of the arena.
    OutOfBounds { parent: usize, reference: u32 },
    /// An index reference points at or before its parent (cycle risk).
    BackwardEdge { parent: usize, reference: u32 },
    /// The root reference is not record 0 of a non-empty arena.
    BadRoot { reference: u32 },
    /// A record's feature index exceeds the recorded arity.
    FeatureOutOfRange {
        parent: usize,
        feature: u8,
        arity: usize,
    },
    /// The recorded depth disagrees with the longest root path.
    DepthMismatch { recorded: usize, actual: usize },
}

impl std::fmt::Display for ArenaFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArenaFault::MalformedLeaf { parent, reference } => {
                write!(
                    f,
                    "record {parent}: malformed leaf reference {reference:#010x}"
                )
            }
            ArenaFault::OutOfBounds { parent, reference } => {
                write!(
                    f,
                    "record {parent}: child reference {reference} out of bounds"
                )
            }
            ArenaFault::BackwardEdge { parent, reference } => {
                write!(f, "record {parent}: backward child reference {reference}")
            }
            ArenaFault::BadRoot { reference } => {
                write!(f, "root reference {reference:#010x} is not record 0")
            }
            ArenaFault::FeatureOutOfRange {
                parent,
                feature,
                arity,
            } => write!(
                f,
                "record {parent}: feature index {feature} outside arity {arity}"
            ),
            ArenaFault::DepthMismatch { recorded, actual } => {
                write!(
                    f,
                    "recorded depth {recorded} != actual longest path {actual}"
                )
            }
        }
    }
}

impl std::error::Error for ArenaFault {}

/// Rows a batch stages and maps to entries as one set (16 staging
/// chunks); the entries new in a window are walked together, so a
/// forest's survivors, thinned once most verdicts are decided, still
/// fill whole 64-lane pieces.
const WINDOW: usize = 16 * PACKED_CHUNK;

/// Entries one call keeps: four windows' worth of distinct packed words
/// and their verdicts, shared by every window of the call. A window that
/// could overflow them starts the table over, so its rows walk again.
const ENTRIES: usize = 4 * WINDOW;

/// Dedup table slots: a power of two, four per entry.
const SLOT_BITS: u32 = 14;

/// `Scratch::row_entry` of a row in a refused chunk.
const EXACT: u16 = u16::MAX;

/// One thread's batch working set, reused by every call on the thread
/// so that a call allocates and clears nothing. A call's rows map to
/// *entries*, one per distinct packed word, which is what gets walked:
/// at most [`ENTRIES`] (the table starts over rather than grows, and
/// `u16` indices name them), counted from zero in every call, so an entry
/// and its verdict live as long as the call, no longer.
struct Scratch {
    /// Packed word of each entry: the dedup keys of the whole call. A
    /// window's new entries are walked from here, padded past the last.
    words: [u64; ENTRIES],
    /// Verdict of each entry.
    verdict: [Label; ENTRIES],
    /// Single-probe table, slot of a word → entry. Never cleared: a slot
    /// counts only while it names an entry of the current call that
    /// holds the same word, so a stale slot (from an earlier call, or
    /// from before the table started over) can cost a shared walk, never
    /// a verdict.
    slots: [u16; 1 << SLOT_BITS],
    /// Entry of each window row, or [`EXACT`].
    row_entry: [u16; WINDOW],
    /// Window row that created each of the window's new entries, counted
    /// from the window's first new entry.
    origin: [u16; WINDOW],
    /// One staging chunk's packed words.
    chunk: [u64; PACKED_CHUNK],
    refs: [u32; WINDOW],
    /// The forest's live set: packed word, entry and `Incorrect` votes of
    /// each undecided lane. Compacted here, never in `words`, whose keys
    /// the call's later windows still look up.
    live_words: [u64; WINDOW],
    live_entry: [u16; WINDOW],
    votes: [u32; WINDOW],
}

impl Scratch {
    fn new() -> Box<Scratch> {
        Box::new(Scratch {
            words: [0; ENTRIES],
            verdict: [Label::Correct; ENTRIES],
            slots: [0; 1 << SLOT_BITS],
            row_entry: [0; WINDOW],
            origin: [0; WINDOW],
            chunk: [0; PACKED_CHUNK],
            refs: [0; WINDOW],
            live_words: [0; WINDOW],
            live_entry: [0; WINDOW],
            votes: [0; WINDOW],
        })
    }
}

thread_local! {
    static SCRATCH: RefCell<Box<Scratch>> = RefCell::new(Scratch::new());
}

/// The batch engines' one window loop, shared by the tree and the forest.
/// A call walks each distinct packed word once, so its cost per row
/// follows the call's distinct share. Each window of up to [`WINDOW`]
/// rows is staged chunk by chunk:
/// `stage(at, len, chunk)` packs rows `at..at + len`, or refuses a chunk
/// holding a value above 12 bits, whose rows then take `exact(row)`. Each
/// staged row is mapped to the entry holding its packed word, adding one
/// when the word is new to the call or its slot names another word (one
/// probe per row, no probe loop). Entries persist across the call's
/// windows, up to [`ENTRIES`] of them (a window that could overflow them
/// starts the table over), so only a window's *new* entries are given
/// verdicts: `walk(pa, scratch, new)` walks them when there are
/// at least [`LANES`], and below one lane group each takes `exact` through
/// the row that created it, as a whole call of fewer rows does below; a
/// window with no new entry walks nothing. The
/// rows then copy their entries' verdicts. Sharing a verdict is exact by
/// construction: an in-envelope word holds a row's every compared feature
/// value. Without a packed shadow, and in a call of fewer than [`LANES`]
/// rows, every row takes `exact`: below one lane group the staging, the
/// dedup and the padded group's every round cost more than the rows' own
/// single-sample verdicts (a 1-row call ~220 ns against ~35 ns for a walk
/// of a depth-19 tree, ~10 ns for its scorer), and the fleet drains its
/// records a few at a time at low load.
fn classify_windows(
    packed: Option<&PackedArena>,
    out: &mut [Label],
    mut stage: impl FnMut(usize, usize, &mut [u64; PACKED_CHUNK]) -> bool,
    exact: impl Fn(usize) -> Label,
    mut walk: impl FnMut(&PackedArena, &mut Scratch, Range<usize>),
) {
    let Some(pa) = packed.filter(|_| out.len() >= LANES) else {
        for (i, o) in out.iter_mut().enumerate() {
            *o = exact(i);
        }
        return;
    };
    let mut run = |s: &mut Scratch| {
        let mut entries = 0;
        for (w, win) in out.chunks_mut(WINDOW).enumerate() {
            let at = w * WINDOW;
            if entries + WINDOW > ENTRIES {
                entries = 0;
            }
            let first = entries;
            for c in (0..win.len()).step_by(PACKED_CHUNK) {
                let len = (win.len() - c).min(PACKED_CHUNK);
                let rows = &mut s.row_entry[c..c + len];
                if !stage(at + c, len, &mut s.chunk) {
                    rows.fill(EXACT);
                    continue;
                }
                for (k, (e, &word)) in rows.iter_mut().zip(&s.chunk).enumerate() {
                    let hash = word.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> (64 - SLOT_BITS);
                    let slot = &mut s.slots[hash as usize];
                    let known = *slot as usize;
                    *e = if known < entries && s.words[known] == word {
                        known as u16
                    } else {
                        s.words[entries] = word;
                        s.origin[entries - first] = (c + k) as u16;
                        *slot = entries as u16;
                        entries += 1;
                        *slot
                    };
                }
            }
            let new = first..entries;
            if new.len() >= LANES {
                // Pad the last 8-lane group with a real word, so no
                // padding lane walks longer than the entries do.
                let last = s.words[entries - 1];
                s.words[entries..first + new.len().next_multiple_of(LANES)].fill(last);
                walk(pa, s, new);
            } else {
                for e in new {
                    s.verdict[e] = exact(at + s.origin[e - first] as usize);
                }
            }
            for (k, (o, &e)) in win.iter_mut().zip(&s.row_entry).enumerate() {
                *o = if e == EXACT {
                    exact(at + k)
                } else {
                    s.verdict[e as usize]
                };
            }
        }
    };
    SCRATCH.with(|cell| match cell.try_borrow_mut() {
        Ok(mut s) => run(&mut s),
        // A row producer that classifies a batch itself: the outer call
        // holds this thread's scratch, so the inner one gets its own.
        Err(_) => run(&mut Scratch::new()),
    })
}

/// A [`RandomForest`] compiled into one shared arena.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompiledForest {
    nodes: Vec<CompiledNode>,
    /// One root reference per tree, into the shared arena.
    roots: Vec<u32>,
    vote_threshold: usize,
    /// Minimum feature-slice length a classify call must provide.
    arity: usize,
    /// Deepest member tree — the lockstep round count for batch walks.
    max_depth: usize,
    /// Packed shadow of the shared arena (see [`CompiledTree`]).
    packed: Option<PackedArena>,
}

impl CompiledForest {
    /// Flatten every tree into a single contiguous arena.
    pub fn compile(forest: &RandomForest) -> CompiledForest {
        let mut nodes = Vec::new();
        let roots = forest
            .trees
            .iter()
            .map(|t| emit(&t.root, &mut nodes))
            .collect();
        let mut compiled = CompiledForest {
            arity: arena_arity(&nodes),
            nodes,
            roots,
            vote_threshold: forest.vote_threshold,
            max_depth: forest.trees.iter().map(|t| t.depth()).max().unwrap_or(0),
            packed: None,
        };
        compiled.rederive();
        compiled
    }

    /// Rebuild the packed shadow from the shared arena, as
    /// [`CompiledTree`] does its shadows (a forest has no exit-leaf
    /// scorer).
    fn rederive(&mut self) {
        self.packed = PackedArena::build(&self.nodes, self.arity);
    }

    /// Number of trees voting `Incorrect` — same contract as
    /// [`RandomForest::incorrect_votes`] (always walks every tree).
    pub fn incorrect_votes(&self, features: &[u64]) -> usize {
        assert!(features.len() >= self.arity, "feature vector too short");
        self.roots
            .iter()
            // SAFETY: emit() produced only in-arena indices; arity checked.
            .filter(|&&r| leaf_label(unsafe { walk(&self.nodes, r, features) }) == Label::Incorrect)
            .count()
    }

    /// The vote rule both classify paths share: with `votes` `Incorrect`
    /// votes counted and `trees_left` trees still to walk, the verdict once
    /// it is decided either way (the threshold reached, or out of reach),
    /// `None` while the remaining trees could still tip it. Always `Some`
    /// at `trees_left == 0`, where it is [`RandomForest::classify`]'s
    /// full-count verdict.
    #[inline]
    fn decided(&self, votes: usize, trees_left: usize) -> Option<Label> {
        if votes >= self.vote_threshold {
            Some(Label::Incorrect)
        } else if votes + trees_left < self.vote_threshold {
            Some(Label::Correct)
        } else {
            None
        }
    }

    /// Majority-vote classification, early-exiting as soon as the verdict
    /// is decided: the rule is asked before every tree, the first
    /// included, so a threshold of 0 (or one above the tree count) walks
    /// no tree at all. The label is provably identical to counting every
    /// vote, which the equivalence proptest checks.
    pub fn classify(&self, features: &[u64]) -> Label {
        assert!(features.len() >= self.arity, "feature vector too short");
        let total = self.roots.len();
        let mut votes = 0usize;
        for (i, &r) in self.roots.iter().enumerate() {
            if let Some(label) = self.decided(votes, total - i) {
                return label;
            }
            // SAFETY: emit() produced only in-arena indices; arity checked.
            let leaf = unsafe { walk(&self.nodes, r, features) };
            votes += (leaf_label(leaf) == Label::Incorrect) as usize;
        }
        self.decided(votes, 0)
            .expect("every tree walked decides the vote")
    }

    /// Total comparisons across *all* trees — same contract as
    /// [`RandomForest::classify_cost`], so no early exit here.
    pub fn classify_cost(&self, features: &[u64]) -> usize {
        assert!(features.len() >= self.arity, "feature vector too short");
        self.roots
            .iter()
            // SAFETY: emit() produced only in-arena indices; arity checked.
            .map(|&r| unsafe { walk_cost(&self.nodes, r, features) }.1)
            .sum()
    }

    /// Batch classification with the single-sample early exit. Each window
    /// of up to 1,024 rows is staged into packed feature words once and
    /// mapped onto the distinct words of the whole call; the words new in
    /// the window are walked tree by tree in arena order, the *live* ones
    /// only, in lockstep groups of eight on the widest kernel the CPU
    /// supports. After each tree a word whose vote is decided (the rule
    /// [`CompiledForest::classify`] uses) takes its verdict, shared by its
    /// rows in this window and every later one, and leaves; the survivors
    /// are compacted to the front of the live set, so the next tree walks
    /// only undecided lanes. A chunk outside the packed envelope, a
    /// forest with no packed shadow, a call of fewer than eight rows (one
    /// lane group) and a window with fewer than eight new words are
    /// classified row (or word) by row by [`CompiledForest::classify`]
    /// itself.
    pub fn classify_batch<I: AsRef<[u64]>>(&self, inputs: &[I], out: &mut [Label]) {
        self.classify_batch_with(BatchWalker::Auto, inputs, out);
    }

    /// [`CompiledForest::classify_batch`] with an explicit kernel choice,
    /// under the same contract as [`CompiledTree::classify_batch_with`]:
    /// the kernel applies from one lane group up.
    pub fn classify_batch_with<I: AsRef<[u64]>>(
        &self,
        walker: BatchWalker,
        inputs: &[I],
        out: &mut [Label],
    ) {
        assert_eq!(
            inputs.len(),
            out.len(),
            "classify_batch: inputs and out must have equal length"
        );
        for f in inputs {
            assert!(f.as_ref().len() >= self.arity, "feature vector too short");
        }
        let kernel = simd::resolve(walker);
        classify_windows(
            self.packed.as_ref(),
            out,
            |at, len, words| simd::stage_packed(&inputs[at..at + len], self.arity, words).is_some(),
            |i| self.classify(inputs[i].as_ref()),
            |pa, s, new| {
                let mut live = new.len();
                let lanes = live.next_multiple_of(LANES);
                s.live_words[..lanes].copy_from_slice(&s.words[new.start..new.start + lanes]);
                for (k, e) in s.live_entry[..live].iter_mut().enumerate() {
                    *e = (new.start + k) as u16;
                }
                s.votes[..live].fill(0);
                for (t, &root) in self.roots.iter().enumerate() {
                    if live == 0 {
                        break;
                    }
                    // Padding lanes walk stale words harmlessly and are
                    // never read back.
                    let lanes = live.next_multiple_of(LANES);
                    s.refs[..lanes].fill(pa.entry(root));
                    // SAFETY: packed references are in-bounds by
                    // construction; kernel came from resolve().
                    unsafe {
                        simd::walk_packed(
                            kernel,
                            pa,
                            &mut s.refs[..lanes],
                            &s.live_words[..lanes],
                            self.max_depth,
                        )
                    };
                    let trees_left = self.roots.len() - t - 1;
                    let mut kept = 0;
                    for k in 0..live {
                        let v = s.votes[k] + pa.vote(s.refs[k]);
                        match self.decided(v as usize, trees_left) {
                            Some(label) => s.verdict[s.live_entry[k] as usize] = label,
                            None => {
                                s.live_words[kept] = s.live_words[k];
                                s.live_entry[kept] = s.live_entry[k];
                                s.votes[kept] = v;
                                kept += 1;
                            }
                        }
                    }
                    live = kept;
                }
            },
        );
    }

    /// Total defined bits in the shared arena, in
    /// [`CompiledTree::NODE_BITS`] per record.
    pub fn logical_bits(&self) -> usize {
        self.nodes.len() * CompiledTree::NODE_BITS
    }

    /// Flip one bit of the shared arena — [`CompiledTree::flip_bit`] for
    /// an ensemble, same coordinates, packed shadow re-derived.
    pub fn flip_bit(&mut self, bit: usize) {
        flip_record_bit(&mut self.nodes, bit);
        self.rederive();
    }

    /// [`CompiledTree::validate`] for an ensemble: the shared arena's
    /// records pass the tree's checks, and the recorded deepest tree — the
    /// batch walk's round count — matches the longest path. The root
    /// references live outside the arena, where [`CompiledForest::flip_bit`]
    /// cannot reach them.
    pub fn validate(&self) -> Result<(), ArenaFault> {
        validate_records(&self.nodes, self.arity, self.max_depth)
    }

    /// Trees in the ensemble.
    pub fn nr_trees(&self) -> usize {
        self.roots.len()
    }

    /// Split records across all trees.
    pub fn nr_splits(&self) -> usize {
        self.nodes.len()
    }

    /// Votes required for an `Incorrect` verdict.
    pub fn vote_threshold(&self) -> usize {
        self.vote_threshold
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::{Dataset, Sample};
    use crate::forest::ForestConfig;
    use crate::tree::TrainConfig;
    use proptest::prelude::*;

    fn mixed_dataset(n: usize) -> Dataset {
        let mut ds = Dataset::new(&["a", "b", "c"]);
        for i in 0..n as u64 {
            let label = if (i * 13 + 5) % 7 < 2 {
                Label::Incorrect
            } else {
                Label::Correct
            };
            ds.push(Sample::new(vec![i % 31, (i * 3) % 53, i % 11], label));
        }
        ds
    }

    #[test]
    fn record_layout_is_24_bytes() {
        assert_eq!(std::mem::size_of::<CompiledNode>(), 24);
    }

    #[test]
    fn compiled_tree_matches_boxed_on_training_data() {
        let ds = mixed_dataset(300);
        let tree = DecisionTree::train(&ds, &TrainConfig::decision_tree());
        let compiled = CompiledTree::compile(&tree);
        assert_eq!(compiled.depth(), tree.depth());
        for s in &ds.samples {
            assert_eq!(compiled.classify(&s.features), tree.classify(&s.features));
            assert_eq!(
                compiled.classify_cost(&s.features),
                tree.classify_cost(&s.features)
            );
        }
    }

    #[test]
    fn validate_accepts_every_trained_arena() {
        for n in [20, 100, 300] {
            let ds = mixed_dataset(n);
            let tree = DecisionTree::train(&ds, &TrainConfig::decision_tree());
            CompiledTree::compile(&tree).validate().unwrap();
        }
        // Single-leaf arena too.
        let mut ds = Dataset::new(&["x"]);
        for i in 0..4u64 {
            ds.push(Sample::new(vec![i], Label::Correct));
        }
        let tree = DecisionTree::train(&ds, &TrainConfig::decision_tree());
        CompiledTree::compile(&tree).validate().unwrap();
    }

    #[test]
    fn validate_catches_reference_and_feature_flips() {
        let ds = mixed_dataset(300);
        let tree = DecisionTree::train(&ds, &TrainConfig::decision_tree());
        let compiled = CompiledTree::compile(&tree);
        assert!(compiled.nr_splits() > 3, "need a multi-split tree");

        // A high bit flipped into a child index sends it out of bounds
        // (or turns it into a malformed leaf tag).
        let mut corrupt = compiled.clone();
        corrupt.flip_bit(64 + 30); // record 0, left reference bit 30
        assert!(corrupt.validate().is_err(), "{:?}", corrupt.validate());

        // A feature-index flip escapes the arity.
        let mut corrupt = compiled.clone();
        corrupt.flip_bit(128 + 7); // record 0, feature bit 7
        assert!(matches!(
            corrupt.validate(),
            Err(ArenaFault::FeatureOutOfRange { .. })
        ));

        // Structural validation is deliberately blind to threshold flips —
        // the canary layer owns those.
        let mut corrupt = compiled.clone();
        corrupt.flip_bit(63); // record 0, threshold high bit
        corrupt.validate().unwrap();
        let diverged = ds
            .samples
            .iter()
            .any(|s| corrupt.classify(&s.features) != compiled.classify(&s.features));
        assert!(diverged, "a threshold high-bit flip must change verdicts");
    }

    #[test]
    fn validate_accepts_every_compiled_forest() {
        for threshold in [0, 8, 16] {
            let mut cfg = ForestConfig::default_random_forest(3, 23);
            cfg.vote_threshold = Some(threshold);
            let compiled = CompiledForest::compile(&RandomForest::train(&mixed_dataset(240), &cfg));
            compiled.validate().unwrap();
            let mut corrupt = compiled.clone();
            corrupt.flip_bit(64 + 30); // record 0, left reference bit 30
            assert!(corrupt.validate().is_err());
            corrupt.flip_bit(64 + 30);
            assert_eq!(corrupt, compiled);
        }
    }

    #[test]
    fn flip_bit_round_trips() {
        let ds = mixed_dataset(120);
        let tree = DecisionTree::train(&ds, &TrainConfig::decision_tree());
        let compiled = CompiledTree::compile(&tree);
        for bit in [0, 63, 64, 95, 96, 127, 128, 135] {
            let mut c = compiled.clone();
            c.flip_bit(bit);
            assert_ne!(c.nodes[0], compiled.nodes[0], "bit {bit} must land");
            c.flip_bit(bit);
            assert_eq!(c, compiled, "double flip of bit {bit} must restore");
        }
    }

    #[test]
    fn single_leaf_tree_compiles_to_empty_arena() {
        let mut ds = Dataset::new(&["x"]);
        for i in 0..10u64 {
            ds.push(Sample::new(vec![i], Label::Incorrect));
        }
        let tree = DecisionTree::train(&ds, &TrainConfig::decision_tree());
        let compiled = CompiledTree::compile(&tree);
        assert_eq!(compiled.nr_splits(), 0);
        assert_eq!(compiled.classify(&[5]), Label::Incorrect);
        assert_eq!(compiled.classify_cost(&[5]), 0);
    }

    #[test]
    fn preorder_left_child_is_next_record() {
        let ds = mixed_dataset(300);
        let tree = DecisionTree::train(&ds, &TrainConfig::decision_tree());
        let compiled = CompiledTree::compile(&tree);
        assert!(compiled.nr_splits() > 1, "need a multi-split tree");
        for (i, n) in compiled.nodes.iter().enumerate() {
            if n.left & LEAF_BIT == 0 {
                assert_eq!(n.left as usize, i + 1, "left child must follow its parent");
            }
        }
    }

    #[test]
    fn batch_matches_single_sample() {
        let ds = mixed_dataset(200);
        let tree = DecisionTree::train(&ds, &TrainConfig::decision_tree());
        let compiled = CompiledTree::compile(&tree);
        let rows: Vec<&[u64]> = ds.samples.iter().map(|s| s.features.as_slice()).collect();
        let mut out = vec![Label::Correct; rows.len()];
        compiled.classify_batch(&rows, &mut out);
        for (s, o) in ds.samples.iter().zip(out) {
            assert_eq!(o, compiled.classify(&s.features));
        }
    }

    /// Models wider than the packed word (6 and 9 features: no shadow
    /// arena) are served by the row-by-row fallback from all three batch
    /// entries, on every walker and every tail length.
    #[test]
    fn models_without_a_packed_shadow_match_the_boxed_walkers() {
        for nf in [6usize, 9] {
            let names: Vec<String> = (0..nf).map(|j| format!("f{j}")).collect();
            let mut ds = Dataset::new(&names.iter().map(String::as_str).collect::<Vec<_>>());
            for i in 0..400u64 {
                let f: Vec<u64> = (0..nf as u64)
                    .map(|j| {
                        i.wrapping_mul(0x9e37_79b9_7f4a_7c15)
                            .rotate_left(11 * j as u32)
                            % 97
                    })
                    .collect();
                // The label hangs on the last column, so the arity is nf.
                let bad = (f[nf - 1] > 48) != (f[0] > 30);
                let label = [Label::Correct, Label::Incorrect][bad as usize];
                ds.push(Sample::new(f, label));
            }
            let tree = DecisionTree::train(&ds, &TrainConfig::decision_tree());
            let forest = RandomForest::train(&ds, &ForestConfig::default_random_forest(nf, 17));
            let (ct, cf) = (
                CompiledTree::compile(&tree),
                CompiledForest::compile(&forest),
            );
            assert!(ct.packed.is_none() && cf.packed.is_none(), "{nf} features");
            let rows: Vec<[u64; 9]> = (ds.samples.iter())
                .map(|s| std::array::from_fn(|j| s.features.get(j).copied().unwrap_or(0)))
                .collect();
            let by_tree: Vec<Label> = rows.iter().map(|r| tree.classify(r)).collect();
            let by_forest: Vec<Label> = rows.iter().map(|r| forest.classify(r)).collect();
            for walker in [
                BatchWalker::Scalar,
                BatchWalker::Avx2,
                BatchWalker::Avx512,
                BatchWalker::Auto,
            ] {
                for n in (1..=9).chain([rows.len()]) {
                    let mut got = vec![Label::Correct; n];
                    ct.classify_batch_with(walker, &rows[..n], &mut got);
                    assert_eq!(got, by_tree[..n]);
                    got.fill(Label::Correct);
                    ct.classify_batch_rows::<9>(walker, n, |i| rows[i], &mut got);
                    assert_eq!(got, by_tree[..n]);
                    cf.classify_batch_with(walker, &rows[..n], &mut got);
                    assert_eq!(got, by_forest[..n]);
                }
            }
        }
    }

    /// Swap every leaf label of `nodes`: the same structure and depths,
    /// the opposite verdict on every path.
    fn invert_leaves(nodes: &mut [CompiledNode]) {
        for n in nodes {
            for r in [&mut n.left, &mut n.right] {
                if *r & LEAF_BIT != 0 {
                    *r ^= 1;
                }
            }
        }
    }

    /// A tree and a forest trained on [`mixed_dataset`], each beside its
    /// leaf-inverted twin and a *probe*: the model with the twin's packed
    /// shadow, so a probe answers as the twin for a word its kernels walk
    /// and as the model where it takes the exact path (the tree's scorer,
    /// the forest's walk). This makes the path each verdict took visible.
    struct Probes {
        model: (CompiledTree, CompiledForest),
        twin: (CompiledTree, CompiledForest),
        probe: (CompiledTree, CompiledForest),
    }

    impl Probes {
        fn new() -> Probes {
            let ds = mixed_dataset(300);
            let tree = DecisionTree::train(&ds, &TrainConfig::decision_tree());
            let forest = RandomForest::train(&ds, &ForestConfig::default_random_forest(3, 17));
            let model = (
                CompiledTree::compile(&tree),
                CompiledForest::compile(&forest),
            );
            let mut twin = model.clone();
            invert_leaves(&mut twin.0.nodes);
            invert_leaves(&mut twin.1.nodes);
            twin.0.rederive();
            twin.1.rederive();
            let mut probe = model.clone();
            probe.0.packed = twin.0.packed.clone();
            probe.1.packed = twin.1.packed.clone();
            Probes { model, twin, probe }
        }

        /// Labels of `rows` from the tree and the forest of the twin where
        /// `walked(i)`, of the model elsewhere; every row must tell the two
        /// apart.
        fn expect(&self, rows: &[[u64; 3]], walked: impl Fn(usize) -> bool) -> [Vec<Label>; 2] {
            let (mut tree, mut forest) = (Vec::new(), Vec::new());
            for (i, r) in rows.iter().enumerate() {
                assert_ne!(self.model.0.classify(r), self.twin.0.classify(r));
                assert_ne!(self.model.1.classify(r), self.twin.1.classify(r));
                let by = if walked(i) { &self.twin } else { &self.model };
                tree.push(by.0.classify(r));
                forest.push(by.1.classify(r));
            }
            [tree, forest]
        }

        /// The probes' labels of `rows` from all three batch entries.
        fn check(&self, walker: BatchWalker, rows: &[[u64; 3]], want: &[Vec<Label>; 2]) {
            let (n, (tree, forest)) = (rows.len(), &self.probe);
            let mut got = vec![Label::Correct; n];
            tree.classify_batch_with(walker, rows, &mut got);
            assert_eq!(got, want[0], "tree, {walker:?}, {n} rows");
            tree.classify_batch_rows::<3>(walker, n, |i| rows[i], &mut got);
            assert_eq!(got, want[0], "tree rows, {walker:?}, {n} rows");
            forest.classify_batch_with(walker, rows, &mut got);
            assert_eq!(got, want[1], "forest, {walker:?}, {n} rows");
        }
    }

    /// The first `n` rows of [`mixed_dataset`], all distinct.
    fn mixed_rows(n: usize) -> Vec<[u64; 3]> {
        (mixed_dataset(n).samples.iter())
            .map(|s| [s.features[0], s.features[1], s.features[2]])
            .collect()
    }

    const ALL_WALKERS: [BatchWalker; 4] = [
        BatchWalker::Scalar,
        BatchWalker::Avx2,
        BatchWalker::Avx512,
        BatchWalker::Auto,
    ];

    /// Calls of fewer than `LANES` rows walk singly, and every larger one
    /// of as many distinct words — partial lane groups of 9–15 rows
    /// included — through the padded kernels, on every walker and from
    /// all three batch entries. A call of more rows but fewer distinct
    /// words than one lane group has fewer new entries than that, so
    /// those take the exact path too, each through the row that made it.
    #[test]
    fn calls_below_one_lane_group_walk_singly_and_larger_ones_take_the_kernels() {
        let p = Probes::new();
        let rows = mixed_rows(2 * LANES + 1);
        let few: Vec<[u64; 3]> = (0..3 * LANES).map(|i| rows[i % (LANES - 1)]).collect();
        for walker in ALL_WALKERS {
            for n in 1..=rows.len() {
                let want = p.expect(&rows[..n], |_| n >= LANES);
                p.check(walker, &rows[..n], &want);
            }
            let want = p.expect(&few, |_| false);
            p.check(walker, &few, &want);
        }
    }

    /// One call's windows share their entries: a word walked in an
    /// earlier window is not walked again, a window whose new words fill
    /// a lane group walks them, and one with fewer new words takes the
    /// exact path for each. Across ten windows (the last ragged), on every
    /// walker: the first window brings 40 words, later ones repeat six of
    /// them each, the fifth adds twelve new words and the last three. The
    /// forest's words are decided at different trees, so its survivors are
    /// compacted past earlier words, which later windows still look up.
    /// Then a call whose entries outgrow the table: four windows of
    /// all-distinct words fill it, so the fifth starts it over, and three
    /// words of the first window are new again there.
    #[test]
    fn windows_of_one_call_walk_only_the_words_new_to_it() {
        let p = Probes::new();
        let words = mixed_rows(55);
        let slot = |r: &[u64; 3]| {
            let mut packed = [0; PACKED_CHUNK];
            simd::stage_packed(&[r], 3, &mut packed).unwrap();
            packed[0].wrapping_mul(0x9e37_79b9_7f4a_7c15) >> (64 - SLOT_BITS)
        };
        let mut slots: Vec<u64> = words.iter().map(slot).collect();
        slots.sort_unstable();
        slots.dedup();
        assert_eq!(slots.len(), words.len(), "the words need a dedup slot each");
        let mut ids: Vec<usize> = Vec::new();
        for w in 0..10 {
            let len = if w == 9 { 100 } else { WINDOW };
            ids.extend((0..len).map(|k| match (w, k) {
                (0, _) => k % 40,
                (4, 500..=511) => 40 + k - 500,
                (9, 50..=52) => 52 + k - 50,
                _ => (5 * w + k % 6) % 40,
            }));
        }
        // A word is walked iff the window that first holds it brings at
        // least a lane group of new words.
        let mut walked = [false; 55];
        let mut seen = [false; 55];
        for win in ids.chunks(WINDOW) {
            let mut new: Vec<usize> = win.iter().copied().filter(|&id| !seen[id]).collect();
            new.sort_unstable();
            new.dedup();
            for &id in &new {
                (seen[id], walked[id]) = (true, new.len() >= LANES);
            }
        }
        assert_eq!(walked.iter().filter(|&&w| !w).count(), 3);
        let rows: Vec<[u64; 3]> = ids.iter().map(|&id| words[id]).collect();
        let want = p.expect(&rows, |i| walked[ids[i]]);
        for walker in ALL_WALKERS {
            p.check(walker, &rows, &want);
        }

        let distinct = |i: u64| [i & 0xfff, (i * 7) & 0xfff, i >> 12];
        let rows: Vec<[u64; 3]> = (0..ENTRIES as u64)
            .map(distinct)
            .chain((0..WINDOW as u64).map(|k| distinct(k % 3)))
            .collect();
        let want = p.expect(&rows, |i| i < ENTRIES);
        for walker in ALL_WALKERS {
            p.check(walker, &rows, &want);
        }
    }

    #[test]
    fn compiled_forest_matches_boxed() {
        let ds = mixed_dataset(240);
        let forest = RandomForest::train(&ds, &ForestConfig::default_random_forest(3, 17));
        let compiled = CompiledForest::compile(&forest);
        assert_eq!(compiled.nr_trees(), forest.trees.len());
        let mut out = vec![Label::Correct; ds.len()];
        let rows: Vec<&[u64]> = ds.samples.iter().map(|s| s.features.as_slice()).collect();
        compiled.classify_batch(&rows, &mut out);
        for (s, o) in ds.samples.iter().zip(out) {
            assert_eq!(compiled.classify(&s.features), forest.classify(&s.features));
            assert_eq!(o, forest.classify(&s.features));
            assert_eq!(
                compiled.incorrect_votes(&s.features),
                forest.incorrect_votes(&s.features)
            );
            assert_eq!(
                compiled.classify_cost(&s.features),
                forest.classify_cost(&s.features)
            );
        }
    }

    /// `RandomForest::classify` counts `0 >= 0` as `Incorrect` whatever
    /// the trees say; the early exit must not answer `Correct` for rows on
    /// which no tree votes `Incorrect`.
    #[test]
    fn vote_threshold_zero_is_incorrect_even_without_votes() {
        let ds = mixed_dataset(240);
        let mut cfg = ForestConfig::default_random_forest(3, 23);
        cfg.vote_threshold = Some(0);
        let forest = RandomForest::train(&ds, &cfg);
        let compiled = CompiledForest::compile(&forest);
        let rows: Vec<&[u64]> = ds.samples.iter().map(|s| s.features.as_slice()).collect();
        assert!(
            rows.iter().any(|r| forest.incorrect_votes(r) == 0),
            "need rows no tree votes Incorrect"
        );
        let mut batch = vec![Label::Correct; rows.len()];
        compiled.classify_batch(&rows, &mut batch);
        for (r, b) in rows.iter().zip(batch) {
            assert_eq!(forest.classify(r), Label::Incorrect);
            assert_eq!(compiled.classify(r), Label::Incorrect);
            assert_eq!(b, Label::Incorrect);
        }
    }

    #[test]
    fn forest_early_exit_agrees_with_full_count_at_extreme_thresholds() {
        let ds = mixed_dataset(240);
        for threshold in [0, 1, 8, 15, 16] {
            let mut cfg = ForestConfig::default_random_forest(3, 23);
            cfg.vote_threshold = Some(threshold);
            let forest = RandomForest::train(&ds, &cfg);
            let compiled = CompiledForest::compile(&forest);
            for s in &ds.samples {
                assert_eq!(
                    compiled.classify(&s.features),
                    forest.classify(&s.features),
                    "threshold {threshold}"
                );
            }
        }
    }

    /// The walk's exit leaf of `row`: the oracle the scorer answers to.
    fn walked(t: &CompiledTree, row: &[u64]) -> (Label, usize) {
        assert!(row.len() >= t.arity);
        // SAFETY: callers pass arenas validate() accepts; arity checked.
        let (leaf, cost) = unsafe { walk_cost(&t.nodes, t.root, row) };
        (leaf_label(leaf), cost)
    }

    /// Rows of width `arity` whose values sit on, beside and far from
    /// every threshold of `nodes`, and on both sides of the 12-bit table.
    fn edge_rows(nodes: &[CompiledNode], arity: usize, count: usize, seed: u64) -> Vec<Vec<u64>> {
        let mut values = vec![0, 1, 4094, 4095, 4096, 4097, u64::MAX];
        for n in nodes {
            let t = n.threshold;
            values.extend([t.wrapping_sub(1), t, t.wrapping_add(1)]);
        }
        (0..count as u64)
            .map(|i| {
                (0..arity as u64)
                    .map(|j| {
                        let h = (seed ^ (i << 32) ^ j).wrapping_mul(0x9e37_79b9_7f4a_7c15);
                        values[(h >> 40) as usize % values.len()]
                    })
                    .collect()
            })
            .collect()
    }

    /// Leaves of the tree reached from `r`, a record shared by two parents
    /// counted under each.
    fn unfolded_leaves(nodes: &[CompiledNode], r: u32) -> usize {
        if r & LEAF_BIT != 0 {
            1
        } else {
            let n = &nodes[r as usize];
            unfolded_leaves(nodes, n.left) + unfolded_leaves(nodes, n.right)
        }
    }

    /// Every bit of a trained arena flipped in turn — thresholds, child
    /// references and feature indices — and re-derived: wherever
    /// `validate` passes the scorer exists and answers as the walk, verdict
    /// and comparison count, through every single-sample entry, unless the
    /// flip unfolds it past 128 leaves; wherever it fails there is none.
    #[test]
    fn every_flip_validate_accepts_scores_as_it_walks() {
        let ds = mixed_dataset(300);
        let tree = DecisionTree::train(&ds, &TrainConfig::decision_tree());
        let compiled = CompiledTree::compile(&tree);
        assert!(compiled.scorer.is_some(), "the trained tree has a scorer");
        let (mut valid, mut rejected) = (0, 0);
        for bit in 0..compiled.logical_bits() {
            let mut c = compiled.clone();
            c.flip_bit(bit);
            if c.validate().is_err() {
                assert!(c.scorer.is_none(), "bit {bit}");
                rejected += 1;
                continue;
            }
            // A child flipped onto a later record shares that subtree,
            // which can unfold past the scorer's 128 leaves.
            assert_eq!(c.scorer.is_some(), unfolded_leaves(&c.nodes, c.root) <= 128);
            let Some(scorer) = &c.scorer else {
                continue;
            };
            for row in edge_rows(&c.nodes, c.arity, 24, bit as u64) {
                let want = walked(&c, &row);
                assert_eq!(scorer.score(&row), want, "bit {bit}, {row:?}");
                assert_eq!(c.classify_with_cost(&row), want);
                assert_eq!((c.classify(&row), c.classify_cost(&row)), want);
            }
            valid += 1;
        }
        assert!(
            valid > 0 && rejected > 0,
            "{valid} valid, {rejected} rejected"
        );
    }

    /// Deriving a scorer stops on a cyclic arena (which `validate`
    /// rejects, and a walk of which never ends), down either child.
    #[test]
    fn scorer_derivation_stops_on_cycles() {
        let node = |left, right| CompiledNode {
            threshold: 7,
            left,
            right,
            feature: 0,
        };
        assert!(ExitLeafScorer::build(&[node(0, LEAF_BIT)], 0).is_none());
        let pair = [node(LEAF_BIT, 1), node(LEAF_BIT | 1, 0)];
        assert!(ExitLeafScorer::build(&pair, 0).is_none());
    }

    /// A record arena built from loose parts: child references mostly
    /// forward indices (so two parents often share one subtree) or leaf
    /// tags, one in 32 any `u32`; thresholds small, around 4,096 or
    /// anywhere; features mostly inside the arity. The recorded depth is
    /// the longest path unless `depth_sel` says otherwise.
    fn hand_built(
        records: &[(u64, u64, u64, u8)],
        root_sel: u64,
        arity_sel: u64,
        depth_sel: u64,
    ) -> CompiledTree {
        let n = records.len();
        let child = |i: usize, sel: u64| -> u32 {
            match sel % 32 {
                31 => (sel >> 32) as u32,
                k if k < 12 || i + 1 == n => LEAF_BIT | (sel >> 8) as u32 & 1,
                _ => (i + 1 + (sel >> 8) as usize % (n - i - 1)) as u32,
            }
        };
        let nodes: Vec<CompiledNode> = (records.iter().enumerate())
            .map(|(i, &(thr, left, right, feature))| CompiledNode {
                threshold: match thr % 4 {
                    0 => (thr >> 8) % 64,
                    1 => 4090 + (thr >> 8) % 12,
                    2 => thr >> 2,
                    _ => (thr >> 8) % 8192,
                },
                left: child(i, left),
                right: child(i, right),
                feature: if feature < 240 { feature % 6 } else { feature },
            })
            .collect();
        let root = match root_sel % 16 {
            0 => LEAF_BIT | (root_sel >> 8) as u32 & 1,
            1 => (root_sel >> 32) as u32,
            _ if n == 0 => LEAF_BIT | (root_sel >> 8) as u32 & 1,
            _ => 0,
        };
        let arity = match arity_sel % 8 {
            0 => (arity_sel >> 8) as usize % 7,
            _ => arena_arity(&nodes) + (arity_sel >> 8) as usize % 2,
        };
        let mut t = CompiledTree {
            nodes,
            root,
            depth: (depth_sel >> 8) as usize % 12,
            arity,
            packed: None,
            scorer: None,
        };
        // DepthMismatch is validate's last check: every other one passed.
        if let (1.., Err(ArenaFault::DepthMismatch { actual, .. })) = (depth_sel % 8, t.validate())
        {
            t.depth = actual;
        }
        t.rederive();
        t
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Host robustness on hand-built arenas: deriving the scorer never
        /// panics, hangs or reads out of bounds, on any arena; an arena
        /// `validate` rejects gets none; one it accepts — shared subtrees
        /// unfolded — has one whenever it is small enough to unfold within
        /// 128 leaves, and classifies every row identically through the
        /// scorer, the walk and every batch size around a lane group, on
        /// every kernel and both batch entries, in and out of the packed
        /// envelope.
        #[test]
        fn hand_built_arenas_are_rejected_or_score_as_they_walk(
            records in proptest::collection::vec(
                (any::<u64>(), any::<u64>(), any::<u64>(), any::<u8>()),
                0..12,
            ),
            root_sel in any::<u64>(),
            arity_sel in any::<u64>(),
            depth_sel in any::<u64>(),
            seed in any::<u64>(),
        ) {
            let t = hand_built(&records, root_sel, arity_sel, depth_sel);
            let _ = ExitLeafScorer::build(&t.nodes, t.root);
            let _ = ExitLeafScorer::build(&t.nodes, (root_sel >> 32) as u32);
            if t.validate().is_err() {
                prop_assert!(t.scorer.is_none());
            }
            prop_assume!(t.validate().is_ok());
            prop_assert_eq!(t.scorer.is_some(), unfolded_leaves(&t.nodes, t.root) <= 128);
            // The first rows stay inside the 12-bit envelope (the kernels'
            // chunks), the rest go past it (refused chunks, single rows).
            let mut rows: Vec<Vec<u64>> = edge_rows(&t.nodes, t.arity, 40, seed);
            for row in &mut rows[..2 * LANES + 1] {
                for v in row.iter_mut() {
                    *v &= simd::PACKED_MAX_FEATURE;
                }
            }
            let single: Vec<(Label, usize)> = rows.iter().map(|r| walked(&t, r)).collect();
            for (row, &want) in rows.iter().zip(&single) {
                if let Some(s) = &t.scorer {
                    prop_assert_eq!(s.score(row), want);
                }
                prop_assert_eq!(t.classify_with_cost(row), want);
            }
            let labels: Vec<Label> = single.iter().map(|&(l, _)| l).collect();
            for walker in [
                BatchWalker::Scalar,
                BatchWalker::Avx2,
                BatchWalker::Avx512,
                BatchWalker::Auto,
            ] {
                for from in [0, 2 * LANES + 1] {
                    for n in 1..=2 * LANES + 1 {
                        let (rows, want) = (&rows[from..from + n], &labels[from..from + n]);
                        let mut got = vec![Label::Correct; n];
                        t.classify_batch_with(walker, rows, &mut got);
                        prop_assert_eq!(&got[..], want);
                        if t.arity <= 8 {
                            let fixed = |i: usize| -> [u64; 8] {
                                std::array::from_fn(|j| rows[i].get(j).copied().unwrap_or(0))
                            };
                            got.fill(Label::Correct);
                            t.classify_batch_rows::<8>(walker, n, fixed, &mut got);
                            prop_assert_eq!(&got[..], want);
                        }
                    }
                }
            }
        }
    }
}
