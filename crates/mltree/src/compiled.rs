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
//! [`CompiledForest`] concatenates every tree's arena into one allocation
//! and keeps per-tree root references, so an ensemble walk touches a
//! single slab. Forest classification early-exits as soon as the vote
//! threshold is decided either way, single-sample and batch alike, by one
//! shared rule: a batch walks the trees in arena order over a window's
//! distinct words, and after each tree compacts the words still undecided
//! to the front, so later trees walk only those.
//!
//! Both batch engines stage rows through one window of up to 1,024
//! packed words and walk each distinct word once: Xentry's fault-free
//! vectors repeat heavily (a few dozen distinct in thousands of
//! activations), and equal in-envelope words take the same path, so a
//! row copies its word's verdict. A batch's cost per row therefore
//! depends on its windows' distinct share. Nothing persists across
//! calls but a thread's reusable scratch, which holds no verdicts.
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
//! than five features), has one exact fallback: the single-sample walk,
//! row by row (for a forest, the early-exiting
//! [`CompiledForest::classify`]) — rare by measurement (no fault-free
//! Xentry vector, about one faulty one in a thousand). A call of fewer
//! than eight rows takes the same walk for every row: one lane group is
//! the kernels' unit, and below it their fixed cost exceeds the rows'
//! own walks (a fleet shard at low load drains one or two records).
//!
//! [`Node`]: crate::tree::Node

use crate::dataset::Label;
use crate::forest::RandomForest;
use crate::simd::{self, BatchWalker, PackedArena, LANES, PACKED_CHUNK};
use crate::tree::{DecisionTree, Node};
use std::cell::RefCell;

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
    /// envelope. Derived from `nodes` — rebuilt on every arena mutation.
    packed: Option<PackedArena>,
}

impl CompiledTree {
    /// Flatten a trained tree. Pure layout transformation — verdicts and
    /// costs are bit-identical to the boxed walker by construction (and by
    /// the proptest in `tests/compiled_equivalence.rs`).
    pub fn compile(tree: &DecisionTree) -> CompiledTree {
        let mut nodes = Vec::with_capacity(tree.nr_nodes() / 2 + 1);
        let root = emit(&tree.root, &mut nodes);
        CompiledTree {
            arity: arena_arity(&nodes),
            packed: PackedArena::build(&nodes, arena_arity(&nodes)),
            nodes,
            root,
            depth: tree.depth(),
        }
    }

    /// Classify one feature vector — same contract as
    /// [`DecisionTree::classify`].
    #[inline]
    pub fn classify(&self, features: &[u64]) -> Label {
        assert!(features.len() >= self.arity, "feature vector too short");
        // SAFETY: emit() produced only in-arena indices; arity checked.
        leaf_label(unsafe { walk(&self.nodes, self.root, features) })
    }

    /// Comparisons performed — same contract as
    /// [`DecisionTree::classify_cost`].
    #[inline]
    pub fn classify_cost(&self, features: &[u64]) -> usize {
        assert!(features.len() >= self.arity, "feature vector too short");
        // SAFETY: emit() produced only in-arena indices; arity checked.
        unsafe { walk_cost(&self.nodes, self.root, features) }.1
    }

    /// [`CompiledTree::classify`] and [`CompiledTree::classify_cost`] from
    /// one walk, for a caller that wants both (the shim charges the
    /// comparisons it takes to reach the verdict).
    #[inline]
    pub fn classify_with_cost(&self, features: &[u64]) -> (Label, usize) {
        assert!(features.len() >= self.arity, "feature vector too short");
        // SAFETY: emit() produced only in-arena indices; arity checked.
        let (leaf, cost) = unsafe { walk_cost(&self.nodes, self.root, features) };
        (leaf_label(leaf), cost)
    }

    /// Classify a batch, one verdict per input row, with the widest
    /// batch-walk kernel the CPU supports. Each window of up to 1,024
    /// rows walks its distinct feature vectors once, in groups of eight
    /// that walk the arena in lockstep so their load chains overlap; the
    /// final short group is padded to full width with a real vector. A
    /// call of fewer than eight rows (one lane group) walks each row with
    /// [`CompiledTree::classify`] instead, which is cheaper there.
    /// Accepts `[u64; 5]` rows (the Table-I layout), slices, or anything
    /// slice-like.
    pub fn classify_batch<I: AsRef<[u64]>>(&self, inputs: &[I], out: &mut [Label]) {
        self.classify_batch_with(BatchWalker::Auto, inputs, out);
    }

    /// [`CompiledTree::classify_batch`] with an explicit kernel choice —
    /// benchmarks pin kernels with this, and the equivalence suite uses
    /// [`BatchWalker::Scalar`] as the oracle against the vector paths.
    /// The pinned kernel applies from one lane group (eight rows) up; a
    /// smaller call takes the exact single-sample walk whatever `walker`
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
            // SAFETY: emit() produced only in-arena indices; every row
            // was checked against the arity above.
            |i| leaf_label(unsafe { walk(&self.nodes, self.root, inputs[i].as_ref()) }),
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
            // SAFETY: emit() produced only in-arena indices; A >= arity.
            |i| leaf_label(unsafe { walk(&self.nodes, self.root, &row(i)) }),
        );
    }

    /// The tree's side of [`classify_windows`], behind both batch entries:
    /// one lockstep walk per window over its distinct packed words.
    /// `exact(i)` is the single-sample walk of row `i`.
    fn batch(
        &self,
        walker: BatchWalker,
        out: &mut [Label],
        stage: impl FnMut(usize, usize, &mut [u64; PACKED_CHUNK]) -> bool,
        exact: impl Fn(usize) -> Label,
    ) {
        let kernel = simd::resolve(walker);
        classify_windows(self.packed.as_ref(), out, stage, exact, |pa, s, entries| {
            let lanes = entries.next_multiple_of(LANES);
            s.refs[..lanes].fill(pa.entry(self.root));
            // SAFETY: packed references are in-bounds by construction;
            // kernel came from resolve().
            unsafe {
                simd::walk_packed(
                    kernel,
                    pa,
                    &mut s.refs[..lanes],
                    &s.words[..lanes],
                    self.depth,
                )
            };
            for (v, &r) in s.verdict.iter_mut().zip(&s.refs[..entries]) {
                *v = pa.label(r);
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
        // Re-derive the packed shadow so the corruption is visible on the
        // fast path too — a fault that only struck a stale copy would
        // vanish instead of being caught by validate()/canary layers.
        self.packed = PackedArena::build(&self.nodes, self.arity);
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

/// Rows a batch stages, deduplicates and walks as one set (16 staging
/// chunks). The wider the window, the more repeats of a word it folds
/// into one walk; and a forest's survivors, thinned once most verdicts
/// are decided, still fill whole 64-lane pieces.
const WINDOW: usize = 16 * PACKED_CHUNK;

/// Dedup table slots: a power of two, four per window row.
const SLOT_BITS: u32 = 12;

/// `Scratch::row_entry` of a row in a refused chunk.
const EXACT: u16 = u16::MAX;

/// One thread's batch working set, reused by every call on the thread
/// so that a call allocates and clears nothing. A window's rows map to
/// *entries*, one per distinct packed word, which is what gets walked.
struct Scratch {
    /// Packed word of each entry: the lanes walked. A forest compacts
    /// its live entries to the front in place.
    words: [u64; WINDOW],
    /// Entry of each window row, or [`EXACT`].
    row_entry: [u16; WINDOW],
    /// Single-probe table, slot of a word → entry. Never cleared: a slot
    /// counts only while it names an entry of the current window that
    /// holds the same word, so a stale slot (from an earlier window or
    /// call) can cost a shared walk, never a verdict.
    slots: [u16; 1 << SLOT_BITS],
    /// One staging chunk's packed words.
    chunk: [u64; PACKED_CHUNK],
    refs: [u32; WINDOW],
    /// The forest's live set: entry and `Incorrect` votes of each
    /// undecided lane.
    live_entry: [u16; WINDOW],
    votes: [u32; WINDOW],
    /// Verdict of each entry.
    verdict: [Label; WINDOW],
}

impl Scratch {
    fn new() -> Box<Scratch> {
        Box::new(Scratch {
            words: [0; WINDOW],
            row_entry: [0; WINDOW],
            slots: [0; 1 << SLOT_BITS],
            chunk: [0; PACKED_CHUNK],
            refs: [0; WINDOW],
            live_entry: [0; WINDOW],
            votes: [0; WINDOW],
            verdict: [Label::Correct; WINDOW],
        })
    }
}

thread_local! {
    static SCRATCH: RefCell<Box<Scratch>> = RefCell::new(Scratch::new());
}

/// The batch engines' one window loop, shared by the tree and the forest.
/// Each window of up to [`WINDOW`] rows is staged chunk by chunk:
/// `stage(at, len, chunk)` packs rows `at..at + len`, or refuses a chunk
/// holding a value above 12 bits, whose rows then take `exact(row)`. Each
/// staged row is mapped to the entry holding its packed word, adding one
/// when the word is new or its slot names another word (one probe per
/// row, no probe loop), and `walk(pa, scratch, entries)` gives every
/// entry its `verdict`, which the rows copy back. Sharing a walk is exact
/// by construction: an in-envelope word holds a row's every compared
/// feature value. Without a packed shadow, and in a call of fewer than
/// [`LANES`] rows, every row takes `exact`: below one lane group the
/// staging, the dedup and the padded group's every round cost more than
/// the rows' own walks (a 1-row call ~220 ns against ~35 ns on a depth-19
/// tree), and the fleet drains its records a few at a time at low load.
fn classify_windows(
    packed: Option<&PackedArena>,
    out: &mut [Label],
    mut stage: impl FnMut(usize, usize, &mut [u64; PACKED_CHUNK]) -> bool,
    exact: impl Fn(usize) -> Label,
    mut walk: impl FnMut(&PackedArena, &mut Scratch, usize),
) {
    let Some(pa) = packed.filter(|_| out.len() >= LANES) else {
        for (i, o) in out.iter_mut().enumerate() {
            *o = exact(i);
        }
        return;
    };
    let mut run = |s: &mut Scratch| {
        for (w, win) in out.chunks_mut(WINDOW).enumerate() {
            let at = w * WINDOW;
            let mut entries = 0;
            for c in (0..win.len()).step_by(PACKED_CHUNK) {
                let len = (win.len() - c).min(PACKED_CHUNK);
                let rows = &mut s.row_entry[c..c + len];
                if !stage(at + c, len, &mut s.chunk) {
                    rows.fill(EXACT);
                    continue;
                }
                for (e, &word) in rows.iter_mut().zip(&s.chunk) {
                    let hash = word.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> (64 - SLOT_BITS);
                    let slot = &mut s.slots[hash as usize];
                    let known = *slot as usize;
                    *e = if known < entries && s.words[known] == word {
                        known as u16
                    } else {
                        s.words[entries] = word;
                        *slot = entries as u16;
                        entries += 1;
                        *slot
                    };
                }
            }
            if entries > 0 {
                // Pad the last 8-lane group with a real word, so no
                // padding lane walks longer than the entries do.
                let last = s.words[entries - 1];
                s.words[entries..entries.next_multiple_of(LANES)].fill(last);
                walk(pa, s, entries);
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
        CompiledForest {
            arity: arena_arity(&nodes),
            packed: PackedArena::build(&nodes, arena_arity(&nodes)),
            nodes,
            roots,
            vote_threshold: forest.vote_threshold,
            max_depth: forest.trees.iter().map(|t| t.depth()).max().unwrap_or(0),
        }
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

    /// Batch classification with the single-sample early exit. A window of
    /// up to 1,024 rows is staged into packed feature words once and
    /// collapsed to its distinct words, then the trees are walked in arena
    /// order over the *live* words only, in lockstep groups of eight on
    /// the widest kernel the CPU supports. After each tree a word whose
    /// vote is decided (the rule [`CompiledForest::classify`] uses) takes
    /// its verdict, shared by its rows, and leaves;
    /// the survivors are compacted to the front, so the next tree walks
    /// only undecided lanes. A chunk outside the packed envelope, a
    /// forest with no packed shadow, and a call of fewer than eight rows
    /// (one lane group) are classified row by row by
    /// [`CompiledForest::classify`] itself.
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
            |pa, s, entries| {
                let mut live = entries;
                for (k, e) in s.live_entry[..live].iter_mut().enumerate() {
                    *e = k as u16;
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
                            &s.words[..lanes],
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
                                s.words[kept] = s.words[k];
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
        self.packed = PackedArena::build(&self.nodes, self.arity);
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

    /// Which path a call takes, made visible: each model's packed shadow
    /// is swapped for the shadow of its leaf-inverted twin, so the kernels
    /// answer as the twin and the exact walk as the model. Calls of fewer
    /// than `LANES` rows must walk singly, and every larger one — partial
    /// lane groups of 9–15 rows included — through the padded kernels, on
    /// every walker and from all three batch entries.
    #[test]
    fn calls_below_one_lane_group_walk_singly_and_larger_ones_take_the_kernels() {
        let ds = mixed_dataset(300);
        let tree = DecisionTree::train(&ds, &TrainConfig::decision_tree());
        let forest = RandomForest::train(&ds, &ForestConfig::default_random_forest(3, 17));
        let (ct, cf) = (
            CompiledTree::compile(&tree),
            CompiledForest::compile(&forest),
        );
        let (mut twin_t, mut twin_f) = (ct.clone(), cf.clone());
        invert_leaves(&mut twin_t.nodes);
        invert_leaves(&mut twin_f.nodes);
        twin_t.packed = PackedArena::build(&twin_t.nodes, twin_t.arity);
        twin_f.packed = PackedArena::build(&twin_f.nodes, twin_f.arity);
        let (mut probe_t, mut probe_f) = (ct.clone(), cf.clone());
        probe_t.packed = twin_t.packed.clone();
        probe_f.packed = twin_f.packed.clone();
        let rows: Vec<[u64; 3]> = (ds.samples.iter().take(2 * LANES + 1))
            .map(|s| [s.features[0], s.features[1], s.features[2]])
            .collect();
        for r in &rows {
            assert_ne!(ct.classify(r), twin_t.classify(r));
            assert_ne!(cf.classify(r), twin_f.classify(r));
        }
        for walker in [
            BatchWalker::Scalar,
            BatchWalker::Avx2,
            BatchWalker::Avx512,
            BatchWalker::Auto,
        ] {
            for n in 1..=rows.len() {
                let (by_t, by_f) = if n < LANES {
                    (&ct, &cf)
                } else {
                    (&twin_t, &twin_f)
                };
                let want_t: Vec<Label> = rows[..n].iter().map(|r| by_t.classify(r)).collect();
                let want_f: Vec<Label> = rows[..n].iter().map(|r| by_f.classify(r)).collect();
                let mut got = vec![Label::Correct; n];
                probe_t.classify_batch_with(walker, &rows[..n], &mut got);
                assert_eq!(got, want_t, "{walker:?}, {n} rows");
                probe_t.classify_batch_rows::<3>(walker, n, |i| rows[i], &mut got);
                assert_eq!(got, want_t, "{walker:?}, {n} rows");
                probe_f.classify_batch_with(walker, &rows[..n], &mut got);
                assert_eq!(got, want_f, "{walker:?}, {n} rows");
            }
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
}
