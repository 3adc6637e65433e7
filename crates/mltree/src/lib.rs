//! # mltree — decision-tree learning with integer-only inference
//!
//! The Xentry paper trains its VM-transition detector offline in WEKA and
//! deploys the resulting rules inside the hypervisor, where "the decision
//! making process is a set of simple integer comparisons" (§III-B). This
//! crate provides both halves:
//!
//! * [`tree::DecisionTree`] — an entropy-split (information gain) binary
//!   classification tree over unsigned integer features, trained either
//!   exhaustively (classic decision tree) or with WEKA's *random tree*
//!   strategy that considers `⌊log₂ F⌋ + 1` randomly chosen features per
//!   split (3 of the 5 Xentry features, as the paper states);
//! * [`tree::DecisionTree::classify`] — pure integer-threshold traversal
//!   suitable for the hypervisor hot path;
//! * [`compiled::CompiledTree`] / [`compiled::CompiledForest`] — the
//!   deployment form: boxed nodes flattened into a contiguous preorder
//!   arena with an iterative walker and a batch API (a packed SIMD tier
//!   plus a row-by-row exact fallback), bit-identical to the boxed
//!   walkers but without a pointer chase per level;
//! * [`eval`] — accuracy, confusion matrices and the false-positive rate
//!   the paper's recovery-overhead estimate depends on (0.7%).

pub mod compiled;
pub mod dataset;
pub mod eval;
pub mod forest;
pub mod prune;
mod scorer;
pub mod simd;
pub mod tree;

pub use compiled::{ArenaFault, CompiledForest, CompiledNode, CompiledTree, LEAF_BIT};
pub use dataset::{Dataset, Label, Sample};
pub use eval::{cross_validate, evaluate, evaluate_compiled, ConfusionMatrix};
pub use forest::{evaluate_forest, ForestConfig, RandomForest};
pub use prune::reduced_error_prune;
pub use simd::{active_kernel_name, BatchWalker};
pub use tree::{DecisionTree, Node, TrainConfig};
