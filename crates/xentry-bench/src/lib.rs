//! # xentry-bench — the paper's full evaluation harness
//!
//! One function per table/figure of the ICPP 2014 Xentry paper, sized by a
//! [`pipeline::Scale`] profile:
//!
//! | Experiment | Function |
//! |---|---|
//! | one training set, split and detector, shared by every experiment that trains or deploys a tree | [`pipeline::Study`] |
//! | Fig. 3 activation frequency | [`experiments::fig3_activation_frequency`] |
//! | Table I features | [`experiments::table1_features`] |
//! | §III-B classifier accuracy + Fig. 6 | [`experiments::ml_accuracy`] |
//! | forest and envelope against the deployed tree | [`extensions::tree_comparisons`] |
//! | Fig. 7 performance overhead + Fig. 11 recovery overhead (one pass, one shared baseline) | [`experiments::overhead_figures`] |
//! | Fig. 8/9/10 + Table II injection campaigns | [`experiments::injection_evaluation`] |
//! | feature/depth/size ablations | [`experiments::ablations`] |
//!
//! The `figures` binary drives them all and writes JSON artifacts alongside
//! the rendered text. Host-side speed (ns/classify, injections/s, fleet
//! records/s, the per-layer cost ladder) is the `benchmark` binary's job,
//! not this crate's library.

pub mod experiments;
pub mod extensions;
pub mod pipeline;

pub use experiments::*;
pub use extensions::*;
pub use pipeline::{Scale, Study, TrainingReport};
