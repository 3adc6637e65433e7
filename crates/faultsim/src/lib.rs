//! # faultsim — fault-injection campaigns for hypervisor soft errors
//!
//! The reproduction of the paper's evaluation methodology (§V): single
//! bit-flips in architectural registers while the CPU executes hypervisor
//! code, golden-run differencing to decide activation, outcome
//! classification into the paper's taxonomy (short-latency hypervisor
//! crashes; long-latency APP SDC / APP crash / one-VM / all-VM failures),
//! detection-latency measurement, and labeled-dataset emission for training
//! the VM-transition detector.
//!
//! * [`injection`] — one fault: snapshot → golden run → flip → compare.
//! * [`golden`] — machine differencing and corruption-site attribution.
//! * [`checkpoint`] — delta-compressed checkpoint chains over the golden run.
//! * [`journal`] — crash-safe persistence of completed campaign chunks.
//! * [`campaign`] — checkpoint-forked, deterministic, resumable campaigns.
//! * [`analysis`] — the aggregations behind Fig. 8/9/10 and Table II.

// `Memory`, `Machine` and `Platform` have a hand-written `clone_from` that
// costs what differs; `a = b.clone()` over a live one throws that away.
#![warn(clippy::assigning_clones)]

pub mod analysis;
pub mod campaign;
pub mod checkpoint;
mod fork;
pub mod golden;
pub mod injection;
pub mod journal;
pub mod outcome;
pub mod policy;
pub mod recovery;

pub use analysis::{
    coverage_breakdown, latency_data_filtered, long_latency_coverage, merge_vulnmaps,
    target_breakdown, undetected_breakdown, vulnerability_map, vulnmap_from_model_records,
    vulnmap_from_records, CoverageBreakdown, LatencyData, LongLatencyCoverage, TargetRow,
    UndetectedBreakdown, VulnCell, VulnMap,
};
pub use campaign::{
    campaign_platform, collect_correct_samples, dataset_from_records, golden_trace, model_specs_at,
    run, run_campaign, run_campaign_from_boot, run_campaign_with, run_from_boot,
    run_recovery_campaign_with, run_resumable, run_with, CampaignConfig, CampaignResult,
    Experiment, GoldenTrace, ModelRecord, Models, Multibit, MultibitSpec, Recovery,
    RecoveryCampaignResult, RecoveryRecord, RegFlips, Run,
};
pub use checkpoint::{CheckpointStats, CheckpointStore};
pub use golden::{classify_site, diff_machines, DiffSite, StateDiff};
pub use injection::{
    inject, inject_spec, prepare_point, prepare_point_forked, InjectionPoint, InjectionRecord,
    InjectionSpec, PointMeta, WindowEntry,
};
pub use journal::CampaignJournal;
pub use outcome::{Consequence, FaultOutcome, UndetectedCategory};
pub use policy::{
    run_ladder, EscalationStep, HmRule, HmTable, RecoveryAction, RecoveryOutcome, TierResult,
};
pub use recovery::{
    attempt_recovery, detect_fault, ignore_recovery, microreboot_recovery, recover_detected,
    recover_with_policy, BurstSite, BurstSpec, DetectedFault, PmcSpec, PolicyRecovery, PteField,
    PteSpec, RecoverySpec,
};
