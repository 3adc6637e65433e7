//! # guest-sim — synthetic guest workload models
//!
//! The paper runs SPEC2006 (mcf, bzip2), PARSEC (freqmine, canneal, x264)
//! and Postmark inside guest VMs, chosen "to exercise different functions
//! of the hypervisor" (§V-A). This crate provides the substitution: six
//! workload models, each a real guest program (emitted through `sim-asm`)
//! whose hypervisor-activation profile — exit-reason mix and activation
//! frequency, in both para-virtualized and hardware-assisted modes —
//! reproduces the corresponding benchmark's footprint from Fig. 3.
//!
//! Guests compute a running checksum over kernel results *and* hypervisor
//! outputs (hypercall return values, emulated CPUID leaves), publishing it
//! to a known memory word. Corrupted hypervisor outputs therefore surface
//! as checksum mismatches — the observable behind the paper's "APP SDC"
//! outcome class. RDTSC outputs are kept in a separate time-result area
//! because replicated time reads legitimately differ (§VI).

pub mod emit;
pub mod profile;
pub mod runner;

pub use emit::{guest_addrs, load_workload, GuestAddrs};
pub use profile::{dom0_profile, profile, Action, Benchmark, Kernel, WorkloadProfile};
pub use runner::{measure_activation_rate, rate_stats, workload_platform, RateSample, RateStats};
