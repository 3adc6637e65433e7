//! # xentry — hypervisor-level soft error detection
//!
//! Reproduction of the Xentry framework (Xu, Chiang, Huang — ICPP 2014):
//! a light-weight software layer between the hypervisor and its VMs that
//! detects CPU soft errors occurring *during hypervisor executions*, before
//! they propagate into guest VMs.
//!
//! Two detection techniques (paper §III):
//!
//! * **Runtime detection** ([`runtime`]) — always enabled: fatal hardware
//!   exceptions are parsed (benign debug-class events filtered out) and
//!   software assertions compiled into hypervisor code report boundary and
//!   critical-condition violations. These shorten detection latency.
//! * **VM transition detection** ([`detector`], [`features`]) — enabled at
//!   every VM entry: four hardware performance counters plus the VM exit
//!   reason form a 5-feature vector (Table I) classified by a decision /
//!   random tree trained offline on fault-injection traces. This limits
//!   error propagation by catching incorrect — but valid — control flow
//!   *before the guest resumes*.
//!
//! The [`shim::Xentry`] type wires both into the `xen-like` platform via
//! its `Monitor` hook, charging its own cycle costs so that the paper's
//! overhead experiments ([`overhead`]) measure rather than assume:
//! [`measure_overhead`] prices any number of shim configurations against
//! one unmodified-Xen baseline per run.
//!
//! ```
//! use xentry::{Xentry, XentryConfig};
//! use guest_sim::{workload_platform, Benchmark};
//! use sim_machine::VirtMode;
//!
//! // Xen + 1 guest VM running the postmark workload model.
//! let mut platform = workload_platform(
//!     Benchmark::Postmark, VirtMode::Para, /*cpus*/ 2, /*guests*/ 1,
//!     /*kernel scale*/ 8, /*seed*/ 1);
//! // Attach Xentry (collector mode: gather features, no model yet).
//! let mut shim = Xentry::collector();
//! platform.boot(1, &mut shim);
//! platform.run(1, 100, &mut shim);
//! assert_eq!(shim.trace.len(), 100); // one feature vector per VM entry
//! ```

pub mod codegen;
pub mod detector;
pub mod envelope;
pub mod features;
pub mod overhead;
pub mod recovery;
pub mod runtime;
pub mod shim;

pub use codegen::{compile_detector, emit_tree};
pub use detector::{BatchSpan, VmTransitionDetector};
pub use envelope::EnvelopeDetector;
pub use features::{FeatureVec, FEATURE_NAMES};
pub use overhead::{measure_overhead, run_until_bursts, OverheadSetup, OverheadSummary};
pub use recovery::CriticalState;
pub use runtime::{classify_exception, Detection, ExceptionClass, Technique};
pub use shim::{ShimCosts, Xentry, XentryConfig};
