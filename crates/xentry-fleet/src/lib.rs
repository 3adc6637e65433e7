//! # xentry-fleet — fleet-scale online soft-error detection
//!
//! The paper deploys one Xentry shim per hypervisor. This crate scales
//! that deployment out: many simulated xen-like platform instances report
//! per-activation telemetry (the Table-I feature vector plus VM exit
//! reason and host/VCPU identity) to a central detection service, which
//! classifies each activation with the deployed [`VmTransitionDetector`]
//! and returns verdicts plus fleet statistics.
//!
//! Architecture (one box per module):
//!
//! ```text
//!  hosts (shims)          service                       consumers
//!  ┌────────┐  ingest ┌──────────────┐ verdicts  ┌──────────────┐
//!  │ host 0 ├────────►│ queue shard 0├──────────►│ VerdictSink  │
//!  │ host 1 │  (lock- │    worker 0  │ incidents │ (+ flight-   │
//!  │  ...   │   free, │ queue shard 1│──────────►│  recorder    │
//!  │ host N ├────────►│    worker 1  │           │  dumps)      │
//!  └────────┘  drops  │      ...     │ snapshot  └──────────────┘
//!                     │  model slot ◄┼─── hot_swap_validated(detector)
//!                     │  Metrics     ├──────────► ServiceSnapshot
//!                     │  Tracer      │
//!                     └──────────────┘
//! ```
//!
//! Design invariants:
//!
//! * **Ingest never blocks** ([`queue`]): bounded lock-free MPMC queues;
//!   a full shard queue drops the record and counts it. The shim hot path
//!   on a reporting host never waits on the service.
//! * **Hot swap is wait-free for readers** ([`model`]): workers revalidate
//!   an epoch counter once per batch; every verdict carries the version
//!   and fingerprint of the model that produced it.
//! * **Post-mortem context survives** ([`recorder`]): each host's last N
//!   activations are kept in a ring and dumped on any `Incorrect`
//!   verdict, fleet-scale analogue of `examples/post_mortem.rs`.
//! * **Metrics are lock-free** ([`metrics`]): relaxed counters and log2
//!   latency histograms, read back as a [`ServiceSnapshot`] from
//!   [`FleetService::snapshot`] and [`FleetService::shutdown`].
//! * **Deploys are gated** ([`model`]): a detector reaches a worker only
//!   through [`FleetService::start`] or
//!   [`FleetService::hot_swap_validated`], and both admit it only after
//!   structural arena checks, a check that the arena is its tree's
//!   compilation and a fingerprinted golden-vector canary. Rolling back
//!   is redeploying the earlier detector through the same gate.
//! * **Workers run plain** ([`service`]): a worker walks only gated
//!   arenas, so its own code cannot fault; a panic in one is a bug (in
//!   practice in the caller's [`VerdictSink`]) and nothing restarts it.
//!   [`FleetService::shutdown`] counts what it never classified in
//!   `lost`, so `ingested == classified + lost` holds on every final
//!   snapshot.
//! * **Tracing is always-on** ([`trace`]): lock-free per-shard
//!   flight-trace rings record span events (ingest, queue wait, batch
//!   classify, verdict, hot swap, rejected swap) keyed by a per-record
//!   trace id that flows into verdicts and incident dumps, which carry
//!   the trigger's own spans. The layer's own cost is measured, not
//!   guessed: `benchmark trace fleet-serve` prices the traced service
//!   against an untraced one.
//!
//! ```
//! use std::sync::Arc;
//! use xentry_fleet::{replay, FleetConfig, FleetService, NullSink, ReplayConfig};
//!
//! let detector = replay::synthetic_detector(1);
//! let svc = FleetService::start(FleetConfig::default(), detector, Arc::new(NullSink));
//! let trace = replay::synthetic_trace(1024, 7);
//! let cfg = ReplayConfig { hosts: 2, records_per_host: 1000, rate_per_host: 0.0 };
//! let report = replay::replay(&svc, &trace, &cfg);
//! let snapshot = svc.shutdown();
//! assert_eq!(snapshot.classified, report.accepted);
//! ```

pub mod metrics;
pub mod model;
pub mod queue;
pub mod record;
pub mod recorder;
pub mod replay;
pub mod service;
mod shard;
pub mod trace;

pub use metrics::{
    Histogram, HistogramSnapshot, HistogramTally, Metrics, ServiceSnapshot, ShardSnapshot,
};
pub use model::SwapError;
pub use queue::MpmcQueue;
pub use record::{FleetVerdict, HostId, TelemetryRecord};
pub use recorder::{DumpBudget, FlightRecorder, IncidentDump, RecordedActivation};
pub use replay::{replay, ReplayConfig, ReplayReport};
pub use service::{CollectSink, FleetConfig, FleetService, NullSink, VerdictSink};
pub use trace::{SpanKind, TraceEvent, TraceRing, Tracer};

pub use xentry::VmTransitionDetector;
