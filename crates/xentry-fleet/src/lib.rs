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
//!                     │  ModelSlot ◄─┼─── hot_swap_validated(detector.json)
//!                     │  Metrics     ├──────────► results/service.json
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
//!   latency histograms, exported as `results/service.json`.
//! * **Workers are supervised** (`supervisor`): a panicking worker is
//!   restarted with capped backoff and its abandoned in-flight records
//!   counted (`ingested == classified + lost` after a drained shutdown);
//!   a stalled worker is superseded by the heartbeat watchdog. Repeated
//!   panics escalate to an automatic model rollback, then to degraded
//!   (envelope-fallback) mode with tagged verdicts.
//! * **Deploys are validated** ([`model`]): [`ModelSlot::publish_validated`]
//!   gates candidates behind structural arena checks plus a fingerprinted
//!   golden-vector canary, and retains the previous epoch for rollback.
//! * **Observability is always-on** ([`trace`], [`telemetry`]): lock-free
//!   per-shard flight-trace rings record span events (ingest, queue wait,
//!   batch classify, verdict, hot swap, restart, degrade) keyed by a
//!   per-record trace id that flows into verdicts and incident dumps;
//!   rings export as Chrome trace-event JSON (`results/trace.json`), and
//!   a std-`TcpListener` scrape endpoint serves Prometheus exposition
//!   (`/metrics`), liveness (`/healthz`) and the trace (`/trace`). The
//!   layer's own cost is measured, not guessed: `benchmark trace
//!   fleet-serve` prices the traced service against an untraced one.
//! * **The claims are chaos-tested** ([`chaos`]): failpoints make shard
//!   workers panic or stall in a live replay; `tests/fleet_chaos.rs` adds
//!   bit-flipped candidate arenas and queue saturation and asserts the
//!   recovery invariants.
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

pub mod chaos;
pub mod metrics;
pub mod model;
pub mod net;
pub mod queue;
pub mod record;
pub mod recorder;
pub mod replay;
pub mod service;
mod shard;
mod supervisor;
pub mod telemetry;
pub mod trace;

pub use chaos::Failpoints;
pub use metrics::{
    EpochVerdicts, Histogram, HistogramSnapshot, HistogramTally, Metrics, ServiceSnapshot,
    ShardSnapshot,
};
pub use model::{lock_recovering, GoldenSet, ModelCache, ModelSlot, SwapError, VersionedModel};
pub use net::{http_get, HttpServer};
pub use queue::MpmcQueue;
pub use record::{FleetVerdict, HostId, TelemetryRecord, VerdictSource};
pub use recorder::{DumpBudget, FlightRecorder, IncidentDump, RecordedActivation};
pub use replay::{replay, ReplayConfig, ReplayReport};
pub use service::{CollectSink, FleetConfig, FleetService, NullSink, VerdictSink};
pub use telemetry::{
    escape_label_value, parse_exposition, render_exposition, render_prometheus, service_families,
    Family, Kind, TelemetryServer,
};
pub use trace::{SpanKind, TraceEvent, TraceRing, Tracer};

pub use xentry::VmTransitionDetector;
