//! The fleet service: bounded ingest queues in front of sharded batch
//! classification workers, with validated atomic model hot-swap and a
//! metrics snapshot.
//!
//! Degradation policy: ingest never blocks. A record whose shard queue is
//! full is dropped and counted (globally and per shard); the shim hot
//! path on the reporting host pays one failed CAS loop at worst. This is
//! the right tradeoff for soft-error telemetry — a lost sample costs a
//! little detection coverage, a blocked VM entry costs guest latency.
//!
//! Failure policy: deploys are gated, workers run plain. Every model a
//! worker walks passed the swap gate, the one [`FleetService::start`]
//! installs included, so classify cannot fault.
//! A panic in a worker is therefore a bug, in practice in the caller's
//! [`VerdictSink`]. Nothing restarts the worker: its shard stops
//! classifying, and [`FleetService::shutdown`] counts every record it
//! accepted but never classified in `lost`.

use crate::metrics::{Metrics, ServiceSnapshot, ShardSnapshot};
use crate::model::{lock_recovering, GoldenSet, ModelSlot, SwapError};
use crate::queue::MpmcQueue;
use crate::record::{FleetVerdict, HostId, TelemetryRecord};
use crate::recorder::IncidentDump;
use crate::trace::{SpanKind, Tracer};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;
use xentry::{FeatureVec, VmTransitionDetector};

/// Golden canary vectors captured at start for swap validation.
const GOLDEN_VECTORS: usize = 128;

/// Service sizing.
#[derive(Debug, Clone, Copy)]
pub struct FleetConfig {
    /// Number of classification workers (hosts shard as `host % shards`).
    pub shards: usize,
    /// Per-shard queue capacity (rounded up to a power of two).
    pub queue_capacity: usize,
    /// Max records a worker claims per batch.
    pub batch: usize,
    /// Flight-recorder depth per host.
    pub recorder_depth: usize,
    /// Flight-trace ring depth per lane (a worker lane and an ingest
    /// lane per shard plus one control lane; rounded up to a power of
    /// two). Shard queues are FIFO, so the newest-retained ingest spans
    /// and the newest-retained verdict spans always overlap regardless
    /// of depth; the default keeps each lane's ring small enough to
    /// stay cache-resident on its writer (the dominant term of the
    /// always-on tracing cost) while retaining thousands of records of
    /// context per shard for incident dumps.
    /// 0 disables tracing entirely (no rings, ids stay 0).
    pub trace_depth: usize,
}

impl Default for FleetConfig {
    fn default() -> FleetConfig {
        FleetConfig {
            shards: 8,
            queue_capacity: 8192,
            batch: 64,
            recorder_depth: 32,
            trace_depth: 8192,
        }
    }
}

/// Receives classification results. Implementations must be cheap and
/// thread-safe: calls come from every shard worker. They must not panic:
/// a panicking sink ends the worker that called it, nothing restarts that
/// worker, and its shard classifies nothing more. The other shards keep
/// serving, and [`FleetService::shutdown`] counts the panicking call's
/// record, the rest of its batch and everything still queued behind it
/// in `lost`.
pub trait VerdictSink: Send + Sync {
    fn on_verdict(&self, _verdict: &FleetVerdict) {}
    /// Called with the per-host flight-recorder dump on every `Incorrect`
    /// verdict (minus rate-limited suppressions).
    fn on_incident(&self, _dump: &IncidentDump) {}
}

/// Discards verdicts (metrics still count everything).
pub struct NullSink;

impl VerdictSink for NullSink {}

/// Collects verdicts and incidents in memory (tests, small replays).
/// Locking is poison-tolerant: a thread that panicked while holding a
/// lock never wedges collection.
#[derive(Default)]
pub struct CollectSink {
    pub verdicts: Mutex<Vec<FleetVerdict>>,
    pub incidents: Mutex<Vec<IncidentDump>>,
}

impl VerdictSink for CollectSink {
    fn on_verdict(&self, verdict: &FleetVerdict) {
        lock_recovering(&self.verdicts).push(*verdict);
    }

    fn on_incident(&self, dump: &IncidentDump) {
        lock_recovering(&self.incidents).push(dump.clone());
    }
}

/// State shared between the service handle and its workers.
pub(crate) struct Shared {
    pub(crate) cfg: FleetConfig,
    pub(crate) queues: Vec<MpmcQueue<TelemetryRecord>>,
    pub(crate) model: ModelSlot,
    /// Canary vectors + expected labels for validated swaps; re-captured
    /// whenever the deployed model legitimately changes.
    pub(crate) golden: Mutex<GoldenSet>,
    pub(crate) metrics: Metrics,
    pub(crate) stop: AtomicBool,
    pub(crate) sink: Arc<dyn VerdictSink>,
    /// Flight tracer: one ring per shard plus a control lane. Always
    /// present; inert (zero rings, zero cost) when `trace_depth` is 0.
    pub(crate) tracer: Arc<Tracer>,
    start: Instant,
}

impl Shared {
    /// Nanoseconds since service start (monotonic).
    pub(crate) fn now_ns(&self) -> u64 {
        self.start.elapsed().as_nanos() as u64
    }
}

/// Deterministic canary probes spanning the feature space: the synthetic
/// VMER profiles plus order-of-magnitude outliers on every counter, so a
/// corrupted arena has to survive both subtrees of most splits to slip
/// past validation.
fn golden_probe_vectors(n: usize) -> Vec<FeatureVec> {
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let vmers = [17u16, 32, 40, 8, 0, 63];
    (0..n.max(16))
        .map(|_| {
            let vmer = vmers[(next() % vmers.len() as u64) as usize];
            let mag = 1u64 << (next() % 11);
            FeatureVec {
                vmer,
                rt: 30 + next() % (60 * mag),
                br: 3 + next() % (10 * mag),
                rm: 4 + next() % (20 * mag),
                wm: 2 + next() % (12 * mag),
            }
        })
        .collect()
}

/// Handle to a running fleet service.
pub struct FleetService {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl FleetService {
    /// Start `cfg.shards` workers classifying with `detector` (deployed
    /// as model version 1).
    ///
    /// # Panics
    ///
    /// If `cfg.shards` or `cfg.batch` is 0, or if `detector` fails the
    /// checks every hot swap passes (a structurally sound arena that is
    /// its boxed tree's compilation and agrees with that tree on the
    /// golden vectors, single-sample and batch).
    /// The check runs before anything classifies with the detector,
    /// because the workers walk its arena unchecked.
    pub fn start(
        cfg: FleetConfig,
        detector: VmTransitionDetector,
        sink: Arc<dyn VerdictSink>,
    ) -> FleetService {
        assert!(cfg.shards >= 1, "need at least one shard");
        assert!(cfg.batch >= 1, "need a positive batch size");
        let golden = GoldenSet::capture_verified(&detector, golden_probe_vectors(GOLDEN_VECTORS))
            .unwrap_or_else(|e| panic!("FleetService::start: detector fails the swap gate: {e}"));
        let shared = Arc::new(Shared {
            cfg,
            queues: (0..cfg.shards)
                .map(|_| MpmcQueue::with_capacity(cfg.queue_capacity))
                .collect(),
            model: ModelSlot::new(detector),
            golden: Mutex::new(golden),
            metrics: Metrics::new(cfg.shards),
            stop: AtomicBool::new(false),
            sink,
            tracer: Arc::new(Tracer::new(cfg.shards, cfg.trace_depth)),
            start: Instant::now(),
        });
        let workers = (0..cfg.shards)
            .map(|shard| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("fleet-shard-{shard}"))
                    .spawn(move || crate::shard::run_worker(&shared, shard))
                    // Fails only when the OS refuses a thread; `start` has
                    // no error channel, like `std::thread::spawn`.
                    .expect("spawn shard worker")
            })
            .collect();
        FleetService { shared, workers }
    }

    /// Report one activation. Non-blocking and allocation-free: returns
    /// `false` (and counts a drop) when the target shard queue is full.
    pub fn ingest(&self, host: HostId, vcpu: u32, seq: u64, features: FeatureVec) -> bool {
        self.ingest_record(TelemetryRecord::new(host, vcpu, seq, features))
    }

    /// [`FleetService::ingest`] with a caller-built record.
    pub fn ingest_record(&self, mut rec: TelemetryRecord) -> bool {
        let shard = rec.host as usize % self.shared.cfg.shards;
        rec.enqueued_ns = self.shared.now_ns();
        rec.trace_id = self.shared.tracer.next_id(shard);
        match self.shared.queues[shard].push(rec) {
            Ok(()) => {
                self.shared.metrics.ingested.fetch_add(1, Ordering::Relaxed);
                self.shared.tracer.record(
                    self.shared.tracer.ingest_lane(shard),
                    SpanKind::Ingest,
                    rec.enqueued_ns,
                    0,
                    rec.trace_id,
                    rec.host as u64,
                );
                true
            }
            Err(_) => {
                let nth = self.shared.metrics.dropped.fetch_add(1, Ordering::Relaxed);
                self.shared.metrics.shards[shard]
                    .dropped
                    .fetch_add(1, Ordering::Relaxed);
                // Drop spans are sampled 1-in-64: a saturated queue sheds
                // records far faster than it classifies them, and one span
                // per rejection would evict the accepted records' ingest
                // spans from the ring. Exact drop counts live in the
                // metrics; the ring only needs evidence of the shedding.
                if nth.is_multiple_of(64) {
                    self.shared.tracer.record(
                        self.shared.tracer.ingest_lane(shard),
                        SpanKind::Drop,
                        rec.enqueued_ns,
                        0,
                        rec.trace_id,
                        rec.host as u64,
                    );
                }
                false
            }
        }
    }

    /// Validate `detector` (structural arena integrity plus canary
    /// classification of the golden set — strict label parity with the
    /// incumbent when `require_parity`), then deploy it mid-flight and
    /// return its version. In-flight batches finish under the old model;
    /// the next batch on every shard classifies under the new one. A
    /// rejected candidate never reaches the slot: the incumbent keeps
    /// serving and the rejection is counted. To roll back, redeploy the
    /// earlier detector through this same call.
    pub fn hot_swap_validated(
        &self,
        detector: VmTransitionDetector,
        require_parity: bool,
    ) -> Result<u64, SwapError> {
        let mut golden = lock_recovering(&self.shared.golden);
        match self
            .shared
            .model
            .publish_validated(detector, &golden, require_parity)
        {
            Ok(v) => {
                let model = self.shared.model.load();
                *golden = golden.recapture(&model.detector);
                self.shared.metrics.swaps.fetch_add(1, Ordering::Relaxed);
                self.shared
                    .tracer
                    .record_control(SpanKind::HotSwap, self.shared.now_ns(), v);
                Ok(v)
            }
            Err(e) => {
                self.shared
                    .metrics
                    .swap_rejections
                    .fetch_add(1, Ordering::Relaxed);
                self.shared.tracer.record_control(
                    SpanKind::SwapRejected,
                    self.shared.now_ns(),
                    self.shared.model.epoch(),
                );
                Err(e)
            }
        }
    }

    /// Version of the currently deployed model.
    pub fn model_version(&self) -> u64 {
        self.shared.model.epoch()
    }

    /// Fingerprint of the currently deployed model.
    pub fn model_fingerprint(&self) -> u64 {
        self.shared.model.load().fingerprint
    }

    /// Identity of the canary gate deployments are validated against.
    pub fn golden_fingerprint(&self) -> u64 {
        lock_recovering(&self.shared.golden).fingerprint()
    }

    /// The flight tracer (trace-id source and span rings). Returned as an
    /// `Arc` so callers can read the rings after [`FleetService::shutdown`]
    /// consumes the handle — post-join they are quiescent and
    /// [`Tracer::events`] is exact.
    pub fn tracer(&self) -> Arc<Tracer> {
        Arc::clone(&self.shared.tracer)
    }

    /// Racy-consistent metrics snapshot.
    pub fn snapshot(&self) -> ServiceSnapshot {
        let shared = &self.shared;
        let m = &shared.metrics;
        let model = shared.model.load();
        let uptime_ns = shared.now_ns().max(1);
        let classified = m.total_classified();
        ServiceSnapshot {
            uptime_ns,
            model_version: model.version,
            model_fingerprint: model.fingerprint,
            model_arena_bytes: model.detector.arena_bytes() as u64,
            model_nr_splits: model.detector.nr_splits() as u64,
            ingested: m.ingested.load(Ordering::Relaxed),
            classified,
            dropped: m.dropped.load(Ordering::Relaxed),
            lost: m.lost.load(Ordering::Relaxed),
            incorrect: m
                .shards
                .iter()
                .map(|s| s.incorrect.load(Ordering::Relaxed))
                .sum(),
            incidents: m.incidents.load(Ordering::Relaxed),
            suppressed_incidents: m.suppressed_incidents.load(Ordering::Relaxed),
            swaps: m.swaps.load(Ordering::Relaxed),
            swap_rejections: m.swap_rejections.load(Ordering::Relaxed),
            throughput_per_sec: classified as f64 * 1e9 / uptime_ns as f64,
            trace_events: shared.tracer.total_events(),
            trace_dropped: shared.tracer.total_dropped(),
            queue_latency: m.queue_latency.snapshot(),
            classify_latency: m.classify_latency.snapshot(),
            shards: m
                .shards
                .iter()
                .enumerate()
                .map(|(i, s)| ShardSnapshot {
                    shard: i,
                    classified: s.classified.load(Ordering::Relaxed),
                    incorrect: s.incorrect.load(Ordering::Relaxed),
                    dropped: s.dropped.load(Ordering::Relaxed),
                    batches: s.batches.load(Ordering::Relaxed),
                })
                .collect(),
        }
    }

    /// Stop ingesting, let every worker drain its queue, join them all,
    /// and return the final snapshot. A worker that panicked (a
    /// [`VerdictSink`] bug) drained nothing more; every record accepted
    /// but never classified is then counted in `lost`, so
    /// `ingested == classified + lost` holds on the result. The count is
    /// exact because a record is counted classified only after its sink
    /// calls returned, and nothing is ingested or classified once the
    /// joins are done.
    pub fn shutdown(mut self) -> ServiceSnapshot {
        self.join_workers();
        let m = &self.shared.metrics;
        let ingested = m.ingested.load(Ordering::Relaxed);
        m.lost.store(
            ingested.saturating_sub(m.total_classified()),
            Ordering::Relaxed,
        );
        self.snapshot()
    }

    /// Set the stop flag and join every worker, a panicked one included.
    fn join_workers(&mut self) {
        self.shared.stop.store(true, Ordering::Release);
        for w in self.workers.drain(..) {
            // A worker's panic was already reported by the panic hook on
            // its own thread; what it cost shows up in `lost`.
            let _ = w.join();
        }
    }
}

impl Drop for FleetService {
    fn drop(&mut self) {
        self.join_workers();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mltree::{Dataset, DecisionTree, Label, Sample, TrainConfig};
    use std::sync::atomic::AtomicU64;
    use xentry::FEATURE_NAMES;

    /// Detector: rt >= ~2*base on vmer 17 is Incorrect.
    fn detector(base: u64) -> VmTransitionDetector {
        let mut d = Dataset::new(&FEATURE_NAMES);
        for i in 0..40u64 {
            d.push(Sample::new(
                vec![17, base + i % 10, 5, 3, 2],
                Label::Correct,
            ));
            d.push(Sample::new(
                vec![17, base * 4 + i, 25, 9, 6],
                Label::Incorrect,
            ));
        }
        VmTransitionDetector::new(DecisionTree::train(&d, &TrainConfig::decision_tree()))
    }

    fn ok_features(base: u64) -> FeatureVec {
        FeatureVec {
            vmer: 17,
            rt: base,
            br: 5,
            rm: 3,
            wm: 2,
        }
    }

    fn bad_features(base: u64) -> FeatureVec {
        FeatureVec {
            vmer: 17,
            rt: base * 4 + 5,
            br: 25,
            rm: 9,
            wm: 6,
        }
    }

    #[test]
    fn classifies_everything_accepted() {
        let sink = Arc::new(CollectSink::default());
        let cfg = FleetConfig {
            shards: 2,
            queue_capacity: 1024,
            batch: 16,
            recorder_depth: 8,
            ..FleetConfig::default()
        };
        let svc = FleetService::start(cfg, detector(100), Arc::clone(&sink) as _);
        let mut accepted = 0u64;
        for host in 0..4u32 {
            for seq in 0..200u64 {
                let f = if seq == 77 {
                    bad_features(100)
                } else {
                    ok_features(100)
                };
                if svc.ingest(host, 0, seq, f) {
                    accepted += 1;
                }
            }
        }
        let snap = svc.shutdown();
        assert_eq!(snap.ingested, accepted);
        assert_eq!(snap.classified, accepted, "shutdown must drain the queues");
        assert_eq!(snap.lost, 0);
        assert_eq!(snap.incorrect, 4, "one planted anomaly per host");
        assert_eq!(snap.incidents, 4);
        assert_eq!(snap.suppressed_incidents, 0);
        let verdicts = sink.verdicts.lock().unwrap();
        assert_eq!(verdicts.len(), accepted as usize);
        drop(verdicts);
        let incidents = sink.incidents.lock().unwrap();
        assert_eq!(incidents.len(), 4);
        for dump in incidents.iter() {
            assert_eq!(dump.trigger.seq, 77);
            assert_eq!(dump.trigger.label, Label::Incorrect);
            assert!(dump.recent.len() <= 8);
            // The ring holds the activations leading up to the trigger.
            assert_eq!(dump.recent.last().unwrap().seq, 77);
        }
    }

    #[test]
    fn full_queue_drops_are_counted_not_blocking() {
        // One shard, tiny queue, and a service whose worker is saturated:
        // excess ingests must return false immediately.
        let cfg = FleetConfig {
            shards: 1,
            queue_capacity: 4,
            batch: 4,
            recorder_depth: 4,
            ..FleetConfig::default()
        };
        let svc = FleetService::start(cfg, detector(100), Arc::new(NullSink));
        let mut dropped = 0u64;
        let mut accepted = 0u64;
        // Push much faster than one worker can classify at times; with a
        // 4-slot queue some pushes must fail.
        for seq in 0..200_000u64 {
            if svc.ingest(0, 0, seq, ok_features(100)) {
                accepted += 1;
            } else {
                dropped += 1;
            }
        }
        let snap = svc.shutdown();
        assert_eq!(snap.ingested, accepted);
        assert_eq!(snap.dropped, dropped);
        assert_eq!(snap.classified, accepted);
        assert!(
            dropped > 0,
            "a 4-slot queue cannot absorb an unthrottled burst"
        );
        assert_eq!(snap.shards[0].dropped, dropped);
    }

    #[test]
    fn hot_swap_versions_verdicts() {
        let sink = Arc::new(CollectSink::default());
        let cfg = FleetConfig {
            shards: 1,
            queue_capacity: 1024,
            batch: 8,
            recorder_depth: 4,
            ..FleetConfig::default()
        };
        let svc = FleetService::start(cfg, detector(100), Arc::clone(&sink) as _);
        for seq in 0..50u64 {
            assert!(svc.ingest(0, 0, seq, ok_features(100)));
        }
        // Wait until the first wave is classified so versions are clean.
        while svc.snapshot().classified < 50 {
            std::thread::yield_now();
        }
        let v2 = svc.hot_swap_validated(detector(100), true).unwrap();
        assert_eq!(v2, 2);
        assert_eq!(svc.model_version(), 2);
        for seq in 50..100u64 {
            assert!(svc.ingest(0, 0, seq, ok_features(100)));
        }
        let snap = svc.shutdown();
        assert_eq!(snap.swaps, 1);
        assert_eq!(snap.model_version, 2);
        let verdicts = sink.verdicts.lock().unwrap();
        for v in verdicts.iter() {
            let expect = if v.seq < 50 { 1 } else { 2 };
            assert_eq!(
                v.model_version, expect,
                "seq {} classified under v{}, expected v{}",
                v.seq, v.model_version, expect
            );
        }
    }

    #[test]
    fn snapshot_reports_latency_histograms() {
        let cfg = FleetConfig {
            shards: 2,
            queue_capacity: 256,
            batch: 8,
            recorder_depth: 4,
            ..FleetConfig::default()
        };
        let svc = FleetService::start(cfg, detector(100), Arc::new(NullSink));
        for seq in 0..500u64 {
            svc.ingest((seq % 5) as u32, 0, seq, ok_features(100));
        }
        let snap = svc.shutdown();
        assert_eq!(snap.queue_latency.count, snap.classified);
        assert_eq!(snap.classify_latency.count, snap.classified);
        assert!(snap.queue_latency.p99 >= snap.queue_latency.p50);
        assert!(snap.throughput_per_sec > 0.0);
    }

    #[test]
    fn validated_swap_counts_rejections_and_keeps_serving() {
        let svc = FleetService::start(
            FleetConfig {
                shards: 1,
                queue_capacity: 256,
                batch: 8,
                recorder_depth: 4,
                ..FleetConfig::default()
            },
            detector(100),
            Arc::new(NullSink),
        );
        let golden_before = svc.golden_fingerprint();

        // Structurally corrupt candidate: rejected, slot untouched.
        let mut corrupt = detector(100);
        corrupt.chaos_flip_arena_bit(64 + 20);
        assert!(svc.hot_swap_validated(corrupt, false).is_err());
        assert_eq!(svc.model_version(), 1);
        assert_eq!(svc.golden_fingerprint(), golden_before);

        // Clean redeploy passes the strict gate and bumps the version.
        let redeploy = VmTransitionDetector::from_json(&detector(100).to_json()).unwrap();
        assert_eq!(svc.hot_swap_validated(redeploy, true).unwrap(), 2);

        // Service still classifies after all of the above.
        for seq in 0..50u64 {
            assert!(svc.ingest(0, 0, seq, ok_features(100)));
        }
        let snap = svc.shutdown();
        assert_eq!(snap.classified, 50);
        assert_eq!(snap.swap_rejections, 1);
        assert_eq!(snap.swaps, 1);
        assert_eq!(snap.model_version, 2);
        // The model gauges describe the deployed detector.
        assert_eq!(snap.model_arena_bytes, detector(100).arena_bytes() as u64);
        assert_eq!(snap.model_nr_splits, detector(100).nr_splits() as u64);
    }

    /// A rollback is a redeploy of the earlier detector through the
    /// validated gate: a fresh version carrying the old fingerprint.
    #[test]
    fn rollback_restores_previous_fingerprint() {
        let d1 = detector(100);
        let d2 = detector(900);
        let f1 = d1.fingerprint();
        let svc = FleetService::start(
            FleetConfig {
                shards: 1,
                queue_capacity: 256,
                batch: 8,
                recorder_depth: 4,
                ..FleetConfig::default()
            },
            d1.clone(),
            Arc::new(NullSink),
        );
        assert_eq!(svc.hot_swap_validated(d2, false).unwrap(), 2);
        assert_eq!(svc.hot_swap_validated(d1, false).unwrap(), 3);
        assert_eq!(svc.model_fingerprint(), f1);
        let snap = svc.shutdown();
        assert_eq!(snap.swaps, 2);
        assert_eq!(snap.model_version, 3);
        assert_eq!(snap.model_fingerprint, f1);
    }

    /// A flip that leaves a child reference out of bounds: such an arena
    /// gets no scorer and its walk is unchecked, so `start` must refuse
    /// it on the caller's thread before anything classifies with it.
    #[test]
    #[should_panic(expected = "detector fails the swap gate")]
    fn start_refuses_a_detector_that_fails_the_swap_gate() {
        let mut corrupt = crate::replay::synthetic_detector(1);
        corrupt.chaos_flip_arena_bit(64 + 20);
        let cfg = FleetConfig {
            shards: 1,
            ..FleetConfig::default()
        };
        let _svc = FleetService::start(cfg, corrupt, Arc::new(NullSink));
    }

    /// Panics on the first verdict for host 0, then collects normally.
    struct PanicOnceSink {
        panicked: AtomicBool,
        seen: AtomicU64,
    }

    impl VerdictSink for PanicOnceSink {
        fn on_verdict(&self, v: &FleetVerdict) {
            if v.host == 0 && !self.panicked.swap(true, Ordering::SeqCst) {
                panic!("sink exploded on purpose");
            }
            self.seen.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// The panic ends shard 0's worker and nothing restarts it. Shard 1
    /// keeps serving, `shutdown` still joins both, and every record shard
    /// 0 never classified is counted in `lost`.
    #[test]
    fn panicking_sink_cannot_take_down_the_service() {
        const PER_HOST: u64 = 1000;
        let sink = Arc::new(PanicOnceSink {
            panicked: AtomicBool::new(false),
            seen: AtomicU64::new(0),
        });
        let cfg = FleetConfig {
            shards: 2,
            queue_capacity: 2048,
            batch: 16,
            recorder_depth: 4,
            ..FleetConfig::default()
        };
        let svc = FleetService::start(cfg, detector(100), Arc::clone(&sink) as _);
        for seq in 0..PER_HOST {
            for host in 0..2 {
                assert!(svc.ingest(host, 0, seq, ok_features(100)));
            }
        }
        let snap = svc.shutdown();
        assert_eq!(snap.ingested, 2 * PER_HOST);
        assert_eq!(
            snap.shards[0].classified, 0,
            "host 0's first verdict panicked"
        );
        assert_eq!(snap.shards[1].classified, PER_HOST, "shard 1 served on");
        assert_eq!(
            snap.lost, PER_HOST,
            "shard 0 classified none of its records"
        );
        assert_eq!(
            snap.classified + snap.lost,
            snap.ingested,
            "no record may vanish unaccounted"
        );
        assert_eq!(sink.seen.load(Ordering::Relaxed), snap.classified);
    }

    #[test]
    fn collect_sink_recovers_from_poisoned_lock() {
        let sink = Arc::new(CollectSink::default());
        let sink2 = Arc::clone(&sink);
        // Poison the verdict mutex the way a panicking consumer would.
        let _ = std::thread::spawn(move || {
            let _guard = sink2.verdicts.lock().unwrap();
            panic!("poison the sink");
        })
        .join();
        assert!(sink.verdicts.is_poisoned());
        sink.on_verdict(&FleetVerdict {
            host: 1,
            vcpu: 0,
            seq: 1,
            label: Label::Correct,
            model_version: 1,
            model_fingerprint: 0,
            trace_id: 0,
        });
        assert_eq!(lock_recovering(&sink.verdicts).len(), 1);
    }
}
