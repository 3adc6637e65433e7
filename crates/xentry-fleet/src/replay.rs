//! Load-replay driver: feed campaign-style activation traces into a
//! running [`FleetService`] from `K` simulated hosts
//! at a configurable rate.
//!
//! Trace sources:
//! * [`workload_trace`] — run the real xen-like platform under an Xentry
//!   collector shim and take the per-activation feature vectors;
//! * [`synthetic_trace`] — a statistical model of the same features
//!   (per-VMER base costs plus rare inflated anomalies), cheap enough to
//!   generate millions of records for throughput work.

use crate::record::TelemetryRecord;
use crate::service::FleetService;
use mltree::{Dataset, DecisionTree, Label, Sample, TrainConfig};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::time::Instant;
use xentry::{FeatureVec, VmTransitionDetector, Xentry, FEATURE_NAMES};

/// Replay shape.
#[derive(Debug, Clone, Copy)]
pub struct ReplayConfig {
    /// Simulated platform instances, each on its own sender thread.
    pub hosts: usize,
    /// Records each host sends.
    pub records_per_host: usize,
    /// Per-host offered rate in records/second; 0 means unthrottled.
    pub rate_per_host: f64,
}

impl Default for ReplayConfig {
    fn default() -> ReplayConfig {
        ReplayConfig {
            hosts: 8,
            records_per_host: 100_000,
            rate_per_host: 0.0,
        }
    }
}

/// What the driver observed (service-side numbers live in the snapshot).
#[derive(Debug, Clone)]
pub struct ReplayReport {
    pub hosts: usize,
    pub sent: u64,
    pub accepted: u64,
    pub rejected: u64,
    pub wall_ns: u64,
    /// Aggregate offered rate actually achieved, records/second.
    pub offered_per_sec: f64,
}

/// Replay `trace` into `service` from `cfg.hosts` concurrent senders.
/// Each host walks the trace at its own offset so the fleet does not
/// phase-lock, wrapping as needed to reach `records_per_host`.
pub fn replay(service: &FleetService, trace: &[FeatureVec], cfg: &ReplayConfig) -> ReplayReport {
    assert!(!trace.is_empty(), "replay needs a non-empty trace");
    assert!(cfg.hosts >= 1, "replay needs at least one host");
    let t0 = Instant::now();
    let per_host: Vec<(u64, u64)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..cfg.hosts)
            .map(|h| {
                s.spawn(move || {
                    let offset = h * 7919; // co-prime stride de-phases hosts
                    let start = Instant::now();
                    let mut accepted = 0u64;
                    let mut rejected = 0u64;
                    for i in 0..cfg.records_per_host {
                        if cfg.rate_per_host > 0.0 {
                            let due_ns = (i as f64 / cfg.rate_per_host * 1e9) as u64;
                            while (start.elapsed().as_nanos() as u64) < due_ns {
                                std::hint::spin_loop();
                            }
                        }
                        let f = trace[(offset + i) % trace.len()];
                        let rec = TelemetryRecord::new(h as u32, (i % 4) as u32, i as u64, f);
                        if service.ingest_record(rec) {
                            accepted += 1;
                        } else {
                            rejected += 1;
                        }
                    }
                    (accepted, rejected)
                })
            })
            .collect();
        handles
            .into_iter()
            // A host thread only ingests, and `ingest_record` cannot panic.
            .map(|h| h.join().expect("replay host panicked"))
            .collect()
    });
    let wall_ns = (t0.elapsed().as_nanos() as u64).max(1);
    let accepted: u64 = per_host.iter().map(|(a, _)| a).sum();
    let rejected: u64 = per_host.iter().map(|(_, r)| r).sum();
    let sent = accepted + rejected;
    ReplayReport {
        hosts: cfg.hosts,
        sent,
        accepted,
        rejected,
        wall_ns,
        offered_per_sec: sent as f64 * 1e9 / wall_ns as f64,
    }
}

/// Collect `n` real activation feature vectors by running the simulated
/// platform under a collector shim (one guest, paper-style workload).
pub fn workload_trace(benchmark: guest_sim::Benchmark, n: usize, seed: u64) -> Vec<FeatureVec> {
    let mut plat =
        guest_sim::workload_platform(benchmark, sim_machine::VirtMode::Para, 2, 1, 8, seed);
    let mut shim = Xentry::collector();
    plat.boot(1, &mut shim);
    while shim.trace.len() < n {
        let act = plat.run_activation(1, &mut shim);
        assert!(act.outcome.is_healthy(), "fault-free trace collection died");
    }
    shim.trace.truncate(n);
    shim.trace
}

/// Per-VMER statistical model used by the synthetic generator and its
/// matching training set. `(vmer, base_rt, base_br, base_rm, base_wm)`.
const VMER_PROFILES: [(u16, u64, u64, u64, u64); 4] = [
    (17, 60, 6, 8, 4),        // xen_version-style short hypercall
    (32, 400, 45, 90, 60),    // event_channel_op-style
    (40, 900, 110, 220, 150), // sched_op / context switch heavy
    (8, 200, 20, 40, 25),     // page-fault-ish exit
];

fn profile_features(rng: &mut ChaCha8Rng, anomalous: bool) -> FeatureVec {
    let (vmer, rt, br, rm, wm) = VMER_PROFILES[rng.gen_range(0..VMER_PROFILES.len())];
    let jitter = |rng: &mut ChaCha8Rng, base: u64| base + rng.gen_range(0..base.max(2) / 2);
    let scale = if anomalous { 10 } else { 1 };
    FeatureVec {
        vmer,
        rt: jitter(rng, rt) * scale,
        br: jitter(rng, br) * scale,
        rm: jitter(rng, rm) * scale,
        wm: jitter(rng, wm) * scale,
    }
}

/// Anomaly rate of the synthetic trace: one in this many activations has
/// its counters inflated 10x (a soft error corrupting handler control
/// flow does exactly this to the Table-I counters).
pub const SYNTHETIC_ANOMALY_PERIOD: u64 = 512;

/// Generate `n` synthetic activations with rare planted anomalies.
pub fn synthetic_trace(n: usize, seed: u64) -> Vec<FeatureVec> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let anomalous = rng.gen_range(0..SYNTHETIC_ANOMALY_PERIOD) == 0;
            profile_features(&mut rng, anomalous)
        })
        .collect()
}

/// Train a detector on labeled synthetic data so the replay path works
/// even when `results/detector.json` has not been produced yet.
pub fn synthetic_detector(seed: u64) -> VmTransitionDetector {
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x5eed);
    let mut ds = Dataset::new(&FEATURE_NAMES);
    for i in 0..4000u64 {
        let anomalous = i % 8 == 7; // balanced-enough training mix
        let f = profile_features(&mut rng, anomalous);
        ds.push(f.into_sample(if anomalous {
            Label::Incorrect
        } else {
            Label::Correct
        }));
    }
    VmTransitionDetector::new(DecisionTree::train(&ds, &TrainConfig::decision_tree()))
}

/// A labeled sample of the synthetic distribution (for tests needing
/// ground truth).
pub fn synthetic_labeled(n: usize, seed: u64) -> Vec<Sample> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let anomalous = rng.gen_range(0..SYNTHETIC_ANOMALY_PERIOD) == 0;
            profile_features(&mut rng, anomalous).into_sample(if anomalous {
                Label::Incorrect
            } else {
                Label::Correct
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::{CollectSink, FleetConfig};
    use std::sync::Arc;

    #[test]
    fn synthetic_trace_is_deterministic_and_anomalous() {
        let a = synthetic_trace(4096, 9);
        let b = synthetic_trace(4096, 9);
        assert_eq!(a, b);
        let c = synthetic_trace(4096, 10);
        assert_ne!(a, c);
        // Expect a few 10x-inflated records.
        let det = synthetic_detector(1);
        let anomalies = a
            .iter()
            .filter(|f| det.classify(f) == Label::Incorrect)
            .count();
        assert!(
            anomalies > 0,
            "synthetic trace should contain detectable anomalies"
        );
        assert!(
            anomalies < a.len() / 50,
            "anomalies must be rare: {anomalies}"
        );
    }

    #[test]
    fn synthetic_detector_separates_the_distribution() {
        let det = synthetic_detector(3);
        let labeled = synthetic_labeled(4096, 77);
        let correct = labeled
            .iter()
            .filter(|s| {
                let f = FeatureVec {
                    vmer: s.features[0] as u16,
                    rt: s.features[1],
                    br: s.features[2],
                    rm: s.features[3],
                    wm: s.features[4],
                };
                det.classify(&f) == s.label
            })
            .count();
        let acc = correct as f64 / labeled.len() as f64;
        assert!(acc > 0.95, "synthetic detector accuracy {acc}");
    }

    #[test]
    fn replay_reaches_the_service() {
        // (shards, sender hosts): a small fleet and the 8 x 8 shape.
        for (shards, hosts) in [(2, 3), (8, 8)] {
            let sink = Arc::new(CollectSink::default());
            let cfg = FleetConfig {
                shards,
                queue_capacity: 4096,
                ..FleetConfig::default()
            };
            let svc =
                crate::FleetService::start(cfg, synthetic_detector(1), Arc::clone(&sink) as _);
            let trace = synthetic_trace(2048, 5);
            let rep = replay(
                &svc,
                &trace,
                &ReplayConfig {
                    hosts,
                    records_per_host: 2000,
                    rate_per_host: 0.0,
                },
            );
            let sent = hosts as u64 * 2000;
            assert_eq!(rep.sent, sent);
            assert_eq!(rep.accepted + rep.rejected, sent);
            let snap = svc.shutdown();
            assert_eq!(snap.classified, rep.accepted, "{shards} x {hosts}");
            assert_eq!(sink.verdicts.lock().unwrap().len(), rep.accepted as usize);
        }
    }

    #[test]
    fn throttled_replay_respects_the_rate() {
        let cfg = FleetConfig {
            shards: 1,
            queue_capacity: 1024,
            ..FleetConfig::default()
        };
        let svc = crate::FleetService::start(cfg, synthetic_detector(1), Arc::new(crate::NullSink));
        let trace = synthetic_trace(256, 5);
        // 2 hosts x 500 records at 5k/s each: should take ~100 ms.
        let rep = replay(
            &svc,
            &trace,
            &ReplayConfig {
                hosts: 2,
                records_per_host: 500,
                rate_per_host: 5000.0,
            },
        );
        let wall_ms = rep.wall_ns as f64 / 1e6;
        assert!(
            wall_ms >= 90.0,
            "throttle ignored: finished in {wall_ms} ms"
        );
        assert_eq!(
            rep.rejected, 0,
            "5k/s per host must not overrun a 1024 queue"
        );
        svc.shutdown();
    }

    #[test]
    fn workload_trace_collects_real_features() {
        let trace = workload_trace(guest_sim::Benchmark::Postmark, 64, 21);
        assert_eq!(trace.len(), 64);
        assert!(trace.iter().all(|f| f.rt > 0));
    }
}
