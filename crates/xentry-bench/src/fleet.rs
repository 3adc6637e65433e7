//! Fleet-serving experiment: drive the `xentry-fleet` service with a
//! replayed trace and report aggregate throughput, drop accounting and
//! latency percentiles (the serving-side numbers the paper's single-host
//! evaluation cannot show), plus the observability-layer overhead figure
//! (the fleet-side analogue of the paper's Table II cost accounting).

use serde::{Deserialize, Serialize};
use std::sync::Arc;
use xentry::VmTransitionDetector;
use xentry_fleet::{
    measure_overhead, replay, FleetConfig, FleetService, NullSink, OverheadConfig, OverheadReport,
    ReplayConfig, ServiceSnapshot,
};

use crate::pipeline::Scale;

/// Replay outcome + service snapshot.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FleetReport {
    /// "campaign" when the trained detector classified its own workload
    /// distribution, "synthetic" for the fallback pairing.
    pub model_source: String,
    pub hosts: usize,
    pub shards: usize,
    /// Classified records per second on each shard over the replay wall
    /// clock — the per-worker view of the inference engine's throughput.
    pub per_shard_throughput: Vec<f64>,
    pub replay: replay::ReplayReport,
    pub snapshot: ServiceSnapshot,
}

/// Run the fleet service over a replayed trace. With a campaign-trained
/// `detector`, replays real platform activations; otherwise pairs the
/// synthetic detector with the synthetic distribution.
pub fn fleet_experiment(
    detector: Option<&VmTransitionDetector>,
    scale: &Scale,
    seed: u64,
) -> FleetReport {
    let hosts = 8;
    // One worker per available core, capped at the historical 8: more
    // shards than cores measures thread oversubscription, not the
    // classify path.
    let shards = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(8);
    // Enough records to measure steady-state throughput; scales with the
    // evaluation campaign size so `--paper` runs longer.
    let records_per_host = (scale.eval_injections * 60).max(20_000);
    let (det, trace, model_source) = match detector {
        Some(det) => {
            let trace = replay::workload_trace(guest_sim::Benchmark::Postmark, 4096, seed);
            (det.clone(), trace, "campaign")
        }
        None => {
            let det = replay::synthetic_detector(seed);
            let trace = replay::synthetic_trace(65_536, seed);
            (det, trace, "synthetic")
        }
    };
    let cfg = FleetConfig {
        shards,
        ..FleetConfig::default()
    };
    let svc = FleetService::start(cfg, det, Arc::new(NullSink));
    let rep = replay::replay(
        &svc,
        &trace,
        &ReplayConfig {
            hosts,
            records_per_host,
            rate_per_host: 0.0,
        },
    );
    let snapshot = svc.shutdown();
    let wall_secs = (rep.wall_ns.max(1)) as f64 / 1e9;
    let per_shard_throughput = snapshot
        .shards
        .iter()
        .map(|s| s.classified as f64 / wall_secs)
        .collect();
    FleetReport {
        model_source: model_source.to_string(),
        hosts,
        shards,
        per_shard_throughput,
        replay: rep,
        snapshot,
    }
}

impl FleetReport {
    pub fn render(&self) -> String {
        let s = &self.snapshot;
        let secs = self.replay.wall_ns as f64 / 1e9;
        let mut out = format!(
            "Fleet serving ({} model, {} hosts -> {} shards)\n\
             ------------------------------------------------\n\
             offered     {:>12.0} records/s ({} sent in {:.2}s)\n\
             classified  {:>12.0} records/s ({} total)\n\
             dropped     {:>12} ({:.2}% of offered)\n\
             incorrect   {:>12} ({} incident dumps)\n\
             model       {} B arena, {} splits\n\
             queue lat   p50 {} ns, p99 {} ns\n\
             classify    p50 {} ns, p99 {} ns\n",
            self.model_source,
            self.hosts,
            self.shards,
            self.replay.offered_per_sec,
            self.replay.sent,
            secs,
            s.throughput_per_sec,
            s.classified,
            s.dropped,
            100.0 * s.dropped as f64 / self.replay.sent.max(1) as f64,
            s.incorrect,
            s.incidents,
            s.model_arena_bytes,
            s.model_nr_splits,
            s.queue_latency.p50,
            s.queue_latency.p99,
            s.classify_latency.p50,
            s.classify_latency.p99,
        );
        for (i, t) in self.per_shard_throughput.iter().enumerate() {
            out.push_str(&format!("shard {i:<5} {t:>12.0} records/s\n"));
        }
        out
    }
}

/// Measure the flight-trace layer's cost on the serving hot path: best
/// untraced leg vs. best traced leg over identical replays, reported as
/// throughput regression plus ns- and cycles-per-classification (the
/// Table-II shape for the fleet's own observability).
pub fn overhead_experiment(scale: &Scale, seed: u64) -> OverheadReport {
    measure_overhead(&OverheadConfig {
        records_per_host: (scale.eval_injections * 30).max(10_000),
        seed,
        ..OverheadConfig::default()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overhead_experiment_reports_both_arms() {
        let mut scale = Scale::quick();
        scale.eval_injections = 10;
        let rep = overhead_experiment(&scale, 5);
        assert!(rep.legs.iter().any(|l| l.traced));
        assert!(rep.legs.iter().any(|l| !l.traced));
        assert!(rep.baseline_throughput > 0.0);
        let back: OverheadReport =
            serde_json::from_str(&serde_json::to_string(&rep).unwrap()).unwrap();
        assert_eq!(back.legs.len(), rep.legs.len());
    }

    #[test]
    fn synthetic_fleet_experiment_runs() {
        let mut scale = Scale::quick();
        scale.eval_injections = 100; // keep the test snappy
        let rep = fleet_experiment(None, &scale, 3);
        assert_eq!(rep.model_source, "synthetic");
        assert_eq!(rep.snapshot.classified, rep.replay.accepted);
        assert!(rep.snapshot.throughput_per_sec > 0.0);
        assert!(rep.snapshot.model_arena_bytes > 0);
        assert_eq!(rep.per_shard_throughput.len(), rep.shards);
        assert!(rep.per_shard_throughput.iter().sum::<f64>() > 0.0);
        let text = rep.render();
        assert!(text.contains("classified"), "{text}");
        assert!(text.contains("shard 0"), "{text}");
        // Round-trips through JSON for the figures artifact.
        let back: FleetReport =
            serde_json::from_str(&serde_json::to_string(&rep).unwrap()).unwrap();
        assert_eq!(back.snapshot.classified, rep.snapshot.classified);
    }
}
