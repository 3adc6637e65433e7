//! Fleet serving quickstart: stand up the detection service, stream
//! activations from a few simulated hosts, hot-swap the model mid-flight,
//! and read the verdicts and metrics back.
//!
//! ```text
//! cargo run --release --bin fleet_quickstart
//! ```

use std::sync::Arc;
use xentry_fleet::{replay, CollectSink, FleetConfig, FleetService};

fn main() {
    // A detector trained on the synthetic activation distribution (use
    // `results/detector.json` from the campaign pipeline in production).
    let detector = replay::synthetic_detector(1);
    println!("model fingerprint: {:016x}", detector.fingerprint());

    let sink = Arc::new(CollectSink::default());
    let cfg = FleetConfig {
        shards: 4,
        ..FleetConfig::default()
    };
    let svc = FleetService::start(cfg, detector.clone(), Arc::clone(&sink) as _);

    // Three hosts report activations; host 2 reports a corrupted one (its
    // performance counters inflated the way a soft error in handler
    // control flow inflates them).
    let trace = replay::synthetic_trace(512, 7);
    for (i, f) in trace.iter().enumerate() {
        for host in 0..3u32 {
            svc.ingest(host, 0, i as u64, *f);
        }
    }
    let mut corrupted = trace[0];
    corrupted.rt *= 10;
    corrupted.br *= 10;
    corrupted.rm *= 10;
    corrupted.wm *= 10;
    svc.ingest(2, 1, trace.len() as u64, corrupted);

    // Redeploy the model without stopping the service, behind the canary
    // gate (strict parity: a redeploy must not change any verdict).
    let v = svc
        .hot_swap_validated(detector, true)
        .expect("a redeploy of the incumbent passes the canary gate");
    println!("hot-swapped to model version {v} while classifying");

    let snapshot = svc.shutdown();
    println!(
        "\nclassified {} activations at {:.0}/s ({} dropped)",
        snapshot.classified, snapshot.throughput_per_sec, snapshot.dropped
    );
    println!(
        "incorrect verdicts: {} (classify p50 {} ns, p99 {} ns)",
        snapshot.incorrect, snapshot.classify_latency.p50, snapshot.classify_latency.p99
    );

    // Every Incorrect verdict came with a flight-recorder dump of the
    // reporting host's recent activations.
    let incidents = sink.incidents.lock().unwrap();
    for dump in incidents.iter() {
        println!("\n{}", dump.render());
    }
    if incidents.is_empty() {
        println!("\n(no incidents this run)");
    }
}
