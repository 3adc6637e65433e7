//! Load-replay driver for the fleet detection service.
//!
//! ```text
//! cargo run --release --bin fleet-replay -- [--quick] [--hosts N]
//!     [--shards K] [--records N] [--rate R] [--queue-capacity N]
//!     [--batch N] [--swap] [--detector PATH] [--out DIR]
//!     [--serve ADDR] [--trace-depth N]
//! ```
//!
//! Replays activation traces from `--hosts` simulated platform instances
//! into a `--shards`-way service, optionally hot-swapping the model
//! mid-replay, then writes the metrics snapshot to `<out>/service.json`
//! and the flight trace to `<out>/trace.json` (open it in any Chrome
//! trace viewer, e.g. `ui.perfetto.dev`).
//!
//! The trace follows the deployed model: a campaign-trained model
//! replays real platform activations, the synthetic fallback model its
//! own synthetic distribution (mixing them makes every verdict a false
//! positive).
//!
//! `--serve ADDR` additionally exposes `/metrics` (Prometheus text
//! exposition), `/healthz` and `/trace` on `ADDR` for the lifetime of the
//! replay (`curl :9184/metrics`).

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;
use xentry::VmTransitionDetector;
use xentry_fleet::{replay, FleetConfig, FleetService, NullSink, ReplayConfig};

/// Largest `--queue-capacity` and `--trace-depth` accepted: both are
/// rounded up to a power of two and allocated per shard.
const MAX_SLOTS: usize = 1 << 20;

struct Args {
    hosts: usize,
    shards: usize,
    records_per_host: usize,
    rate_per_host: f64,
    queue_capacity: usize,
    batch: usize,
    swap: bool,
    detector: Option<PathBuf>,
    out: PathBuf,
    serve: Option<String>,
    trace_depth: usize,
}

impl Default for Args {
    fn default() -> Args {
        Args {
            hosts: 8,
            shards: 8,
            records_per_host: 250_000,
            rate_per_host: 0.0,
            queue_capacity: 8192,
            batch: 64,
            swap: false,
            detector: None,
            out: PathBuf::from("results"),
            serve: None,
            trace_depth: FleetConfig::default().trace_depth,
        }
    }
}

fn parse_args() -> Args {
    let mut args = Args::default();
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut value = |what: &str| -> String {
            it.next()
                .unwrap_or_else(|| die(&format!("{a} needs a {what}")))
        };
        match a.as_str() {
            "--quick" => {
                args.hosts = 4;
                args.shards = 4;
                args.records_per_host = 50_000;
            }
            "--hosts" => {
                args.hosts = value("count")
                    .parse()
                    .unwrap_or_else(|_| die("bad --hosts"))
            }
            "--shards" => {
                args.shards = value("count")
                    .parse()
                    .unwrap_or_else(|_| die("bad --shards"))
            }
            "--records" => {
                args.records_per_host = value("count")
                    .parse()
                    .unwrap_or_else(|_| die("bad --records"))
            }
            "--rate" => {
                args.rate_per_host = value("records/s")
                    .parse()
                    .unwrap_or_else(|_| die("bad --rate"))
            }
            "--queue-capacity" => {
                args.queue_capacity = value("slots")
                    .parse()
                    .unwrap_or_else(|_| die("bad --queue-capacity"))
            }
            "--batch" => args.batch = value("size").parse().unwrap_or_else(|_| die("bad --batch")),
            "--swap" => args.swap = true,
            "--detector" => args.detector = Some(PathBuf::from(value("path"))),
            "--out" => args.out = PathBuf::from(value("dir")),
            "--serve" => args.serve = Some(value("addr")),
            "--trace-depth" => {
                args.trace_depth = value("events")
                    .parse()
                    .unwrap_or_else(|_| die("bad --trace-depth"))
            }
            "--help" | "-h" => {
                println!(
                    "fleet-replay [--quick] [--hosts N] [--shards K] [--records N] \
                     [--rate R] [--queue-capacity N] [--batch N] [--swap] \
                     [--detector PATH] [--out DIR] [--serve ADDR] [--trace-depth N]"
                );
                std::process::exit(0);
            }
            other => die(&format!("unknown flag {other}")),
        }
    }
    if args.shards == 0 {
        die("--shards must be at least 1");
    }
    if args.hosts == 0 {
        die("--hosts must be at least 1");
    }
    if args.batch == 0 {
        die("--batch must be at least 1");
    }
    if args.queue_capacity > MAX_SLOTS {
        die(&format!("--queue-capacity must be at most {MAX_SLOTS}"));
    }
    if args.trace_depth > MAX_SLOTS {
        die(&format!("--trace-depth must be at most {MAX_SLOTS}"));
    }
    // Before the replay, so an unwritable --out costs no replay.
    std::fs::create_dir_all(&args.out)
        .unwrap_or_else(|e| die(&format!("--out {}: {e}", args.out.display())));
    args
}

fn die(msg: &str) -> ! {
    eprintln!("fleet-replay: {msg}");
    std::process::exit(2);
}

/// Deployed model: explicit path, then the campaign-trained
/// `results/detector.json`, then a synthetic-data fallback.
fn load_detector(args: &Args) -> (VmTransitionDetector, &'static str) {
    let candidates = [
        args.detector.clone(),
        Some(PathBuf::from("results/detector.json")),
    ];
    for path in candidates.iter().flatten() {
        match std::fs::read_to_string(path) {
            Ok(json) => match VmTransitionDetector::from_json(&json) {
                Ok(det) => {
                    println!(
                        "deployed model: {} (fingerprint {:016x})",
                        path.display(),
                        det.fingerprint()
                    );
                    return (det, "file");
                }
                Err(e) => {
                    if args.detector.is_some() {
                        die(&format!("{}: {e}", path.display()))
                    }
                }
            },
            Err(_) if args.detector.is_none() => {}
            Err(e) => die(&format!("{}: {e}", path.display())),
        }
    }
    let det = xentry_fleet::replay::synthetic_detector(1);
    println!(
        "deployed model: synthetic fallback (fingerprint {:016x})",
        det.fingerprint()
    );
    (det, "synthetic")
}

fn main() {
    let args = parse_args();
    let (detector, source) = load_detector(&args);
    // A retrained model for the mid-replay swap: JSON round-trip of the
    // deployed one, so behavior is identical but the deployment epoch
    // advances (the common "same tree, fresh training run" case). It came
    // through a serialiser, so it deploys behind the strict canary gate.
    let swap_model = VmTransitionDetector::from_json(&detector.to_json()).unwrap_or_else(|e| {
        die(&format!(
            "--swap: the deployed model does not round-trip: {e}"
        ))
    });

    let trace = if source == "file" {
        println!("collecting workload trace from the simulated platform...");
        xentry_fleet::replay::workload_trace(guest_sim::Benchmark::Postmark, 4096, 21)
    } else {
        xentry_fleet::replay::synthetic_trace(65_536, 7)
    };

    let cfg = FleetConfig {
        shards: args.shards,
        queue_capacity: args.queue_capacity,
        batch: args.batch,
        recorder_depth: 32,
        trace_depth: args.trace_depth,
    };
    let svc = FleetService::start(cfg, detector, Arc::new(NullSink));
    let telemetry = args.serve.as_deref().map(|addr| {
        let server = svc
            .serve_telemetry(addr)
            .unwrap_or_else(|e| die(&format!("--serve {addr}: {e}")));
        println!(
            "telemetry:  http://{}/metrics (also /healthz, /trace)",
            server.addr()
        );
        server
    });
    let replay_cfg = ReplayConfig {
        hosts: args.hosts,
        records_per_host: args.records_per_host,
        rate_per_host: args.rate_per_host,
    };
    println!(
        "replaying {} records x {} hosts into {} shards ({}, rate {})...",
        args.records_per_host,
        args.hosts,
        args.shards,
        source,
        if args.rate_per_host > 0.0 {
            format!("{}/s/host", args.rate_per_host)
        } else {
            "unthrottled".into()
        },
    );

    let report = std::thread::scope(|s| {
        let svc_ref = &svc;
        let swapper = args.swap.then(|| {
            s.spawn(move || {
                // Deploy the retrained model while the replay is in
                // flight.
                std::thread::sleep(Duration::from_millis(50));
                let v = svc_ref
                    .hot_swap_validated(swap_model, true)
                    .unwrap_or_else(|e| die(&format!("--swap: {e}")));
                println!("hot-swapped model mid-replay -> version {v}");
            })
        });
        let report = replay(svc_ref, &trace, &replay_cfg);
        if let Some(h) = swapper {
            // The swapper reports a refused swap through `die`; only a bug
            // could unwind out of it.
            h.join().expect("swapper panicked");
        }
        report
    });

    let tracer = svc.tracer();
    let snapshot = svc.shutdown();
    let path = snapshot
        .write(&args.out)
        .unwrap_or_else(|e| die(&format!("write service.json: {e}")));

    // Post-join the rings are quiescent: export the flight trace.
    let trace_path = args.out.join("trace.json");
    sim_machine::write_atomic(&trace_path, tracer.export_chrome().as_bytes())
        .unwrap_or_else(|e| die(&format!("write trace.json: {e}")));
    drop(telemetry);

    let secs = report.wall_ns as f64 / 1e9;
    println!();
    println!(
        "replay:     {} sent in {:.2}s ({:.0}/s offered)",
        report.sent, secs, report.offered_per_sec
    );
    println!(
        "service:    {} classified ({:.0}/s), {} dropped ({:.3}%)",
        snapshot.classified,
        snapshot.classified as f64 / secs,
        snapshot.dropped,
        100.0 * snapshot.dropped as f64 / report.sent.max(1) as f64,
    );
    println!(
        "verdicts:   {} incorrect, {} incident dumps, model v{} ({} swaps)",
        snapshot.incorrect, snapshot.incidents, snapshot.model_version, snapshot.swaps
    );
    println!(
        "latency:    queue p50 {}ns p99 {}ns | classify p50 {}ns p99 {}ns",
        snapshot.queue_latency.p50,
        snapshot.queue_latency.p99,
        snapshot.classify_latency.p50,
        snapshot.classify_latency.p99,
    );
    if tracer.enabled() {
        println!(
            "trace:      {} events ({} overflowed) -> {}",
            snapshot.trace_events,
            snapshot.trace_dropped,
            trace_path.display(),
        );
    }
    println!("snapshot:   {}", path.display());
}
