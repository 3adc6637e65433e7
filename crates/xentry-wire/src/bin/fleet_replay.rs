//! Load-replay driver for the fleet detection service.
//!
//! ```text
//! cargo run --release --bin fleet-replay -- [--quick] [--hosts N]
//!     [--shards K] [--records N] [--rate R] [--swap] [--chaos]
//!     [--workload] [--detector PATH] [--out DIR] [--distributed N]
//!     [--serve ADDR] [--self-scrape] [--trace-depth N]
//! ```
//!
//! Replays activation traces from `--hosts` simulated platform instances
//! into a `--shards`-way service, optionally hot-swapping the model
//! mid-replay, then writes the metrics snapshot to `<out>/service.json`
//! and the flight trace to `<out>/trace.json` (open it in any Chrome
//! trace viewer, e.g. `ui.perfetto.dev`).
//!
//! `--serve ADDR` additionally exposes `/metrics` (Prometheus text
//! exposition), `/healthz` and `/trace` on `ADDR` for the lifetime of the
//! replay (`curl :9184/metrics`). `--self-scrape` scrapes that endpoint
//! in-process while the service is live, asserts the exposition parses
//! and the key per-shard/per-epoch series are present, and exits nonzero
//! on any violation — the CI smoke gate.
//!
//! `--distributed N` spawns N host-agent child processes (this same
//! binary re-executed) plus an in-process aggregator on 127.0.0.1, runs
//! the loopback distributed replay — including a forced kill/restart of
//! host 0 and a wire-propagated model epoch — self-scrapes the
//! aggregator's `/metrics`, and writes the receipt to
//! `<out>/distributed.json`. Exits nonzero unless the fleet-wide
//! accounting identity is exact and the model converged on every host.
//!
//! With `--chaos` the replay instead runs the service-level chaos
//! harness ([`xentry_fleet::chaos`]): panicking detectors, corrupted
//! candidate arenas, stalled shards, and queue saturation are injected
//! into the live replay, the recovery invariants are checked, and the
//! process exits nonzero if any were violated.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;
use xentry::VmTransitionDetector;
use xentry_fleet::{
    replay, ChaosConfig, FleetConfig, FleetService, NullSink, ReplayConfig, SpanKind,
};

struct Args {
    hosts: usize,
    shards: usize,
    records_per_host: usize,
    rate_per_host: f64,
    queue_capacity: usize,
    batch: usize,
    swap: bool,
    chaos: bool,
    trace: TraceSource,
    detector: Option<PathBuf>,
    out: PathBuf,
    serve: Option<String>,
    self_scrape: bool,
    trace_depth: usize,
    distributed: Option<usize>,
    quick: bool,
}

/// Where replayed activations come from. `Auto` pairs the trace with the
/// deployed model: a campaign-trained model replays real platform
/// activations; the synthetic fallback model replays its own
/// distribution (mixing them makes every verdict a false positive).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TraceSource {
    Auto,
    Workload,
    Synthetic,
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
            chaos: false,
            trace: TraceSource::Auto,
            detector: None,
            out: PathBuf::from("results"),
            serve: None,
            self_scrape: false,
            trace_depth: FleetConfig::default().trace_depth,
            distributed: None,
            quick: false,
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
                args.quick = true;
            }
            "--distributed" => {
                args.distributed = Some(
                    value("host count")
                        .parse()
                        .unwrap_or_else(|_| die("bad --distributed")),
                )
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
            "--chaos" => args.chaos = true,
            "--workload" => args.trace = TraceSource::Workload,
            "--synthetic" => args.trace = TraceSource::Synthetic,
            "--detector" => args.detector = Some(PathBuf::from(value("path"))),
            "--out" => args.out = PathBuf::from(value("dir")),
            "--serve" => args.serve = Some(value("addr")),
            "--self-scrape" => args.self_scrape = true,
            "--trace-depth" => {
                args.trace_depth = value("events")
                    .parse()
                    .unwrap_or_else(|_| die("bad --trace-depth"))
            }
            "--help" | "-h" => {
                println!(
                    "fleet-replay [--quick] [--hosts N] [--shards K] [--records N] \
                     [--rate R] [--queue-capacity N] [--batch N] [--swap] [--chaos] \
                     [--workload | --synthetic] [--detector PATH] [--out DIR] \
                     [--distributed N] [--serve ADDR] [--self-scrape] \
                     [--trace-depth N]"
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

/// `--chaos`: run the chaos harness instead of a plain replay. The
/// harness owns its own (synthetic-reference) service so every injected
/// fault has a reference classifier to check verdict parity against.
fn run_chaos_mode(args: &Args) -> ! {
    // Injected detector panics are expected and caught by the
    // supervisor; keep them to one line so the report stays readable.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let msg = info.payload().downcast_ref::<String>().cloned();
        match msg.as_deref() {
            Some(m) if m.starts_with("chaos: injected") => eprintln!("[failpoint] {m}"),
            _ => default_hook(info),
        }
    }));
    let cfg = ChaosConfig {
        hosts: args.hosts,
        records_per_host: args.records_per_host,
        shards: args.shards,
        rate_per_host: if args.rate_per_host > 0.0 {
            args.rate_per_host
        } else {
            10_000.0
        },
        ..ChaosConfig::default()
    };
    println!(
        "chaos run: {} records x {} hosts into {} shards at {}/s/host...",
        cfg.records_per_host, cfg.hosts, cfg.shards, cfg.rate_per_host
    );
    let report = xentry_fleet::run_chaos(&cfg);
    let path = report
        .snapshot
        .write(&args.out)
        .expect("write service.json");
    println!();
    print!("{}", report.render());
    println!("snapshot:   {}", path.display());
    std::process::exit(if report.is_clean() { 0 } else { 1 });
}

/// `--self-scrape`: hit the live scrape endpoint in-process and assert
/// the exposition is parseable and the key series exist. Any failure
/// kills the run — this is the CI gate on the telemetry surface.
fn self_scrape(addr: std::net::SocketAddr, shards: usize) {
    let (status, health) =
        xentry_fleet::http_get(addr, "/healthz").unwrap_or_else(|e| die(&format!("/healthz: {e}")));
    if status != 200 || !health.contains("\"status\"") {
        die(&format!("/healthz unhealthy: {status} {health}"));
    }
    let (status, body) =
        xentry_fleet::http_get(addr, "/metrics").unwrap_or_else(|e| die(&format!("/metrics: {e}")));
    if status != 200 {
        die(&format!("/metrics returned {status}"));
    }
    let samples = xentry_fleet::parse_exposition(&body)
        .unwrap_or_else(|e| die(&format!("/metrics exposition does not parse: {e}")));
    let series = |name: &str| samples.iter().filter(|(n, _, _)| n == name).count();
    for required in [
        "xentry_fleet_ingested_total",
        "xentry_fleet_classified_total",
        "xentry_fleet_trace_events_total",
        "xentry_fleet_queue_latency_ns_bucket",
        "xentry_fleet_queue_latency_ns_sum",
        "xentry_fleet_queue_latency_ns_count",
        "xentry_fleet_classify_latency_ns_count",
    ] {
        if series(required) == 0 {
            die(&format!("/metrics is missing series {required}"));
        }
    }
    if series("xentry_fleet_shard_classified_total") != shards {
        die(&format!(
            "expected one xentry_fleet_shard_classified_total sample per shard ({shards}), got {}",
            series("xentry_fleet_shard_classified_total")
        ));
    }
    if series("xentry_fleet_epoch_verdicts_total") == 0 {
        die("no per-epoch verdict series yet — scrape raced the first batch?");
    }
    println!(
        "self-scrape: /metrics ok ({} samples, {} shard series, {} epoch series), /healthz ok",
        samples.len(),
        series("xentry_fleet_shard_classified_total"),
        series("xentry_fleet_epoch_verdicts_total"),
    );
}

/// `--distributed N`: hand the run to the multi-process loopback
/// harness, with this binary re-executed as the host-child image.
fn run_distributed_mode(args: &Args) -> ! {
    let n = args.distributed.unwrap_or(4);
    if n == 0 {
        die("--distributed needs at least 1 host");
    }
    let mut cfg = xentry_wire::DistributedConfig::quick(n);
    if !args.quick {
        cfg.records_per_host = args.records_per_host;
        cfg.rate_per_host = args.rate_per_host;
        cfg.shards_per_host = args.shards;
    }
    cfg.out = args.out.clone();
    println!(
        "distributed replay: {n} host processes x {} records at {}/s, \
         {} shards each; kill/restart host {:?}, model push {}",
        cfg.records_per_host,
        cfg.rate_per_host,
        cfg.shards_per_host,
        cfg.kill_restart_host,
        cfg.publish_model,
    );
    let report = xentry_wire::run_distributed(&cfg)
        .unwrap_or_else(|e| die(&format!("distributed run: {e}")));
    let path = report.write(&cfg.out).expect("write distributed.json");
    println!();
    print!("{}", report.render());
    println!(
        "scrape:     /metrics ok={} ({} samples, {} host series)",
        report.scrape.ok, report.scrape.samples, report.scrape.host_series
    );
    println!("receipt:    {}", path.display());
    std::process::exit(if report.is_clean() { 0 } else { 1 });
}

fn main() {
    // Re-executed as a distributed host child? Run that and exit.
    if xentry_wire::maybe_child_main() {
        return;
    }
    let args = parse_args();
    if args.distributed.is_some() {
        run_distributed_mode(&args);
    }
    if args.chaos {
        run_chaos_mode(&args);
    }
    let (detector, source) = load_detector(&args);
    // A retrained model for the mid-replay swap: JSON round-trip of the
    // deployed one, so behavior is identical but the deployment epoch
    // advances (the common "same tree, fresh training run" case). It came
    // through a serialiser, so it deploys behind the strict canary gate.
    let swap_model = VmTransitionDetector::from_json(&detector.to_json()).expect("round trip");

    let use_workload = match args.trace {
        TraceSource::Workload => true,
        TraceSource::Synthetic => false,
        TraceSource::Auto => source == "file",
    };
    let trace = if use_workload {
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
        ..FleetConfig::default()
    };
    let svc = FleetService::start(cfg, detector, Arc::new(NullSink));
    // `--self-scrape` without `--serve` binds an ephemeral local port.
    let serve_addr = args
        .serve
        .clone()
        .or_else(|| args.self_scrape.then(|| "127.0.0.1:0".to_string()));
    let telemetry = serve_addr.map(|addr| {
        let server = svc
            .serve_telemetry(addr.as_str())
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
            h.join().expect("swapper panicked");
        }
        report
    });

    // Scrape while the service is still live (the endpoint serves the
    // running counters, not a post-mortem).
    if args.self_scrape {
        let server = telemetry.as_ref().expect("self-scrape started a server");
        self_scrape(server.addr(), args.shards);
    }

    let tracer = svc.tracer();
    let snapshot = svc.shutdown();
    let path = snapshot.write(&args.out).expect("write service.json");

    // Post-join the rings are quiescent: export the flight trace and
    // verify at least one record's full ingest -> classify -> verdict
    // chain survived ring overflow.
    let trace_path = args.out.join("trace.json");
    xentry_fleet::write_atomic(&trace_path, &tracer.export_chrome()).expect("write trace.json");
    let chain_id = {
        let events = tracer.events();
        let mut batch_seen = false;
        let mut ingest = std::collections::HashSet::new();
        let mut chain = 0u64;
        for e in &events {
            match e.kind {
                SpanKind::BatchClassify => batch_seen = true,
                SpanKind::Ingest if e.trace_id != 0 => {
                    ingest.insert(e.trace_id);
                }
                SpanKind::Verdict if chain == 0 && ingest.contains(&e.trace_id) => {
                    chain = e.trace_id;
                }
                _ => {}
            }
        }
        if batch_seen {
            chain
        } else {
            0
        }
    };
    if tracer.enabled() && chain_id == 0 {
        die("trace.json covers no complete ingest->classify->verdict chain");
    }
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
            "trace:      {} events ({} overflowed), chain verified for trace id {} -> {}",
            snapshot.trace_events,
            snapshot.trace_dropped,
            chain_id,
            trace_path.display(),
        );
    }
    println!("snapshot:   {}", path.display());
}
