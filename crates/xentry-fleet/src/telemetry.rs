//! Scrapeable telemetry: Prometheus text exposition, a health probe, and
//! the Chrome-trace export, served over a plain `std::net::TcpListener`.
//!
//! The fleet's metrics were previously observable only as an end-of-run
//! JSON snapshot; none of the paper's live questions (detection latency
//! per VM exit, classifier overhead on the hot path, verdict provenance)
//! were answerable on a running service. This module exposes them the
//! way production fleets are actually watched:
//!
//! * `GET /metrics` — Prometheus text exposition (format 0.0.4) derived
//!   from the same [`Metrics`] the JSON snapshot uses, with per-shard
//!   and per-epoch labels and real `_bucket`/`_sum`/`_count` histograms;
//! * `GET /healthz` — liveness as a one-line JSON object;
//! * `GET /trace` — the flight tracer's rings as Chrome trace-event JSON
//!   (same payload `fleet-replay` writes to `results/trace.json`).
//!
//! No HTTP library, no async runtime: one accept loop on a nonblocking
//! listener, one short-lived thread per server (not per connection — a
//! scrape endpoint serves one scraper, not the internet). Everything a
//! handler reads is a racy-consistent snapshot, so a scrape never touches
//! the classify hot path.
//!
//! [`Metrics`]: crate::metrics::Metrics

use crate::metrics::{HistogramSnapshot, ServiceSnapshot, ShardSnapshot};
use crate::net::{not_found, HttpServer};
use crate::service::Shared;
use std::net::{SocketAddr, ToSocketAddrs};
use std::sync::Arc;

// ---------------------------------------------------------------------------
// Prometheus text exposition
// ---------------------------------------------------------------------------

/// Escape a label value per the Prometheus text format: backslash, double
/// quote and newline must be escaped; everything else passes through.
pub fn escape_label_value(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Format an `f64` the way Prometheus clients expect: `+Inf`-style
/// specials never occur here, so plain shortest-repr formatting is fine,
/// but integral values drop the fractional point for stability.
fn fmt_value(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

/// One exposition sample: metric name, labels, value. `/metrics` is
/// written from these and [`parse_exposition`] reads them back.
pub type Sample = (String, Vec<(String, String)>, f64);

/// What a family's `# TYPE` line declares.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Kind {
    Counter,
    Gauge,
    Histogram,
}

impl Kind {
    fn as_str(self) -> &'static str {
        match self {
            Kind::Counter => "counter",
            Kind::Gauge => "gauge",
            Kind::Histogram => "histogram",
        }
    }
}

/// One metric family: its `# HELP` / `# TYPE` header and every sample
/// under it. `/metrics` is a `Vec<Family>` built by a pure function of a
/// snapshot, and [`render_exposition`] is the only writer of the text.
#[derive(Debug)]
pub(crate) struct Family {
    name: String,
    kind: Kind,
    help: &'static str,
    samples: Vec<Sample>,
}

impl Family {
    /// A family of one unlabelled sample.
    pub fn scalar(name: String, kind: Kind, help: &'static str, value: f64) -> Family {
        Family::labelled(name, kind, help, [(Vec::new(), value)])
    }

    /// A gauge of constant 1 whose labels carry an identity (the
    /// deployed or published model).
    pub fn info(
        name: String,
        help: &'static str,
        labels: impl IntoIterator<Item = (&'static str, String)>,
    ) -> Family {
        let labels = labels.into_iter().map(|(k, v)| (k.to_string(), v));
        Family::labelled(name, Kind::Gauge, help, [(labels.collect(), 1.0)])
    }

    /// One sample per row, labelled `label="<row key>"`: the shape of
    /// every per-shard, per-epoch and per-host series.
    pub fn table(
        name: String,
        kind: Kind,
        help: &'static str,
        label: &str,
        rows: impl IntoIterator<Item = (String, f64)>,
    ) -> Family {
        let rows = rows
            .into_iter()
            .map(|(key, value)| (vec![(label.to_string(), key)], value));
        Family::labelled(name, kind, help, rows)
    }

    fn labelled(
        name: String,
        kind: Kind,
        help: &'static str,
        rows: impl IntoIterator<Item = (Vec<(String, String)>, f64)>,
    ) -> Family {
        let samples = rows
            .into_iter()
            .map(|(labels, value)| (name.clone(), labels, value))
            .collect();
        Family {
            name,
            kind,
            help,
            samples,
        }
    }

    /// A log2 histogram as cumulative `_bucket{le=...}` samples, then
    /// `_sum` and `_count`.
    fn histogram(name: String, help: &'static str, h: &HistogramSnapshot) -> Family {
        let bucket = format!("{name}_bucket");
        let le = |edge: String| vec![("le".to_string(), edge)];
        let mut cumulative = 0u64;
        let mut samples = Vec::with_capacity(h.buckets.len() + 3);
        for &(edge, count) in &h.buckets {
            cumulative += count;
            // The top log2 bucket's edge is u64::MAX; fold it into +Inf
            // rather than printing an 20-digit le no scraper can bucket.
            if edge != u64::MAX {
                samples.push((bucket.clone(), le(edge.to_string()), cumulative as f64));
            }
        }
        samples.push((bucket, le("+Inf".to_string()), h.count as f64));
        samples.push((format!("{name}_sum"), Vec::new(), h.sum as f64));
        samples.push((format!("{name}_count"), Vec::new(), h.count as f64));
        Family {
            name,
            kind: Kind::Histogram,
            help,
            samples,
        }
    }
}

/// Render `families`, in order, as Prometheus text exposition (0.0.4).
pub(crate) fn render_exposition(families: &[Family]) -> String {
    let mut out = String::with_capacity(4096);
    for f in families {
        out.push_str(&format!(
            "# HELP {name} {}\n# TYPE {name} {}\n",
            f.help,
            f.kind.as_str(),
            name = f.name
        ));
        for (name, labels, value) in &f.samples {
            out.push_str(name);
            if !labels.is_empty() {
                let labels: Vec<String> = labels
                    .iter()
                    .map(|(k, v)| format!("{k}=\"{}\"", escape_label_value(v)))
                    .collect();
                out.push_str(&format!("{{{}}}", labels.join(",")));
            }
            out.push_str(&format!(" {}\n", fmt_value(*value)));
        }
    }
    out
}

/// The service's `/metrics` families, in their fixed exposition order.
/// Pure and deterministic, so the format is golden-testable.
pub(crate) fn service_families(s: &ServiceSnapshot) -> Vec<Family> {
    let p = |n: &str| format!("xentry_fleet_{n}");
    let gauge = |n: &str, help, v| Family::scalar(p(n), Kind::Gauge, help, v);
    let counter = |n: &str, help, v: u64| Family::scalar(p(n), Kind::Counter, help, v as f64);
    let shard = |n: &str, help, get: fn(&ShardSnapshot) -> u64| {
        let rows = s
            .shards
            .iter()
            .map(|sh| (sh.shard.to_string(), get(sh) as f64));
        Family::table(p(n), Kind::Counter, help, "shard", rows)
    };
    let by_epoch = s
        .epoch_verdicts
        .iter()
        .map(|ev| (ev.epoch.to_string(), ev.verdicts as f64));
    vec![
        gauge(
            "uptime_seconds",
            "Seconds since the service started.",
            s.uptime_ns as f64 / 1e9,
        ),
        Family::info(
            p("model_info"),
            "Deployed model identity (constant 1; identity in labels).",
            [
                ("version", s.model_version.to_string()),
                ("fingerprint", format!("{:016x}", s.model_fingerprint)),
            ],
        ),
        gauge(
            "model_arena_bytes",
            "Bytes of the deployed model's compiled split arena.",
            s.model_arena_bytes as f64,
        ),
        gauge(
            "model_nr_splits",
            "Split records in the deployed model's arena.",
            s.model_nr_splits as f64,
        ),
        gauge(
            "throughput_per_sec",
            "Classified records per second since start.",
            s.throughput_per_sec,
        ),
        counter(
            "ingested_total",
            "Records accepted into a shard queue.",
            s.ingested,
        ),
        counter(
            "dropped_total",
            "Records rejected because the shard queue was full.",
            s.dropped,
        ),
        counter(
            "classified_total",
            "Records classified (all shards).",
            s.classified,
        ),
        counter(
            "lost_total",
            "Records accepted but never classified (counted at shutdown).",
            s.lost,
        ),
        counter(
            "incorrect_total",
            "Verdicts labelled Incorrect.",
            s.incorrect,
        ),
        counter("incidents_total", "Incident dumps emitted.", s.incidents),
        counter(
            "suppressed_incidents_total",
            "Incident dumps suppressed by the per-host rate limiter.",
            s.suppressed_incidents,
        ),
        counter("swaps_total", "Model hot swaps performed.", s.swaps),
        counter(
            "swap_rejections_total",
            "Hot-swap candidates rejected by validation.",
            s.swap_rejections,
        ),
        counter(
            "trace_events_total",
            "Flight-trace events recorded since start.",
            s.trace_events,
        ),
        counter(
            "trace_dropped_total",
            "Flight-trace events lost to ring overflow.",
            s.trace_dropped,
        ),
        Family::table(
            p("epoch_verdicts_total"),
            Kind::Counter,
            "Verdicts produced under each model epoch.",
            "epoch",
            by_epoch,
        ),
        shard(
            "shard_classified_total",
            "Records classified by one shard.",
            |sh| sh.classified,
        ),
        shard(
            "shard_incorrect_total",
            "Incorrect verdicts on one shard.",
            |sh| sh.incorrect,
        ),
        shard(
            "shard_dropped_total",
            "Full-queue drops on one shard.",
            |sh| sh.dropped,
        ),
        shard(
            "shard_batches_total",
            "Batches classified by one shard.",
            |sh| sh.batches,
        ),
        Family::histogram(
            p("queue_latency_ns"),
            "Time a record waited in its shard queue, nanoseconds.",
            &s.queue_latency,
        ),
        Family::histogram(
            p("classify_latency_ns"),
            "Time to classify one record, nanoseconds.",
            &s.classify_latency,
        ),
    ]
}

/// Render a [`ServiceSnapshot`] as Prometheus text exposition (0.0.4).
pub fn render_prometheus(s: &ServiceSnapshot) -> String {
    render_exposition(&service_families(s))
}

/// Minimal parser for the Prometheus text format — the shapes
/// [`render_prometheus`] emits, which is also what the scrape tests
/// validate against. Returns every sample or a
/// line-numbered error.
pub fn parse_exposition(text: &str) -> Result<Vec<Sample>, String> {
    let mut out = Vec::new();
    for (ln, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let err = |what: &str| format!("line {}: {what}: {line}", ln + 1);
        let (name_labels, value) = line
            .rsplit_once(' ')
            .ok_or_else(|| err("expected `name value`"))?;
        let value: f64 = value.parse().map_err(|_| err("unparseable sample value"))?;
        let (name, labels) = match name_labels.split_once('{') {
            None => (name_labels.to_string(), Vec::new()),
            Some((name, rest)) => {
                let body = rest
                    .strip_suffix('}')
                    .ok_or_else(|| err("unterminated label set"))?;
                let mut labels = Vec::new();
                let mut remaining = body;
                while !remaining.is_empty() {
                    let (k, rest) = remaining
                        .split_once("=\"")
                        .ok_or_else(|| err("label without `=\"`"))?;
                    // Find the closing quote, honouring backslash escapes.
                    let mut end = None;
                    let mut escaped = false;
                    for (i, c) in rest.char_indices() {
                        match (escaped, c) {
                            (true, _) => escaped = false,
                            (false, '\\') => escaped = true,
                            (false, '"') => {
                                end = Some(i);
                                break;
                            }
                            _ => {}
                        }
                    }
                    let end = end.ok_or_else(|| err("unterminated label value"))?;
                    let raw = &rest[..end];
                    let unescaped = raw
                        .replace("\\n", "\n")
                        .replace("\\\"", "\"")
                        .replace("\\\\", "\\");
                    labels.push((k.to_string(), unescaped));
                    remaining = rest[end + 1..].trim_start_matches(',');
                }
                (name.to_string(), labels)
            }
        };
        if name.is_empty()
            || !name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
        {
            return Err(err("invalid metric name"));
        }
        out.push((name, labels, value));
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// The scrape server
// ---------------------------------------------------------------------------

/// `/healthz` payload: enough for a probe to decide liveness and see
/// which model is serving.
fn healthz_json(s: &ServiceSnapshot) -> String {
    format!(
        "{{\"status\":\"ok\",\"uptime_ns\":{},\"model_version\":{},\"classified\":{}}}",
        s.uptime_ns, s.model_version, s.classified,
    )
}

/// Handle to the scrape endpoint serving `/metrics`, `/healthz` and
/// `/trace` for one [`FleetService`]. Dropping (or [`shutdown`]) stops
/// the accept loop and joins the server thread. The transport is the
/// shared [`crate::net::HttpServer`]; this wrapper only owns the routes.
///
/// [`FleetService`]: crate::service::FleetService
/// [`shutdown`]: TelemetryServer::shutdown
pub struct TelemetryServer {
    server: HttpServer,
}

impl TelemetryServer {
    /// Bind `addr` (e.g. `127.0.0.1:9184`; port 0 picks a free port) and
    /// serve the shared state's telemetry until shutdown.
    pub(crate) fn start(
        shared: Arc<Shared>,
        addr: impl ToSocketAddrs,
    ) -> std::io::Result<TelemetryServer> {
        let server = HttpServer::start(addr, "fleet-telemetry", move |path| match path {
            "/metrics" => Some((
                "200 OK",
                "text/plain; version=0.0.4; charset=utf-8",
                render_prometheus(&shared.snapshot()),
            )),
            "/healthz" => Some((
                "200 OK",
                "application/json",
                healthz_json(&shared.snapshot()),
            )),
            "/trace" => Some(("200 OK", "application/json", shared.tracer.export_chrome())),
            _ => Some(not_found("/metrics, /healthz or /trace")),
        })?;
        Ok(TelemetryServer { server })
    }

    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.server.addr()
    }

    /// Stop accepting and join the server thread.
    pub fn shutdown(self) {
        self.server.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn label_values_escape_specials() {
        assert_eq!(escape_label_value("plain"), "plain");
        assert_eq!(escape_label_value("a\"b"), "a\\\"b");
        assert_eq!(escape_label_value("a\\b"), "a\\\\b");
        assert_eq!(escape_label_value("a\nb"), "a\\nb");
        assert_eq!(
            escape_label_value("q\"\\\n"),
            "q\\\"\\\\\\n",
            "all three specials in one value"
        );
    }

    #[test]
    fn parse_round_trips_escaped_labels() {
        let text = "m{k=\"a\\\"b\\\\c\\nd\",s=\"0\"} 42\n";
        let samples = parse_exposition(text).unwrap();
        assert_eq!(samples.len(), 1);
        let (name, labels, value) = &samples[0];
        assert_eq!(name, "m");
        assert_eq!(labels[0], ("k".to_string(), "a\"b\\c\nd".to_string()));
        assert_eq!(labels[1], ("s".to_string(), "0".to_string()));
        assert_eq!(*value, 42.0);
    }

    #[test]
    fn parse_rejects_malformed_lines() {
        assert!(parse_exposition("no_value_here\n").is_err());
        assert!(parse_exposition("m{unterminated=\"x 1\n").is_err());
        assert!(parse_exposition("bad-name 1\n").is_err());
        assert!(parse_exposition("# comments pass\n\nok 1\n").is_ok());
    }

    #[test]
    fn atomic_write_replaces_and_leaves_no_temp() {
        let dir = std::env::temp_dir().join(format!("xentry-fleet-atomic-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snap.json");
        sim_machine::write_atomic(&path, b"{\"v\":1}").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "{\"v\":1}");
        sim_machine::write_atomic(&path, b"{\"v\":2}").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "{\"v\":2}");
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().contains(".tmp."))
            .collect();
        assert!(leftovers.is_empty(), "temp files must not survive");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fmt_value_keeps_integers_exact() {
        assert_eq!(fmt_value(42.0), "42");
        assert_eq!(fmt_value(0.0), "0");
        assert_eq!(fmt_value(1.5), "1.5");
    }
}
