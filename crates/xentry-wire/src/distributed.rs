//! Loopback multi-process distributed replay: N host processes, each a
//! real `FleetService` wrapped by a [`HostAgent`] thread, reporting to
//! one in-process [`Aggregator`] on 127.0.0.1.
//!
//! The runner re-executes its own binary with the
//! [`CHILD_SENTINEL`] first argument to spawn host processes — any
//! binary that calls [`maybe_child_main`] at the top of `main` can act
//! as the child image (`fleet-replay` and the test-suite `wire-host`
//! both do). Mid-run the runner optionally SIGKILLs one host
//! and restarts it with a higher incarnation (the ReHype-style recovery
//! drill), and publishes a retrained model epoch over the wire. The
//! receipt — per-host and fleet-wide throughput, reconnect counts, the
//! accounting identity, and the model-convergence verdict — is written
//! to `results/distributed.json`.

use crate::agent::{AgentConfig, AgentStatus, HostAgent};
use crate::aggregator::{Aggregator, AggregatorSnapshot};
use crate::topology::FleetTopology;
use serde::{Deserialize, Serialize};
use std::io;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};
use xentry_fleet::{replay, FleetConfig, FleetService, NullSink, ReplayConfig};

/// First argv element that turns any participating binary into a host
/// child process.
pub const CHILD_SENTINEL: &str = "__wire-host-agent";

/// Marker prefixing the one-line JSON report a child prints on stdout.
const CHILD_REPORT_MARKER: &str = "XWCHILD ";

/// Configuration of one distributed loopback run.
#[derive(Debug, Clone)]
pub struct DistributedConfig {
    /// Host processes to spawn.
    pub hosts: usize,
    /// Records each host process replays (per incarnation).
    pub records_per_host: usize,
    /// Offered rate per host process, records/s (0 = unthrottled).
    pub rate_per_host: f64,
    /// Service shards inside each host process.
    pub shards_per_host: usize,
    /// Credit budget of each host→aggregator link.
    pub credits_per_host: u32,
    /// Kill this host mid-run and restart it with incarnation 2.
    pub kill_restart_host: Option<u32>,
    /// Publish a retrained model epoch over the wire mid-run.
    pub publish_model: bool,
    /// Trace seed (varied per host so the shards see distinct streams).
    pub seed: u64,
    /// Binary to re-execute as the child image.
    pub child_exe: PathBuf,
    /// Per-child and whole-run timeout.
    pub timeout: Duration,
    /// Where the receipt is written.
    pub out: PathBuf,
}

impl DistributedConfig {
    /// CI-sized run: throttled so the run lasts long enough to exercise
    /// the kill/reconnect drill, small enough to finish in seconds.
    pub fn quick(hosts: usize) -> DistributedConfig {
        DistributedConfig {
            hosts,
            records_per_host: 24_000,
            rate_per_host: 16_000.0,
            shards_per_host: 2,
            credits_per_host: 64,
            kill_restart_host: Some(0),
            publish_model: true,
            seed: 7,
            child_exe: std::env::current_exe().unwrap_or_else(|_| PathBuf::from("fleet-replay")),
            timeout: Duration::from_secs(120),
            out: PathBuf::from("results"),
        }
    }
}

/// What one host child process reports on its stdout before exiting.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ChildReport {
    pub host: u32,
    pub incarnation: u64,
    pub sent: u64,
    pub accepted: u64,
    pub classified: u64,
    pub lost: u64,
    pub wall_ns: u64,
    pub throughput_per_sec: f64,
    pub drained: bool,
    pub agent: AgentStatus,
}

/// The accounting half of the receipt.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AccountingReceipt {
    pub ingested: u64,
    pub classified: u64,
    pub lost: u64,
    pub reconciled_lost: u64,
    pub in_flight: u64,
    /// `ingested == classified + lost` exactly, after finalization.
    pub identity_exact: bool,
}

/// The model-propagation half of the receipt.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ModelReceipt {
    pub published_epoch: u64,
    pub published_fingerprint: u64,
    /// Hosts whose final report carries the published epoch+fingerprint.
    pub hosts_converged: usize,
    pub hosts_total: usize,
    pub converged: bool,
    pub divergences: u64,
}

/// Receipt of the aggregator's own scrape endpoint, taken mid-run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ScrapeReceipt {
    pub samples: usize,
    pub host_series: usize,
    pub ok: bool,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DistributedReport {
    pub hosts: usize,
    pub wall_ns: u64,
    pub fleet_throughput_per_sec: f64,
    pub killed_host: Option<u32>,
    pub accounting: AccountingReceipt,
    pub model: ModelReceipt,
    pub scrape: ScrapeReceipt,
    pub children: Vec<ChildReport>,
    pub aggregator: AggregatorSnapshot,
}

impl DistributedReport {
    /// Every acceptance gate at once: exact accounting across the kill,
    /// model convergence on every host, healthy scrape, clean children.
    pub fn is_clean(&self) -> bool {
        let kill_ok = match self.killed_host {
            None => true,
            Some(k) => self
                .aggregator
                .hosts
                .iter()
                .any(|h| h.id == k && h.sessions >= 2 && h.incarnation >= 2),
        };
        self.accounting.identity_exact
            && self.model.converged
            && self.scrape.ok
            && kill_ok
            && self.children.iter().all(|c| c.drained)
    }

    pub fn write(&self, dir: &Path) -> io::Result<PathBuf> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join("distributed.json");
        xentry_fleet::write_atomic(
            &path,
            &serde_json::to_string_pretty(self).expect("serialize"),
        )?;
        Ok(path)
    }

    pub fn render(&self) -> String {
        let mut out = String::new();
        let f = &self.aggregator.fleet;
        out.push_str(&format!(
            "fleet:      {} hosts, {} sessions ({} reconnects), {} summaries merged\n",
            self.hosts, f.sessions, f.reconnects, f.summaries
        ));
        out.push_str(&format!(
            "accounting: ingested {} == classified {} + lost {} (reconciled {}) -> {}\n",
            self.accounting.ingested,
            self.accounting.classified,
            self.accounting.lost,
            self.accounting.reconciled_lost,
            if self.accounting.identity_exact {
                "exact"
            } else {
                "VIOLATED"
            }
        ));
        out.push_str(&format!(
            "model:      epoch {} ({:016x}) admitted on {}/{} hosts, {} divergences -> {}\n",
            self.model.published_epoch,
            self.model.published_fingerprint,
            self.model.hosts_converged,
            self.model.hosts_total,
            self.model.divergences,
            if self.model.converged {
                "converged"
            } else {
                "NOT CONVERGED"
            }
        ));
        out.push_str(&format!(
            "throughput: {:.0}/s fleet-wide over {:.2}s\n",
            self.fleet_throughput_per_sec,
            self.wall_ns as f64 / 1e9
        ));
        out
    }
}

/// If this process was invoked as a distributed-replay child, run the
/// host-agent child main and exit; otherwise return `false` and let the
/// caller's real `main` proceed. Call this first in `main` of any binary
/// that should be usable as a child image.
pub fn maybe_child_main() -> bool {
    let mut args = std::env::args().skip(1);
    if args.next().as_deref() != Some(CHILD_SENTINEL) {
        return false;
    }
    let code = child_main(&args.collect::<Vec<_>>());
    std::process::exit(code);
}

fn child_arg<T: std::str::FromStr>(args: &[String], flag: &str) -> Option<T> {
    let i = args.iter().position(|a| a == flag)?;
    args.get(i + 1)?.parse().ok()
}

/// The host child: local service + replay + agent, then a drained
/// shutdown and a one-line JSON report.
fn child_main(args: &[String]) -> i32 {
    let host: u32 = child_arg(args, "--host").unwrap_or(0);
    let incarnation: u64 = child_arg(args, "--incarnation").unwrap_or(1);
    let aggregator: String =
        child_arg(args, "--aggregator").unwrap_or_else(|| "127.0.0.1:0".to_string());
    let records: usize = child_arg(args, "--records").unwrap_or(10_000);
    let rate: f64 = child_arg(args, "--rate").unwrap_or(0.0);
    let shards: usize = child_arg(args, "--shards").unwrap_or(2).max(1);
    let seed: u64 = child_arg(args, "--seed").unwrap_or(7);

    let detector = replay::synthetic_detector(1);
    let cfg = FleetConfig {
        shards,
        queue_capacity: 8192,
        batch: 64,
        recorder_depth: 8,
        // Children are throughput fixtures; keep the trace rings off.
        trace_depth: 0,
        ..FleetConfig::default()
    };
    let svc = Arc::new(FleetService::start(cfg, detector, Arc::new(NullSink)));
    let agent = HostAgent::start(
        Arc::clone(&svc),
        AgentConfig {
            incarnation,
            ..AgentConfig::new(host, aggregator)
        },
    );

    // Spread the replay across at least two sender "hosts" (`replay`
    // shards by sender index) so every service shard sees traffic.
    let senders = shards.max(2);
    let trace = replay::synthetic_trace(16_384, seed ^ u64::from(host));
    let t0 = Instant::now();
    let report = replay::replay(
        &svc,
        &trace,
        &ReplayConfig {
            hosts: senders,
            records_per_host: records.div_ceil(senders),
            rate_per_host: if rate > 0.0 {
                rate / senders as f64
            } else {
                0.0
            },
        },
    );

    // Drain: wait for the in-flight window to close so the final
    // summary and the Bye report a settled service.
    let drained = wait_drained(&svc, Duration::from_secs(30));
    let agent_status = agent.shutdown();
    let Ok(svc) = Arc::try_unwrap(svc) else {
        panic!("agent released its service handle");
    };
    let snapshot = svc.shutdown();
    let wall_ns = t0.elapsed().as_nanos() as u64;

    let child = ChildReport {
        host,
        incarnation,
        sent: report.sent,
        accepted: report.accepted,
        classified: snapshot.classified,
        lost: snapshot.lost,
        wall_ns,
        throughput_per_sec: snapshot.classified as f64 / (wall_ns as f64 / 1e9).max(1e-9),
        drained,
        agent: agent_status,
    };
    println!(
        "{CHILD_REPORT_MARKER}{}",
        serde_json::to_string(&child).expect("serialize child report")
    );
    i32::from(!drained)
}

fn wait_drained(svc: &FleetService, timeout: Duration) -> bool {
    let t0 = Instant::now();
    loop {
        let s = svc.snapshot();
        if s.ingested == s.classified + s.lost {
            return true;
        }
        if t0.elapsed() > timeout {
            return false;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
}

struct HostProc {
    host: u32,
    child: Child,
}

fn spawn_host(
    cfg: &DistributedConfig,
    agg: &str,
    host: u32,
    incarnation: u64,
) -> io::Result<HostProc> {
    let child = Command::new(&cfg.child_exe)
        .arg(CHILD_SENTINEL)
        .args(["--host", &host.to_string()])
        .args(["--incarnation", &incarnation.to_string()])
        .args(["--aggregator", agg])
        .args(["--records", &cfg.records_per_host.to_string()])
        .args(["--rate", &cfg.rate_per_host.to_string()])
        .args(["--shards", &cfg.shards_per_host.to_string()])
        .args(["--seed", &cfg.seed.to_string()])
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()?;
    Ok(HostProc { host, child })
}

/// Wait for `pred` over the aggregator snapshot, with a deadline.
fn wait_for(
    agg: &Aggregator,
    deadline: Instant,
    what: &str,
    pred: impl Fn(&AggregatorSnapshot) -> bool,
) -> io::Result<()> {
    loop {
        if pred(&agg.snapshot()) {
            return Ok(());
        }
        if Instant::now() >= deadline {
            return Err(io::Error::new(
                io::ErrorKind::TimedOut,
                format!("timed out waiting for {what}"),
            ));
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}

fn collect_child(mut proc_: HostProc, deadline: Instant) -> io::Result<Option<ChildReport>> {
    loop {
        match proc_.child.try_wait()? {
            Some(_) => break,
            None if Instant::now() >= deadline => {
                let _ = proc_.child.kill();
                let _ = proc_.child.wait();
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    format!("host {} child timed out", proc_.host),
                ));
            }
            None => std::thread::sleep(Duration::from_millis(10)),
        }
    }
    let mut stdout = String::new();
    if let Some(mut out) = proc_.child.stdout.take() {
        use std::io::Read;
        let _ = out.read_to_string(&mut stdout);
    }
    for line in stdout.lines() {
        if let Some(json) = line.strip_prefix(CHILD_REPORT_MARKER) {
            let report: ChildReport = serde_json::from_str(json).map_err(|e| {
                io::Error::new(io::ErrorKind::InvalidData, format!("child report: {e}"))
            })?;
            return Ok(Some(report));
        }
    }
    Ok(None)
}

/// Run a full distributed loopback replay. See the module docs for the
/// choreography; the returned report carries every receipt the CI gate
/// greps for.
pub fn run_distributed(cfg: &DistributedConfig) -> io::Result<DistributedReport> {
    let topology = FleetTopology::star(cfg.hosts, cfg.credits_per_host)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e))?;
    let agg = Aggregator::start(&topology, "127.0.0.1:0")?;
    let agg_addr = agg.addr().to_string();
    let metrics = agg.serve_metrics("127.0.0.1:0")?;

    // Publish the retrained model *before* any host connects: every
    // session (the restarted incarnation included) then receives the
    // push right after its HelloAck, so even a host that finishes its
    // replay quickly admits the epoch before its Bye. Different
    // training seed -> different fingerprint, still canary-compatible
    // (the relaxed gate checks structure + self-consistency, not label
    // parity).
    let (published_epoch, published_fingerprint) = if cfg.publish_model {
        let retrained = replay::synthetic_detector(101);
        let fingerprint = retrained.fingerprint();
        let epoch = agg.publish_model(retrained.to_json(), fingerprint);
        (epoch, fingerprint)
    } else {
        (0, 0)
    };

    let t0 = Instant::now();
    let deadline = t0 + cfg.timeout;
    let mut procs: Vec<HostProc> = (0..cfg.hosts as u32)
        .map(|h| spawn_host(cfg, &agg_addr, h, 1))
        .collect::<io::Result<_>>()?;

    // Wait until every host has connected and reported at least once.
    // Deliberately NOT "all simultaneously up": an unthrottled host can
    // finish its whole replay and say Bye before a sibling's process
    // has even started.
    wait_for(&agg, deadline, "all hosts reporting", |s| {
        s.hosts
            .iter()
            .all(|h| h.sessions >= 1 && h.counters.ingested > 0)
    })?;

    // The recovery drill: SIGKILL one host mid-run (no Bye, stranded
    // in-flight window), then restart it as incarnation 2.
    let mut killed = None;
    if let Some(k) = cfg.kill_restart_host {
        wait_for(&agg, deadline, "victim host reporting", |s| {
            s.hosts
                .iter()
                .any(|h| h.id == k && h.counters.classified > 0)
        })?;
        if let Some(pos) = procs.iter().position(|p| p.host == k) {
            let mut victim = procs.swap_remove(pos);
            // kill() can race a victim that already exited; either way
            // the process is gone and the respawn below is what matters.
            let _ = victim.child.kill();
            victim.child.wait()?;
            killed = Some(k);
            wait_for(&agg, deadline, "aggregator noticing the kill", |s| {
                s.hosts.iter().any(|h| h.id == k && !h.up)
            })?;
            procs.push(spawn_host(cfg, &agg_addr, k, 2)?);
        }
    }

    // Self-scrape the aggregator's /metrics while the fleet is live.
    let scrape = {
        let (status, body) = xentry_fleet::http_get(metrics.addr(), "/metrics")?;
        let samples = if status == 200 {
            xentry_fleet::parse_exposition(&body).map_err(|e| {
                io::Error::new(io::ErrorKind::InvalidData, format!("exposition: {e}"))
            })?
        } else {
            Vec::new()
        };
        let series = |name: &str| samples.iter().filter(|(n, _, _)| n == name).count();
        let host_series = series("xentry_agg_host_up");
        ScrapeReceipt {
            samples: samples.len(),
            host_series,
            ok: status == 200
                && host_series == cfg.hosts
                && series("xentry_agg_ingested_total") == 1
                && series("xentry_agg_accounting_identity") == 1,
        }
    };

    // Collect every child (the restarted one included).
    let mut children: Vec<ChildReport> = Vec::new();
    for proc_ in procs {
        if let Some(report) = collect_child(proc_, deadline)? {
            children.push(report);
        }
    }
    children.sort_by_key(|c| (c.host, c.incarnation));

    // All sessions are down now; settle and snapshot.
    wait_for(&agg, deadline, "all sessions down", |s| {
        s.fleet.hosts_up == 0
    })?;
    metrics.shutdown();
    let aggregator = agg.shutdown();
    let wall_ns = t0.elapsed().as_nanos() as u64;

    let accounting = AccountingReceipt {
        ingested: aggregator.fleet.ingested,
        classified: aggregator.fleet.classified,
        lost: aggregator.fleet.lost,
        reconciled_lost: aggregator.fleet.reconciled_lost,
        in_flight: aggregator.fleet.in_flight,
        identity_exact: aggregator.fleet.in_flight == 0
            && aggregator.fleet.ingested == aggregator.fleet.classified + aggregator.fleet.lost,
    };
    let hosts_converged = aggregator
        .hosts
        .iter()
        .filter(|h| {
            h.model_epoch == aggregator.published_epoch
                && h.model_fingerprint == aggregator.published_fingerprint
        })
        .count();
    let model = ModelReceipt {
        published_epoch,
        published_fingerprint,
        hosts_converged,
        hosts_total: aggregator.hosts.len(),
        converged: !cfg.publish_model || aggregator.model_converged(),
        divergences: aggregator.fleet.model_divergences,
    };
    let fleet_throughput_per_sec =
        aggregator.fleet.classified as f64 / (wall_ns as f64 / 1e9).max(1e-9);

    Ok(DistributedReport {
        hosts: cfg.hosts,
        wall_ns,
        fleet_throughput_per_sec,
        killed_host: killed,
        accounting,
        model,
        scrape,
        children,
        aggregator,
    })
}
