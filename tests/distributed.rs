//! Loopback multi-process distributed replay: N host processes, each a
//! real `FleetService` wrapped by a [`HostAgent`] thread, reporting to
//! one in-process [`Aggregator`] on 127.0.0.1.
//!
//! Host processes are this package's `wire-host` bin, which runs
//! [`child_main`]. Mid-run the runner optionally SIGKILLs one host and
//! restarts it with a higher incarnation (the ReHype-style recovery
//! drill), publishes a retrained model epoch over the wire, and scrapes
//! the aggregator's `/metrics` while the fleet is live.
//! `tests/fleet_distributed.rs` asserts on what [`run_distributed`]
//! returns.

use serde::{Deserialize, Serialize};
use std::io;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};
use xentry_fleet::telemetry::Sample;
use xentry_fleet::{replay, FleetConfig, FleetService, NullSink, ReplayConfig};
use xentry_wire::{
    AgentConfig, AgentStatus, Aggregator, AggregatorSnapshot, FleetTopology, HostAgent,
};

/// Marker prefixing the one-line JSON report a child prints on stdout.
const CHILD_REPORT_MARKER: &str = "XWCHILD ";

/// Service shards inside each host process.
const SHARDS_PER_HOST: usize = 2;
/// Trace seed, varied per host so the shards see distinct streams.
const SEED: u64 = 7;
/// Credit budget of each host→aggregator link.
const CREDITS_PER_HOST: u32 = 64;
/// Per-child and whole-run timeout.
const TIMEOUT: Duration = Duration::from_secs(90);

/// Configuration of one distributed loopback run.
#[derive(Debug, Clone)]
pub struct DistributedConfig {
    /// Host processes to spawn.
    pub hosts: usize,
    /// Records each host process replays (per incarnation).
    pub records_per_host: usize,
    /// Offered rate per host process, records/s (0 = unthrottled).
    pub rate_per_host: f64,
    /// Kill this host mid-run and restart it with incarnation 2.
    pub kill_restart_host: Option<u32>,
    /// Publish a retrained model epoch over the wire mid-run.
    pub publish_model: bool,
    /// Binary to run as a host child: the `wire-host` bin.
    pub child_exe: PathBuf,
}

/// What one host child process reports on its stdout before exiting.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ChildReport {
    pub host: u32,
    pub incarnation: u64,
    pub drained: bool,
    pub agent: AgentStatus,
}

/// What a run leaves behind for the test to check.
#[derive(Debug, Clone)]
pub struct DistributedRun {
    /// The aggregator's final state, after every session closed.
    pub aggregator: AggregatorSnapshot,
    /// One report per host process that printed one (the restarted
    /// incarnation included), sorted by host and incarnation.
    pub children: Vec<ChildReport>,
    pub killed_host: Option<u32>,
    /// Status and samples of the aggregator's `/metrics`, scraped while
    /// the fleet was live.
    pub scrape_status: u16,
    pub scrape: Vec<Sample>,
}

fn child_arg<T: std::str::FromStr>(args: &[String], flag: &str) -> Option<T> {
    let i = args.iter().position(|a| a == flag)?;
    args.get(i + 1)?.parse().ok()
}

/// The host child, run by the `wire-host` bin on its arguments: local
/// service + replay + agent, then a drained shutdown and a one-line JSON
/// report. Returns the process exit code.
pub fn child_main(args: &[String]) -> i32 {
    let host: u32 = child_arg(args, "--host").unwrap_or(0);
    let incarnation: u64 = child_arg(args, "--incarnation").unwrap_or(1);
    let aggregator: String =
        child_arg(args, "--aggregator").unwrap_or_else(|| "127.0.0.1:0".to_string());
    let records: usize = child_arg(args, "--records").unwrap_or(10_000);
    let rate: f64 = child_arg(args, "--rate").unwrap_or(0.0);

    let detector = replay::synthetic_detector(1);
    let cfg = FleetConfig {
        shards: SHARDS_PER_HOST,
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
    let senders = SHARDS_PER_HOST.max(2);
    let trace = replay::synthetic_trace(16_384, SEED ^ u64::from(host));
    replay::replay(
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
    svc.shutdown();

    let child = ChildReport {
        host,
        incarnation,
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
        .args(["--host", &host.to_string()])
        .args(["--incarnation", &incarnation.to_string()])
        .args(["--aggregator", agg])
        .args(["--records", &cfg.records_per_host.to_string()])
        .args(["--rate", &cfg.rate_per_host.to_string()])
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
/// choreography.
pub fn run_distributed(cfg: &DistributedConfig) -> io::Result<DistributedRun> {
    let topology = FleetTopology::star(cfg.hosts, CREDITS_PER_HOST)
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
    if cfg.publish_model {
        let retrained = replay::synthetic_detector(101);
        agg.publish_model(retrained.to_json(), retrained.fingerprint());
    }

    let deadline = Instant::now() + TIMEOUT;
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

    // Scrape the aggregator's /metrics while the fleet is live.
    let (scrape_status, body) = xentry_fleet::http_get(metrics.addr(), "/metrics")?;
    let scrape = if scrape_status == 200 {
        xentry_fleet::parse_exposition(&body)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("exposition: {e}")))?
    } else {
        Vec::new()
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
    Ok(DistributedRun {
        aggregator: agg.shutdown(),
        children,
        killed_host: killed,
        scrape_status,
        scrape,
    })
}
