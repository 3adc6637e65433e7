//! Aggregator: accepts host-agent sessions, merges per-host accounting,
//! pushes model epochs, and exposes the merged fleet state.
//!
//! ## Accounting reconciliation
//!
//! Hosts report *cumulative* per-incarnation counters, so the merge is
//! loss-tolerant by construction: the newest summary from a session
//! supersedes every summary lost with a dropped connection. The only
//! quantity a dead session can strand is its in-flight window
//! (`ingested - classified - lost` at the moment of the last summary).
//! The rules, in order:
//!
//! 1. **Same incarnation reconnects** — cumulative counters resume; the
//!    stranded window resolves itself with the first fresh summary.
//! 2. **New incarnation connects** (host restarted) — the previous
//!    incarnation's counters are retired into the host's totals, its
//!    last known in-flight folded into `lost` (those records were in
//!    queues of a process that no longer exists).
//! 3. **Run finalization** — any still-unresolved in-flight on a down
//!    session is likewise folded into `lost`.
//!
//! Folded amounts are tracked separately as `reconciled_lost`, so
//! "records lost to a killed host" is a number in the receipt, never a
//! silent drop. After finalization the fleet-wide identity
//! `ingested == classified + lost` is exact.

use crate::frame::{Frame, FrameReader, HostCounters};
use crate::topology::FleetTopology;
use serde::{Deserialize, Serialize};
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use xentry_fleet::{lock_recovering, render_exposition, Family, HttpServer, Kind};

/// Per-host state as the aggregator tracks it.
#[derive(Debug, Clone, Default)]
struct HostState {
    name: String,
    up: bool,
    clean_bye: bool,
    sessions: u64,
    reconnects: u64,
    last_seen_ns: u64,
    incarnation: u64,
    last_seq: u64,
    /// Cumulative counters of the live (current) incarnation.
    live: HostCounters,
    /// Folded totals of retired incarnations (in_flight always 0 here).
    retired: HostCounters,
    /// Portion of `lost` that came from reconciling stranded in-flight
    /// windows rather than from host-side loss accounting.
    reconciled_lost: u64,
    model_epoch: u64,
    model_fingerprint: u64,
    divergences: u64,
    last_divergence: String,
    queue_p99_ns: u64,
    classify_p99_ns: u64,
}

impl HostState {
    /// Retire the live incarnation: counters move to the totals and the
    /// stranded in-flight window is folded into `lost` (rule 2/3 above).
    fn retire_live(&mut self) {
        let mut dead = self.live;
        if dead.in_flight > 0 {
            dead.lost += dead.in_flight;
            self.reconciled_lost += dead.in_flight;
            dead.in_flight = 0;
        }
        self.retired = self.retired.add(&dead);
        self.live = HostCounters::default();
        self.last_seq = 0;
    }

    fn merged(&self) -> HostCounters {
        self.retired.add(&self.live)
    }
}

struct PublishedModel {
    epoch: u64,
    fingerprint: u64,
    json: Arc<String>,
}

struct AggState {
    start: Instant,
    topology: FleetTopology,
    /// Indexed by host id: a star's ids are exactly `0..hosts`.
    hosts: Mutex<Vec<HostState>>,
    published: Mutex<Option<PublishedModel>>,
    epoch_counter: AtomicU64,
    summaries: AtomicU64,
    credits_granted: AtomicU64,
    rejected_connections: AtomicU64,
    identity_violations: AtomicU64,
    model_divergences: AtomicU64,
    stop: AtomicBool,
}

impl AggState {
    fn now_ns(&self) -> u64 {
        self.start.elapsed().as_nanos() as u64
    }
}

/// The merged fleet picture at one instant — the JSON half of the
/// distributed receipt and the source of the Prometheus exposition.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AggregatorSnapshot {
    pub uptime_ns: u64,
    pub published_epoch: u64,
    pub published_fingerprint: u64,
    pub hosts: Vec<HostSnapshot>,
    pub fleet: FleetRollup,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct HostSnapshot {
    pub id: u32,
    pub name: String,
    pub up: bool,
    pub clean_bye: bool,
    pub sessions: u64,
    pub reconnects: u64,
    /// Nanoseconds since the last frame from this host (aggregator
    /// clock); `u64::MAX` if it never connected.
    pub last_seen_age_ns: u64,
    pub incarnation: u64,
    pub last_seq: u64,
    pub counters: HostCounters,
    pub reconciled_lost: u64,
    pub model_epoch: u64,
    pub model_fingerprint: u64,
    pub divergences: u64,
    pub queue_p99_ns: u64,
    pub classify_p99_ns: u64,
}

#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct FleetRollup {
    pub hosts_configured: usize,
    pub hosts_up: usize,
    pub ingested: u64,
    pub classified: u64,
    pub lost: u64,
    pub dropped: u64,
    pub incorrect: u64,
    pub in_flight: u64,
    pub reconciled_lost: u64,
    pub sessions: u64,
    pub reconnects: u64,
    pub summaries: u64,
    pub credits_granted: u64,
    pub rejected_connections: u64,
    pub identity_violations: u64,
    pub model_divergences: u64,
}

impl AggregatorSnapshot {
    /// The fleet-wide accounting identity. Exact (`in_flight == 0` terms
    /// and all) only after finalization or a fully drained fleet.
    pub fn accounting_identity(&self) -> bool {
        self.fleet.ingested == self.fleet.classified + self.fleet.lost + self.fleet.in_flight
    }

    /// True when every configured host's last report matches the
    /// published model epoch + fingerprint.
    pub fn model_converged(&self) -> bool {
        self.published_epoch > 0
            && self.hosts.iter().all(|h| {
                h.model_epoch == self.published_epoch
                    && h.model_fingerprint == self.published_fingerprint
            })
    }
}

/// Listens for host-agent sessions and merges their accounting. One
/// thread per session plus one accept thread, in the `serve_telemetry`
/// mold: std-only, stoppable, joined on shutdown.
pub struct Aggregator {
    state: Arc<AggState>,
    addr: SocketAddr,
    accept_handle: Option<JoinHandle<()>>,
    sessions: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl Aggregator {
    /// Bind `addr` and serve the hosts that `topology` declares.
    pub fn start(topology: &FleetTopology, addr: impl ToSocketAddrs) -> io::Result<Aggregator> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let hosts = (0..topology.hosts())
            .map(|id| HostState {
                name: FleetTopology::host_name(id),
                last_seen_ns: u64::MAX,
                ..HostState::default()
            })
            .collect();
        let state = Arc::new(AggState {
            start: Instant::now(),
            topology: *topology,
            hosts: Mutex::new(hosts),
            published: Mutex::new(None),
            epoch_counter: AtomicU64::new(0),
            summaries: AtomicU64::new(0),
            credits_granted: AtomicU64::new(0),
            rejected_connections: AtomicU64::new(0),
            identity_violations: AtomicU64::new(0),
            model_divergences: AtomicU64::new(0),
            stop: AtomicBool::new(false),
        });
        let sessions: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
        let state2 = Arc::clone(&state);
        let sessions2 = Arc::clone(&sessions);
        let accept_handle = std::thread::Builder::new()
            .name("wire-agg".to_string())
            .spawn(move || accept_loop(listener, state2, sessions2))?;
        Ok(Aggregator {
            state,
            addr,
            accept_handle: Some(accept_handle),
            sessions,
        })
    }

    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Publish a model to the fleet: allocates the next epoch and lets
    /// every session (current and future) push it. Returns the epoch.
    pub fn publish_model(&self, json: String, fingerprint: u64) -> u64 {
        let epoch = self.state.epoch_counter.fetch_add(1, Ordering::AcqRel) + 1;
        *lock_recovering(&self.state.published) = Some(PublishedModel {
            epoch,
            fingerprint,
            json: Arc::new(json),
        });
        epoch
    }

    pub fn snapshot(&self) -> AggregatorSnapshot {
        snapshot_state(&self.state)
    }

    /// Serve `/metrics` (Prometheus exposition of the merged state) and
    /// `/healthz` for this aggregator.
    pub fn serve_metrics(&self, addr: impl ToSocketAddrs) -> io::Result<HttpServer> {
        let state = Arc::clone(&self.state);
        HttpServer::start(addr, "wire-agg-metrics", move |path| match path {
            "/metrics" => Some((
                "200 OK",
                "text/plain; version=0.0.4; charset=utf-8",
                render_aggregator_prometheus(&snapshot_state(&state)),
            )),
            "/healthz" => {
                let s = snapshot_state(&state);
                Some((
                    "200 OK",
                    "application/json",
                    format!(
                        "{{\"status\":\"ok\",\"hosts_up\":{},\"hosts_configured\":{}}}\n",
                        s.fleet.hosts_up, s.fleet.hosts_configured
                    ),
                ))
            }
            _ => Some(xentry_fleet::net::not_found("/metrics or /healthz")),
        })
    }

    /// Fold every down session's stranded in-flight window into `lost`
    /// (reconciliation rule 3). Call once the run is over — i.e. no
    /// session is expected back.
    pub fn finalize(&self) {
        let mut hosts = lock_recovering(&self.state.hosts);
        for hs in hosts.iter_mut() {
            if hs.live.in_flight > 0 {
                hs.live.lost += hs.live.in_flight;
                hs.reconciled_lost += hs.live.in_flight;
                hs.live.in_flight = 0;
            }
        }
    }

    /// Stop accepting, join every session thread, finalize, and return
    /// the settled snapshot.
    pub fn shutdown(mut self) -> AggregatorSnapshot {
        self.state.stop.store(true, Ordering::Release);
        if let Some(h) = self.accept_handle.take() {
            let _ = h.join();
        }
        let handles: Vec<_> = lock_recovering(&self.sessions).drain(..).collect();
        for h in handles {
            let _ = h.join();
        }
        self.finalize();
        self.snapshot()
    }
}

impl Drop for Aggregator {
    fn drop(&mut self) {
        self.state.stop.store(true, Ordering::Release);
        if let Some(h) = self.accept_handle.take() {
            let _ = h.join();
        }
        let handles: Vec<_> = lock_recovering(&self.sessions).drain(..).collect();
        for h in handles {
            let _ = h.join();
        }
    }
}

fn accept_loop(
    listener: TcpListener,
    state: Arc<AggState>,
    sessions: Arc<Mutex<Vec<JoinHandle<()>>>>,
) {
    let mut next = 0u64;
    while !state.stop.load(Ordering::Acquire) {
        match listener.accept() {
            Ok((stream, _)) => {
                let state2 = Arc::clone(&state);
                next += 1;
                let handle = std::thread::Builder::new()
                    .name(format!("wire-agg-session-{next}"))
                    .spawn(move || {
                        let host = run_session(&state2, stream);
                        // Any exit (error or clean) leaves the host down.
                        if let Some(id) = host {
                            let mut hosts = lock_recovering(&state2.hosts);
                            if let Some(hs) = hosts.get_mut(id as usize) {
                                hs.up = false;
                            }
                        }
                    })
                    .expect("spawn session thread");
                lock_recovering(&sessions).push(handle);
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(5)),
        }
    }
}

/// One host session. Returns the host id once the handshake has bound
/// the connection to a host (so the caller can mark it down on exit).
fn run_session(state: &AggState, mut stream: TcpStream) -> Option<u32> {
    if xentry_fleet::net::configure_stream(
        &stream,
        Some(Duration::from_millis(25)),
        Some(Duration::from_secs(2)),
    )
    .is_err()
    {
        return None;
    }
    let mut reader = FrameReader::new();
    let deadline = Instant::now() + Duration::from_secs(5);
    let hello = match reader.poll_until(&mut stream, deadline) {
        Ok(Frame::Hello {
            host,
            incarnation,
            last_seq,
            model_epoch,
            model_fingerprint,
        }) => (host, incarnation, last_seq, model_epoch, model_fingerprint),
        _ => {
            state.rejected_connections.fetch_add(1, Ordering::Relaxed);
            return None;
        }
    };
    let (host, incarnation, _last_seq, model_epoch, model_fingerprint) = hello;
    let Some(credits) = state.topology.credits(host) else {
        // Undeclared host: no link, no budget — the topology is the
        // admission control.
        state.rejected_connections.fetch_add(1, Ordering::Relaxed);
        return None;
    };

    let resume_seq = {
        let mut hosts = lock_recovering(&state.hosts);
        let hs = hosts.get_mut(host as usize)?;
        if hs.incarnation != 0 && incarnation != hs.incarnation {
            // Rule 2: the host restarted; retire the dead incarnation.
            hs.retire_live();
        }
        hs.incarnation = incarnation;
        hs.up = true;
        hs.clean_bye = false;
        hs.sessions += 1;
        if hs.sessions > 1 {
            hs.reconnects += 1;
        }
        hs.last_seen_ns = state.now_ns();
        hs.model_epoch = model_epoch;
        hs.model_fingerprint = model_fingerprint;
        hs.last_seq
    };

    let (pub_epoch, pub_fp) = {
        let published = lock_recovering(&state.published);
        published
            .as_ref()
            .map(|p| (p.epoch, p.fingerprint))
            .unwrap_or((0, 0))
    };
    if crate::frame::write_frame(
        &mut stream,
        &Frame::HelloAck {
            credits,
            resume_seq,
            model_epoch: pub_epoch,
            model_fingerprint: pub_fp,
        },
    )
    .is_err()
    {
        return Some(host);
    }

    // Highest epoch already pushed down this session, so one publish is
    // sent once per session, not once per tick.
    let mut pushed_epoch = 0u64;
    loop {
        if state.stop.load(Ordering::Acquire) {
            return Some(host);
        }
        match reader.poll(&mut stream) {
            Ok(Some(frame)) => {
                if handle_frame(state, host, frame, &mut stream).is_break() {
                    return Some(host);
                }
            }
            Ok(None) => {}
            Err(_) => return Some(host),
        }
        // Push the published model if this host hasn't admitted it yet.
        let pending = {
            let published = lock_recovering(&state.published);
            published.as_ref().and_then(|p| {
                let hosts = lock_recovering(&state.hosts);
                let admitted = hosts.get(host as usize).map(|h| h.model_epoch).unwrap_or(0);
                (p.epoch > pushed_epoch && p.epoch > admitted)
                    .then(|| (p.epoch, p.fingerprint, Arc::clone(&p.json)))
            })
        };
        if let Some((epoch, fingerprint, json)) = pending {
            let frame = Frame::ModelPublish {
                epoch,
                fingerprint,
                json: (*json).clone(),
            };
            if crate::frame::write_frame(&mut stream, &frame).is_err() {
                return Some(host);
            }
            pushed_epoch = epoch;
        }
    }
}

fn handle_frame(
    state: &AggState,
    host: u32,
    frame: Frame,
    stream: &mut TcpStream,
) -> std::ops::ControlFlow<()> {
    use std::ops::ControlFlow;
    match frame {
        Frame::Summary(s) => {
            {
                let mut hosts = lock_recovering(&state.hosts);
                if let Some(hs) = hosts.get_mut(host as usize) {
                    hs.last_seen_ns = state.now_ns();
                    // Stale duplicate from before a same-incarnation
                    // reconnect: newer cumulative state already merged.
                    if s.seq > hs.last_seq {
                        if !s.counters.identity_holds() {
                            state.identity_violations.fetch_add(1, Ordering::Relaxed);
                        }
                        hs.live = s.counters;
                        hs.last_seq = s.seq;
                        hs.model_epoch = s.model_epoch;
                        hs.model_fingerprint = s.model_fingerprint;
                        hs.queue_p99_ns = s.queue_p99_ns;
                        hs.classify_p99_ns = s.classify_p99_ns;
                    }
                }
            }
            state.summaries.fetch_add(1, Ordering::Relaxed);
            // Return the credit the summary consumed.
            if crate::frame::write_frame(stream, &Frame::Credit { grant: 1 }).is_err() {
                return ControlFlow::Break(());
            }
            state.credits_granted.fetch_add(1, Ordering::Relaxed);
            ControlFlow::Continue(())
        }
        Frame::Heartbeat { .. } => {
            let mut hosts = lock_recovering(&state.hosts);
            if let Some(hs) = hosts.get_mut(host as usize) {
                hs.last_seen_ns = state.now_ns();
            }
            ControlFlow::Continue(())
        }
        Frame::ModelStatus {
            epoch,
            fingerprint,
            admitted,
            detail,
        } => {
            let mut hosts = lock_recovering(&state.hosts);
            if let Some(hs) = hosts.get_mut(host as usize) {
                hs.last_seen_ns = state.now_ns();
                if admitted {
                    hs.model_epoch = hs.model_epoch.max(epoch);
                    hs.model_fingerprint = fingerprint;
                } else {
                    hs.divergences += 1;
                    hs.last_divergence = detail;
                    state.model_divergences.fetch_add(1, Ordering::Relaxed);
                }
            }
            ControlFlow::Continue(())
        }
        Frame::Bye { counters } => {
            let mut hosts = lock_recovering(&state.hosts);
            if let Some(hs) = hosts.get_mut(host as usize) {
                hs.last_seen_ns = state.now_ns();
                hs.live = counters;
                hs.retire_live();
                hs.up = false;
                hs.clean_bye = true;
            }
            ControlFlow::Break(())
        }
        // A second Hello (or an aggregator-bound frame type) mid-session
        // is a peer bug; tolerate it.
        _ => ControlFlow::Continue(()),
    }
}

fn snapshot_state(state: &AggState) -> AggregatorSnapshot {
    let now = state.now_ns();
    let hosts_map = lock_recovering(&state.hosts);
    let mut hosts = Vec::with_capacity(hosts_map.len());
    let mut fleet = FleetRollup {
        hosts_configured: hosts_map.len(),
        summaries: state.summaries.load(Ordering::Relaxed),
        credits_granted: state.credits_granted.load(Ordering::Relaxed),
        rejected_connections: state.rejected_connections.load(Ordering::Relaxed),
        identity_violations: state.identity_violations.load(Ordering::Relaxed),
        model_divergences: state.model_divergences.load(Ordering::Relaxed),
        ..FleetRollup::default()
    };
    for (id, hs) in (0u32..).zip(hosts_map.iter()) {
        let merged = hs.merged();
        fleet.ingested += merged.ingested;
        fleet.classified += merged.classified;
        fleet.lost += merged.lost;
        fleet.dropped += merged.dropped;
        fleet.incorrect += merged.incorrect;
        fleet.in_flight += merged.in_flight;
        fleet.reconciled_lost += hs.reconciled_lost;
        fleet.sessions += hs.sessions;
        fleet.reconnects += hs.reconnects;
        if hs.up {
            fleet.hosts_up += 1;
        }
        hosts.push(HostSnapshot {
            id,
            name: hs.name.clone(),
            up: hs.up,
            clean_bye: hs.clean_bye,
            sessions: hs.sessions,
            reconnects: hs.reconnects,
            last_seen_age_ns: if hs.last_seen_ns == u64::MAX {
                u64::MAX
            } else {
                now.saturating_sub(hs.last_seen_ns)
            },
            incarnation: hs.incarnation,
            last_seq: hs.last_seq,
            counters: merged,
            reconciled_lost: hs.reconciled_lost,
            model_epoch: hs.model_epoch,
            model_fingerprint: hs.model_fingerprint,
            divergences: hs.divergences,
            queue_p99_ns: hs.queue_p99_ns,
            classify_p99_ns: hs.classify_p99_ns,
        });
    }
    drop(hosts_map);
    let (published_epoch, published_fingerprint) = {
        let published = lock_recovering(&state.published);
        published
            .as_ref()
            .map(|p| (p.epoch, p.fingerprint))
            .unwrap_or((0, 0))
    };
    AggregatorSnapshot {
        uptime_ns: now,
        published_epoch,
        published_fingerprint,
        hosts,
        fleet,
    }
}

/// The aggregator's `/metrics` families, in their fixed exposition order:
/// the same [`Family`] model as the per-service `/metrics`, with series
/// prefixed `xentry_agg_` so a scraper can federate both.
pub fn aggregator_families(s: &AggregatorSnapshot) -> Vec<Family> {
    let p = |n: &str| format!("xentry_agg_{n}");
    let gauge = |n: &str, help, v| Family::scalar(p(n), Kind::Gauge, help, v);
    let counter = |n: &str, help, v: u64| Family::scalar(p(n), Kind::Counter, help, v as f64);
    let host = |n: &str, kind, help, get: fn(&HostSnapshot) -> f64| {
        let rows = s.hosts.iter().map(|h| (h.name.clone(), get(h)));
        Family::table(p(n), kind, help, "host", rows)
    };
    let f = &s.fleet;
    vec![
        gauge(
            "uptime_seconds",
            "Aggregator uptime",
            s.uptime_ns as f64 / 1e9,
        ),
        Family::info(
            p("model_info"),
            "Published model epoch and fingerprint (labels), constant 1",
            [
                ("epoch", s.published_epoch.to_string()),
                ("fingerprint", format!("{:016x}", s.published_fingerprint)),
            ],
        ),
        gauge(
            "hosts_configured",
            "Hosts declared in the topology",
            f.hosts_configured as f64,
        ),
        gauge("hosts_up", "Hosts with a live session", f.hosts_up as f64),
        counter("ingested_total", "Fleet-wide records ingested", f.ingested),
        counter(
            "classified_total",
            "Fleet-wide records classified",
            f.classified,
        ),
        counter(
            "lost_total",
            "Fleet-wide records lost (host-reported plus reconciled)",
            f.lost,
        ),
        counter(
            "dropped_total",
            "Fleet-wide records dropped at ingest",
            f.dropped,
        ),
        counter(
            "incorrect_total",
            "Fleet-wide incorrect verdicts",
            f.incorrect,
        ),
        counter(
            "reconciled_lost_total",
            "In-flight records folded into lost when sessions died",
            f.reconciled_lost,
        ),
        counter("sessions_total", "Host sessions accepted", f.sessions),
        counter(
            "reconnects_total",
            "Host sessions beyond each host's first",
            f.reconnects,
        ),
        counter("summaries_total", "Summary frames merged", f.summaries),
        counter(
            "credits_granted_total",
            "Backpressure credits returned to hosts",
            f.credits_granted,
        ),
        counter(
            "rejected_connections_total",
            "Connections refused (bad handshake or undeclared host)",
            f.rejected_connections,
        ),
        counter(
            "identity_violations_total",
            "Summaries whose own counters broke the accounting identity",
            f.identity_violations,
        ),
        counter(
            "model_divergences_total",
            "Model pushes rejected by a host canary",
            f.model_divergences,
        ),
        gauge(
            "in_flight",
            "Fleet-wide records in flight (ingested - classified - lost)",
            f.in_flight as f64,
        ),
        gauge(
            "accounting_identity",
            "1 when ingested == classified + lost + in_flight fleet-wide",
            f64::from(u8::from(s.accounting_identity())),
        ),
        host(
            "host_up",
            Kind::Gauge,
            "1 when the host session is live",
            |h| f64::from(u8::from(h.up)),
        ),
        host(
            "host_last_seen_seconds",
            Kind::Gauge,
            "Seconds since the last frame from the host (-1 = never)",
            |h| match h.last_seen_age_ns {
                u64::MAX => -1.0,
                age => age as f64 / 1e9,
            },
        ),
        host(
            "host_reconnects_total",
            Kind::Counter,
            "Sessions beyond the host's first",
            |h| h.reconnects as f64,
        ),
        host(
            "host_ingested_total",
            Kind::Counter,
            "Records ingested on the host (all incarnations)",
            |h| h.counters.ingested as f64,
        ),
        host(
            "host_classified_total",
            Kind::Counter,
            "Records classified on the host (all incarnations)",
            |h| h.counters.classified as f64,
        ),
        host(
            "host_lost_total",
            Kind::Counter,
            "Records lost on the host, reconciliation included",
            |h| h.counters.lost as f64,
        ),
        host(
            "host_in_flight",
            Kind::Gauge,
            "Host records between ingest and verdict at last report",
            |h| h.counters.in_flight as f64,
        ),
        host(
            "host_model_epoch",
            Kind::Gauge,
            "Published epoch the host last admitted (0 = local model)",
            |h| h.model_epoch as f64,
        ),
        host(
            "host_divergences_total",
            Kind::Counter,
            "Model pushes this host's canary rejected",
            |h| h.divergences as f64,
        ),
    ]
}

/// Render the merged fleet state as Prometheus text exposition 0.0.4.
pub fn render_aggregator_prometheus(s: &AggregatorSnapshot) -> String {
    render_exposition(&aggregator_families(s))
}
