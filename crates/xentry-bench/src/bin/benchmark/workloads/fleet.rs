//! `fleet-serve`: the serving tier with the simulator idle. One sender (this
//! thread, host 0) feeds one shard worker through one `FleetService`.
//!
//! Hosts report independently of the service, so latency is measured open
//! loop: records are sent on a schedule whether or not the service keeps
//! up, and record *i* is timed from when it was *due* (`i / rate`), which
//! charges a stall to every record it delays. A record the full queue turns
//! away waits in the sender, in order, until the queue takes it — an
//! unbounded host-side buffer, still timed from its due time — so every
//! record gets a verdict to check, and a box that freezes the process for
//! longer than the queue is deep costs latency, not a failed run. Records
//! turned away are counted, and more than `TURNED_AWAY_LIMIT` of a leg is a
//! failed check: the service is not keeping up with the offered rate. The
//! closed loop is there only to find capacity.

use super::{
    check, correct_share_pct, tree_walk_cycles, Check, Inputs, LayerValues, Outcome, WorkloadImpl,
};
use crate::layers::{self, name, FleetService, FleetVerdict, Label, ServiceSnapshot, VerdictSink};
use crate::metrics::Workload;
use crate::sizes::{FLEET_QUEUE_CAPACITY, FLEET_RATES, FLEET_WINDOWS};
use crate::span::Recorder;
use crate::stats::{series, series_sum, summarize, LatencyHist, Slices};
use std::sync::atomic::{
    AtomicU64, AtomicU8,
    Ordering::{Acquire, Relaxed, Release},
};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The benchmark's own grouping span: one paced open-loop leg.
const OPEN_LOOP: &str = "fleet-serve::open_loop";
/// Closed-loop records per `FleetService::ingest_record` span.
const INGEST_CHUNK: usize = 4_096;
const NEVER: u64 = u64::MAX;
const NO_LABEL: u8 = 2;
/// Longest the sender waits for the shard to drain what it accepted.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(30);
/// Share of an open-loop leg's records the full queue may turn away at
/// their first offer. A 100 ms freeze of the sandbox at 1M rec/s is about
/// 4%; a service slower than the offered rate turns nearly all away.
const TURNED_AWAY_LIMIT: f64 = 0.10;

/// Slice series: each leg is cut into `FLEET_WINDOWS` windows of
/// consecutive records after the fact, from the sink's verdict timestamps.
/// An open-loop window costs its median due → verdict latency, a
/// closed-loop window the time from the verdict before it to its last.
const OPEN_250K: &str = "open_loop_250k_p50";
const OPEN_1M: &str = "open_loop_1m_p50";
const CLOSED: &str = "closed_loop";

pub struct FleetServe;

/// Index one past the last record of window `w` of a leg of `n` records.
fn window_end(n: usize, w: usize) -> usize {
    (w + 1) * n / FLEET_WINDOWS.min(n).max(1)
}

fn windows(n: usize) -> impl Iterator<Item = (usize, usize)> {
    (0..FLEET_WINDOWS.min(n).max(1)).map(move |w| {
        (
            if w == 0 { 0 } else { window_end(n, w - 1) },
            window_end(n, w),
        )
    })
}

/// Timestamps each verdict into a slot indexed by record `seq`.
struct Sink {
    t0: Instant,
    fingerprint: u64,
    verdict_ns: Vec<AtomicU64>,
    labels: Vec<AtomicU8>,
    seen: AtomicU64,
    duplicates: AtomicU64,
    foreign_model: AtomicU64,
}

impl Sink {
    fn new(records: usize, fingerprint: u64) -> Sink {
        Sink {
            t0: Instant::now(),
            fingerprint,
            verdict_ns: (0..records).map(|_| AtomicU64::new(NEVER)).collect(),
            labels: (0..records).map(|_| AtomicU8::new(NO_LABEL)).collect(),
            seen: AtomicU64::new(0),
            duplicates: AtomicU64::new(0),
            foreign_model: AtomicU64::new(0),
        }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Spin until `n` verdicts have arrived in total; false on timeout.
    fn wait_seen(&self, n: u64) -> bool {
        let deadline = Instant::now() + DRAIN_TIMEOUT;
        while self.seen.load(Acquire) < n {
            if Instant::now() > deadline {
                return false;
            }
            std::thread::yield_now();
        }
        true
    }
}

impl VerdictSink for Sink {
    fn on_verdict(&self, v: &FleetVerdict) {
        let seq = v.seq as usize;
        if self.verdict_ns[seq].swap(self.now_ns(), Relaxed) != NEVER {
            self.duplicates.fetch_add(1, Relaxed);
        }
        self.labels[seq].store((v.label == Label::Incorrect) as u8, Relaxed);
        if v.model_fingerprint != self.fingerprint {
            self.foreign_model.fetch_add(1, Relaxed);
        }
        // Release: pairs with the Acquire in `wait_seen`, publishing the slot
        // writes above to the sender that reads them after the drain.
        self.seen.fetch_add(1, Release);
    }
}

/// One open-loop leg's view from the sender.
pub struct OpenLeg {
    pub records: usize,
    /// Records a full queue turned away at their first offer (each was
    /// offered again until taken).
    pub turned_away: u64,
    /// Due → verdict latency of every record that got a verdict.
    pub latency: LatencyHist,
    /// How late the generator itself ran, at worst.
    pub late_max_ns: u64,
    /// Median latency of each window of the leg.
    pub window_p50_ns: Vec<f64>,
}

pub struct ClosedLeg {
    pub records: usize,
    pub retries: u64,
    pub capacity_per_s: f64,
    /// Time each window's verdicts took to arrive.
    pub window_ns: Vec<f64>,
}

pub struct FleetDetail {
    pub open: [OpenLeg; 2],
    pub closed: ClosedLeg,
    pub snapshot: ServiceSnapshot,
    /// Verdicts the sink saw.
    pub verdicts: u64,
    pub wrong_labels: u64,
    pub missing: u64,
    pub duplicates: u64,
    pub foreign_model: u64,
    pub expected_swaps: u64,
}

fn open_loop(
    rec: &mut Recorder,
    svc: &FleetService,
    sink: &Sink,
    inp: &Inputs,
    base: usize,
    n: usize,
    rate: f64,
) -> (u64, u64, u64) {
    rec.counted(OPEN_LOOP, |_| {
        let due_offset = |i: usize| (i as f64 * 1e9 / rate) as u64;
        let start = sink.now_ns();
        let (mut turned_away, mut late_max) = (0u64, 0u64);
        for i in 0..n {
            let due = start + due_offset(i);
            let mut now = sink.now_ns();
            while now < due {
                std::hint::spin_loop();
                now = sink.now_ns();
            }
            late_max = late_max.max(now - due);
            let r = layers::telemetry_record(
                (base + i) as u64,
                inp.trace[(base + i) % inp.trace.len()],
            );
            if !layers::ingest_record(svc, r) {
                turned_away += 1;
                while !layers::ingest_record(svc, r) {
                    std::hint::spin_loop();
                }
            }
        }
        ((start, turned_away, late_max), n as u64)
    })
}

/// Latencies of leg records `[base, base + n)` against their due times: the
/// whole leg's histogram and each window's median.
fn open_latency(
    sink: &Sink,
    base: usize,
    n: usize,
    start: u64,
    rate: f64,
) -> (LatencyHist, Vec<f64>) {
    let mut h = LatencyHist::default();
    let mut window_p50 = Vec::new();
    let mut window = Vec::new();
    for (lo, hi) in windows(n) {
        window.clear();
        for i in lo..hi {
            let v = sink.verdict_ns[base + i].load(Relaxed);
            if v != NEVER {
                let latency = v.saturating_sub(start + (i as f64 * 1e9 / rate) as u64);
                h.record(latency);
                window.push(latency);
            }
        }
        let mid = window.len() / 2;
        window_p50.push(if window.is_empty() {
            0.0
        } else {
            *window.select_nth_unstable(mid).1 as f64
        });
    }
    (h, window_p50)
}

/// Send `n` records as fast as the queue takes them, retrying on full;
/// capacity is records over the time to the last verdict. Traced, one
/// span per chunk of ingest calls and a same-fingerprint hot swap midway.
fn closed_loop(
    rec: &mut Recorder,
    svc: &FleetService,
    sink: &Sink,
    inp: &Inputs,
    base: usize,
    n: usize,
    hot_swap: bool,
) -> ClosedLeg {
    let start = sink.now_ns();
    let mut retries = 0u64;
    let chunks = n.div_ceil(INGEST_CHUNK);
    for c in 0..chunks {
        rec.set_id(c as u64);
        let lo = c * INGEST_CHUNK;
        let hi = (lo + INGEST_CHUNK).min(n);
        retries += rec.counted(name::FLEET_INGEST, |_| {
            let mut calls = 0u64;
            for i in lo..hi {
                let r = layers::telemetry_record(
                    (base + i) as u64,
                    inp.trace[(base + i) % inp.trace.len()],
                );
                calls += 1;
                while !layers::ingest_record(svc, r) {
                    calls += 1;
                    std::hint::spin_loop();
                }
            }
            (calls - (hi - lo) as u64, calls)
        });
        if hot_swap && c == chunks / 2 {
            layers::hot_swap_validated(rec, svc, &inp.detector);
        }
    }
    sink.wait_seen((base + n) as u64);
    // One shard worker, so verdicts arrive in record order; a verdict that
    // never came (a failed op) is read as arriving now.
    let now = sink.now_ns();
    let verdict_at = |i: usize| match sink.verdict_ns[base + i].load(Relaxed) {
        NEVER => now,
        v => v,
    };
    let mut before = start;
    let window_ns: Vec<f64> = windows(n)
        .map(|(_, hi)| {
            let end = verdict_at(hi - 1).max(before);
            let ns = (end - before) as f64;
            before = end;
            ns
        })
        .collect();
    ClosedLeg {
        records: n,
        retries,
        capacity_per_s: n as f64 * 1e9 / window_ns.iter().sum::<f64>().max(1.0),
        window_ns,
    }
}

impl WorkloadImpl for FleetServe {
    type Detail = FleetDetail;
    const ID: Workload = Workload::FleetServe;

    fn repeat(rec: &mut Recorder, inp: &Inputs) -> (Outcome, FleetDetail) {
        let [n0, n1] = inp.sizes.fleet_open_records;
        let n2 = inp.sizes.fleet_closed_records;
        let total = n0 + n1 + n2;
        let sink = Arc::new(Sink::new(total, inp.fingerprint));
        let t = Instant::now();
        let svc = layers::fleet_start(
            rec,
            FLEET_QUEUE_CAPACITY,
            true,
            &inp.detector,
            sink.clone() as Arc<dyn VerdictSink>,
        );

        let mut open = Vec::new();
        for (base, n, rate) in [(0, n0, FLEET_RATES[0]), (n0, n1, FLEET_RATES[1])] {
            let (start, turned_away, late_max_ns) = open_loop(rec, &svc, &sink, inp, base, n, rate);
            sink.wait_seen((base + n) as u64);
            let (latency, window_p50_ns) = open_latency(&sink, base, n, start, rate);
            open.push(OpenLeg {
                records: n,
                turned_away,
                latency,
                late_max_ns,
                window_p50_ns,
            });
        }
        let closed = closed_loop(rec, &svc, &sink, inp, n0 + n1, n2, rec.enabled());
        let snapshot = layers::fleet_shutdown(rec, svc);
        let wall_s = t.elapsed().as_secs_f64();

        // Every verdict against the oracle: the detector called directly.
        let oracle: Vec<u8> = inp
            .trace
            .iter()
            .map(|f| (layers::classify(&inp.detector, f) == Label::Incorrect) as u8)
            .collect();
        let labels: Vec<u8> = sink.labels.iter().map(|l| l.load(Relaxed)).collect();
        let arrived = labels.iter().filter(|&&l| l != NO_LABEL).count() as u64;
        let wrong_labels = labels
            .iter()
            .enumerate()
            .filter(|&(seq, &l)| l != NO_LABEL && l != oracle[seq % oracle.len()])
            .count() as u64;
        let detail = FleetDetail {
            closed,
            verdicts: sink.seen.load(Acquire),
            wrong_labels,
            missing: total as u64 - arrived,
            duplicates: sink.duplicates.load(Relaxed),
            foreign_model: sink.foreign_model.load(Relaxed),
            expected_swaps: rec.enabled() as u64,
            snapshot,
            open: open.try_into().ok().expect("two open-loop legs"),
        };

        let mut digest = super::fold_bytes(inp.fingerprint, &labels);
        for v in [
            detail.snapshot.ingested,
            detail.snapshot.classified,
            detail.snapshot.incorrect,
        ] {
            digest = layers::fold64(digest, v);
        }
        let slices = vec![
            (OPEN_250K, detail.open[0].window_p50_ns.clone()),
            (OPEN_1M, detail.open[1].window_p50_ns.clone()),
            (CLOSED, detail.closed.window_ns.clone()),
        ];
        let mut metrics = vec![
            (
                "sim_merit_pct",
                correct_share_pct(labels.iter().filter(|&&l| l != NO_LABEL).map(|&l| l == 0)),
            ),
            (
                "sim_cost_cycles",
                tree_walk_cycles(&inp.detector, inp.trace.iter()),
            ),
        ];
        metrics.extend(Self::host_metrics(&detail, &slices));
        let outcome = Outcome {
            metrics,
            slices,
            digest,
            attempted: total as u64,
            failed: detail.missing
                + wrong_labels
                + detail.duplicates
                + detail.foreign_model
                + detail.snapshot.lost,
            wall_s,
        };
        (outcome, detail)
    }

    /// Capacity is records over the windows' times; an open-loop p50 is the
    /// median over the windows of each window's own median.
    fn host_metrics(d: &FleetDetail, slices: &Slices) -> Vec<(&'static str, f64)> {
        let capacity = d.closed.records as f64 * 1e9 / series_sum(slices, CLOSED).max(1.0);
        let p50 = |name| summarize(series(slices, name)).median;
        vec![
            ("fleet_capacity_rec_per_s", capacity),
            ("fleet_p50_ns_at_250k", p50(OPEN_250K)),
            ("fleet_p50_ns_at_1m", p50(OPEN_1M)),
            ("ops_per_s", capacity),
            ("op_latency_ns", p50(OPEN_1M)),
            ("op_latency2_ns", p50(OPEN_250K)),
        ]
    }

    fn checks(_: &mut Recorder, _: &Inputs, repeats: &[(Outcome, FleetDetail)]) -> Vec<Check> {
        let all = |f: &dyn Fn(&FleetDetail) -> bool| repeats.iter().all(|(_, d)| f(d));
        let turned_away: u64 = repeats
            .iter()
            .flat_map(|(_, d)| &d.open)
            .map(|leg| leg.turned_away)
            .sum();
        vec![
            check(
                format!(
                    "open-loop records turned away by a full queue <= {:.0}% of each leg ({turned_away} in all)",
                    100.0 * TURNED_AWAY_LIMIT
                ),
                all(&|d| {
                    d.open
                        .iter()
                        .all(|leg| leg.turned_away as f64 <= TURNED_AWAY_LIMIT * leg.records as f64)
                }),
            ),
            check(
                "ingested == classified + lost",
                all(&|d| d.snapshot.ingested == d.snapshot.classified + d.snapshot.lost),
            ),
            check("lost == 0", all(&|d| d.snapshot.lost == 0)),
            check(
                "sink verdict count == ingested, none missing or duplicated",
                all(&|d| d.verdicts == d.snapshot.ingested && d.missing == 0 && d.duplicates == 0),
            ),
            check(
                "every verdict label == detector.classify(features)",
                all(&|d| d.wrong_labels == 0),
            ),
            check(
                "one model throughout",
                all(&|d| {
                    d.foreign_model == 0
                        && d.snapshot.swaps == d.expected_swaps
                        && d.snapshot.model_version == 1 + d.expected_swaps
                }),
            ),
        ]
    }

    fn layers(
        rec: &mut Recorder,
        inp: &Inputs,
        traced: &(Outcome, FleetDetail),
        out: &mut LayerValues,
        checks: &mut Vec<Check>,
    ) {
        let d = &traced.1;
        let (ingest_ns, calls) = rec.totals(name::FLEET_INGEST);
        out.insert(
            "xentry-fleet.ingest_ns",
            ingest_ns as f64 / calls.max(1) as f64,
        );
        out.insert(
            "xentry-fleet.retries_per_record",
            d.closed.retries as f64 / d.closed.records.max(1) as f64,
        );
        let s = &d.snapshot;
        out.insert("xentry-fleet.queue_wait_p50_ns", s.queue_latency.p50 as f64);
        out.insert("xentry-fleet.queue_wait_p99_ns", s.queue_latency.p99 as f64);
        out.insert(
            "xentry-fleet.classify_p50_ns",
            s.classify_latency.p50 as f64,
        );
        let at = |leg: &OpenLeg, p: f64| leg.latency.percentile(p) as f64;
        out.insert("xentry-fleet.verdict_p50_ns_at_250k", at(&d.open[0], 0.5));
        out.insert("xentry-fleet.verdict_p90_ns_at_1m", at(&d.open[1], 0.90));
        out.insert("xentry-fleet.verdict_p99_ns_at_1m", at(&d.open[1], 0.99));
        out.insert("xentry-fleet.verdict_p999_ns_at_1m", at(&d.open[1], 0.999));
        out.insert(
            "xentry-fleet.generator_late_max_us",
            d.open.iter().map(|l| l.late_max_ns).max().unwrap_or(0) as f64 / 1e3,
        );
        out.insert(
            "xentry-fleet.open_loop_turned_away",
            d.open.iter().map(|l| l.turned_away).sum::<u64>() as f64,
        );
        out.insert(
            "xentry-fleet.hot_swap_us",
            rec.timing(name::FLEET_HOT_SWAP).median / 1e3,
        );
        out.insert(
            "xentry-fleet.start_ms",
            rec.timing(name::FLEET_START).median / 1e6,
        );
        out.insert(
            "xentry-fleet.shutdown_ms",
            rec.timing(name::FLEET_SHUTDOWN).median / 1e6,
        );
        out.insert("xentry-fleet.ingested", s.ingested as f64);
        out.insert("xentry-fleet.classified", s.classified as f64);
        out.insert("xentry-fleet.dropped", s.dropped as f64);
        out.insert("xentry-fleet.lost", s.lost as f64);
        out.insert("xentry-fleet.incidents", s.incidents as f64);

        // The closed-loop leg again with the always-on flight rings off:
        // what they cost inside fleet_capacity_rec_per_s. Unspanned, so the
        // ingest rows above stay the traced repeat's.
        let n = d.closed.records;
        let sink = Arc::new(Sink::new(n, inp.fingerprint));
        let mut off = Recorder::new(false);
        let svc = layers::fleet_start(
            &mut off,
            FLEET_QUEUE_CAPACITY,
            false,
            &inp.detector,
            sink.clone() as Arc<dyn VerdictSink>,
        );
        let untraced = closed_loop(&mut off, &svc, &sink, inp, 0, n, false);
        let snap = layers::fleet_shutdown(&mut off, svc);
        out.insert(
            "xentry-fleet.untraced_capacity_rec_per_s",
            untraced.capacity_per_s,
        );
        checks.push(check(
            "untraced service classifies every record too",
            snap.classified == n as u64 && snap.trace_events == 0,
        ));

        layers::summary_frame_round_trips(rec, inp.sizes.wire_frames, inp.seed);
        let per_frame = |rec: &Recorder, span| {
            let (ns, frames) = rec.totals(span);
            ns as f64 / frames.max(1) as f64
        };
        out.insert(
            "xentry-wire.summary_encode_ns",
            per_frame(rec, name::FRAME_ENCODE),
        );
        out.insert(
            "xentry-wire.summary_decode_ns",
            per_frame(rec, name::FRAME_DECODE),
        );
    }
}
