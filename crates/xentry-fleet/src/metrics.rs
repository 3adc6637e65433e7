//! Lock-free service metrics: counters and log2-bucket latency
//! histograms, exportable as a JSON snapshot (`results/service.json`).
//!
//! Everything here is plain relaxed atomics — metrics must never
//! introduce synchronization on the classify hot path. Snapshots are
//! racy-consistent, which is the correct tradeoff for monitoring.

use crate::model::lock_recovering;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

const BUCKETS: usize = 64;

/// Histogram over `u64` values with power-of-two bucket edges: bucket `i`
/// holds values in `[2^i, 2^(i+1))` (bucket 0 also holds 0), so its
/// exported upper edge is `2^(i+1) - 1`. The exact running sum is kept
/// alongside the buckets so exports can report a true mean (and
/// Prometheus exposition a correct `_sum`), not a bucket-edge
/// approximation.
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    sum: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    fn index(value: u64) -> usize {
        (64 - value.leading_zeros() as usize)
            .saturating_sub(1)
            .min(BUCKETS - 1)
    }

    pub fn record(&self, value: u64) {
        self.record_n(value, 1);
    }

    /// `n` samples of `value`, for the cost of one.
    pub fn record_n(&self, value: u64, n: u64) {
        if n == 0 {
            return;
        }
        self.buckets[Self::index(value)].fetch_add(n, Ordering::Relaxed);
        self.sum.fetch_add(value.wrapping_mul(n), Ordering::Relaxed);
    }

    /// Fold a thread's private tally in and leave it empty: one add per
    /// non-empty bucket plus one for the sum, however many samples the
    /// tally holds.
    pub fn absorb(&self, tally: &mut HistogramTally) {
        while tally.nonempty != 0 {
            let i = tally.nonempty.trailing_zeros() as usize;
            tally.nonempty &= tally.nonempty - 1;
            self.buckets[i].fetch_add(std::mem::take(&mut tally.buckets[i]), Ordering::Relaxed);
        }
        if tally.sum != 0 {
            self.sum
                .fetch_add(std::mem::take(&mut tally.sum), Ordering::Relaxed);
        }
    }

    /// Racy-consistent snapshot of the bucket counts.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let counts: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        HistogramSnapshot::from_counts(counts, self.sum.load(Ordering::Relaxed))
    }
}

/// One thread's private samples for a [`Histogram`]: plain counters, so
/// recording costs no locked instruction, folded into the shared
/// histogram with [`Histogram::absorb`]. The samples exist nowhere else
/// until then — absorb before anything that can unwind past the tally.
pub struct HistogramTally {
    buckets: [u64; BUCKETS],
    sum: u64,
    /// Bit `i` set when `buckets[i]` is non-zero (there are 64 of each).
    nonempty: u64,
}

impl Default for HistogramTally {
    fn default() -> HistogramTally {
        HistogramTally {
            buckets: [0; BUCKETS],
            sum: 0,
            nonempty: 0,
        }
    }
}

impl HistogramTally {
    pub fn record(&mut self, value: u64) {
        let i = Histogram::index(value);
        self.buckets[i] += 1;
        self.nonempty |= 1 << i;
        self.sum = self.sum.wrapping_add(value);
    }
}

/// Exported histogram: counts plus derived percentiles. Percentile values
/// are the upper edge of the bucket containing the target rank, i.e. an
/// upper bound tight to within 2x.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct HistogramSnapshot {
    pub count: u64,
    /// Exact sum of all recorded values (not bucket-approximated).
    pub sum: u64,
    pub p50: u64,
    pub p90: u64,
    pub p99: u64,
    pub max_bucket_ns: u64,
    /// Non-empty buckets as `(upper_edge, count)` pairs.
    pub buckets: Vec<(u64, u64)>,
}

impl HistogramSnapshot {
    fn from_counts(counts: Vec<u64>, sum: u64) -> HistogramSnapshot {
        let total: u64 = counts.iter().sum();
        let edge = |i: usize| -> u64 {
            if i >= 63 {
                u64::MAX
            } else {
                (1u64 << (i + 1)) - 1
            }
        };
        let percentile = |p: f64| -> u64 {
            if total == 0 {
                return 0;
            }
            let target = ((total as f64) * p).ceil() as u64;
            let mut seen = 0u64;
            for (i, c) in counts.iter().enumerate() {
                seen += c;
                if seen >= target {
                    return edge(i);
                }
            }
            edge(BUCKETS - 1)
        };
        let max_bucket_ns = counts.iter().rposition(|&c| c > 0).map(edge).unwrap_or(0);
        HistogramSnapshot {
            count: total,
            sum,
            p50: percentile(0.50),
            p90: percentile(0.90),
            p99: percentile(0.99),
            max_bucket_ns,
            buckets: counts
                .iter()
                .enumerate()
                .filter(|(_, &c)| c > 0)
                .map(|(i, &c)| (edge(i), c))
                .collect(),
        }
    }
}

/// Per-shard counters.
#[derive(Default)]
pub struct ShardMetrics {
    pub classified: AtomicU64,
    pub incorrect: AtomicU64,
    pub dropped: AtomicU64,
    pub batches: AtomicU64,
    /// Records lost to worker panics (claimed but never classified).
    pub lost: AtomicU64,
    /// Worker restarts on this shard (panic recoveries + stall
    /// replacements).
    pub restarts: AtomicU64,
}

/// All service metrics. One instance shared by every producer and worker.
pub struct Metrics {
    /// Records accepted into a queue.
    pub ingested: AtomicU64,
    /// Records rejected because the target shard queue was full.
    pub dropped: AtomicU64,
    /// Model hot swaps performed.
    pub swaps: AtomicU64,
    /// Hot-swap candidates rejected by validation (structural arena fault
    /// or canary divergence).
    pub swap_rejections: AtomicU64,
    /// Model rollbacks to the previous epoch (operator- or
    /// supervisor-initiated).
    pub rollbacks: AtomicU64,
    /// Worker restarts fleet-wide (panic recoveries + stall replacements).
    pub restarts: AtomicU64,
    /// Stalled shards detected by the heartbeat watchdog.
    pub stalls: AtomicU64,
    /// Times the service entered degraded (envelope-fallback) mode.
    pub degraded_entries: AtomicU64,
    /// Verdicts produced by the degraded envelope fallback.
    pub degraded_verdicts: AtomicU64,
    /// Incident dumps emitted (one per Incorrect verdict, minus
    /// rate-limited suppressions).
    pub incidents: AtomicU64,
    /// Incident dumps suppressed by the per-host rate limiter.
    pub suppressed_incidents: AtomicU64,
    /// Time a record waited in its shard queue (ns).
    ///
    /// Both latency histograms are written once per batch, after the
    /// batch is classified and before its first sink call, so every
    /// record of a classified batch is in both — including the ones a
    /// panicking sink then turns into `lost`. After a drained shutdown
    /// each count is `classified + lost` when every loss came from a sink
    /// panic; a batch whose *classify* call panicked was never measured
    /// and is in `lost` alone (`classified <= count <= classified + lost`
    /// in general).
    pub queue_latency: Histogram,
    /// Time to classify one record (ns): a batch's measured classify time
    /// split over its records as evenly as whole nanoseconds allow, so
    /// `_sum` is exactly the time spent classifying.
    pub classify_latency: Histogram,
    /// Verdicts per model epoch (the version stamped on the verdict).
    /// Updated once per classified batch, so the mutex is off the
    /// per-record hot path; drives the `epoch` label of the scrape
    /// endpoint's verdict series.
    pub epoch_verdicts: Mutex<BTreeMap<u64, u64>>,
    pub shards: Vec<ShardMetrics>,
}

impl Metrics {
    pub fn new(nr_shards: usize) -> Metrics {
        Metrics {
            ingested: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            swaps: AtomicU64::new(0),
            swap_rejections: AtomicU64::new(0),
            rollbacks: AtomicU64::new(0),
            restarts: AtomicU64::new(0),
            stalls: AtomicU64::new(0),
            degraded_entries: AtomicU64::new(0),
            degraded_verdicts: AtomicU64::new(0),
            incidents: AtomicU64::new(0),
            suppressed_incidents: AtomicU64::new(0),
            queue_latency: Histogram::default(),
            classify_latency: Histogram::default(),
            epoch_verdicts: Mutex::new(BTreeMap::new()),
            shards: (0..nr_shards).map(|_| ShardMetrics::default()).collect(),
        }
    }

    /// Credit `n` verdicts to model `epoch` (called once per batch).
    pub fn count_epoch_verdicts(&self, epoch: u64, n: u64) {
        *lock_recovering(&self.epoch_verdicts)
            .entry(epoch)
            .or_insert(0) += n;
    }

    /// Per-epoch verdict counts, ascending by epoch.
    pub fn epoch_verdicts_sorted(&self) -> Vec<EpochVerdicts> {
        lock_recovering(&self.epoch_verdicts)
            .iter()
            .map(|(&epoch, &verdicts)| EpochVerdicts { epoch, verdicts })
            .collect()
    }

    pub fn total_classified(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.classified.load(Ordering::Relaxed))
            .sum()
    }

    pub fn total_lost(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.lost.load(Ordering::Relaxed))
            .sum()
    }
}

/// Per-shard slice of a snapshot.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ShardSnapshot {
    pub shard: usize,
    pub classified: u64,
    pub incorrect: u64,
    pub dropped: u64,
    pub batches: u64,
    pub lost: u64,
    pub restarts: u64,
}

/// Verdict count attributed to one model epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct EpochVerdicts {
    pub epoch: u64,
    pub verdicts: u64,
}

/// JSON-exportable view of the whole service, written to
/// `results/service.json`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ServiceSnapshot {
    /// Nanoseconds since the service started.
    pub uptime_ns: u64,
    pub model_version: u64,
    pub model_fingerprint: u64,
    /// Bytes of the deployed model's compiled split arena (its cache
    /// footprint on the classify hot path).
    pub model_arena_bytes: u64,
    /// Split records in the deployed model's arena.
    pub model_nr_splits: u64,
    pub ingested: u64,
    pub classified: u64,
    pub dropped: u64,
    /// Records claimed by a worker that panicked before classifying them.
    /// `ingested == classified + lost` after a drained shutdown.
    pub lost: u64,
    pub incorrect: u64,
    pub incidents: u64,
    /// Incident dumps suppressed by the per-host rate limiter.
    pub suppressed_incidents: u64,
    pub swaps: u64,
    pub swap_rejections: u64,
    pub rollbacks: u64,
    /// Worker restarts (panic recoveries + stall replacements).
    pub restarts: u64,
    /// Stalls detected by the heartbeat watchdog.
    pub stalls: u64,
    /// True while the service is in degraded (envelope-fallback) mode.
    pub degraded: bool,
    pub degraded_entries: u64,
    /// Verdicts produced by the degraded envelope fallback.
    pub degraded_verdicts: u64,
    /// classified / uptime, in records per second.
    pub throughput_per_sec: f64,
    /// Flight-trace events recorded since start (including ones since
    /// overwritten by ring overflow). 0 when tracing is disabled.
    pub trace_events: u64,
    /// Flight-trace events lost to ring overflow — exact.
    pub trace_dropped: u64,
    pub queue_latency: HistogramSnapshot,
    pub classify_latency: HistogramSnapshot,
    /// Verdicts per model epoch, ascending.
    pub epoch_verdicts: Vec<EpochVerdicts>,
    pub shards: Vec<ShardSnapshot>,
}

impl ServiceSnapshot {
    pub fn to_json_pretty(&self) -> String {
        serde_json::to_string_pretty(self).expect("snapshot serializes")
    }

    /// Write to `<dir>/service.json`, creating `dir` if needed. The write
    /// is atomic (temp file + rename), so a killed run never leaves a
    /// torn snapshot for partial readers to misparse.
    pub fn write(&self, dir: &std::path::Path) -> std::io::Result<std::path::PathBuf> {
        let path = dir.join("service.json");
        sim_machine::write_atomic(&path, self.to_json_pretty().as_bytes())?;
        Ok(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_log2() {
        assert_eq!(Histogram::index(0), 0);
        assert_eq!(Histogram::index(1), 0);
        assert_eq!(Histogram::index(2), 1);
        assert_eq!(Histogram::index(3), 1);
        assert_eq!(Histogram::index(4), 2);
        assert_eq!(Histogram::index(1024), 10);
        assert_eq!(Histogram::index(u64::MAX), 63);
    }

    /// Bucket `i` is `[2^i, 2^(i+1))` with 0 joining bucket 0, exported
    /// under the upper edge `2^(i+1) - 1` — pinned at every boundary, and
    /// the three ways of recording agree on where a value goes.
    #[test]
    fn bucket_boundaries_and_batched_recording_agree() {
        let mut values = vec![0u64, 1, 2, 3, 4];
        for k in 3..64 {
            values.extend([(1u64 << k) - 1, 1u64 << k]);
        }
        for &v in &values {
            let bucket = if v < 2 { 0 } else { v.ilog2() as usize };
            assert_eq!(Histogram::index(v), bucket, "value {v}");
            let edge = if bucket == 63 {
                u64::MAX
            } else {
                (2u64 << bucket) - 1
            };
            assert!(v <= edge && (bucket == 0 || v > edge / 2), "value {v}");

            // `record_n(v, n)` and a tally of n samples both equal n
            // calls of `record(v)`.
            let (one_by_one, at_once, folded) = (
                Histogram::default(),
                Histogram::default(),
                Histogram::default(),
            );
            let mut tally = HistogramTally::default();
            for _ in 0..5 {
                one_by_one.record(v);
                tally.record(v);
            }
            at_once.record_n(v, 5);
            at_once.record_n(v, 0);
            folded.absorb(&mut tally);
            folded.absorb(&mut tally); // emptied by the first
            let expect = one_by_one.snapshot();
            assert_eq!(expect.buckets, vec![(edge, 5)], "value {v}");
            for got in [at_once.snapshot(), folded.snapshot()] {
                assert_eq!(got.buckets, expect.buckets, "value {v}");
                assert_eq!(got.sum, expect.sum, "value {v}");
            }
        }

        // A tally spanning several buckets folds each of them.
        let (h, mut tally) = (Histogram::default(), HistogramTally::default());
        for v in [0, 1, 7, 8, 1 << 40, u64::MAX >> 1] {
            tally.record(v);
        }
        h.absorb(&mut tally);
        let s = h.snapshot();
        assert_eq!(s.count, 6);
        assert_eq!(s.sum, 16 + (1 << 40) + (u64::MAX >> 1));
        assert_eq!(
            s.buckets,
            vec![
                (1, 2),
                (7, 1),
                (15, 1),
                ((2 << 40) - 1, 1),
                (u64::MAX >> 1, 1)
            ]
        );
    }

    #[test]
    fn percentiles_walk_buckets() {
        let h = Histogram::default();
        for _ in 0..90 {
            h.record(100); // bucket 6, edge 127
        }
        for _ in 0..10 {
            h.record(100_000); // bucket 16, edge 131071
        }
        let s = h.snapshot();
        assert_eq!(s.count, 100);
        assert_eq!(s.sum, 90 * 100 + 10 * 100_000, "sum is exact, not bucketed");
        assert_eq!(s.p50, 127);
        assert_eq!(s.p90, 127);
        assert_eq!(s.p99, 131_071);
        assert_eq!(s.max_bucket_ns, 131_071);
        assert_eq!(s.buckets.len(), 2);
    }

    #[test]
    fn empty_histogram_snapshot_is_zero() {
        let s = Histogram::default().snapshot();
        assert_eq!(s.count, 0);
        assert_eq!(s.sum, 0);
        assert_eq!(s.p50, 0);
        assert_eq!(s.p99, 0);
        assert_eq!(s.max_bucket_ns, 0);
        assert!(s.buckets.is_empty());
    }

    #[test]
    fn snapshot_round_trips_through_json() {
        let h = Histogram::default();
        h.record(5);
        h.record(5000);
        let snap = ServiceSnapshot {
            uptime_ns: 1_000_000_000,
            model_version: 2,
            model_fingerprint: 99,
            model_arena_bytes: 2048,
            model_nr_splits: 64,
            ingested: 10,
            classified: 8,
            dropped: 1,
            lost: 1,
            incorrect: 3,
            incidents: 2,
            suppressed_incidents: 1,
            swaps: 1,
            swap_rejections: 1,
            rollbacks: 1,
            restarts: 2,
            stalls: 1,
            degraded: true,
            degraded_entries: 1,
            degraded_verdicts: 4,
            throughput_per_sec: 9.0,
            trace_events: 20,
            trace_dropped: 5,
            queue_latency: h.snapshot(),
            classify_latency: Histogram::default().snapshot(),
            epoch_verdicts: vec![
                EpochVerdicts {
                    epoch: 1,
                    verdicts: 5,
                },
                EpochVerdicts {
                    epoch: 2,
                    verdicts: 3,
                },
            ],
            shards: vec![ShardSnapshot {
                shard: 0,
                classified: 8,
                incorrect: 3,
                dropped: 1,
                batches: 2,
                lost: 1,
                restarts: 2,
            }],
        };
        let back: ServiceSnapshot = serde_json::from_str(&snap.to_json_pretty()).unwrap();
        assert_eq!(back.classified, 8);
        assert_eq!(back.model_arena_bytes, 2048);
        assert_eq!(back.model_nr_splits, 64);
        assert_eq!(back.trace_events, 20);
        assert_eq!(back.trace_dropped, 5);
        assert_eq!(back.epoch_verdicts.len(), 2);
        assert_eq!(back.epoch_verdicts[1].epoch, 2);
        assert_eq!(back.queue_latency.count, 2);
        assert_eq!(back.queue_latency.sum, 5005);
        assert_eq!(back.shards[0].incorrect, 3);
        assert_eq!(back.lost, 1);
        assert_eq!(back.suppressed_incidents, 1);
        assert_eq!(back.swap_rejections, 1);
        assert_eq!(back.rollbacks, 1);
        assert_eq!(back.restarts, 2);
        assert_eq!(back.stalls, 1);
        assert!(back.degraded);
        assert_eq!(back.degraded_verdicts, 4);
        assert_eq!(back.shards[0].restarts, 2);
    }
}
