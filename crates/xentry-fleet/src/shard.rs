//! Shard worker: drains one queue in batches, classifies with the cached
//! model, and reports verdicts, with an incident dump for every
//! `Incorrect` one its dump budget allows.
//!
//! Hosts are statically sharded (`host % nr_shards`), so every host's
//! records are classified by exactly one worker. The worker keeps no
//! per-host state: an incident dump is its trigger's verdict, features
//! and shard spans, and one dump budget bounds the whole shard.
//!
//! The worker is a plain thread and nothing restarts it, because nothing
//! in its own code can panic on what the service accepts: every model it
//! walks passed the swap gate's `validate` and canary checks (at
//! `FleetService::start` and in `hot_swap_validated` alike), records are
//! fixed-size integers that need no parsing, and the one division is by a
//! batch length `pop_batch` just returned non-zero. A panic here is the
//! caller's `VerdictSink`'s. It ends this shard's worker, and
//! `FleetService::shutdown` counts every record that worker never
//! classified in `lost`.

use crate::metrics::HistogramTally;
use crate::model::ModelCache;
use crate::record::{FleetVerdict, IncidentDump, TelemetryRecord};
use crate::service::Shared;
use crate::trace::SpanKind;
use mltree::Label;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use xentry::FeatureVec;

/// Max records a worker claims per batch.
const BATCH: usize = 64;

/// Spin this many empty polls before yielding, then yield 192 times before
/// sleeping: keeps latency low under load without burning an idle core.
/// An empty poll costs ~30 ns on a 2-vCPU AVX-512 VM, so the spin lasts
/// ~6 µs there, longer than the 4 µs between records at 250 k records/s.
const SPIN_POLLS: u32 = 192;
const YIELD_POLLS: u32 = SPIN_POLLS + 192;

/// Incident-dump rate limit per shard: dumps allowed back-to-back, then
/// refilled at this many per second.
const INCIDENT_BURST: u64 = 32;
const INCIDENT_PER_SEC: u64 = 10;

/// Token bucket bounding incident-dump emission for one shard.
///
/// An `Incorrect` verdict allocates an [`IncidentDump`] (its trace events)
/// and hands it to the sink. During an error storm — a genuinely broken
/// host, or a miscalibrated model flagging everything — that is an
/// allocation per record, forever. The bucket lets `burst` dumps through
/// back-to-back (real incidents cluster), then refills at `per_sec`;
/// everything beyond is suppressed and counted. Suppression loses
/// *dumps*, never verdicts: the `Incorrect` label and the incident
/// counters are untouched.
pub(crate) struct DumpBudget {
    burst: u64,
    /// Nanoseconds per replenished token; 0 disables limiting.
    refill_interval_ns: u64,
    tokens: u64,
    last_refill_ns: u64,
}

impl DumpBudget {
    /// Allow `burst` dumps at once, refilling at `per_sec` tokens/second.
    /// `burst == 0` disables limiting entirely (every dump allowed).
    pub(crate) fn new(burst: u64, per_sec: u64) -> DumpBudget {
        DumpBudget {
            burst,
            refill_interval_ns: if burst == 0 || per_sec == 0 {
                0
            } else {
                1_000_000_000 / per_sec.min(1_000_000_000)
            },
            tokens: burst,
            last_refill_ns: 0,
        }
    }

    /// Spend one token if available. `now_ns` is any monotone clock (the
    /// service's `now_ns`); only differences matter.
    pub(crate) fn try_take(&mut self, now_ns: u64) -> bool {
        if self.burst == 0 {
            return true;
        }
        let elapsed = now_ns.saturating_sub(self.last_refill_ns);
        if let Some(earned) = elapsed.checked_div(self.refill_interval_ns) {
            if earned > 0 {
                self.tokens = (self.tokens + earned).min(self.burst);
                // Advance by whole tokens only, so fractional refill time
                // is never discarded.
                self.last_refill_ns += earned * self.refill_interval_ns;
            }
        }
        if self.tokens > 0 {
            self.tokens -= 1;
            true
        } else {
            false
        }
    }
}

/// The thread body `FleetService::start` spawns for `shard`. Returns once
/// the stop flag is set and the shard's queue is empty.
pub(crate) fn run_worker(shared: &Shared, shard: usize) {
    let queue = &shared.queues[shard];
    let mut cache = ModelCache::new(&shared.model);
    let mut budget = DumpBudget::new(INCIDENT_BURST, INCIDENT_PER_SEC);
    let mut batch: Vec<TelemetryRecord> = Vec::with_capacity(BATCH);
    let mut features: Vec<FeatureVec> = Vec::with_capacity(BATCH);
    let mut labels: Vec<Label> = Vec::with_capacity(BATCH);
    // Queue waits of the batch in hand, folded into the shared histogram
    // once per batch.
    let mut queue_waits = HistogramTally::default();
    let ring = shared.tracer.enabled().then(|| shared.tracer.ring(shard));
    let shard_metrics = &shared.metrics.shards[shard];
    let mut idle: u32 = 0;
    loop {
        batch.clear();
        if queue.pop_batch(&mut batch, BATCH) == 0 {
            // Drain-then-exit: producers stop ingesting before `stop` is
            // set, so an empty queue after observing `stop` is final.
            if shared.stop.load(Ordering::Acquire) && queue.is_empty() {
                return;
            }
            idle = idle.saturating_add(1);
            if idle < SPIN_POLLS {
                std::hint::spin_loop();
            } else if idle < YIELD_POLLS {
                std::thread::yield_now();
            } else {
                std::thread::sleep(std::time::Duration::from_micros(100));
            }
            continue;
        }
        idle = 0;
        // One epoch check per batch: the hot-swap cost on this path is a
        // single Acquire load.
        let model = Arc::clone(cache.get(&shared.model));
        let dequeued_ns = shared.now_ns();
        features.clear();
        features.extend(batch.iter().map(|r| r.features));
        labels.clear();
        labels.resize(batch.len(), Label::Correct);
        // One compiled-arena batch call classifies the whole drain; the
        // per-record latency histogram is preserved by amortizing the
        // batch walk over its records. The detector's own timed span hook
        // measures the arena walk and nothing else.
        let batch_ns = model
            .detector
            .classify_batch_timed(&features, &mut labels)
            .elapsed_ns;
        // Everything below up to the sink loop is the batch's bookkeeping,
        // paid once per batch rather than once per record: the records
        // share one classify time, their queue waits fold into the shared
        // histogram in one go, and their spans share one claim on the
        // trace ring. All of it happens *before* the first sink call: a
        // sink may panic, and neither a worker-local tally nor a claimed
        // but unwritten trace slot may be left behind when it does.
        let n = batch.len() as u64;
        let per_record_ns = batch_ns / n;
        // The measured time split as evenly as whole nanoseconds allow,
        // so the histogram's sum gains exactly `batch_ns`.
        let longer = batch_ns % n;
        let classify_latency = &shared.metrics.classify_latency;
        classify_latency.record_n(per_record_ns + 1, longer);
        classify_latency.record_n(per_record_ns, n - longer);
        // One batch-level span covering the classify call itself, then
        // two spans per record closing the ingest→classify→verdict chain
        // for its trace id: the wait in the shard queue and the verdict
        // (arg = 1 when Incorrect).
        let trace_base = ring.map_or(0, |ring| {
            let base = ring.claim(1 + 2 * n);
            ring.write(base, SpanKind::BatchClassify, dequeued_ns, batch_ns, 0, n);
            base
        });
        // Index of the first of the two spans of the batch's `i`-th record.
        let spans_at = |i: usize| trace_base + 1 + 2 * i as u64;
        // One pass for the tally and the spans: as two loops (tally, then
        // claim-and-fill) this measured 4.6% slower on `fleet-serve`.
        for (i, (rec, &label)) in batch.iter().zip(labels.iter()).enumerate() {
            let queue_wait_ns = dequeued_ns.saturating_sub(rec.enqueued_ns);
            queue_waits.record(queue_wait_ns);
            if let Some(ring) = ring {
                ring.write(
                    spans_at(i),
                    SpanKind::QueueWait,
                    rec.enqueued_ns,
                    queue_wait_ns,
                    rec.trace_id,
                    rec.host as u64,
                );
                ring.write(
                    spans_at(i) + 1,
                    SpanKind::Verdict,
                    dequeued_ns,
                    per_record_ns,
                    rec.trace_id,
                    (label == Label::Incorrect) as u64,
                );
            }
        }
        shared.metrics.queue_latency.absorb(&mut queue_waits);
        for (i, (rec, &label)) in batch.iter().zip(labels.iter()).enumerate() {
            let verdict = FleetVerdict {
                host: rec.host,
                vcpu: rec.vcpu,
                seq: rec.seq,
                label,
                model_version: model.version,
                model_fingerprint: model.fingerprint,
                trace_id: rec.trace_id,
            };
            shared.sink.on_verdict(&verdict);
            if label == Label::Incorrect {
                shard_metrics.incorrect.fetch_add(1, Ordering::Relaxed);
                if budget.try_take(shared.now_ns()) {
                    shared.metrics.incidents.fetch_add(1, Ordering::Relaxed);
                    // The dump carries this shard's trace events up to and
                    // including the trigger's own two spans (the rest of
                    // the batch is already in the ring behind them), so an
                    // incident is debuggable from the dump alone.
                    let trace = ring.map_or_else(Vec::new, |ring| {
                        ring.before(shard as u32, spans_at(i) + 2, 32)
                    });
                    shared.sink.on_incident(&IncidentDump {
                        verdict,
                        features: rec.features,
                        trace,
                    });
                } else {
                    shared
                        .metrics
                        .suppressed_incidents
                        .fetch_add(1, Ordering::Relaxed);
                }
            }
            // A record counts as classified only once its sink calls
            // returned, so `shutdown` can charge what a panicking sink
            // left unfinished to `lost` as `ingested - classified`.
            shard_metrics.classified.fetch_add(1, Ordering::Relaxed);
        }
        shard_metrics.batches.fetch_add(1, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dump_budget_limits_bursts_and_refills() {
        let mut b = DumpBudget::new(3, 10); // 3 burst, one token per 100 ms
        let t0 = 5_000_000_000u64;
        assert!(b.try_take(t0));
        assert!(b.try_take(t0));
        assert!(b.try_take(t0));
        assert!(!b.try_take(t0), "burst exhausted");
        assert!(!b.try_take(t0 + 99_000_000), "no token before 100 ms");
        assert!(b.try_take(t0 + 100_000_000), "one token after 100 ms");
        assert!(!b.try_take(t0 + 100_000_000));
        // A long quiet period refills to the cap, not beyond.
        assert!(b.try_take(t0 + 60_000_000_000));
        assert!(b.try_take(t0 + 60_000_000_000));
        assert!(b.try_take(t0 + 60_000_000_000));
        assert!(!b.try_take(t0 + 60_000_000_000), "cap is the burst size");
    }

    #[test]
    fn dump_budget_zero_burst_is_unlimited() {
        let mut b = DumpBudget::new(0, 0);
        for i in 0..10_000u64 {
            assert!(b.try_take(i));
        }
    }

    #[test]
    fn dump_budget_without_refill_is_a_lifetime_cap() {
        let mut b = DumpBudget::new(2, 0);
        assert!(b.try_take(0));
        assert!(b.try_take(u64::MAX / 2));
        assert!(!b.try_take(u64::MAX));
    }
}
