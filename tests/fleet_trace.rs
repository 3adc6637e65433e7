//! Flight-trace integration: ring overflow semantics, trace-id
//! propagation ingest→verdict→incident dump, the live metrics snapshot,
//! the disabled-tracing configuration, and the per-batch bookkeeping a
//! panicking sink leaves behind.

use mltree::{Dataset, DecisionTree, Label, Sample, TrainConfig};
use std::sync::Arc;
use xentry::{FeatureVec, VmTransitionDetector, FEATURE_NAMES};
use xentry_fleet::{replay, CollectSink, FleetConfig, FleetService, NullSink, SpanKind, TraceRing};
use xentry_integration_tests::GateSink;

/// Detector with a planted decision boundary: on vmer 17, rt around
/// 4*base is Incorrect (same construction as the service unit tests).
fn detector(base: u64) -> VmTransitionDetector {
    let mut d = Dataset::new(&FEATURE_NAMES);
    for i in 0..40u64 {
        d.push(Sample::new(
            vec![17, base + i % 10, 5, 3, 2],
            Label::Correct,
        ));
        d.push(Sample::new(
            vec![17, base * 4 + i, 25, 9, 6],
            Label::Incorrect,
        ));
    }
    VmTransitionDetector::new(DecisionTree::train(&d, &TrainConfig::decision_tree()))
}

fn ok_features(base: u64) -> FeatureVec {
    FeatureVec {
        vmer: 17,
        rt: base,
        br: 5,
        rm: 3,
        wm: 2,
    }
}

fn bad_features(base: u64) -> FeatureVec {
    FeatureVec {
        vmer: 17,
        rt: base * 4 + 5,
        br: 25,
        rm: 9,
        wm: 6,
    }
}

#[test]
fn ring_overflow_keeps_newest_and_counts_drops_exactly() {
    let ring = TraceRing::new(16);
    for i in 0..100u64 {
        ring.push(SpanKind::Ingest, i, 0, i + 1, 0);
    }
    assert_eq!(ring.total(), 100);
    assert_eq!(ring.dropped(), 84, "dropped = total - capacity, exactly");
    let events = ring.snapshot(0);
    assert_eq!(events.len(), 16);
    // Oldest-drop: the survivors are the newest 16, oldest first.
    let ids: Vec<u64> = events.iter().map(|e| e.trace_id).collect();
    assert_eq!(ids, (85..=100).collect::<Vec<u64>>());
}

#[test]
fn trace_id_flows_from_ingest_through_verdict_into_dump() {
    let sink = Arc::new(CollectSink::default());
    let cfg = FleetConfig {
        shards: 1,
        queue_capacity: 1024,
        batch: 16,
        recorder_depth: 8,
        trace_depth: 4096,
    };
    let svc = FleetService::start(cfg, detector(100), Arc::clone(&sink) as _);
    for seq in 0..200u64 {
        let f = if seq == 150 {
            bad_features(100)
        } else {
            ok_features(100)
        };
        assert!(svc.ingest(3, 0, seq, f));
    }
    let tracer = svc.tracer();
    let snap = svc.shutdown();
    assert_eq!(snap.classified, 200);
    assert_eq!(snap.incorrect, 1);
    assert!(snap.trace_events > 0);

    // Every verdict carries a live, unique trace id.
    let verdicts = sink.verdicts.lock().unwrap();
    assert_eq!(verdicts.len(), 200);
    let mut ids: Vec<u64> = verdicts.iter().map(|v| v.trace_id).collect();
    assert!(ids.iter().all(|&id| id != 0), "all records were traced");
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), 200, "trace ids are unique per record");
    let incorrect = verdicts
        .iter()
        .find(|v| v.label == Label::Incorrect)
        .expect("the planted anomaly was flagged");
    assert_eq!(incorrect.seq, 150);

    // The incident dump keys on the same id, remembers it on the
    // trigger activation, and attaches shard trace events.
    let incidents = sink.incidents.lock().unwrap();
    assert_eq!(incidents.len(), 1);
    let dump = &incidents[0];
    assert_eq!(dump.trace_id, incorrect.trace_id);
    assert_eq!(dump.trigger.trace_id, incorrect.trace_id);
    assert!(!dump.trace.is_empty(), "dump embeds shard trace events");
    assert!(
        dump.trace.iter().all(|e| e.lane == 0),
        "events come from the trigger's shard lane"
    );

    // The tracer itself closed the chain: the same id appears on an
    // ingest event and a verdict event (the acceptance-criteria link).
    let events = tracer.events();
    let has = |kind: SpanKind| {
        events
            .iter()
            .any(|e| e.kind == kind && e.trace_id == incorrect.trace_id)
    };
    assert!(has(SpanKind::Ingest), "ingest span for the anomaly's id");
    assert!(has(SpanKind::QueueWait), "queue-wait span for the id");
    assert!(has(SpanKind::Verdict), "verdict span for the id");
    assert!(
        events.iter().any(|e| e.kind == SpanKind::BatchClassify),
        "classify batch spans exist"
    );
}

/// An incident in the middle of a full batch. The worker claims the trace
/// slots of all 64 records at once and fills them before its first sink
/// call, so when record `K` trips the detector the ring already holds the
/// spans of the 23 records behind it — and the dump must still read as it
/// did when spans were pushed one record at a time: the 32 events up to
/// and including the trigger's own `QueueWait` and `Verdict`, each one
/// written (no fresh slot, nothing left from an earlier lap of the ring),
/// none from a later record.
///
/// Mutation-checked: filling a record's two spans after its sink calls
/// instead of before the sink loop fails both cases (the trigger's slots
/// read as zeros on the fresh ring, as lap-old events on the lapped one).
#[test]
fn mid_batch_incident_dump_ends_with_the_triggers_own_spans() {
    const BATCH: usize = 64;
    const K: usize = 40;
    // (ring slots, records classified before the batch): a ring that has
    // never wrapped, where an unwritten slot reads as zeros, and a small
    // one lapped several times over, where it reads as an old event.
    for (trace_depth, warmup) in [(4096, 0u64), (256, 1000)] {
        let sink = GateSink::new(warmup, None);
        let cfg = FleetConfig {
            shards: 1,
            queue_capacity: 1024,
            batch: BATCH,
            recorder_depth: 8,
            trace_depth,
        };
        let svc = FleetService::start(cfg, detector(100), Arc::clone(&sink) as _);
        for seq in 0..warmup {
            while !svc.ingest(3, 0, seq, ok_features(100)) {
                std::thread::yield_now();
            }
        }
        while svc.snapshot().classified < warmup {
            std::thread::yield_now();
        }
        let mut batch = vec![ok_features(100); BATCH];
        batch[K] = bad_features(100);
        sink.form_batch(&svc, 3, ok_features(100), &batch);
        let tracer = svc.tracer();
        let snap = svc.shutdown();
        assert_eq!(snap.classified, warmup + 1 + BATCH as u64);
        assert_eq!((snap.incorrect, snap.incidents), (1, 1));

        // The batch really was drained as one: its classify span says so.
        let events = tracer.events();
        assert!(
            events
                .iter()
                .any(|e| e.kind == SpanKind::BatchClassify && e.arg == BATCH as u64),
            "depth {trace_depth}: no {BATCH}-record batch formed"
        );

        // Trace ids of the batch's records, in batch order.
        let verdicts = sink.collected.verdicts.lock().unwrap();
        let id_at = |pos: usize| {
            let seq = warmup + 1 + pos as u64;
            verdicts.iter().find(|v| v.seq == seq).unwrap().trace_id
        };
        let incidents = sink.collected.incidents.lock().unwrap();
        let dump = &incidents[0];
        assert_eq!(dump.trigger.seq, warmup + 1 + K as u64);
        assert_eq!(dump.trace_id, id_at(K));
        let got: Vec<(SpanKind, u64)> = dump.trace.iter().map(|e| (e.kind, e.trace_id)).collect();
        let want: Vec<(SpanKind, u64)> = (K - 15..=K)
            .flat_map(|pos| {
                [
                    (SpanKind::QueueWait, id_at(pos)),
                    (SpanKind::Verdict, id_at(pos)),
                ]
            })
            .collect();
        assert_eq!(got, want, "depth {trace_depth}");
        assert!(
            dump.trace.iter().all(|e| e.ts_ns != 0),
            "depth {trace_depth}: a slot that was claimed but never written"
        );
        let own_verdict = dump.trace.last().unwrap();
        assert_eq!(own_verdict.arg & 1, 1, "the trigger's verdict is Incorrect");
    }
}

/// A snapshot of a running service, taken once everything ingested is
/// classified: one slice per shard that together hold every record, both
/// latency histograms holding every classified record, and the trace
/// rings counting events.
#[test]
fn live_snapshot_covers_every_shard_histogram_and_trace() {
    let cfg = FleetConfig {
        shards: 2,
        queue_capacity: 1024,
        batch: 16,
        recorder_depth: 4,
        trace_depth: 4096,
    };
    let svc = FleetService::start(cfg, detector(100), Arc::new(NullSink));
    for seq in 0..300u64 {
        assert!(svc.ingest((seq % 4) as u32, 0, seq, ok_features(100)));
    }
    while svc.snapshot().classified < 300 {
        std::thread::yield_now();
    }

    let snap = svc.snapshot();
    assert_eq!(snap.ingested, 300);
    assert_eq!(snap.classified, 300);
    assert_eq!(snap.shards.len(), 2, "one slice per shard");
    assert_eq!(
        snap.shards.iter().map(|s| s.classified).collect::<Vec<_>>(),
        vec![150, 150],
        "hosts shard as host % shards"
    );
    assert_eq!(snap.queue_latency.count, snap.classified);
    assert_eq!(snap.classify_latency.count, snap.classified);
    assert!(!snap.queue_latency.buckets.is_empty());
    assert!(snap.trace_events > 0);
    svc.shutdown();
}

#[test]
fn disabled_tracing_is_inert_and_free_of_ids() {
    let sink = Arc::new(CollectSink::default());
    let cfg = FleetConfig {
        shards: 1,
        queue_capacity: 256,
        batch: 8,
        recorder_depth: 4,
        trace_depth: 0,
    };
    let svc = FleetService::start(cfg, detector(100), Arc::clone(&sink) as _);
    for seq in 0..50u64 {
        assert!(svc.ingest(0, 0, seq, ok_features(100)));
    }
    let tracer = svc.tracer();
    assert!(!tracer.enabled());
    let snap = svc.shutdown();
    assert_eq!(snap.classified, 50);
    assert_eq!(snap.trace_events, 0);
    assert_eq!(snap.trace_dropped, 0);
    assert!(tracer.events().is_empty());
    let verdicts = sink.verdicts.lock().unwrap();
    assert!(
        verdicts.iter().all(|v| v.trace_id == 0),
        "disabled tracing stamps no ids"
    );
}

/// The sink panics on record `K` of one full 64-record batch. That ends
/// the shard's worker, and nothing restarts it. The `K` records before
/// the panic are classified; `shutdown` counts the other `64 - K` as
/// lost — exactly, because `classified` moves per record, after the
/// record's sink calls, even though the rest of the worker's bookkeeping
/// is per batch. And that per-batch bookkeeping is not lost with the
/// worker: both latency histograms were written before the first sink
/// call, so they hold every record of the batch (`metrics.rs`: `count ==
/// classified + lost` when the panicking batch was the last one queued).
///
/// Mutation-checked: folding the worker's queue-wait tally into the
/// shared histogram after the sink loop instead of before it leaves
/// `queue_latency.count` at 1 (the bait) and fails this test.
#[test]
fn sink_panic_mid_batch_loses_exactly_the_rest_and_no_bookkeeping() {
    const BATCH: u64 = 64;
    const K: u64 = 23;
    let sink = GateSink::new(0, Some(1 + K));
    let cfg = FleetConfig {
        shards: 1,
        queue_capacity: 1024,
        batch: BATCH as usize,
        recorder_depth: 8,
        ..FleetConfig::default()
    };
    let svc = FleetService::start(cfg, replay::synthetic_detector(1), Arc::clone(&sink) as _);
    let trace = replay::synthetic_trace(BATCH as usize, 11);
    sink.form_batch(&svc, 0, trace[0], &trace);
    let snap = svc.shutdown();

    assert_eq!(snap.ingested, 1 + BATCH);
    assert_eq!(
        snap.classified,
        1 + K,
        "the bait and the K records before the panic"
    );
    assert_eq!(snap.lost, BATCH - K);
    assert_eq!(snap.ingested, snap.classified + snap.lost);
    assert_eq!(snap.shards[0].batches, 1, "only the bait's batch completed");
    assert_eq!(
        sink.collected.verdicts.lock().unwrap().len() as u64,
        snap.classified
    );
    assert_eq!(snap.queue_latency.count, snap.classified + snap.lost);
    assert_eq!(snap.classify_latency.count, snap.classified + snap.lost);
}
