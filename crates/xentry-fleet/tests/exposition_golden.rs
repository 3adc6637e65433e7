//! Golden test for the Prometheus text exposition: the format is a wire
//! contract with external scrapers, so its exact shape — series order,
//! label escaping, histogram `_bucket`/`_sum`/`_count` structure — is
//! pinned here. A diff in this test means a scraper-visible format
//! change; update the golden only deliberately.

use xentry_fleet::{
    parse_exposition, render_prometheus, EpochVerdicts, Histogram, ServiceSnapshot, ShardSnapshot,
};

/// A fully deterministic snapshot exercising every series the exposition
/// emits: two shards, two epochs, both histograms populated.
fn fixture() -> ServiceSnapshot {
    let queue = Histogram::default();
    queue.record(5);
    queue.record(5000);
    let classify = Histogram::default();
    classify.record(120);
    classify.record(130);
    classify.record(90_000);
    ServiceSnapshot {
        uptime_ns: 2_000_000_000,
        model_version: 3,
        model_fingerprint: 0xabcd_1234_5678_9e0f,
        model_arena_bytes: 65536,
        model_nr_splits: 2048,
        ingested: 1000,
        classified: 990,
        dropped: 7,
        lost: 3,
        incorrect: 11,
        incidents: 9,
        suppressed_incidents: 2,
        swaps: 2,
        swap_rejections: 1,
        throughput_per_sec: 495.0,
        trace_events: 3100,
        trace_dropped: 60,
        queue_latency: queue.snapshot(),
        classify_latency: classify.snapshot(),
        epoch_verdicts: vec![
            EpochVerdicts {
                epoch: 1,
                verdicts: 700,
            },
            EpochVerdicts {
                epoch: 3,
                verdicts: 290,
            },
        ],
        shards: vec![
            ShardSnapshot {
                shard: 0,
                classified: 500,
                incorrect: 6,
                dropped: 3,
                batches: 40,
            },
            ShardSnapshot {
                shard: 1,
                classified: 490,
                incorrect: 5,
                dropped: 4,
                batches: 39,
            },
        ],
    }
}

const GOLDEN: &str = include_str!("exposition_golden.txt");

#[test]
fn exposition_matches_golden_byte_for_byte() {
    let rendered = render_prometheus(&fixture());
    if rendered != GOLDEN {
        // Print a usable diff location instead of two multi-KB strings.
        for (i, (a, b)) in rendered.lines().zip(GOLDEN.lines()).enumerate() {
            assert_eq!(a, b, "first divergence at line {}", i + 1);
        }
        assert_eq!(
            rendered.lines().count(),
            GOLDEN.lines().count(),
            "same lines but different line count"
        );
        panic!("rendered exposition differs from golden");
    }
}

#[test]
fn histogram_series_keep_prometheus_invariants() {
    let rendered = render_prometheus(&fixture());
    let samples = parse_exposition(&rendered).expect("golden exposition parses");
    for hist in [
        "xentry_fleet_queue_latency_ns",
        "xentry_fleet_classify_latency_ns",
    ] {
        let buckets: Vec<(f64, f64)> = samples
            .iter()
            .filter(|(n, _, _)| n == &format!("{hist}_bucket"))
            .map(|(_, labels, v)| {
                let le = &labels.iter().find(|(k, _)| k == "le").expect("le label").1;
                let edge = if le == "+Inf" {
                    f64::INFINITY
                } else {
                    le.parse().expect("numeric le")
                };
                (edge, *v)
            })
            .collect();
        assert!(buckets.len() >= 2, "{hist}: need buckets plus +Inf");
        // Edges strictly increase and cumulative counts never decrease.
        for w in buckets.windows(2) {
            assert!(w[0].0 < w[1].0, "{hist}: le edges must increase");
            assert!(w[0].1 <= w[1].1, "{hist}: cumulative counts decreased");
        }
        let last = buckets.last().unwrap();
        assert!(last.0.is_infinite(), "{hist}: final bucket must be +Inf");
        let count = samples
            .iter()
            .find(|(n, _, _)| n == &format!("{hist}_count"))
            .map(|(_, _, v)| *v)
            .expect("count series");
        let sum = samples
            .iter()
            .find(|(n, _, _)| n == &format!("{hist}_sum"))
            .map(|(_, _, v)| *v)
            .expect("sum series");
        assert_eq!(last.1, count, "{hist}: +Inf bucket equals _count");
        assert!(sum >= 0.0);
    }
}

#[test]
fn every_sample_parses_and_labels_round_trip() {
    let rendered = render_prometheus(&fixture());
    let samples = parse_exposition(&rendered).expect("parses");
    assert!(samples.len() > 30, "got {}", samples.len());
    // The model_info series carries identity in labels.
    let info = samples
        .iter()
        .find(|(n, _, _)| n == "xentry_fleet_model_info")
        .expect("model_info series");
    assert_eq!(info.2, 1.0);
    assert!(info.1.contains(&("version".to_string(), "3".to_string())));
    // Per-shard series carry the shard label verbatim.
    let shard1: Vec<_> = samples
        .iter()
        .filter(|(n, labels, _)| {
            n == "xentry_fleet_shard_classified_total"
                && labels.contains(&("shard".to_string(), "1".to_string()))
        })
        .collect();
    assert_eq!(shard1.len(), 1);
    assert_eq!(shard1[0].2, 490.0);
    // Per-epoch series likewise.
    let epoch3: Vec<_> = samples
        .iter()
        .filter(|(n, labels, _)| {
            n == "xentry_fleet_epoch_verdicts_total"
                && labels.contains(&("epoch".to_string(), "3".to_string()))
        })
        .collect();
    assert_eq!(epoch3.len(), 1);
    assert_eq!(epoch3[0].2, 290.0);
}
