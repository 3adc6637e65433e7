//! What the benchmark prints and writes: the per-workload tables, the
//! JSON files under `--out`, the driver's one-line result, and the
//! comparison of two output directories.

use crate::env::Env;
use crate::metrics::{
    self, Better, Clock, MetricDef, Workload, DRIVER_END_TO_END, END_TO_END, PER_LAYER,
};
use crate::pass::{RunReport, TraceReport};
use crate::stats::Summary;
use crate::workloads::Check;
use serde_json::Value;
use std::path::Path;

fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn text(s: &str) -> Value {
    Value::Str(s.to_string())
}

fn checks_json(checks: &[Check]) -> Value {
    Value::Array(
        checks
            .iter()
            .map(|c| obj(vec![("name", text(&c.name)), ("pass", Value::Bool(c.pass))]))
            .collect(),
    )
}

fn print_checks(checks: &[Check]) {
    for c in checks {
        println!("  [{}] {}", if c.pass { "ok" } else { "FAILED" }, c.name);
    }
}

fn header(kind: &str, w: Workload, seed: u64, smoke: bool, env: &Env) {
    println!(
        "\n== {kind} {}  seed={seed}{}",
        w.name(),
        if smoke {
            "  SMOKE (1/20 size, R=1: numbers never to be compared)"
        } else {
            ""
        }
    );
    println!("   {}", env.line());
}

fn metric_json(def: &MetricDef, s: &Summary) -> Value {
    obj(vec![
        ("unit", text(def.unit)),
        ("clock", text(def.clock.name())),
        ("better", text(def.better.name())),
        ("bound", Value::Float(def.bound)),
        ("n", Value::UInt(s.n as u64)),
        ("value", Value::Float(s.value)),
        ("min", Value::Float(s.min)),
        ("q1", Value::Float(s.q1)),
        ("median", Value::Float(s.median)),
        ("q3", Value::Float(s.q3)),
        ("max", Value::Float(s.max)),
    ])
}

fn print_metric_rows(report: &RunReport, table: &[MetricDef]) {
    for def in table {
        let Some((_, s)) = report.metrics.iter().find(|(n, _)| *n == def.name) else {
            continue;
        };
        println!(
            "  {:<26} {:>16.4} {:<8} {:<10} {:<7} n={:<2} min {:.4}  q1 {:.4}  median {:.4}  q3 {:.4}  max {:.4}",
            def.name,
            s.value,
            def.unit,
            def.clock.name(),
            def.better.name(),
            s.n,
            s.min,
            s.q1,
            s.median,
            s.q3,
            s.max
        );
    }
}

pub fn print_run(r: &RunReport, env: &Env) {
    header("run", r.workload, r.seed, r.smoke, env);
    println!("  end-to-end metric         quiet-slice value of n unit      clock      better");
    print_metric_rows(r, &END_TO_END);
    println!("  -- the same run through the columns BENCHMARK.json gates");
    print_metric_rows(r, &DRIVER_END_TO_END[..5]);
    println!("  ops_attempted={} ops_failed={}", r.attempted, r.failed);
    println!("  result_digest={:#018x}", r.digest);
    print_checks(&r.checks);
}

pub fn run_json(r: &RunReport, env: &Env) -> Value {
    let metrics = r
        .metrics
        .iter()
        .filter_map(|(name, s)| {
            Some((name.to_string(), metric_json(metrics::end_to_end(name)?, s)))
        })
        .collect();
    obj(vec![
        ("workload", text(r.workload.name())),
        ("seed", Value::UInt(r.seed)),
        ("smoke", Value::Bool(r.smoke)),
        ("env", env.json()),
        ("metrics", Value::Object(metrics)),
        ("ops_attempted", Value::UInt(r.attempted)),
        ("ops_failed", Value::UInt(r.failed)),
        ("result_digest", text(&format!("{:#018x}", r.digest))),
        ("checks", checks_json(&r.checks)),
    ])
}

pub fn print_trace(t: &TraceReport, env: &Env) {
    header("trace", t.workload, t.seed, t.smoke, env);
    println!("  per-layer metric                                   value unit     clock");
    for def in &PER_LAYER {
        let v = t.layers[def.name];
        if v != 0.0 {
            println!(
                "  {:<44} {:>14.4} {:<8} {}",
                def.name,
                v,
                def.unit,
                def.clock.name()
            );
        }
    }
    let idle = PER_LAYER.iter().filter(|d| t.layers[d.name] == 0.0).count();
    println!("  ({idle} rows are 0 on this workload: layer idle or not probed)");
    println!(
        "  self time by span (rows sum to the root span, {:.3} s)",
        t.root_ns as f64 / 1e9
    );
    for row in &t.self_times {
        println!(
            "  {:<52} {:>10.3} ms {:>6.2}%  calls {}",
            row.name,
            row.self_ns as f64 / 1e6,
            100.0 * row.self_ns as f64 / t.root_ns.max(1) as f64,
            row.calls
        );
    }
    println!("  ops_attempted={} ops_failed={}", t.attempted, t.failed);
    println!("  result_digest={:#018x}", t.digest);
    print_checks(&t.checks);
}

pub fn layers_json(t: &TraceReport, env: &Env) -> Value {
    let layers = PER_LAYER
        .iter()
        .map(|def| {
            (
                def.name.to_string(),
                obj(vec![
                    ("value", Value::Float(t.layers[def.name])),
                    ("unit", text(def.unit)),
                    ("clock", text(def.clock.name())),
                ]),
            )
        })
        .collect();
    let spans = t
        .spans
        .iter()
        .map(|s| {
            let mut fields = vec![
                ("name", text(s.name)),
                ("n", Value::UInt(s.timing.n as u64)),
                ("median_ns", Value::Float(s.timing.median)),
                ("total_ns", Value::UInt(s.total_ns)),
                ("self_ns", Value::UInt(s.self_ns)),
                ("work_count", Value::UInt(s.count)),
            ];
            if let Some((p, v)) = s.timing.tail {
                fields.push(("tail_percentile", Value::Float(100.0 * p)));
                fields.push(("tail_ns", Value::Float(v)));
            }
            obj(fields)
        })
        .collect();
    obj(vec![
        ("workload", text(t.workload.name())),
        ("seed", Value::UInt(t.seed)),
        ("smoke", Value::Bool(t.smoke)),
        ("env", env.json()),
        ("layers", Value::Object(layers)),
        ("spans", Value::Array(spans)),
        ("root_span_ns", Value::UInt(t.root_ns)),
        ("ops_attempted", Value::UInt(t.attempted)),
        ("ops_failed", Value::UInt(t.failed)),
        ("result_digest", text(&format!("{:#018x}", t.digest))),
        ("checks", checks_json(&t.checks)),
    ])
}

pub fn write(dir: &Path, file: &str, contents: &str) {
    let path = dir.join(file);
    std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(&path, contents))
        .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
    println!("  wrote {}", path.display());
}

pub fn pretty(v: &Value) -> String {
    serde_json::to_string_pretty(v).expect("report serializes") + "\n"
}

/// The driver's result: one JSON object, the last line of stdout.
pub fn driver_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    values: Vec<(&str, f64, &str)>,
) -> String {
    let metrics = values
        .into_iter()
        .map(|(name, value, unit)| {
            (
                name.to_string(),
                obj(vec![("value", Value::Float(value)), ("unit", text(unit))]),
            )
        })
        .collect();
    let line = obj(vec![
        ("correct", Value::Bool(correct)),
        ("attempted", Value::UInt(attempted.max(1))),
        ("failed", Value::UInt(failed)),
        ("metrics", Value::Object(metrics)),
    ]);
    serde_json::to_string(&line).expect("result serializes")
}

/// Compare the `run` outputs of two directories (same seed, same machine):
/// no host-clock value of `b` worse than `a`'s by more than the metric's
/// bound, simulated and counted metrics and every `result_digest` exactly
/// equal. Returns whether all held.
pub fn compare(a: &Path, b: &Path) -> bool {
    let load = |dir: &Path, w: Workload| -> Option<Value> {
        let text = std::fs::read_to_string(dir.join(format!("{}.run.json", w.name()))).ok()?;
        serde_json::from_str(&text).ok()
    };
    let value = |run: &Value, name: &str| -> Option<f64> {
        match run.get("metrics")?.get(name)?.get("value")? {
            Value::Float(f) => Some(*f),
            Value::UInt(u) => Some(*u as f64),
            Value::Int(i) => Some(*i as f64),
            _ => None,
        }
    };
    let mut ok = true;
    let mut compared = 0;
    for w in Workload::ALL {
        let (Some(ra), Some(rb)) = (load(a, w), load(b, w)) else {
            println!("{}: not in both directories, skipped", w.name());
            continue;
        };
        compared += 1;
        println!("{}:", w.name());
        if ra.get("seed") != rb.get("seed") || ra.get("smoke") != rb.get("smoke") {
            println!("  [FAILED] different seed or size: nothing below is comparable");
            ok = false;
        }
        let same_digest = ra.get("result_digest") == rb.get("result_digest");
        println!(
            "  [{}] result_digest {}",
            if same_digest { "ok" } else { "FAILED" },
            if same_digest { "equal" } else { "DIFFERS" }
        );
        ok &= same_digest;
        for def in END_TO_END
            .iter()
            .filter(|d| d.workload.is_none_or(|x| x == w))
        {
            let (Some(va), Some(vb)) = (value(&ra, def.name), value(&rb, def.name)) else {
                continue;
            };
            // Positive = b is worse than a, as a share of a.
            let worse = match def.better {
                Better::Higher => (va - vb) / va,
                Better::Lower => (vb - va) / va,
            };
            let pass = match def.clock {
                Clock::Simulated => va == vb,
                Clock::Host => worse <= def.bound,
            };
            println!(
                "  [{}] {:<26} {:>16.4} -> {:>16.4} {:<8} {:+.2}% worse (bound {:.0}%, {})",
                if pass { "ok" } else { "FAILED" },
                def.name,
                va,
                vb,
                def.unit,
                100.0 * worse,
                100.0 * def.bound,
                def.clock.name()
            );
            ok &= pass;
        }
    }
    if compared == 0 {
        println!("no workload has a .run.json in both directories");
        return false;
    }
    ok
}
