//! `benchmark` — one benchmark for the whole pipeline: five workloads, two
//! clocks, a cost ladder per layer. See README.md beside this file.
//!
//! ```text
//! benchmark run     <workload|all> [--seed N] [--out DIR] [--smoke]
//! benchmark trace   <workload|all> [--seed N] [--out DIR] [--smoke]
//! benchmark list
//! benchmark compare <DIR_A> <DIR_B>
//! benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last form is the one `BENCHMARK.json` names: one workload, one
//! process, one JSON object as the last line of stdout.

mod env;
mod layers;
mod metrics;
mod pass;
mod report;
mod sizes;
mod span;
mod stats;
mod workloads;

use metrics::{Workload, DRIVER_END_TO_END, END_TO_END, PER_LAYER, RUN_SECONDS};
use pass::{Plan, RunReport, TraceReport};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use workloads::{campaign, classify, fleet, guest};

const DEFAULT_SEED: u64 = 2014;
const DEFAULT_OUT: &str = "results/benchmark";
const SMOKE_DIVISOR: usize = 20;

const USAGE: &str = "usage:
  benchmark run     <workload|all> [--seed N] [--out DIR] [--smoke]
  benchmark trace   <workload|all> [--seed N] [--out DIR] [--smoke]
  benchmark list
  benchmark compare <DIR_A> <DIR_B>
  benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>";

fn run_workload(w: Workload, plan: &Plan) -> RunReport {
    match w {
        Workload::CampaignReg => pass::run::<campaign::CampaignReg>(plan),
        Workload::CampaignRecovery => pass::run::<campaign::CampaignRecovery>(plan),
        Workload::GuestRun => pass::run::<guest::GuestRun>(plan),
        Workload::FleetServe => pass::run::<fleet::FleetServe>(plan),
        Workload::ClassifyPool => pass::run::<classify::ClassifyPool>(plan),
    }
}

fn trace_workload(w: Workload, plan: &Plan) -> TraceReport {
    match w {
        Workload::CampaignReg => pass::trace::<campaign::CampaignReg>(plan),
        Workload::CampaignRecovery => pass::trace::<campaign::CampaignRecovery>(plan),
        Workload::GuestRun => pass::trace::<guest::GuestRun>(plan),
        Workload::FleetServe => pass::trace::<fleet::FleetServe>(plan),
        Workload::ClassifyPool => pass::trace::<classify::ClassifyPool>(plan),
    }
}

/// `--flag value` pairs and bare `--smoke`, in any order after the
/// positional arguments.
struct Flags {
    seed: u64,
    out: PathBuf,
    smoke: bool,
    workload: Option<String>,
    seconds: Option<f64>,
    trace: Option<bool>,
}

fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut f = Flags {
        seed: DEFAULT_SEED,
        out: PathBuf::from(DEFAULT_OUT),
        smoke: false,
        workload: None,
        seconds: None,
        trace: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            f.smoke = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--seed" => f.seed = value.parse().map_err(|_| bad())?,
            "--out" => f.out = PathBuf::from(value),
            "--workload" => f.workload = Some(value.clone()),
            "--seconds" => {
                f.seconds = Some(
                    value
                        .parse()
                        .ok()
                        .filter(|s: &f64| *s > 0.0)
                        .ok_or_else(bad)?,
                )
            }
            "--trace" => {
                f.trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(f)
}

fn workload_named(name: &str) -> Result<Workload, String> {
    Workload::from_name(name).ok_or_else(|| {
        let known: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
        format!("unknown workload {name}; one of {}", known.join(", "))
    })
}

/// Guards every measuring command shares.
fn guard(w: Workload) -> Result<(), String> {
    if cfg!(debug_assertions) {
        return Err(
            "built with debug assertions: measure optimized builds only (--release)".into(),
        );
    }
    if w == Workload::FleetServe && env::nproc() < 2 {
        return Err("fleet-serve needs 2 CPUs (one sender, one shard worker)".into());
    }
    Ok(())
}

fn plan(flags: &Flags, model_seed: u64, repeats: usize) -> Plan {
    Plan {
        seed: flags.seed,
        model_seed,
        sizes: if flags.smoke {
            sizes::Sizes::divided(SMOKE_DIVISOR)
        } else {
            sizes::FULL
        },
        repeats: if flags.smoke { 1 } else { repeats },
    }
}

/// Run one workload's `run` pass in this process; print and write it.
fn measure_run(w: Workload, plan: &Plan, out: &Path, env: &env::Env) -> RunReport {
    let r = run_workload(w, plan);
    report::print_run(&r, env);
    let file = format!("{}.run.json", w.name());
    report::write(out, &file, &report::pretty(&report::run_json(&r, env)));
    r
}

/// Likewise the `trace` pass.
fn measure_trace(w: Workload, plan: &Plan, out: &Path, env: &env::Env) -> TraceReport {
    let t = trace_workload(w, plan);
    report::print_trace(&t, env);
    let name = w.name();
    report::write(out, &format!("{name}.trace.json"), &t.chrome_trace);
    report::write(
        out,
        &format!("{name}.layers.json"),
        &report::pretty(&report::layers_json(&t, env)),
    );
    t
}

/// `run <workload>` / `trace <workload>`; true when every check passed.
fn human(mode: &str, w: Workload, flags: &Flags) -> Result<bool, String> {
    guard(w)?;
    let env = env::stamp(env::pin_allocator());
    let plan = plan(flags, flags.seed, w.repeats(RUN_SECONDS));
    Ok(if mode == "run" {
        measure_run(w, &plan, &flags.out, &env).correct()
    } else {
        measure_trace(w, &plan, &flags.out, &env).correct()
    })
}

/// `run all` / `trace all`: each workload in a process of its own, so
/// that `peak_rss_mb` is per workload. Children inherit stdout.
fn all(mode: &str, rest: &[String]) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut ok = true;
    for w in Workload::ALL {
        let status = std::process::Command::new(&exe)
            .arg(mode)
            .arg(w.name())
            .args(rest)
            .status()
            .map_err(|e| format!("cannot start {}: {e}", w.name()))?;
        ok &= status.success();
    }
    println!(
        "\n{mode} all: {}",
        if ok {
            "every check passed"
        } else {
            "SOME CHECKS FAILED"
        }
    );
    Ok(ok)
}

/// The `BENCHMARK.json` contract: measure one workload for about
/// `--seconds` (a repeat count fixed by the request, see `Workload::repeats`),
/// print a result object as the last line. Exit code 0 even when a check
/// fails — `correct: false` says so; non-zero means no result at all.
fn driver(flags: &Flags) -> Result<bool, String> {
    let (Some(name), Some(seconds), Some(traced)) = (&flags.workload, flags.seconds, flags.trace)
    else {
        return Err("the driver form needs --workload, --seed, --seconds and --trace".into());
    };
    let w = workload_named(name)?;
    guard(w)?;
    let env = env::stamp(env::pin_allocator());
    let plan = plan(flags, DEFAULT_SEED, w.repeats(seconds));
    let line = if traced {
        let t = measure_trace(w, &plan, &flags.out, &env);
        let values = PER_LAYER
            .iter()
            .map(|d| (d.name, t.layers[d.name], d.unit))
            .collect();
        report::driver_line(t.correct(), t.attempted, t.failed, values)
    } else {
        let r = measure_run(w, &plan, &flags.out, &env);
        let values = DRIVER_END_TO_END
            .iter()
            .map(|d| {
                let s = r
                    .summary(d.name)
                    .expect("every repeat reports the driver columns");
                (d.name, s.value, d.unit)
            })
            .collect();
        report::driver_line(r.correct(), r.attempted, r.failed, values)
    };
    println!("{line}");
    Ok(true)
}

fn list() {
    println!("workloads (R = repeats of the run pass):");
    for w in Workload::ALL {
        println!(
            "  {:<18} R={}  {}",
            w.name(),
            w.repeats(RUN_SECONDS),
            w.why()
        );
    }
    println!("end-to-end metrics (run):");
    for m in &END_TO_END {
        println!(
            "  {:<26} {:<8} {:<10} better={:<7} may worsen by {:>3.0}%  @ {}",
            m.name,
            m.unit,
            m.clock.name(),
            m.better.name(),
            100.0 * m.bound,
            m.workload.map_or("all", Workload::name)
        );
    }
    println!("end-to-end columns gated by BENCHMARK.json (every workload):");
    for m in &DRIVER_END_TO_END {
        println!(
            "  {:<26} {:<8} {:<10} better={:<7} may worsen by {:>3.0}%",
            m.name,
            m.unit,
            m.clock.name(),
            m.better.name(),
            100.0 * m.bound
        );
    }
    println!("per-layer metrics (trace):");
    for m in &PER_LAYER {
        println!("  {:<44} {:<8} {}", m.name, m.unit, m.clock.name());
    }
}

fn dispatch(args: &[String]) -> Result<bool, String> {
    match args.first().map(String::as_str) {
        Some("list") => {
            list();
            Ok(true)
        }
        Some("compare") => match args {
            [_, a, b] => Ok(report::compare(Path::new(a), Path::new(b))),
            _ => Err("compare needs two output directories".into()),
        },
        Some(mode @ ("run" | "trace")) => {
            let target = args.get(1).ok_or("which workload? (or all)")?;
            let flags = parse_flags(&args[2..])?;
            if target == "all" {
                all(mode, &args[2..])
            } else {
                human(mode, workload_named(target)?, &flags)
            }
        }
        Some(flag) if flag.starts_with("--") => driver(&parse_flags(args)?),
        _ => Err(USAGE.into()),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(msg) => {
            eprintln!("benchmark: {msg}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::Value;
    use span::Recorder;
    use workloads::WorkloadImpl;

    /// `BENCHMARK.json` at the repo root, five directories up.
    const BENCHMARK_JSON: &str = include_str!("../../../../../BENCHMARK.json");

    fn names(v: &Value, key: &str) -> Vec<(String, Option<String>, Option<String>)> {
        let field = |item: &Value, k: &str| match item.get(k) {
            Some(Value::Str(s)) => Some(s.clone()),
            _ => None,
        };
        v.get(key)
            .and_then(Value::as_array)
            .unwrap_or_else(|| panic!("{key} missing"))
            .iter()
            .map(|item| {
                (
                    field(item, "name").expect("name"),
                    field(item, "unit"),
                    field(item, "better"),
                )
            })
            .collect()
    }

    fn defs(table: &[metrics::MetricDef]) -> Vec<(String, Option<String>, Option<String>)> {
        table
            .iter()
            .map(|d| {
                (
                    d.name.to_string(),
                    Some(d.unit.to_string()),
                    Some(d.better.name().to_string()),
                )
            })
            .collect()
    }

    #[test]
    fn list_matches_benchmark_json() {
        let v: Value = serde_json::from_str(BENCHMARK_JSON).expect("BENCHMARK.json parses");
        let workloads: Vec<String> = names(&v, "workloads").into_iter().map(|n| n.0).collect();
        let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(workloads, ours);
        assert_eq!(names(&v, "end_to_end"), defs(&DRIVER_END_TO_END));
        assert_eq!(names(&v, "per_layer"), defs(&PER_LAYER));
        // Bounds and whys too.
        for (item, def) in v
            .get("end_to_end")
            .unwrap()
            .as_array()
            .unwrap()
            .iter()
            .zip(&DRIVER_END_TO_END)
        {
            assert_eq!(
                item.get("bound"),
                Some(&Value::Float(def.bound)),
                "{}",
                def.name
            );
        }
        for (item, w) in v
            .get("workloads")
            .unwrap()
            .as_array()
            .unwrap()
            .iter()
            .zip(Workload::ALL)
        {
            assert_eq!(item.get("why"), Some(&Value::Str(w.why().to_string())));
            assert!(w.why().len() <= 200, "{}", w.name());
        }
    }

    #[test]
    fn metric_names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for d in DRIVER_END_TO_END.iter().chain(&PER_LAYER) {
            assert!(seen.insert(d.name), "duplicate {}", d.name);
            assert!(d.name.len() <= 64 && d.unit.len() <= 16);
            assert!(d
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        // Every native metric a workload reports is in the table.
        for d in &END_TO_END {
            assert!(metrics::end_to_end(d.name).is_some());
        }
    }

    #[test]
    fn flags_parse_in_any_order_and_reject_junk() {
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let f = parse_flags(&args(
            "--trace 1 --workload guest-run --seconds 2.5 --seed 9",
        ))
        .unwrap();
        assert_eq!((f.seed, f.trace, f.seconds), (9, Some(true), Some(2.5)));
        assert_eq!(f.workload.as_deref(), Some("guest-run"));
        assert!(parse_flags(&args("--seed")).is_err());
        assert!(parse_flags(&args("--seconds 0")).is_err());
        assert!(parse_flags(&args("--trace 2")).is_err());
        assert!(parse_flags(&args("--frobnicate 1")).is_err());
        assert!(workload_named("nope").is_err());
        assert!(dispatch(&args("compare onlyone")).is_err());
    }

    #[test]
    fn repeat_count_follows_the_request_only() {
        let at = |s: f64| Workload::ALL.map(|w| w.repeats(s));
        assert_eq!(at(RUN_SECONDS), [20, 20, 22, 24, 40]);
        assert_eq!(at(1.0), [4; 5], "never fewer than four");
        assert!(at(60.0)
            .iter()
            .zip(at(RUN_SECONDS))
            .all(|(long, short)| *long > short));
        // `run_seconds` in BENCHMARK.json is what `run` measures for.
        let v: Value = serde_json::from_str(BENCHMARK_JSON).unwrap();
        assert_eq!(v.get("run_seconds"), Some(&Value::UInt(RUN_SECONDS as u64)));
    }

    /// Same seed → same digest, another seed → another digest, at 1/50
    /// size, on the workload whose inputs are all simulated.
    #[test]
    fn digest_follows_the_seed() {
        let digest = |seed: u64| {
            let mut rec = Recorder::new(false);
            let plan = Plan {
                seed,
                model_seed: seed,
                sizes: sizes::Sizes::divided(50),
                repeats: 1,
            };
            let inp = workloads::setup(&mut rec, Workload::CampaignReg, &plan, 1);
            let outcome = campaign::CampaignReg::repeat(&mut rec, &inp).0;
            assert_eq!(outcome.failed, 0);
            outcome.digest
        };
        let a = digest(2014);
        assert_eq!(a, digest(2014));
        assert_ne!(a, digest(4102));
    }
}
