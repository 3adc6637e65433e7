//! Regenerate every table and figure of the Xentry paper.
//!
//! ```text
//! figures [--quick|--paper] [--out DIR] [experiments...]
//!
//! experiments: table1 fig3 ml fig7 injection fig11 recovery vulnmap
//!              extensions ablation                          (default: all)
//!   "injection" produces Fig. 8, Fig. 9, Fig. 10 and Table II.
//!   "recovery" drives every detected fault through competing
//!   health-monitor policy tables (ignore / re-execute-only / tiered
//!   with hypervisor microreboot) and writes `results/ext_recovery.json`
//!   plus the repo-root mirror `BENCH_recovery_<scale>.json`.
//!   "vulnmap" campaigns every fault model (register flips, spatial
//!   bursts, PTE strikes, PMC strikes) over a paper benchmark plus the
//!   three adversarial guest profiles and writes the per-bit
//!   vulnerability map to `results/vulnmap.json` and the repo-root
//!   mirror `BENCH_vulnmap_<scale>.json`.
//!   "extensions" writes the register-vulnerability, forest, multi-bit
//!   and envelope comparisons (`results/ext_*.json`).
//! ```
//!
//! `<scale>` is `quick` or `paper`, after the flag. Every experiment that
//! deploys or compares a tree reads one `Study`, built once: a training
//! campaign over the paper suite plus the adversarial profiles, whichever
//! experiments were named.
//!
//! An unknown option or experiment name exits 2 with the list above.
//! Only experiments on the simulated platform run here. Host-side speed,
//! the fleet's included, is the `benchmark` binary's job.
//!
//! Text renderings go to stdout; JSON artifacts to `--out` (default
//! `results/`), with the wall-clock of every experiment that ran — the
//! `[figures] ... took` lines — in `figures_timing.json`.

use guest_sim::Benchmark;
use std::collections::HashSet;
use std::path::{Path, PathBuf};
use xentry_bench::*;

/// Every experiment `figures` runs, in the order it runs them. The
/// argument check and the usage text both read this list.
const EXPERIMENTS: &[&str] = &[
    "table1",
    "fig3",
    "ml",
    "fig7",
    "injection",
    "fig11",
    "recovery",
    "vulnmap",
    "extensions",
    "ablation",
];

/// The parsed command line.
#[derive(Debug)]
struct Args {
    /// The scale flag without its dashes, which names the repo-root
    /// receipts, and the sizing it picks.
    scale: (&'static str, Scale),
    out: PathBuf,
    /// Experiments named on the command line; empty means all of them.
    wanted: HashSet<String>,
}

fn usage() -> String {
    format!(
        "usage: figures [--quick|--paper] [--out DIR] [experiments...]\n\
         experiments: {} (default: all)",
        EXPERIMENTS.join(" ")
    )
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        scale: ("quick", Scale::quick()),
        out: PathBuf::from("results"),
        wanted: HashSet::new(),
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" => parsed.scale = ("quick", Scale::quick()),
            "--paper" => parsed.scale = ("paper", Scale::paper()),
            "--out" => parsed.out = PathBuf::from(it.next().ok_or("--out needs a directory")?),
            name if EXPERIMENTS.contains(&name) => {
                parsed.wanted.insert(name.to_string());
            }
            other if other.starts_with("--") => return Err(format!("unknown option {other}")),
            other => return Err(format!("unknown experiment {other:?}")),
        }
    }
    Ok(parsed)
}

/// Every artifact is written atomically (temp + rename): an interrupted run
/// never leaves a torn file that a later plotting/CI step, or
/// `VmTransitionDetector::from_json` reading `detector.json`, would
/// half-parse.
fn write_file(path: &Path, contents: &str) {
    sim_machine::write_atomic(path, contents.as_bytes())
        .unwrap_or_else(|e| panic!("write {path:?}: {e}"));
}

fn write_json<T: serde::Serialize>(dir: &Path, name: &str, value: &T) {
    let path = dir.join(format!("{name}.json"));
    write_file(&path, &serde_json::to_string_pretty(value).unwrap());
    eprintln!("[figures] wrote {path:?}");
}

/// Wall-clock of one experiment of this invocation.
#[derive(serde::Serialize)]
struct Took {
    experiment: &'static str,
    seconds: f64,
}

/// What this invocation spent where: the `[figures] ... took` lines,
/// persisted as `figures_timing.json` so `--paper` wall-clock — the number
/// a user waits on — has a row of its own.
#[derive(serde::Serialize)]
struct FiguresTiming {
    scale: String,
    nproc: usize,
    total_seconds: f64,
    experiments: Vec<Took>,
}

impl FiguresTiming {
    fn took(&mut self, experiment: &'static str, since: std::time::Instant) {
        let elapsed = since.elapsed();
        eprintln!("[figures] {experiment} took {elapsed:?}\n");
        self.experiments.push(Took {
            experiment,
            seconds: elapsed.as_secs_f64(),
        });
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Args { scale, out, wanted } = parse_args(&args).unwrap_or_else(|e| {
        eprintln!("figures: {e}\n{}", usage());
        std::process::exit(2);
    });
    let (scale_name, scale) = scale;
    // A report's committed repo-root mirror is named by its scale.
    let receipt = |name: &str| format!("BENCH_{name}_{scale_name}");
    let all = wanted.is_empty();
    let want = |k: &str| all || wanted.contains(k);
    let benchmarks = Benchmark::ALL;
    let seed = 2014; // the paper's year, for reproducibility of artifacts

    println!("== Xentry evaluation harness (scale: {scale:?}) ==\n");
    let started = std::time::Instant::now();
    let mut timing = FiguresTiming {
        scale: scale_name.to_string(),
        nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
        total_seconds: 0.0,
        experiments: Vec::new(),
    };

    if want("table1") {
        let t1 = table1_features();
        println!("{}", t1.render());
        write_json(&out, "table1", &t1);
    }

    if want("fig3") {
        let t = std::time::Instant::now();
        let fig3 = fig3_activation_frequency(&scale, seed);
        println!("{}", fig3.render());
        timing.took("fig3", t);
        write_json(&out, "fig3", &fig3);
    }

    // One study for every experiment that trains or deploys a tree.
    let study = (want("ml")
        || want("injection")
        || want("fig11")
        || want("recovery")
        || want("vulnmap")
        || want("extensions")
        || want("ablation"))
    .then(|| {
        let t = std::time::Instant::now();
        let study = Study::new(scale, seed);
        let ml = ml_accuracy(&study);
        println!("{}", ml.render());
        timing.took("training", t);
        write_json(&out, "ml_accuracy", &ml);
        write_file(&out.join("detector.json"), &study.detector.to_json());
        study
    });
    let detector = study.as_ref().map(|s| &s.detector);

    // Fig. 7 and Fig. 11 price their shims against the same
    // unmodified-Xen runs, so one pass produces both.
    let (fig7, fig11) = if want("fig7") || want("fig11") {
        let t = std::time::Instant::now();
        let fig11_detector = detector.filter(|_| want("fig11"));
        let figs = overhead_figures(want("fig7"), fig11_detector, &scale, seed);
        timing.took("fig7/fig11", t);
        figs
    } else {
        (None, None)
    };
    if let Some(fig7) = fig7 {
        println!("{}", fig7.render());
        write_json(&out, "fig7", &fig7);
    }

    if want("injection") {
        let det = detector.expect("detector trained");
        let t = std::time::Instant::now();
        let inj = injection_evaluation(&benchmarks, det, &scale, seed);
        println!("{}", inj.render_fig8());
        println!("{}", inj.render_fig9());
        println!("{}", inj.render_fig10());
        println!("{}", inj.render_table2());
        timing.took("injection campaigns", t);
        write_json(&out, "injection", &inj);
    }

    if let Some(fig11) = fig11 {
        println!("{}", fig11.render());
        write_json(&out, "fig11", &fig11);
    }

    if want("recovery") {
        let t = std::time::Instant::now();
        let rec = recovery_experiment(
            &[Benchmark::Freqmine, Benchmark::Postmark],
            detector,
            &scale,
            seed,
        );
        println!("{}", rec.render());
        timing.took("recovery", t);
        write_json(&out, "ext_recovery", &rec);
        write_json(Path::new(""), &receipt("recovery"), &rec);
    }

    if want("vulnmap") {
        let t = std::time::Instant::now();
        // One paper benchmark plus all three adversarial profiles: the
        // map must cover the stressed exit-reason corners, not just the
        // well-behaved mix.
        let workloads: Vec<Benchmark> = std::iter::once(Benchmark::Freqmine)
            .chain(Benchmark::ADVERSARIAL)
            .collect();
        let vm = vulnmap_experiment(&workloads, detector, &scale, seed);
        println!("{}", vm.render());
        timing.took("vulnmap", t);
        write_json(&out, "vulnmap", &vm);
        write_json(Path::new(""), &receipt("vulnmap"), &vm);
    }

    if want("extensions") {
        let t = std::time::Instant::now();
        let vuln = register_vulnerability(Benchmark::Freqmine, detector, &scale, seed);
        println!("{}", vuln.render());
        write_json(&out, "ext_vulnerability", &vuln);
        let (forest, envelope) = tree_comparisons(study.as_ref().expect("study built"));
        println!("{}", forest.render());
        write_json(&out, "ext_forest", &forest);
        let multibit = multibit_comparison(Benchmark::Freqmine, 2, detector, &scale, seed);
        println!("{}", multibit.render());
        write_json(&out, "ext_multibit", &multibit);
        println!("{}", envelope.render());
        write_json(&out, "ext_envelope", &envelope);
        timing.took("extensions", t);
    }

    if want("ablation") {
        let t = std::time::Instant::now();
        let ab = ablations(study.as_ref().expect("study built"));
        println!("{}", ab.render());
        timing.took("ablations", t);
        write_json(&out, "ablation", &ab);
    }

    timing.total_seconds = started.elapsed().as_secs_f64();
    write_json(&out, "figures_timing", &timing);
    println!("done.");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn parsing_accepts_every_experiment_and_refuses_anything_else() {
        let all = parse(EXPERIMENTS).unwrap();
        assert_eq!(all.wanted.len(), EXPERIMENTS.len());
        let args = parse(&["--paper", "--out", "elsewhere", "fig7"]).unwrap();
        assert_eq!(
            format!("{:?}", args.scale),
            format!("{:?}", ("paper", Scale::paper()))
        );
        assert_eq!(args.out, PathBuf::from("elsewhere"));
        assert_eq!(args.wanted, HashSet::from(["fig7".to_string()]));
        assert!(parse(&[]).unwrap().wanted.is_empty(), "no names means all");

        for (bad, says) in [
            (
                &["--quick", "inference"][..],
                "unknown experiment \"inference\"",
            ),
            (&["fig7", "fig8"][..], "unknown experiment \"fig8\""),
            (&["distributed"][..], "unknown experiment \"distributed\""),
            (&["--perf-guard"][..], "unknown option --perf-guard"),
            (&["--out"][..], "--out needs a directory"),
        ] {
            assert_eq!(parse(bad).unwrap_err(), says, "{bad:?}");
        }
    }

    /// The module doc lists exactly what `EXPERIMENTS` holds, and every
    /// `want` in `main` asks for a name the check lets through.
    #[test]
    fn usage_doc_and_main_name_only_listed_experiments() {
        let source = include_str!("figures.rs");
        let doc: String = source
            .lines()
            .filter_map(|l| l.strip_prefix("//!"))
            .collect::<Vec<_>>()
            .join("\n");
        let listed = doc.split("experiments:").nth(1).unwrap();
        let listed: Vec<&str> = listed[..listed.find("(default: all)").unwrap()]
            .split_whitespace()
            .collect();
        assert_eq!(listed, EXPERIMENTS);
        let asked: Vec<&str> = source
            .split("want(\"")
            .skip(1)
            .map(|rest| &rest[..rest.find('"').unwrap()])
            .collect();
        assert!(asked.len() >= EXPERIMENTS.len(), "{asked:?}");
        for name in asked {
            assert!(EXPERIMENTS.contains(&name), "main asks for unlisted {name}");
        }
    }
}
