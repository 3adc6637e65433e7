//! Performance-overhead measurement (Fig. 7 and Fig. 11 methodology).
//!
//! The paper runs each benchmark ten times on unmodified Xen and on
//! Xen+Xentry and compares run times. We reproduce that by running the
//! same workload (same seed, same guest program) to a fixed amount of
//! *guest work* — a target number of completed kernel bursts — under a
//! `NullMonitor` baseline and under the Xentry shim, and comparing the
//! cycles consumed. Every shim configuration of a run is priced against
//! that run's one baseline.

use crate::shim::Xentry;
use guest_sim::{guest_addrs, workload_platform, Benchmark};
use sim_machine::{par_map, VirtMode};
use xen_like::{Monitor, NullMonitor, Platform};

/// Run `plat` on `cpu` until domain `dom` completes `bursts` kernel bursts;
/// returns cycles consumed. Panics if the platform dies (these are
/// fault-free runs).
pub fn run_until_bursts<M: Monitor>(
    plat: &mut Platform,
    cpu: usize,
    dom: usize,
    bursts: u64,
    monitor: &mut M,
) -> u64 {
    let ga = guest_addrs(dom);
    if !plat.is_booted(cpu) {
        plat.boot(cpu, monitor);
    }
    let start = plat.machine.cpu(cpu).cycles;
    loop {
        let done = plat
            .machine
            .mem
            .peek(ga.iter_count)
            .expect("guest data mapped");
        if done >= bursts {
            break;
        }
        let act = plat.run_activation(cpu, monitor);
        assert!(
            act.outcome.is_healthy(),
            "fault-free run died: {:?}",
            act.outcome
        );
    }
    plat.machine.cpu(cpu).cycles - start
}

/// Parameters of one overhead experiment.
#[derive(Debug, Clone, Copy)]
pub struct OverheadSetup {
    pub benchmark: Benchmark,
    pub mode: VirtMode,
    /// Guest kernel scale divider (1 = paper-calibrated rates).
    pub kernel_scale: u64,
    /// Guest work per run, in kernel bursts.
    pub bursts: u64,
    pub seed: u64,
}

/// Average and maximum overhead of one configuration over repeated runs
/// (the paper reports both, over ten runs).
#[derive(Debug, Clone, Copy)]
pub struct OverheadSummary {
    pub avg: f64,
    pub max: f64,
}

/// Cycles `setup`'s guest needs for its bursts under `monitor`, on a fresh
/// platform: Dom 1 pinned to CPU 1, Dom0 on CPU 0 (quiescent here).
fn run_cycles<M: Monitor>(setup: &OverheadSetup, monitor: &mut M) -> u64 {
    let mut plat = workload_platform(
        setup.benchmark,
        setup.mode,
        2,
        1,
        setup.kernel_scale,
        setup.seed,
    );
    run_until_bursts(&mut plat, 1, 1, setup.bursts, monitor)
}

/// Price every shim of `shims` (each a factory of fresh shims, e.g. one
/// with a deployed detector so classification costs include real tree
/// traversals) on every setup of `setups`, over `runs` ≥ 1 runs. Run `r` of a
/// setup uses seed `seed + 1000·r` and simulates one `NullMonitor`
/// baseline; each shim runs on its own fresh platform and costs its cycles
/// ÷ the baseline's − 1. The runs are independent and spread over every
/// CPU. Returns, per setup, one summary per shim in `shims` order.
pub fn measure_overhead(
    setups: &[OverheadSetup],
    runs: usize,
    shims: &[&(dyn Fn() -> Xentry + Sync)],
) -> Vec<Vec<OverheadSummary>> {
    let jobs: Vec<OverheadSetup> = (setups.iter())
        .flat_map(|s| {
            (0..runs as u64).map(move |r| OverheadSetup {
                seed: s.seed + 1000 * r,
                ..*s
            })
        })
        .collect();
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let per_run: Vec<Vec<f64>> = par_map(threads, &jobs, |setup| {
        let baseline = run_cycles(setup, &mut NullMonitor) as f64;
        (shims.iter())
            .map(|make| run_cycles(setup, &mut make()) as f64 / baseline - 1.0)
            .collect()
    });
    per_run
        .chunks(runs)
        .map(|of_setup| {
            (0..shims.len())
                .map(|k| {
                    let values = || of_setup.iter().map(|run| run[k]);
                    OverheadSummary {
                        avg: values().sum::<f64>() / runs as f64,
                        max: values().fold(f64::MIN, f64::max),
                    }
                })
                .collect()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shim::XentryConfig;

    fn quick_setup(benchmark: Benchmark) -> OverheadSetup {
        OverheadSetup {
            benchmark,
            mode: VirtMode::Para,
            kernel_scale: 4,
            bursts: 1500,
            seed: 77,
        }
    }

    /// Fresh shims of `config` with no deployed tree.
    fn shim(config: XentryConfig) -> impl Fn() -> Xentry + Sync {
        move || Xentry::new(config, None)
    }

    #[test]
    fn overhead_is_small_and_positive() {
        let full = shim(XentryConfig::overhead());
        let r = measure_overhead(&[quick_setup(Benchmark::Bzip2)], 1, &[&full])[0][0].avg;
        assert!(r > 0.0, "shim work must cost something: {r}");
        assert!(r < 0.08, "overhead out of band: {r}");
    }

    #[test]
    fn runtime_only_is_cheaper_than_full() {
        let [full, rt] = [XentryConfig::overhead(), XentryConfig::runtime_only()].map(shim);
        let got = measure_overhead(&[quick_setup(Benchmark::Postmark)], 1, &[&full, &rt]);
        let (full, rt) = (got[0][0].avg, got[0][1].avg);
        assert!(rt < full, "runtime-only {rt} should undercut full {full}");
    }

    #[test]
    fn io_heavy_workload_pays_more_than_cpu_bound() {
        // Fig. 7's shape: postmark (exit-hungry) worst, bzip2 best.
        let setups = [Benchmark::Postmark, Benchmark::Bzip2].map(quick_setup);
        let got = measure_overhead(&setups, 1, &[&shim(XentryConfig::overhead())]);
        let (post, bzip) = (got[0][0].avg, got[1][0].avg);
        assert!(
            post > 2.0 * bzip,
            "postmark {post} should dominate bzip2 {bzip}"
        );
    }

    /// Pricing several shims against one baseline per run gives every
    /// shim the numbers it gets priced alone, to the bit.
    #[test]
    fn a_shared_baseline_changes_no_number() {
        let setups = [quick_setup(Benchmark::Freqmine)];
        let configs = [
            XentryConfig::runtime_only(),
            XentryConfig::overhead(),
            XentryConfig::with_recovery(),
        ]
        .map(shim);
        let shared = measure_overhead(&setups, 2, &[&configs[0], &configs[1], &configs[2]]);
        for (k, config) in configs.iter().enumerate() {
            let alone = measure_overhead(&setups, 2, &[config])[0][0];
            let bits = |s: OverheadSummary| (s.avg.to_bits(), s.max.to_bits());
            assert_eq!(bits(shared[0][k]), bits(alone), "configuration {k}");
        }
    }
}
