//! Convenience constructors for fully-loaded workload platforms, and the
//! activation-rate measurement used by the Fig. 3 experiment.

use crate::emit::load_workload;
use crate::profile::{dom0_profile, profile, Benchmark};
use sim_machine::VirtMode;
use xen_like::{DomainSpec, IrqProfile, NullMonitor, Platform, Topology};

/// Build a platform running `benchmark` in `nr_guests` DomU VMs (plus Dom0
/// with the control-plane workload), matching the paper's setups.
/// `kernel_scale > 1` shrinks guest compute for cheap fault-injection runs.
///
/// VCPUs are distributed round-robin over the physical CPUs, so passing
/// `nr_cpus = nr_guests + 1` pins every domain to its own CPU — the paper's
/// uncontended 8-logical-core configuration. DomU `d` then runs on CPU `d`.
pub fn workload_platform(
    benchmark: Benchmark,
    mode: VirtMode,
    nr_cpus: usize,
    nr_guests: usize,
    kernel_scale: u64,
    seed: u64,
) -> Platform {
    let topo = Topology {
        nr_cpus,
        domains: vec![DomainSpec { nr_vcpus: 1 }; nr_guests + 1],
        virt_mode: mode,
        seed,
        cycle_model: Default::default(),
    };
    let (mut plat, _img) = Platform::new(topo);
    let prof = profile(benchmark, mode).scaled(kernel_scale);
    load_workload(
        &mut plat.machine,
        0,
        &dom0_profile(mode).scaled(kernel_scale),
    );
    for d in 1..=nr_guests {
        load_workload(&mut plat.machine, d, &prof);
    }
    plat.irq = IrqProfile {
        tick_period: 2_130_000, // 1 kHz at the modeled 2.13 GHz
        dev_irq_period: prof.dev_irq_period,
    };
    plat
}

/// One sampled window of activation-rate measurement.
#[derive(Debug, Clone, Copy)]
pub struct RateSample {
    /// Activations per second of virtual time.
    pub rate_hz: f64,
    /// Activations observed in the window.
    pub activations: u64,
}

/// Measure per-window hypervisor activation frequency on `cpu`, the Fig. 3
/// methodology ("we measure the number of hypervisor activities every
/// second"). Windows are `window_secs` of virtual time.
pub fn measure_activation_rate(
    plat: &mut Platform,
    cpu: usize,
    windows: usize,
    window_secs: f64,
) -> Vec<RateSample> {
    let hz = plat.machine.config.cycle_model.hz as f64;
    let window_cycles = (window_secs * hz) as u64;
    let mut monitor = NullMonitor;
    if !plat.is_booted(cpu) {
        plat.boot(cpu, &mut monitor);
    }
    let mut out = Vec::with_capacity(windows);
    for _ in 0..windows {
        let start = plat.machine.cpu(cpu).cycles;
        let mut count = 0u64;
        while plat.machine.cpu(cpu).cycles - start < window_cycles {
            let act = plat.run_activation(cpu, &mut monitor);
            assert!(
                act.outcome.is_healthy(),
                "fault-free run died: {:?} on {:?}",
                act.outcome,
                act.reason
            );
            count += 1;
        }
        let elapsed = (plat.machine.cpu(cpu).cycles - start) as f64 / hz;
        out.push(RateSample {
            rate_hz: count as f64 / elapsed,
            activations: count,
        });
    }
    out
}

/// Simple summary statistics for a set of rate samples (box-plot inputs).
#[derive(Debug, Clone, Copy)]
pub struct RateStats {
    pub min: f64,
    pub p25: f64,
    pub median: f64,
    pub p75: f64,
    pub max: f64,
}

/// Compute box-plot statistics.
pub fn rate_stats(samples: &[RateSample]) -> RateStats {
    assert!(!samples.is_empty());
    let mut rates: Vec<f64> = samples.iter().map(|s| s.rate_hz).collect();
    rates.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let q = |p: f64| {
        let idx = ((rates.len() - 1) as f64 * p).round() as usize;
        rates[idx]
    };
    RateStats {
        min: rates[0],
        p25: q(0.25),
        median: q(0.5),
        p75: q(0.75),
        max: rates[rates.len() - 1],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn activation_rate_is_positive_and_stable() {
        let mut plat = workload_platform(Benchmark::Freqmine, VirtMode::Para, 2, 1, 4, 3);
        let samples = measure_activation_rate(&mut plat, 1, 3, 0.002);
        assert_eq!(samples.len(), 3);
        for s in &samples {
            assert!(s.rate_hz > 1_000.0, "rate too low: {}", s.rate_hz);
            assert!(s.activations > 0);
        }
    }

    #[test]
    fn rate_stats_ordering_holds() {
        let samples: Vec<RateSample> = [5.0, 1.0, 3.0, 2.0, 4.0]
            .iter()
            .map(|&r| RateSample {
                rate_hz: r,
                activations: 1,
            })
            .collect();
        let st = rate_stats(&samples);
        assert_eq!(st.min, 1.0);
        assert_eq!(st.max, 5.0);
        assert_eq!(st.median, 3.0);
        assert!(st.p25 <= st.median && st.median <= st.p75);
    }

    #[test]
    fn pv_io_workloads_are_faster_than_cpu_bound() {
        // Relative ordering of Fig. 3 must hold even at small scale: the
        // hypercall-heavy workloads (freqmine, postmark) activate the
        // hypervisor far more often than CPU-bound bzip2.
        let rate = |b| {
            let mut plat = workload_platform(b, VirtMode::Para, 2, 1, 1, 9);
            let s = measure_activation_rate(&mut plat, 1, 2, 0.002);
            rate_stats(&s).median
        };
        let bzip = rate(Benchmark::Bzip2);
        for b in [Benchmark::Freqmine, Benchmark::Postmark] {
            let r = rate(b);
            assert!(
                r > 2.5 * bzip,
                "{} ({r:.0}/s) should dwarf bzip2 ({bzip:.0}/s)",
                b.name()
            );
        }
    }
}
