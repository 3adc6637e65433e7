//! Paper-shape fidelity checks: small-scale versions of the qualitative
//! claims every figure makes. These are the invariants EXPERIMENTS.md
//! reports at full scale.

use guest_sim::{measure_activation_rate, rate_stats, workload_platform, Benchmark};
use sim_machine::VirtMode;
use xentry::{measure_overhead, OverheadSetup, Xentry, XentryConfig};

/// Fig. 3 shape: PV activation rates exceed HVM rates for every benchmark
/// (para-virtualization "provides more interfaces to VMs through hypercalls
/// that cause more hypervisor executions").
#[test]
fn pv_rates_exceed_hvm_rates() {
    for b in [Benchmark::Freqmine, Benchmark::Mcf, Benchmark::Postmark] {
        let rate = |mode| {
            let mut plat = workload_platform(b, mode, 2, 1, 1, 5);
            rate_stats(&measure_activation_rate(&mut plat, 1, 2, 0.002)).median
        };
        let pv = rate(VirtMode::Para);
        let hvm = rate(VirtMode::Hvm);
        assert!(
            pv > 1.5 * hvm,
            "{}: PV {pv:.0}/s should exceed HVM {hvm:.0}/s",
            b.name()
        );
    }
}

/// Fig. 3 shape: the hypercall-heavy workloads out-activate the CPU- and
/// memory-bound ones ("I/O intensive workloads ... make the hypervisor
/// frequently and heavily utilized").
#[test]
fn io_workloads_dominate_pv_activation_rates() {
    let rate = |b| {
        let mut plat = workload_platform(b, VirtMode::Para, 2, 1, 1, 9);
        rate_stats(&measure_activation_rate(&mut plat, 1, 2, 0.002)).median
    };
    let hot = rate(Benchmark::Postmark).max(rate(Benchmark::Freqmine));
    for b in [Benchmark::Mcf, Benchmark::Bzip2, Benchmark::Canneal] {
        assert!(
            hot > 2.0 * rate(b),
            "I/O workloads should dwarf {}",
            b.name()
        );
    }
}

/// Fig. 7 shape: overhead ordering follows activation frequency — postmark
/// pays the most, bzip2 the least; everything stays single-digit percent.
#[test]
fn overhead_ordering_and_magnitude() {
    let setups = [Benchmark::Postmark, Benchmark::Bzip2, Benchmark::Mcf].map(|benchmark| {
        OverheadSetup {
            benchmark,
            mode: VirtMode::Para,
            kernel_scale: 1, // paper-calibrated rates
            bursts: 500,
            seed: 31,
        }
    });
    let full = || Xentry::new(XentryConfig::overhead(), None);
    let got = measure_overhead(&setups, 1, &[&full]);
    let [postmark, bzip2, mcf] = [0, 1, 2].map(|b| got[b][0].avg);
    assert!(postmark > bzip2, "postmark {postmark} vs bzip2 {bzip2}");
    assert!(postmark > mcf, "postmark {postmark} vs mcf {mcf}");
    assert!(postmark < 0.12, "postmark overhead blew up: {postmark}");
    assert!(bzip2 < 0.015, "bzip2 should be around sub-1%: {bzip2}");
    assert!(bzip2 > 0.0 && mcf > 0.0, "overhead must be positive");
}

/// Fig. 7 shape: runtime-only detection is strictly cheaper than the full
/// framework (the paper's shaded vs empty boxes).
#[test]
fn runtime_only_cheaper_than_full() {
    let setup = OverheadSetup {
        benchmark: Benchmark::Freqmine,
        mode: VirtMode::Para,
        kernel_scale: 1,
        bursts: 500,
        seed: 13,
    };
    // All three priced against one baseline run.
    let [rt, full, recovery] = [
        XentryConfig::runtime_only(),
        XentryConfig::overhead(),
        XentryConfig::with_recovery(),
    ]
    .map(|config| move || Xentry::new(config, None));
    let got = measure_overhead(&[setup], 1, &[&rt, &full, &recovery]);
    let [rt, full, recovery] = [0, 1, 2].map(|k| got[0][k].avg);
    assert!(
        rt < full,
        "runtime-only {rt} should be cheaper than full {full}"
    );
    assert!(
        full < recovery,
        "recovery support {recovery} must cost more than full {full}"
    );
}

/// §VI: the recovery-state copy is the paper's measured 1,900 ns ≈ 4,047
/// cycles at 2.13 GHz — our default cost model must agree.
#[test]
fn recovery_copy_cost_matches_paper_measurement() {
    let costs = xentry::ShimCosts::default();
    assert!(
        (4000..4100).contains(&costs.state_copy),
        "state copy {}",
        costs.state_copy
    );
    let model = sim_machine::CycleModel::default();
    assert_eq!(model.ns_to_cycles(1_900), costs.state_copy);
}
