//! Inject single-bit soft errors into hypervisor executions and watch the
//! paper's detection machinery react: fatal hardware exceptions, software
//! assertions, and golden-run differencing for the silent cases.
//!
//! ```text
//! cargo run --release --bin inject_fault
//! ```

use faultsim::{inject, prepare_point, CampaignConfig, FaultOutcome, InjectionSpec};
use guest_sim::Benchmark;
use sim_machine::cpu::FlipTarget;
use sim_machine::Reg;
use xentry::Xentry;

fn main() {
    // The paper's fault-injection setup: Dom0 + two DomUs running the same
    // benchmark; we observe DomU 1 on CPU 1.
    let cfg = CampaignConfig::paper(Benchmark::Freqmine, 1, 7);
    let mut platform = faultsim::campaign_platform(&cfg, 7);
    let mut shim = Xentry::collector();
    platform.boot(1, &mut shim);
    for _ in 0..50 {
        assert!(platform.run_activation(1, &mut shim).outcome.is_healthy());
    }

    // Freeze the platform at the next VM exit and prepare the golden runs.
    let (reason, _) = platform.run_to_exit(1);
    let point = prepare_point(platform, 1, 1, reason, 6, None).expect("golden run");
    println!(
        "injection point: {} (handler runs {} instructions fault-free)",
        reason, point.meta.golden_len
    );
    println!("golden features: {:?}\n", point.meta.golden_features);

    // A gallery of representative faults.
    let cases = [
        (
            "RIP bit 40 (lands in unmapped space)",
            FlipTarget::Rip,
            40u8,
            point.meta.golden_len / 2,
        ),
        (
            "RIP bit 4 (lands on a nearby instruction)",
            FlipTarget::Rip,
            4,
            point.meta.golden_len / 2,
        ),
        (
            "RSP bit 35 (stack accesses fault)",
            FlipTarget::Gpr(Reg::Rsp),
            35,
            5,
        ),
        (
            "RAX bit 3 early in the handler",
            FlipTarget::Gpr(Reg::Rax),
            3,
            2,
        ),
        (
            "R9 bit 12 mid-handler (pointer walk)",
            FlipTarget::Gpr(Reg::R9),
            12,
            point.meta.golden_len / 3,
        ),
        (
            "RFLAGS bit 6 (zero flag) mid-handler",
            FlipTarget::Rflags,
            6,
            point.meta.golden_len / 3,
        ),
        (
            "R12 bit 50 late (dead register)",
            FlipTarget::Gpr(Reg::R12),
            50,
            point.meta.golden_len - 5,
        ),
    ];

    for (desc, target, bit, at_step) in cases {
        let rec = inject(
            &point,
            InjectionSpec {
                target,
                bit,
                at_step,
            },
            None,
        );
        let verdict = match &rec.outcome {
            FaultOutcome::Benign => "benign (not activated / masked)".to_string(),
            FaultOutcome::MaskedAfterEntry => "masked after VM entry".to_string(),
            FaultOutcome::Detected { technique, latency, consequence, .. } => format!(
                "DETECTED by {technique:?} after {latency} instructions (would-be consequence: {consequence:?})"
            ),
            FaultOutcome::Undetected { consequence, category } => {
                format!("UNDETECTED -> {consequence:?} (corrupted: {category:?})")
            }
        };
        println!("{desc:<46} => {verdict}");
    }
}
