//! Post-mortem analysis: trace the instructions leading up to a detected
//! soft error — the Simics-style trace inspection the paper's methodology
//! is built on.
//!
//! ```text
//! cargo run --release --bin post_mortem
//! ```

use faultsim::CampaignConfig;
use guest_sim::Benchmark;
use sim_machine::cpu::FlipTarget;
use sim_machine::{step_traced, Event, StepOutcome, TraceRing};
use xentry::{classify_exception, ExceptionClass, Xentry};

fn main() {
    // Warm up the usual campaign platform and stop at a VM exit.
    let cfg = CampaignConfig::paper(Benchmark::Freqmine, 1, 77);
    let mut plat = faultsim::campaign_platform(&cfg, 77);
    let mut shim = Xentry::collector();
    plat.boot(1, &mut shim);
    for _ in 0..60 {
        assert!(plat.run_activation(1, &mut shim).outcome.is_healthy());
    }
    let (reason, _) = plat.run_to_exit(1);
    println!("VM exit: {reason}; tracing the handler with a fault injected...\n");

    // Step the handler manually with a trace ring; flip a pointer bit after
    // 120 instructions.
    let mut ring = TraceRing::new(4096);
    let mut steps = 0u64;
    let injected_at = 120u64;
    loop {
        if steps == injected_at {
            plat.machine
                .cpu_mut(1)
                .flip_bit(FlipTarget::Gpr(sim_machine::Reg::R9), 44);
            println!("*** injected: r9 bit 44 flipped after {injected_at} handler instructions\n");
        }
        steps += 1;
        match step_traced(&mut plat.machine, 1, &mut ring) {
            StepOutcome::Retired => {}
            StepOutcome::Event(Event::Exception(e)) => {
                println!("hardware exception: {e}");
                match classify_exception(&e) {
                    ExceptionClass::Fatal => println!(
                        "runtime detection verdict: FATAL — detected after {} instructions\n",
                        steps - injected_at
                    ),
                    ExceptionClass::Benign => println!("(benign exception)\n"),
                }
                break;
            }
            StepOutcome::Event(Event::AssertFail { id, .. }) => {
                println!(
                    "software assertion {id} ({}) fired after {} instructions\n",
                    xen_like::assert_ids::name(id),
                    steps - injected_at
                );
                break;
            }
            StepOutcome::Event(Event::VmEntry) => {
                println!("handler completed; the fault did not surface before VM entry\n");
                break;
            }
            StepOutcome::Event(ev) => {
                println!("unexpected event: {ev:?}");
                break;
            }
        }
        if steps > 50_000 {
            println!("watchdog: handler livelocked\n");
            break;
        }
    }

    println!("last 25 instructions before the event:");
    print!("{}", ring.dump(25));
}
