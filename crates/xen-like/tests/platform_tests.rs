//! End-to-end platform tests: boot the hypervisor, run a real guest, and
//! drive full activations (VM exit → handler → VM entry).

use sim_asm::Asm;
use sim_machine::{Event, ExitReason, Machine, Mode, Reg, StepOutcome, Vector, VirtMode};
use std::cell::Cell;
use xen_like::layout as lay;
use xen_like::platform::{Activation, ActivationOutcome, NullMonitor};
use xen_like::{DomainSpec, Platform, Topology};

/// A guest that loops: ALU work, xen_version hypercall, evtchn send, cpuid.
fn load_pv_guest(m: &mut Machine, dom: usize) {
    let base = lay::guest_text(dom);
    let mut a = Asm::new(base);
    a.global("guest_entry");
    a.movi(Reg::Rbx, 0); // iteration counter
    a.label("loop");
    // Some ALU work.
    a.movi(Reg::Rcx, 7);
    a.label("work");
    a.addi(Reg::Rbx, 3);
    a.subi(Reg::Rcx, 1);
    a.cmpi(Reg::Rcx, 0);
    a.jne("work");
    // xen_version hypercall.
    a.hypercall(17);
    // event_channel_op send on port 5.
    a.movi(Reg::Rdi, 0); // cmd = send
    a.movi(Reg::Rsi, 5); // port
    a.hypercall(32);
    // cpuid with leaf 2 (PV: traps via #GP).
    a.movi(Reg::Rax, 2);
    a.cpuid();
    a.jmp("loop");
    let img = a.assemble().unwrap();
    m.mem.load_image(base, &img.words).unwrap();
}

fn pv_platform(doms: usize) -> Platform {
    let topo = Topology {
        nr_cpus: 1,
        domains: vec![DomainSpec { nr_vcpus: 1 }; doms],
        virt_mode: VirtMode::Para,
        seed: 99,
        cycle_model: Default::default(),
    };
    let (mut p, _img) = Platform::new(topo);
    for d in 0..doms {
        load_pv_guest(&mut p.machine, d);
    }
    p
}

#[test]
fn boot_enters_first_guest() {
    let mut p = pv_platform(2);
    let out = p.boot(0, &mut NullMonitor);
    assert_eq!(out, ActivationOutcome::Resumed);
    let c = p.machine.cpu(0);
    assert_eq!(c.mode, Mode::Guest { dom: 0, vcpu: 0 });
    assert_eq!(c.rip, lay::guest_text(0));
}

#[test]
fn hypercall_xen_version_returns_to_guest() {
    let mut p = pv_platform(1);
    p.boot(0, &mut NullMonitor);
    // First activation should be the xen_version hypercall (the guest's
    // first exit) unless a timer fires first — run until we see it.
    for _ in 0..50 {
        let act = p.run_activation(0, &mut NullMonitor);
        assert!(
            act.outcome.is_healthy(),
            "unexpected outcome {:?}",
            act.outcome
        );
        if act.reason == ExitReason::Hypercall(17) {
            // After resume the guest's RAX holds the version.
            assert_eq!(p.machine.cpu(0).get(Reg::Rax), 0x0004_0102);
            assert!(act.handler_insns > 0);
            return;
        }
    }
    panic!("xen_version hypercall never observed");
}

#[test]
fn pv_cpuid_is_emulated_to_match_hardware_model() {
    let mut p = pv_platform(1);
    p.boot(0, &mut NullMonitor);
    for _ in 0..100 {
        let act = p.run_activation(0, &mut NullMonitor);
        assert!(act.outcome.is_healthy(), "outcome {:?}", act.outcome);
        if act.reason == ExitReason::Exception(Vector::GeneralProtection) {
            let expect = Machine::cpuid_model(2);
            let c = p.machine.cpu(0);
            assert_eq!(c.get(Reg::Rax), expect[0], "emulated eax");
            assert_eq!(c.get(Reg::Rbx), expect[1], "emulated ebx");
            assert_eq!(c.get(Reg::Rcx), expect[2], "emulated ecx");
            assert_eq!(c.get(Reg::Rdx), expect[3], "emulated edx");
            return;
        }
    }
    panic!("cpuid #GP exit never observed");
}

#[test]
fn evtchn_send_sets_pending_bit() {
    let mut p = pv_platform(1);
    p.boot(0, &mut NullMonitor);
    for _ in 0..50 {
        let act = p.run_activation(0, &mut NullMonitor);
        assert!(act.outcome.is_healthy());
        if act.reason == ExitReason::Hypercall(32) {
            let chan = p.machine.mem.peek(lay::evtchn_addr(0) + 5 * 8).unwrap();
            assert_eq!(chan & lay::evtchn::PENDING_BIT, 1, "port 5 pending");
            return;
        }
    }
    panic!("evtchn hypercall never observed");
}

#[test]
fn timer_tick_advances_wallclock_and_guest_time() {
    let mut p = pv_platform(1);
    p.irq.tick_period = 20_000; // fast ticks for the test
    p.boot(0, &mut NullMonitor);
    let wc0 = p
        .machine
        .mem
        .peek(lay::global_addr(lay::global::WALLCLOCK))
        .unwrap();
    let mut ticks = 0;
    for _ in 0..200 {
        let act = p.run_activation(0, &mut NullMonitor);
        assert!(act.outcome.is_healthy(), "outcome {:?}", act.outcome);
        if act.reason == ExitReason::ApicInterrupt(0) {
            ticks += 1;
            if ticks >= 3 {
                break;
            }
        }
    }
    assert!(ticks >= 3, "timer never fired enough: {ticks}");
    let wc1 = p
        .machine
        .mem
        .peek(lay::global_addr(lay::global::WALLCLOCK))
        .unwrap();
    assert!(wc1 >= wc0 + 3, "wallclock did not advance: {wc0} -> {wc1}");
    // Guest-visible time page updated with an even (stable) version.
    let ver = p
        .machine
        .mem
        .peek(lay::shared_addr(0) + lay::shared::TIME_VERSION * 8)
        .unwrap();
    assert!(
        ver > 0 && ver.is_multiple_of(2),
        "time version protocol broken: {ver}"
    );
    let st = p
        .machine
        .mem
        .peek(lay::shared_addr(0) + lay::shared::SYSTEM_TIME * 8)
        .unwrap();
    assert!(st >= wc1 * 1000 - 2000, "system time not updated: {st}");
}

#[test]
fn thousand_fault_free_activations_stay_healthy() {
    let mut p = pv_platform(2);
    p.irq.tick_period = 50_000;
    p.irq.dev_irq_period = 120_000;
    p.boot(0, &mut NullMonitor);
    let acts = p.run(0, 1000, &mut NullMonitor);
    assert_eq!(
        acts.len(),
        1000,
        "hypervisor died early: {:?}",
        acts.last().unwrap().outcome
    );
    for act in &acts {
        assert!(
            act.outcome.is_healthy(),
            "{:?} failed: {:?}",
            act.reason,
            act.outcome
        );
    }
    // The mix should include hypercalls, exceptions (cpuid) and interrupts.
    let hypercalls = acts
        .iter()
        .filter(|a| matches!(a.reason, ExitReason::Hypercall(_)))
        .count();
    let exceptions = acts
        .iter()
        .filter(|a| matches!(a.reason, ExitReason::Exception(_)))
        .count();
    let irqs = acts
        .iter()
        .filter(|a| {
            matches!(
                a.reason,
                ExitReason::ApicInterrupt(_) | ExitReason::DeviceInterrupt(_)
            )
        })
        .count();
    assert!(hypercalls > 100, "hypercalls: {hypercalls}");
    assert!(exceptions > 50, "exceptions: {exceptions}");
    assert!(irqs > 5, "irqs: {irqs}");
}

#[test]
fn scheduler_round_robins_two_domains_on_one_cpu() {
    let mut p = pv_platform(2);
    p.irq.tick_period = 20_000;
    p.boot(0, &mut NullMonitor);
    let mut seen_dom = [false; 2];
    for _ in 0..2000 {
        let act = p.run_activation(0, &mut NullMonitor);
        assert!(act.outcome.is_healthy(), "outcome {:?}", act.outcome);
        if let Mode::Guest { dom, .. } = p.machine.cpu(0).mode {
            seen_dom[dom as usize] = true;
        }
        if seen_dom[0] && seen_dom[1] {
            return;
        }
    }
    panic!("both domains never ran: {seen_dom:?}");
}

#[test]
fn hvm_guest_cpuid_exits_and_is_emulated() {
    let topo = Topology {
        nr_cpus: 1,
        domains: vec![DomainSpec { nr_vcpus: 1 }],
        virt_mode: VirtMode::Hvm,
        seed: 7,
        cycle_model: Default::default(),
    };
    let (mut p, _img) = Platform::new(topo);
    load_pv_guest(&mut p.machine, 0); // same guest; cpuid now exits directly
    p.boot(0, &mut NullMonitor);
    for _ in 0..100 {
        let act = p.run_activation(0, &mut NullMonitor);
        assert!(act.outcome.is_healthy(), "outcome {:?}", act.outcome);
        if act.reason == ExitReason::CpuidExit {
            let expect = Machine::cpuid_model(2);
            assert_eq!(p.machine.cpu(0).get(Reg::Rax), expect[0]);
            return;
        }
    }
    panic!("cpuid exit never observed");
}

#[test]
fn guest_cycles_accumulate_between_exits() {
    let mut p = pv_platform(1);
    p.boot(0, &mut NullMonitor);
    let act = p.run_activation(0, &mut NullMonitor);
    assert!(act.guest_cycles > 0, "guest ran before the exit");
    assert!(
        act.handler_cycles > act.handler_insns,
        "cycles include memory costs"
    );
}

#[test]
fn microreboot_restore_heals_private_state_and_preserves_guest_state() {
    let mut p = pv_platform(2);
    p.boot(0, &mut NullMonitor);
    for _ in 0..40 {
        let act = p.run_activation(0, &mut NullMonitor);
        assert!(act.outcome.is_healthy());
    }
    // Corrupt hypervisor-private scratch so the reboot has something to heal.
    p.machine.mem.poke(lay::SCRATCH_BASE, 0xDEAD_BEEF).unwrap();
    let preserved = [
        "hv.text",
        "hv.vcpu",
        "hv.domain",
        "hv.evtchn",
        "hv.grant",
        "hv.shared",
        "vmcs",
        "dom0.text",
        "dom0.data",
        "dom1.text",
        "dom1.data",
    ];
    let before: Vec<u64> = preserved
        .iter()
        .map(|n| p.machine.mem.region_digest(n).unwrap())
        .collect();
    let wallclock = p
        .machine
        .mem
        .peek(lay::global_addr(lay::global::WALLCLOCK))
        .unwrap();

    let report = p.microreboot_restore(0);
    assert!(report.words_lost > 0, "reboot discarded no state");
    assert_eq!(report.wallclock_preserved, wallclock);
    assert!(report.cycles >= xen_like::MICROREBOOT_BASE_CYCLES);

    // Preserved regions are untouched.
    for (n, d0) in preserved.iter().zip(&before) {
        assert_eq!(p.machine.mem.region_digest(n).unwrap(), *d0, "{n} changed");
    }
    // Private regions are back to the boot image, except the carried
    // wallclock word in hv.global.
    for name in xen_like::MICROREBOOT_PRIVATE_REGIONS {
        let img = p.boot_image_region(name).unwrap();
        let live = p.machine.mem.region_words(name).unwrap();
        if name == "hv.global" {
            for (i, (l, b)) in live.iter().zip(&img).enumerate() {
                if i as u64 == lay::global::WALLCLOCK {
                    assert_eq!(*l, wallclock, "wallclock not carried across reboot");
                } else {
                    assert_eq!(l, b, "{name}[{i}] not restored");
                }
            }
        } else {
            assert_eq!(live, img, "{name} not restored to boot image");
        }
    }
}

#[test]
fn microreboot_reenters_guest_which_keeps_running() {
    let mut p = pv_platform(2);
    p.boot(0, &mut NullMonitor);
    for _ in 0..20 {
        let act = p.run_activation(0, &mut NullMonitor);
        assert!(act.outcome.is_healthy());
    }
    // Wreck the scheduler run-queue — hypervisor-private damage that only
    // a reboot repairs.
    p.machine.mem.poke(lay::runq::BASE, 0xFFFF_FFFF).unwrap();
    let cycles_before = p.machine.cpu(0).cycles;
    let (report, out) = p.microreboot(0, &mut NullMonitor);
    assert_eq!(out, ActivationOutcome::Resumed);
    assert_eq!(report.cpu, 0);
    assert!(
        p.machine.cpu(0).cycles > cycles_before,
        "reboot cost not charged"
    );
    // The rebooted hypervisor schedules guests exactly as before.
    for _ in 0..40 {
        let act = p.run_activation(0, &mut NullMonitor);
        assert!(
            act.outcome.is_healthy(),
            "post-reboot activation unhealthy: {:?}",
            act.outcome
        );
    }
}

/// Campaign workers clone platforms from one shared `&GoldenTrace` and run
/// them concurrently. Clones share pages copy-on-write, so this is the
/// place a write could leak between threads: four threads clone the same
/// `&Platform`, run 50 activations each, and must all land on the digest
/// the serial run lands on — with the shared source untouched.
#[test]
fn clones_of_one_shared_platform_run_independently_on_four_threads() {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Platform>();

    let mut source = pv_platform(2);
    source.boot(0, &mut NullMonitor);
    for _ in 0..20 {
        assert!(source
            .run_activation(0, &mut NullMonitor)
            .outcome
            .is_healthy());
    }
    let before = source.state_digest();

    let run = |p: &Platform| {
        let mut p = p.clone();
        for _ in 0..50 {
            assert!(p.run_activation(0, &mut NullMonitor).outcome.is_healthy());
        }
        p.state_digest()
    };
    let serial = run(&source);
    assert_ne!(serial, before, "50 activations changed nothing");

    let shared = &source;
    let digests: Vec<u64> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..4).map(|_| s.spawn(|| run(shared))).collect();
        workers.into_iter().map(|w| w.join().unwrap()).collect()
    });
    assert_eq!(digests, vec![serial; 4]);
    assert_eq!(
        source.state_digest(),
        before,
        "a clone wrote through to its source"
    );
}

/// `a.clone_from(&b)` is `a = b.clone()` whatever `a` held — the campaign
/// engine rebuilds every fork this way, into whatever platform the last
/// fork left behind: an older state of the same run, a sibling that ran on
/// under other interrupt traffic, a platform that never booted (equal
/// memory map, another allocation), one of another topology and memory
/// map. Everything the digest covers and everything it does not (topology,
/// interrupt profile, budgets, boot image) must come across, a store to
/// either side must stay there, and both must run on alike.
#[test]
fn clone_from_is_clone_whatever_it_overwrites() {
    use xen_like::IrqProfile;
    let run = |p: &mut Platform, n: usize| -> Vec<Activation> {
        let acts = p.run(0, n, &mut NullMonitor);
        assert!(acts.iter().all(|a| a.outcome.is_healthy()), "{acts:?}");
        acts
    };
    // Interrupts dense enough that every deadline and the device-traffic
    // generator move between any two of the states below.
    let mut b = pv_platform(2);
    b.irq = IrqProfile {
        tick_period: 20_000,
        dev_irq_period: 6_000,
    };
    b.boot(0, &mut NullMonitor);
    run(&mut b, 30);
    let older = b.clone();
    run(&mut b, 25);

    let mut sibling = older.clone();
    sibling.irq.dev_irq_period = 2_500;
    sibling.host_step_budget = 77_777;
    run(&mut sibling, 40);
    let mut other_boot = {
        let topo = Topology {
            nr_cpus: 2,
            domains: vec![DomainSpec { nr_vcpus: 1 }],
            virt_mode: VirtMode::Hvm,
            seed: 7,
            cycle_model: Default::default(),
        };
        let (mut p, _img) = Platform::new(topo);
        load_pv_guest(&mut p.machine, 0);
        p.guest_step_budget = 1_234_567;
        p
    };
    other_boot.boot(0, &mut NullMonitor);
    run(&mut other_boot, 10);

    let statics = |p: &Platform| {
        format!(
            "{:?} {:?} {} {} {:?}",
            p.topo,
            p.irq,
            p.host_step_budget,
            p.guest_step_budget,
            p.boot_image_region("hv.pcpu")
        )
    };
    let targets = [
        ("an older state", older),
        ("a sibling", sibling),
        ("an unbooted platform", pv_platform(2)),
        ("another boot", other_boot),
        ("an equal platform", b.clone()),
    ];
    for (what, mut a) in targets {
        a.clone_from(&b);
        assert_eq!(a.state_digest(), b.state_digest(), "over {what}");
        assert!(a.machine == b.machine, "over {what}");
        assert_eq!(a.async_deadlines(0), b.async_deadlines(0), "over {what}");
        assert_eq!(statics(&a), statics(&b), "over {what}");

        // A store to either side stays there.
        let digest = b.state_digest();
        let at = lay::global_addr(lay::global::WALLCLOCK);
        let word = a.machine.mem.peek(at).unwrap();
        a.machine.mem.poke(at, !word).unwrap();
        assert_eq!(b.state_digest(), digest, "source saw a store, over {what}");
        a.machine.mem.poke(at, word).unwrap();
        let mut b = b.clone();
        b.machine.mem.poke(at, !word).unwrap();
        assert_eq!(a.state_digest(), digest, "copy saw a store, over {what}");
        b.machine.mem.poke(at, word).unwrap();

        // On alike: activations, then a microreboot (the boot image).
        assert_eq!(run(&mut a, 40), run(&mut b, 40), "over {what}");
        let (ra, oa) = a.microreboot(0, &mut NullMonitor);
        let (rb, ob) = b.microreboot(0, &mut NullMonitor);
        assert_eq!(
            format!("{ra:?} {oa:?}"),
            format!("{rb:?} {ob:?}"),
            "over {what}"
        );
        assert_eq!(run(&mut a, 10), run(&mut b, 10), "over {what}");
        assert_eq!(a.state_digest(), b.state_digest(), "over {what}");
    }
}

// ---- Run boundaries against a per-instruction reference ------------------
//
// `Platform` drives the machine with `Machine::run`, whose stop conditions
// are the injection hook, the two watchdog budgets and the interrupt
// deadline. The two drivers below are those loops written out one
// `Machine::step` at a time, with every test of every condition made
// before every instruction. At each boundary the platform must produce the
// reference's `Activation`, `state_digest` and interrupt deadlines.

/// `Platform::run_handler_hooked` under a `NullMonitor`, one step at a time.
fn handler_by_steps(
    p: &mut Platform,
    reason: ExitReason,
    guest_cycles: u64,
    hook_at: Option<u64>,
    hook: impl FnOnce(&mut Machine, usize),
) -> Activation {
    let (insns0, cycles0) = (p.machine.cpu(0).insns_retired, p.machine.cpu(0).cycles);
    let mut hook = Some(hook);
    let mut steps = 0u64;
    let outcome = loop {
        if hook_at == Some(steps) {
            if let Some(h) = hook.take() {
                h(&mut p.machine, 0);
            }
        }
        if steps >= p.host_step_budget {
            break ActivationOutcome::Hung;
        }
        steps += 1;
        match p.machine.step(0) {
            StepOutcome::Retired => {}
            StepOutcome::Event(Event::VmEntry) => {
                let vp = p.current_vcpu_ptr(0);
                let field = |f| p.machine.mem.peek(vp + f * 8).unwrap_or(0) as u16;
                let mode = Mode::Guest {
                    dom: field(lay::vcpu::DOM_ID),
                    vcpu: field(lay::vcpu::VCPU_ID),
                };
                p.machine.cpu_mut(0).mode = mode;
                break if p.is_idle(0) {
                    ActivationOutcome::WentIdle
                } else {
                    ActivationOutcome::Resumed
                };
            }
            StepOutcome::Event(Event::Exception(e)) => break ActivationOutcome::HostException(e),
            StepOutcome::Event(Event::AssertFail { id, .. }) => {
                break ActivationOutcome::AssertFailed(id)
            }
            StepOutcome::Event(Event::Halt) => break ActivationOutcome::Hung,
            StepOutcome::Event(Event::VmExit(r)) => panic!("VM exit {r:?} in host mode"),
        }
    };
    let c = p.machine.cpu(0);
    Activation {
        cpu: 0,
        reason,
        handler_insns: c.insns_retired - insns0,
        handler_cycles: c.cycles - cycles0,
        guest_cycles,
        outcome,
    }
}

/// The guest loop of `Platform::run_to_exit`, one step at a time. Where it
/// stops without a VM exit, the platform fires the interrupt that is due
/// (its choice of reason draws from private randomness) — from a budget of
/// zero, so it cannot run the guest any further itself.
fn to_exit_by_steps(p: &mut Platform) -> (ExitReason, u64) {
    assert_eq!(p.pcpu_field(0, lay::pcpu::SOFTIRQ_PENDING), 0);
    assert!(!p.is_idle(0));
    let cycles0 = p.machine.cpu(0).cycles;
    let (tick, dev) = p.async_deadlines(0);
    let mut steps = 0u64;
    let reason = loop {
        let now = p.machine.cpu(0).cycles;
        if now >= tick || now >= dev || steps >= p.guest_step_budget {
            let budget = std::mem::replace(&mut p.guest_step_budget, 0);
            let (reason, _) = p.run_to_exit(0);
            p.guest_step_budget = budget;
            break reason;
        }
        steps += 1;
        match p.machine.step(0) {
            StepOutcome::Retired => {}
            StepOutcome::Event(Event::VmExit(r)) => break r,
            StepOutcome::Event(ev) => panic!("guest produced host event {ev:?}"),
        }
    };
    (reason, p.machine.cpu(0).cycles - cycles0)
}

/// A platform parked at its first VM exit, and that exit.
fn at_first_exit() -> (Platform, ExitReason, u64) {
    let mut p = pv_platform(1);
    p.boot(0, &mut NullMonitor);
    let (reason, guest_cycles) = p.run_to_exit(0);
    (p, reason, guest_cycles)
}

/// Run the handler both ways from `at_exit` with `hook` at `hook_at`;
/// assert they agree and return the activation and whether the hook fired.
fn hooked_both_ways(
    at_exit: &Platform,
    reason: ExitReason,
    guest_cycles: u64,
    hook_at: u64,
    hook: impl Fn(&mut Machine, usize),
) -> (Activation, bool) {
    let fired = Cell::new(0u32);
    let counted = |m: &mut Machine, c: usize| {
        fired.set(fired.get() + 1);
        hook(m, c);
    };
    let mut by_run = at_exit.clone();
    let got = by_run.run_handler_hooked(
        0,
        reason,
        guest_cycles,
        &mut NullMonitor,
        Some(hook_at),
        counted,
    );
    let fired_by_run = fired.replace(0);
    let mut by_step = at_exit.clone();
    let want = handler_by_steps(&mut by_step, reason, guest_cycles, Some(hook_at), counted);
    assert_eq!(got, want, "hook_at {hook_at}");
    assert_eq!(fired_by_run, fired.get(), "hook_at {hook_at}: hook calls");
    assert_eq!(
        by_run.state_digest(),
        by_step.state_digest(),
        "hook_at {hook_at}"
    );
    assert_eq!(by_run.async_deadlines(0), by_step.async_deadlines(0));
    (got, fired_by_run == 1)
}

/// Harmless to control flow at most points, visible in the digest.
fn flip_r15(m: &mut Machine, c: usize) {
    m.cpu_mut(c).regs[15] ^= 1 << 40;
}

#[test]
fn hook_fires_at_each_handler_boundary_like_the_stepwise_reference() {
    let (p, reason, gc) = at_first_exit();
    let len = p
        .clone()
        .run_handler(0, reason, gc, &mut NullMonitor)
        .handler_insns;
    assert!(len > 10, "a handler worth hooking");

    // Before the first instruction, mid-handler, before the last one.
    for at in [0, 1, len / 2, len - 1] {
        let (_, fired) = hooked_both_ways(&p, reason, gc, at, flip_r15);
        assert!(fired, "hook at {at} of {len}");
    }
    // Past the end: the handler has entered the guest, nothing fires.
    for at in [len, len + 1, len + 1000] {
        let (act, fired) = hooked_both_ways(&p, reason, gc, at, flip_r15);
        assert!(!fired, "hook at {at} past {len}");
        assert_eq!(act.outcome, ActivationOutcome::Resumed);
        assert_eq!(act.handler_insns, len);
    }
}

#[test]
fn hook_and_host_budget_meet_like_the_stepwise_reference() {
    let (mut p, reason, gc) = at_first_exit();
    let len = p
        .clone()
        .run_handler(0, reason, gc, &mut NullMonitor)
        .handler_insns;
    let budget = len / 2;
    p.host_step_budget = budget;

    // Inside the budget: fires, then the watchdog.
    let (act, fired) = hooked_both_ways(&p, reason, gc, budget - 1, flip_r15);
    assert!(fired);
    assert_eq!(
        (act.outcome, act.handler_insns),
        (ActivationOutcome::Hung, budget)
    );
    // On the budget: still fires — after the last instruction the budget
    // allows — then the watchdog.
    let (act, fired) = hooked_both_ways(&p, reason, gc, budget, flip_r15);
    assert!(fired);
    assert_eq!(
        (act.outcome, act.handler_insns),
        (ActivationOutcome::Hung, budget)
    );
    // Past it: the watchdog first, the hook never.
    for at in [budget + 1, u64::MAX] {
        let (act, fired) = hooked_both_ways(&p, reason, gc, at, flip_r15);
        assert!(!fired, "hook at {at} past budget {budget}");
        assert_eq!(
            (act.outcome, act.handler_insns),
            (ActivationOutcome::Hung, budget)
        );
    }
    // A budget of zero runs nothing; a hook at zero still lands.
    p.host_step_budget = 0;
    let (act, fired) = hooked_both_ways(&p, reason, gc, 0, flip_r15);
    assert!(fired);
    assert_eq!(
        (act.outcome, act.handler_insns),
        (ActivationOutcome::Hung, 0)
    );
}

#[test]
fn hook_that_breaks_the_next_instruction_faults_there() {
    let (p, reason, gc) = at_first_exit();
    let len = p
        .clone()
        .run_handler(0, reason, gc, &mut NullMonitor)
        .handler_insns;
    for at in [0, len / 3, len - 1] {
        // The next fetch is from unmapped space...
        let (act, fired) = hooked_both_ways(&p, reason, gc, at, |m, c| {
            m.cpu_mut(c).rip = 0xdead_0000;
        });
        assert!(fired);
        match act.outcome {
            ActivationOutcome::HostException(e) => {
                assert_eq!((e.vector, e.rip), (Vector::PageFault, 0xdead_0000));
            }
            other => panic!("hook at {at}: expected #PF, got {other:?}"),
        }
        assert_eq!(act.handler_insns, at, "nothing retires after the hook");
        // ...or from the middle of a word.
        let (act, _) = hooked_both_ways(&p, reason, gc, at, |m, c| m.cpu_mut(c).rip += 4);
        match act.outcome {
            ActivationOutcome::HostException(e) => assert_eq!(e.vector, Vector::AlignmentCheck),
            other => panic!("hook at {at}: expected #AC, got {other:?}"),
        }
    }
}

/// The hook is a run boundary, so whatever the run before it remembered of
/// the handler's text is gone when it returns: a RIP flipped back onto an
/// instruction the handler has already executed, or beside one, or a strike
/// on such a word itself, meets a fresh fetch like the reference's.
#[test]
fn hook_that_lands_on_or_beside_executed_text_fetches_afresh() {
    let (p, reason, gc) = at_first_exit();
    let len = p
        .clone()
        .run_handler(0, reason, gc, &mut NullMonitor)
        .handler_insns;
    let entry = p.machine.cpu(0).rip;
    let at = len / 2;

    // Back onto the handler's first instruction, executed `at` steps ago,
    // and onto the one after it.
    for back_to in [entry, entry + 8] {
        let (act, fired) = hooked_both_ways(&p, reason, gc, at, |m, c| {
            m.cpu_mut(c).rip = back_to;
        });
        assert!(fired);
        assert!(act.handler_insns > at, "ran on from {back_to:#x}");
    }
    // Into the middle of either: an alignment fault at that address.
    for off in 1..8 {
        let (act, _) = hooked_both_ways(&p, reason, gc, at, |m, c| {
            m.cpu_mut(c).rip = entry + off;
        });
        match act.outcome {
            ActivationOutcome::HostException(e) => {
                assert_eq!((e.vector, e.rip), (Vector::AlignmentCheck, entry + off));
            }
            other => panic!("+{off}: expected #AC, got {other:?}"),
        }
        assert_eq!(act.handler_insns, at);
    }
    // A struck code word: the first instruction replaced, then run again.
    let (act, _) = hooked_both_ways(&p, reason, gc, at, |m, c| {
        m.mem.poke(entry, 0).unwrap();
        m.cpu_mut(c).rip = entry;
    });
    match act.outcome {
        ActivationOutcome::HostException(e) => {
            assert_eq!((e.vector, e.rip), (Vector::InvalidOpcode, entry));
        }
        other => panic!("expected #UD at the struck word, got {other:?}"),
    }
    assert_eq!(act.handler_insns, at);
}

/// `run_to_exit` both ways from `p`; assert they agree and return the exit.
fn to_exit_both_ways(p: &Platform) -> (ExitReason, u64) {
    let mut by_run = p.clone();
    let got = by_run.run_to_exit(0);
    let mut by_step = p.clone();
    let want = to_exit_by_steps(&mut by_step);
    assert_eq!(got, want);
    assert_eq!(by_run.state_digest(), by_step.state_digest());
    assert_eq!(by_run.async_deadlines(0), by_step.async_deadlines(0));
    assert_eq!(
        by_run.machine.cpu(0).insns_retired,
        by_step.machine.cpu(0).insns_retired
    );
    got
}

/// A platform whose tick falls due `after` guest cycles past boot.
fn booted_with_tick(after: u64) -> Platform {
    let mut p = pv_platform(1);
    p.irq.tick_period = after;
    p.boot(0, &mut NullMonitor);
    p
}

#[test]
fn tick_deadline_stops_the_guest_like_the_stepwise_reference() {
    // Cycle count after each of the guest's first instructions (all ALU
    // work, well before its first hypercall).
    let mut probe = booted_with_tick(1 << 40);
    let boot_cycles = probe.machine.cpu(0).cycles;
    let after: Vec<u64> = (0..12)
        .map(|_| {
            assert_eq!(probe.machine.step(0), StepOutcome::Retired);
            probe.machine.cpu(0).cycles - boot_cycles
        })
        .collect();

    for (k, &cycles) in after.iter().enumerate() {
        // Due exactly on an instruction boundary: that instruction is the
        // last the guest runs.
        let p = booted_with_tick(cycles);
        assert_eq!(p.async_deadlines(0).0, boot_cycles + cycles);
        let (reason, guest_cycles) = to_exit_both_ways(&p);
        assert_eq!(reason, ExitReason::ApicInterrupt(0));
        assert_eq!(
            guest_cycles,
            cycles + p.machine.config.cycle_model.vm_exit,
            "k = {k}"
        );
        // Due one cycle later: one more instruction runs.
        to_exit_both_ways(&booted_with_tick(cycles + 1));
    }
}

#[test]
fn deadline_already_passed_runs_no_guest_instruction() {
    let mut p = booted_with_tick(1000);
    let insns = p.machine.cpu(0).insns_retired;
    // The tick fell due while the CPU was elsewhere.
    p.machine.cpu_mut(0).cycles = p.async_deadlines(0).0 + 17;
    let mut ran = p.clone();
    assert_eq!(to_exit_both_ways(&p).0, ExitReason::ApicInterrupt(0));
    ran.run_to_exit(0);
    assert_eq!(ran.machine.cpu(0).insns_retired, insns);
    // On the deadline to the cycle is passed too.
    p.machine.cpu_mut(0).cycles = p.async_deadlines(0).0;
    to_exit_both_ways(&p);
}

#[test]
fn exhausted_guest_budget_is_a_forced_tick() {
    for budget in [0, 1, 5, 11] {
        let mut p = booted_with_tick(1 << 40);
        p.guest_step_budget = budget;
        let insns = p.machine.cpu(0).insns_retired;
        assert_eq!(to_exit_both_ways(&p).0, ExitReason::ApicInterrupt(0));
        p.run_to_exit(0);
        assert_eq!(p.machine.cpu(0).insns_retired, insns + budget);
    }
}
