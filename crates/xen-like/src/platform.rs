//! The platform: drives guests and hypervisor activations, injects
//! asynchronous interrupts, and exposes the monitoring hook that Xentry
//! implements.
//!
//! One **activation** is the unit the paper reasons about: a VM exit, a
//! hypervisor execution, and the VM entry that resumes the guest (Fig. 2).
//! [`Platform::run_activation`] executes exactly one of these and reports
//! what happened; the [`Monitor`] trait receives the VM-exit and VM-entry
//! edges — the two points where Xentry's shim intercepts Xen.

use crate::layout::{self as lay, pcpu, vcpu};
use sim_asm::Image;
use sim_machine::cpu::Cpu;
use sim_machine::exit::{NR_APIC_VECTORS, NR_DEVICE_IRQS};
use sim_machine::prng::{fold64, SplitMix64};
use sim_machine::{CpuId, Event, Exception, ExitReason, Machine, MachineDelta, Memory, Mode, Reg};
use std::sync::Arc;

use crate::builder::{build_machine, Topology};

/// Hypervisor-**private** memory regions: state the hypervisor derives for
/// itself and can therefore rebuild from the boot image on a microreboot.
/// Everything else (VCPU/domain descriptors, event channels, grants,
/// shared-info pages, VMCS blocks, guest memory, read-only text) is
/// **preserved state** the VMs depend on and survives a microreboot.
pub const MICROREBOOT_PRIVATE_REGIONS: [&str; 7] = [
    "hv.global",
    "hv.scratch",
    "hv.dispatch",
    "hv.pcpu",
    "hv.runq",
    "hv.stacks",
    "hv.ptbl",
];

/// Boot-time image of the hypervisor-private regions plus the host
/// re-entry point, captured once at [`Platform::new`]. Static for the
/// lifetime of a boot, shared by every checkpoint/fork descended from it
/// (hence the `Arc`), and deliberately excluded from snapshots, deltas and
/// `state_digest` — it never changes.
#[derive(Debug)]
struct BootImage {
    /// The memory as the builder left it. A copy-on-write clone: it keeps
    /// alive only the boot-time version of pages written since, and a
    /// private page nobody has written yet is still shared with it, which
    /// is what lets the restore skip it. Only the
    /// [`MICROREBOOT_PRIVATE_REGIONS`] are ever read from it.
    mem: Memory,
    /// Address of the `vmexit_return` stub: the same host entry point the
    /// builder boots CPUs at, and the microreboot re-entry point.
    reentry: u64,
}

/// Fixed reinitialization cost a microreboot charges before re-running the
/// host path (structure rebuild, handler re-registration — the in-place
/// analogue of ReHype's reboot work).
pub const MICROREBOOT_BASE_CYCLES: u64 = 100_000;

/// State-loss accounting for one microreboot: what the reinitialization
/// discarded and what it cost. The word counts are *words that actually
/// differed from the boot image* — the dynamic hypervisor state the reboot
/// destroyed, not the (much larger) number of words scanned.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct MicrorebootReport {
    pub cpu: usize,
    /// Private words reset to boot values (sum over `per_region`).
    pub words_lost: usize,
    /// `(region, words reset)` per private region.
    pub per_region: Vec<(String, usize)>,
    /// The wallclock survives the reboot (guest timer deadlines are
    /// absolute wallclock ticks; rolling time back would stall them).
    pub wallclock_preserved: u64,
    /// Accounting counters zeroed by the restore, recorded for the
    /// state-loss ledger.
    pub sched_ticks_lost: u64,
    pub tasklet_runs_lost: u64,
    pub hypercalls_lost: u64,
    pub irqs_lost: u64,
    /// OR of every CPU's pending-softirq bits at reboot time; the work
    /// they represented is dropped (the fresh scheduler pass re-derives
    /// what still matters).
    pub softirq_bits_dropped: u64,
    /// Simulated cycles the microreboot cost: the fixed base, the restore
    /// memory traffic, and the host-path re-entry run.
    pub cycles: u64,
}

/// Verdict returned by the monitor at VM entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Execution looks correct: resume the guest.
    Pass,
    /// VM-transition detection flagged the execution as incorrect: do not
    /// resume; trigger recovery.
    Incorrect,
}

/// Observation hooks for a detection framework. The default implementations
/// are no-ops, i.e. an unprotected hypervisor.
pub trait Monitor {
    /// A VM exit occurred; the hypervisor is about to run. (Xentry: start
    /// performance counters, snapshot critical state.)
    fn on_vm_exit(&mut self, _m: &mut Machine, _cpu: CpuId, _reason: ExitReason) {}

    /// The hypervisor finished and the guest is about to resume. (Xentry:
    /// stop counters, classify the execution.)
    fn on_vm_entry(&mut self, _m: &mut Machine, _cpu: CpuId) -> Verdict {
        Verdict::Pass
    }

    /// A hardware exception was raised in host mode.
    fn on_host_exception(&mut self, _m: &mut Machine, _cpu: CpuId, _e: Exception) {}

    /// A software assertion fired in host mode.
    fn on_assert_fail(&mut self, _m: &mut Machine, _cpu: CpuId, _id: u16) {}
}

/// The unprotected baseline.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullMonitor;

impl Monitor for NullMonitor {}

/// How one activation ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ActivationOutcome {
    /// Handler completed; guest resumed.
    Resumed,
    /// Handler completed; the CPU went idle (no runnable VCPU).
    WentIdle,
    /// A hardware exception was raised during hypervisor execution (fatal
    /// system corruption in the paper's taxonomy).
    HostException(Exception),
    /// A software assertion fired.
    AssertFailed(u16),
    /// The VM-transition detector flagged the execution; the guest was not
    /// resumed.
    Flagged,
    /// The handler exceeded the watchdog budget (hang / livelock).
    Hung,
}

impl ActivationOutcome {
    /// Whether the platform can keep running after this outcome.
    pub fn is_healthy(self) -> bool {
        matches!(
            self,
            ActivationOutcome::Resumed | ActivationOutcome::WentIdle
        )
    }
}

/// Record of one hypervisor activation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Activation {
    pub cpu: CpuId,
    pub reason: ExitReason,
    /// Dynamic instructions executed in host mode.
    pub handler_insns: u64,
    /// Cycles spent in host mode (including world-switch costs).
    pub handler_cycles: u64,
    /// Cycles spent in guest mode since the previous activation on this CPU.
    pub guest_cycles: u64,
    pub outcome: ActivationOutcome,
}

/// Asynchronous interrupt traffic parameters, set per workload profile.
#[derive(Debug, Clone, Copy)]
pub struct IrqProfile {
    /// Cycles between APIC timer ticks (0 disables the tick — only useful
    /// in unit tests).
    pub tick_period: u64,
    /// Mean cycles between device interrupts (0 = no device traffic).
    pub dev_irq_period: u64,
}

impl Default for IrqProfile {
    fn default() -> IrqProfile {
        // 1 kHz tick at the paper's 2.13 GHz clock.
        IrqProfile {
            tick_period: 2_130_000,
            dev_irq_period: 0,
        }
    }
}

/// Delta-compressed difference between two [`Platform`] states descended
/// from one boot. The machine part (dominated by the memory image) is
/// sparse; the scheduler part is tiny and copied whole. Static
/// configuration (topology, IRQ profile, step budgets) is assumed shared
/// with the base and not recorded.
#[derive(Debug, Clone)]
pub struct PlatformDelta {
    machine: MachineDelta,
    next_tick: Vec<u64>,
    next_dev: Vec<u64>,
    irq_rng: SplitMix64,
    booted: Vec<bool>,
}

impl PlatformDelta {
    /// Number of memory words carried (checkpoint sizing diagnostics).
    pub fn mem_words(&self) -> usize {
        self.machine.mem_words()
    }
}

/// The platform simulator.
#[derive(Debug)]
pub struct Platform {
    pub machine: Machine,
    pub topo: Topology,
    pub irq: IrqProfile,
    /// Watchdog: maximum host-mode steps per activation.
    pub host_step_budget: u64,
    /// Watchdog: maximum guest steps per activation window.
    pub guest_step_budget: u64,
    next_tick: Vec<u64>,
    next_dev: Vec<u64>,
    irq_rng: SplitMix64,
    booted: Vec<bool>,
    /// Boot-time image of the hypervisor-private regions (microreboot
    /// substrate). Static per boot; shared across clones and checkpoints.
    boot_image: Arc<BootImage>,
}

impl Clone for Platform {
    fn clone(&self) -> Platform {
        Platform {
            machine: self.machine.clone(),
            topo: self.topo.clone(),
            irq: self.irq,
            host_step_budget: self.host_step_budget,
            guest_step_budget: self.guest_step_budget,
            next_tick: self.next_tick.clone(),
            next_dev: self.next_dev.clone(),
            irq_rng: self.irq_rng,
            booted: self.booted.clone(),
            boot_image: Arc::clone(&self.boot_image),
        }
    }

    /// `*self = source.clone()` for what the two differ by. Rebuilding a
    /// finished fork into a fresh one of the same boot — what a campaign
    /// does thousands of times — takes the pages one side wrote since they
    /// diverged ([`Machine::clone_from`]) and overwrites the scheduler
    /// vectors in place: no allocation, and no reference count touched on
    /// a page both already share. A platform of another boot costs a
    /// clone.
    fn clone_from(&mut self, source: &Platform) {
        let Platform {
            machine,
            topo,
            irq,
            host_step_budget,
            guest_step_budget,
            next_tick,
            next_dev,
            irq_rng,
            booted,
            boot_image,
        } = source;
        self.machine.clone_from(machine);
        self.topo.clone_from(topo);
        self.irq = *irq;
        self.host_step_budget = *host_step_budget;
        self.guest_step_budget = *guest_step_budget;
        self.next_tick.clone_from(next_tick);
        self.next_dev.clone_from(next_dev);
        self.irq_rng = *irq_rng;
        self.booted.clone_from(booted);
        if !Arc::ptr_eq(&self.boot_image, boot_image) {
            self.boot_image = Arc::clone(boot_image);
        }
    }
}

impl Platform {
    /// Build a platform for the topology.
    pub fn new(topo: Topology) -> (Platform, Image) {
        let (machine, img) = build_machine(&topo);
        let irq = IrqProfile::default();
        let nr = topo.nr_cpus;
        for name in MICROREBOOT_PRIVATE_REGIONS {
            assert!(
                machine.mem.region_by_name(name).is_some(),
                "private region {name} mapped"
            );
        }
        let boot_image = Arc::new(BootImage {
            mem: machine.mem.clone(),
            reentry: img.sym("vmexit_return"),
        });
        let p = Platform {
            machine,
            topo,
            irq,
            host_step_budget: 100_000,
            guest_step_budget: 10_000_000,
            next_tick: vec![0; nr],
            next_dev: vec![0; nr],
            irq_rng: SplitMix64::new(0x5EED_1234),
            booted: vec![false; nr],
            boot_image,
        };
        (p, img)
    }

    /// Deterministic snapshot of the full platform state.
    pub fn snapshot(&self) -> Platform {
        self.clone()
    }

    /// Delta-compress `self` against an earlier state of the same booted
    /// platform. Covers the private scheduler state (interrupt deadlines,
    /// IRQ randomness, boot flags) that a bare [`Machine`] delta would miss
    /// — forgetting it would silently shift every asynchronous interrupt
    /// after a checkpoint restore.
    pub fn delta_against(&self, base: &Platform) -> PlatformDelta {
        PlatformDelta {
            machine: self.machine.delta_against(&base.machine),
            next_tick: self.next_tick.clone(),
            next_dev: self.next_dev.clone(),
            irq_rng: self.irq_rng,
            booted: self.booted.clone(),
        }
    }

    /// Apply a delta produced by [`Platform::delta_against`] whose base was
    /// this exact state.
    pub fn apply_delta(&mut self, delta: &PlatformDelta) {
        self.machine.apply_delta(&delta.machine);
        self.next_tick.clone_from(&delta.next_tick);
        self.next_dev.clone_from(&delta.next_dev);
        self.irq_rng = delta.irq_rng;
        self.booted.clone_from(&delta.booted);
    }

    /// Deterministic digest of the complete dynamic state: the machine plus
    /// the scheduler's interrupt deadlines and randomness. Two platforms
    /// with equal digests evolve identically under the same driver calls.
    pub fn state_digest(&self) -> u64 {
        let mut h = fold64(0x706c_6174, self.machine.state_digest());
        for &t in &self.next_tick {
            h = fold64(h, t);
        }
        for &d in &self.next_dev {
            h = fold64(h, d);
        }
        h = fold64(h, self.irq_rng.state());
        for &b in &self.booted {
            h = fold64(h, b as u64);
        }
        h
    }

    /// Whether `self` and `other` are the same dynamic state, exactly:
    /// everything [`Self::state_digest`] folds — the machine with its cycle
    /// and instruction counters, PMU, noise streams, devices and memory,
    /// and the scheduler's interrupt deadlines, randomness and boot flags.
    /// Pages the two still share compare by pointer. Two equal platforms
    /// evolve identically under the same driver calls.
    pub fn same_state(&self, other: &Platform) -> bool {
        self.next_tick == other.next_tick
            && self.next_dev == other.next_dev
            && self.irq_rng == other.irq_rng
            && self.booted == other.booted
            && self.machine == other.machine
    }

    /// Read a PCPU field for `cpu`.
    pub fn pcpu_field(&self, cpu: CpuId, field: u64) -> u64 {
        self.machine
            .mem
            .peek(lay::pcpu_addr(cpu) + field * 8)
            .expect("pcpu mapped")
    }

    /// Address of the VCPU descriptor currently scheduled on `cpu`.
    pub fn current_vcpu_ptr(&self, cpu: CpuId) -> u64 {
        self.pcpu_field(cpu, pcpu::CURRENT_VCPU)
    }

    /// Whether `cpu` is running its idle VCPU.
    pub fn is_idle(&self, cpu: CpuId) -> bool {
        self.pcpu_field(cpu, pcpu::IDLE) != 0
    }

    /// Resolve the guest mode for whatever VCPU the hypervisor scheduled on
    /// `cpu` — the platform trusts the (possibly corrupted) scheduler state,
    /// which is how a fault can resume the *wrong* VM.
    fn scheduled_mode(&self, cpu: CpuId) -> Mode {
        let vp = self.current_vcpu_ptr(cpu);
        let dom = self.machine.mem.peek(vp + vcpu::DOM_ID * 8).unwrap_or(0) as u16;
        let vid = self.machine.mem.peek(vp + vcpu::VCPU_ID * 8).unwrap_or(0) as u16;
        Mode::Guest { dom, vcpu: vid }
    }

    /// Run host-mode code until the guest is entered (or something fatal
    /// happens). Used at boot and after every VM exit.
    fn run_host<M: Monitor>(
        &mut self,
        cpu: CpuId,
        monitor: &mut M,
    ) -> (ActivationOutcome, u64, u64) {
        self.run_host_hooked(cpu, monitor, None, |_, _| {}, None)
    }

    /// Like `run_host`, but invokes `hook` on the machine after `hook_at`
    /// host-mode steps — the fault-injection entry point: the hook flips a
    /// register bit mid-handler. With `pcs`, the run records the `rip` of
    /// every instruction it attempts there ([`Machine::run_recorded`]).
    fn run_host_hooked<M: Monitor>(
        &mut self,
        cpu: CpuId,
        monitor: &mut M,
        hook_at: Option<u64>,
        hook: impl FnOnce(&mut Machine, CpuId),
        mut pcs: Option<&mut Vec<u64>>,
    ) -> (ActivationOutcome, u64, u64) {
        let insns0 = self.machine.cpu(cpu).insns_retired;
        let cycles0 = self.machine.cpu(cpu).cycles;
        let budget = self.host_step_budget;
        let mut run = |m: &mut Machine, steps| match pcs.as_deref_mut() {
            Some(pcs) => m.run_recorded(cpu, steps, u64::MAX, pcs),
            None => m.run(cpu, steps, u64::MAX),
        };
        // The hook is a run boundary: run to it, apply it, run on. A hook
        // past the budget, or past the handler's end, never fires.
        let (mut steps, mut event) = (0, None);
        if let Some(at) = hook_at.filter(|&at| at <= budget) {
            (steps, event) = run(&mut self.machine, at);
            if event.is_none() {
                hook(&mut self.machine, cpu);
            }
        }
        if event.is_none() {
            (_, event) = run(&mut self.machine, budget - steps);
        }
        let outcome = match event {
            None | Some(Event::Halt) => ActivationOutcome::Hung,
            Some(Event::VmEntry) => match monitor.on_vm_entry(&mut self.machine, cpu) {
                Verdict::Pass => {
                    let mode = self.scheduled_mode(cpu);
                    self.machine.cpu_mut(cpu).mode = mode;
                    if self.is_idle(cpu) {
                        ActivationOutcome::WentIdle
                    } else {
                        ActivationOutcome::Resumed
                    }
                }
                Verdict::Incorrect => ActivationOutcome::Flagged,
            },
            Some(Event::Exception(e)) => {
                monitor.on_host_exception(&mut self.machine, cpu, e);
                ActivationOutcome::HostException(e)
            }
            Some(Event::AssertFail { id, .. }) => {
                monitor.on_assert_fail(&mut self.machine, cpu, id);
                ActivationOutcome::AssertFailed(id)
            }
            Some(Event::VmExit(_)) => unreachable!("VM exit while already in host mode"),
        };
        let c = self.machine.cpu(cpu);
        (outcome, c.insns_retired - insns0, c.cycles - cycles0)
    }

    /// Pick the next asynchronous exit reason when a deadline fires.
    fn async_reason(&mut self, timer: bool) -> ExitReason {
        if timer {
            return ExitReason::ApicInterrupt(0);
        }
        // Device-side traffic mix: mostly device lines, some IPIs, a few
        // tasklets.
        let roll = self.irq_rng.next_below(100);
        match roll {
            0..=59 => {
                ExitReason::DeviceInterrupt(self.irq_rng.next_below(NR_DEVICE_IRQS as u64) as u8)
            }
            60..=84 => {
                let v = 1 + self.irq_rng.next_below((NR_APIC_VECTORS - 1) as u64) as u8;
                ExitReason::ApicInterrupt(v)
            }
            85..=94 => ExitReason::Tasklet,
            _ => ExitReason::ApicInterrupt(3),
        }
    }

    /// Boot `cpu`: run the initial return-to-guest stub so the first VCPU is
    /// entered. Must be called once per CPU before [`Self::run_activation`].
    pub fn boot<M: Monitor>(&mut self, cpu: CpuId, monitor: &mut M) -> ActivationOutcome {
        assert!(!self.booted[cpu], "cpu {cpu} already booted");
        let (outcome, _, _) = self.run_host(cpu, monitor);
        self.booted[cpu] = true;
        let now = self.machine.cpu(cpu).cycles;
        self.next_tick[cpu] = now + self.irq.tick_period.max(1);
        self.next_dev[cpu] = if self.irq.dev_irq_period > 0 {
            now + 1 + self.irq_rng.next_below(2 * self.irq.dev_irq_period)
        } else {
            u64::MAX
        };
        outcome
    }

    /// Whether this CPU has been booted.
    pub fn is_booted(&self, cpu: CpuId) -> bool {
        self.booted[cpu]
    }

    /// Cycle counts at which `cpu`'s next timer tick and next device
    /// interrupt are due; the guest runs until the earlier one.
    pub fn async_deadlines(&self, cpu: CpuId) -> (u64, u64) {
        (self.next_tick[cpu], self.next_dev[cpu])
    }

    /// Boot-time contents of a hypervisor-private region, as captured for
    /// the microreboot image. `None` for preserved (non-private) regions.
    pub fn boot_image_region(&self, name: &str) -> Option<Vec<u64>> {
        if !MICROREBOOT_PRIVATE_REGIONS.contains(&name) {
            return None;
        }
        self.boot_image.mem.region_words(name)
    }

    /// ReHype-style hypervisor microreboot on `cpu`: reinitialize the
    /// hypervisor-private regions (stacks, run-queues, pending-softirq
    /// bits, handler scratch, dispatch table, global counters) from the
    /// boot-time image while leaving VCPU/domain descriptors, event
    /// channels, grants, shared-info pages, VMCS blocks and guest memory
    /// untouched, then re-enter at the exit trampoline so the preserved
    /// guest save area is reloaded and the VM resumes.
    ///
    /// The wallclock is carried across the reboot (VCPU timer deadlines
    /// are absolute wallclock ticks; losing it would stall every guest
    /// timer). All other accounting counters reset to their boot values —
    /// the report records how much was lost. Only the target CPU's
    /// architectural state is reset: campaigns drive a single CPU, and
    /// the other CPUs' private memory is boot-fresh by construction.
    pub fn microreboot<M: Monitor>(
        &mut self,
        cpu: CpuId,
        monitor: &mut M,
    ) -> (MicrorebootReport, ActivationOutcome) {
        let mut report = self.microreboot_restore(cpu);
        // Re-enter at the exit trampoline: the current VCPU is reloaded
        // from the PCPU slot restored by the boot image, the preserved
        // save area is published to the VMCS and the guest resumes where
        // the last exit left it.
        let (outcome, _insns, host_cycles) = self.run_host(cpu, monitor);
        report.cycles += host_cycles;
        (report, outcome)
    }

    /// The state-restore half of [`Self::microreboot`]: rewrite the
    /// private regions from the boot image and reset the CPU, leaving the
    /// platform parked at the exit trampoline without executing it. Split
    /// out so tests can assert exactly what the reboot preserves before
    /// any host code runs again.
    pub fn microreboot_restore(&mut self, cpu: CpuId) -> MicrorebootReport {
        assert!(self.booted[cpu], "cpu {cpu} not booted");
        let g = |w| {
            self.machine
                .mem
                .peek(lay::global_addr(w))
                .expect("global mapped")
        };
        let wallclock = g(lay::global::WALLCLOCK);
        let sched_ticks = g(lay::global::SCHED_TICKS);
        let tasklet_runs = g(lay::global::TASKLET_RUNS);
        let hypercalls = g(lay::global::HYPERCALL_COUNT);
        let irqs = g(lay::global::IRQ_COUNT);
        let mut softirq_bits = 0u64;
        for c in 0..self.topo.nr_cpus {
            softirq_bits |= self.pcpu_field(c, pcpu::SOFTIRQ_PENDING);
        }

        // Restore every private region from the boot image; count the
        // words that actually changed — that is the state the reboot
        // discards.
        let image = Arc::clone(&self.boot_image);
        let mut per_region = Vec::with_capacity(MICROREBOOT_PRIVATE_REGIONS.len());
        let mut words_lost = 0usize;
        let mut words_scanned = 0u64;
        for name in MICROREBOOT_PRIVATE_REGIONS {
            let changed = self.machine.mem.restore_region(name, &image.mem);
            words_lost += changed;
            let region = image.mem.region_by_name(name).expect("checked at new");
            words_scanned += region.len_words() as u64;
            per_region.push((name.to_string(), changed));
        }
        self.machine
            .mem
            .poke(lay::global_addr(lay::global::WALLCLOCK), wallclock)
            .expect("global mapped");

        // Reset the CPU's architectural state, preserving the monotonic
        // cycle/instruction counters and charging the reboot cost: a flat
        // base plus the memory traffic of rewriting the private image.
        let cost = MICROREBOOT_BASE_CYCLES + self.machine.config.cycle_model.mem * words_scanned;
        let rbp = lay::pcpu_addr(cpu);
        let rsp = self.machine.config.host_stack_top(cpu);
        let reentry = image.reentry;
        let c = self.machine.cpu_mut(cpu);
        let cycles = c.cycles;
        let insns = c.insns_retired;
        *c = Cpu::new();
        c.cycles = cycles + cost;
        c.insns_retired = insns;
        c.rip = reentry;
        c.set(Reg::Rbp, rbp);
        c.set(Reg::Rsp, rsp);

        // Re-arm the interrupt deadlines exactly as boot does.
        let now = self.machine.cpu(cpu).cycles;
        self.next_tick[cpu] = now + self.irq.tick_period.max(1);
        self.next_dev[cpu] = if self.irq.dev_irq_period > 0 {
            now + 1 + self.irq_rng.next_below(2 * self.irq.dev_irq_period)
        } else {
            u64::MAX
        };

        MicrorebootReport {
            cpu,
            words_lost,
            per_region,
            wallclock_preserved: wallclock,
            sched_ticks_lost: sched_ticks,
            tasklet_runs_lost: tasklet_runs,
            hypercalls_lost: hypercalls,
            irqs_lost: irqs,
            softirq_bits_dropped: softirq_bits,
            cycles: cost,
        }
    }

    /// Run exactly one activation on `cpu`: guest executes until the next VM
    /// exit (synchronous or injected), the hypervisor handles it, the guest
    /// resumes.
    pub fn run_activation<M: Monitor>(&mut self, cpu: CpuId, monitor: &mut M) -> Activation {
        let (reason, guest_cycles) = self.run_to_exit(cpu);
        self.run_handler(cpu, reason, guest_cycles, monitor)
    }

    /// Guest phase only: run until the next VM exit and return its reason.
    /// On return the CPU sits in host mode at its entry trampoline with the
    /// VMCS block filled — the state the fault-injection campaign snapshots.
    pub fn run_to_exit(&mut self, cpu: CpuId) -> (ExitReason, u64) {
        assert!(self.booted[cpu], "boot cpu {cpu} first");
        let guest_cycles0 = self.machine.cpu(cpu).cycles;

        // Pending softirq work preempts the guest immediately: the previous
        // handler requested follow-up processing (e.g. a scheduler pass).
        let softirq_pending = self.pcpu_field(cpu, pcpu::SOFTIRQ_PENDING) != 0;

        let reason = if softirq_pending {
            let ev = self.machine.force_exit(cpu, ExitReason::Softirq);
            match ev {
                Event::VmExit(r) => r,
                _ => unreachable!(),
            }
        } else if self.is_idle(cpu) {
            // Idle CPU: fast-forward virtual time to the next interrupt.
            let wake = self.next_tick[cpu].min(self.next_dev[cpu]);
            let now = self.machine.cpu(cpu).cycles;
            if wake > now {
                self.machine.cpu_mut(cpu).cycles = wake;
            }
            self.fire_async(cpu)
        } else {
            // Run the guest until it exits or an async deadline passes. A
            // guest that exhausts the step budget (should not happen with
            // the tick armed) is treated as a forced tick.
            let deadline = self.next_tick[cpu].min(self.next_dev[cpu]);
            match self.machine.run(cpu, self.guest_step_budget, deadline) {
                (_, Some(Event::VmExit(r))) => r,
                (_, Some(ev)) => unreachable!("guest produced host event {ev:?}"),
                (_, None) => self.fire_async(cpu),
            }
        };

        let guest_cycles = self.machine.cpu(cpu).cycles.saturating_sub(guest_cycles0);
        (reason, guest_cycles)
    }

    /// Host phase only: notify the monitor of the exit and run the handler
    /// to VM entry (or death). Pair with [`Self::run_to_exit`].
    pub fn run_handler<M: Monitor>(
        &mut self,
        cpu: CpuId,
        reason: ExitReason,
        guest_cycles: u64,
        monitor: &mut M,
    ) -> Activation {
        self.run_handler_hooked(cpu, reason, guest_cycles, monitor, None, |_, _| {})
    }

    /// Host phase with a fault-injection hook: `hook` runs on the machine
    /// after `hook_at` host-mode steps, a run boundary; one past the host
    /// step budget, or past the handler's end, never fires.
    pub fn run_handler_hooked<M: Monitor>(
        &mut self,
        cpu: CpuId,
        reason: ExitReason,
        guest_cycles: u64,
        monitor: &mut M,
        hook_at: Option<u64>,
        hook: impl FnOnce(&mut Machine, CpuId),
    ) -> Activation {
        monitor.on_vm_exit(&mut self.machine, cpu, reason);
        let (outcome, handler_insns, handler_cycles) =
            self.run_host_hooked(cpu, monitor, hook_at, hook, None);
        Activation {
            cpu,
            reason,
            handler_insns,
            handler_cycles,
            guest_cycles,
            outcome,
        }
    }

    /// [`Self::run_handler`], pushing onto `pcs` the `rip` of every host
    /// instruction the handler attempts, the last included: the golden
    /// handler's path, whose liveness the campaign engine reads.
    pub fn run_handler_recorded<M: Monitor>(
        &mut self,
        cpu: CpuId,
        reason: ExitReason,
        monitor: &mut M,
        pcs: &mut Vec<u64>,
    ) -> Activation {
        monitor.on_vm_exit(&mut self.machine, cpu, reason);
        let (outcome, handler_insns, handler_cycles) =
            self.run_host_hooked(cpu, monitor, None, |_, _| {}, Some(pcs));
        Activation {
            cpu,
            reason,
            handler_insns,
            handler_cycles,
            guest_cycles: 0,
            outcome,
        }
    }

    /// Force the pending asynchronous exit whose deadline fired and re-arm
    /// the deadline.
    fn fire_async(&mut self, cpu: CpuId) -> ExitReason {
        let now = self.machine.cpu(cpu).cycles;
        let timer = self.next_tick[cpu] <= self.next_dev[cpu];
        let reason = self.async_reason(timer);
        if timer {
            self.next_tick[cpu] = now + self.irq.tick_period.max(1);
        } else {
            let mean = self.irq.dev_irq_period.max(1);
            self.next_dev[cpu] = now + 1 + self.irq_rng.next_below(2 * mean);
        }
        match self.machine.force_exit(cpu, reason) {
            Event::VmExit(r) => r,
            _ => unreachable!(),
        }
    }

    /// Run up to `n` activations on `cpu`, stopping early if the hypervisor
    /// dies. Returns the records.
    pub fn run<M: Monitor>(&mut self, cpu: CpuId, n: usize, monitor: &mut M) -> Vec<Activation> {
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            let act = self.run_activation(cpu, monitor);
            let healthy = act.outcome.is_healthy();
            out.push(act);
            if !healthy {
                break;
            }
        }
        out
    }
}
