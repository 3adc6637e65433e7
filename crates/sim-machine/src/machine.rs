//! The machine: CPUs + memory + devices + world-switch "hardware".
//!
//! [`Machine::run`] executes instructions on one logical CPU until something
//! the harness must handle happens, a step budget runs out or a cycle
//! deadline passes; [`Machine::step`] executes one. Mode transitions mirror
//! Intel VMX:
//!
//! * a guest instruction that requires hypervisor service (hypercall, trapped
//!   exception, I/O exit, ...) performs a **VM exit**: hardware writes the
//!   guest `RIP`/`RSP`/`RFLAGS`, the exit reason and the exit qualification
//!   into a per-CPU VMCS block in memory, loads the host stack pointer and
//!   host entry point, and switches to host mode;
//! * the host `VMENTRY` instruction performs a **VM entry**: hardware loads
//!   guest `RIP`/`RSP`/`RFLAGS` back from the VMCS block.
//!
//! General-purpose registers are *not* switched by hardware — hypervisor
//! entry/exit stubs (simulated code built by `xen-like`) save and restore
//! them, exactly like Xen's assembly stubs. That detail is what lets injected
//! faults corrupt "stack values ... pushed to or restored from the stack"
//! (the paper's Table II undetected category).

use crate::cpu::{Cpu, CpuId, Mode};
use crate::cycles::CycleModel;
use crate::exception::{AccessKind, Exception, Vector};
use crate::exit::ExitReason;
use crate::insn::{Cond, DecodeError, Insn};
use crate::mem::{DataWindow, FetchWindow, MemError, Memory};
use crate::prng::SiteNoise;
use crate::reg::{flags, Reg};
use serde::{Deserialize, Serialize};

/// Words per CPU in the VMCS block.
pub const VMCS_WORDS: u64 = 5;
/// VMCS field offsets (in words).
pub mod vmcs {
    /// Guest instruction pointer at exit / to load at entry.
    pub const GUEST_RIP: u64 = 0;
    /// Guest stack pointer.
    pub const GUEST_RSP: u64 = 1;
    /// Guest flags.
    pub const GUEST_RFLAGS: u64 = 2;
    /// Dense exit-reason code ([`crate::ExitReason::vmer`]).
    pub const EXIT_REASON: u64 = 3;
    /// Exit qualification (fault address, I/O port, hypercall number...).
    pub const EXIT_QUAL: u64 = 4;
}

/// Whether guests run para-virtualized or hardware-assisted. The paper
/// evaluates both (Fig. 3); they differ in how privileged instructions reach
/// the hypervisor (trap via #GP vs. direct VM exits).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum VirtMode {
    /// Para-virtualization: CPUID/RDTSC raise #GP which the hypervisor traps
    /// and emulates; port I/O from guests is forbidden (#GP).
    Para,
    /// Hardware-assisted: CPUID/RDTSC/IN/OUT/HLT exit directly.
    Hvm,
}

/// Static machine configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MachineConfig {
    /// Number of logical CPUs.
    pub nr_cpus: usize,
    /// Host-mode entry point loaded by hardware at every VM exit. CPU `i`
    /// enters at `host_entry + i * host_entry_stride`, which lets the
    /// hypervisor lay down per-CPU trampolines that establish the per-CPU
    /// data pointer (the analogue of Xen's per-CPU %gs base).
    pub host_entry: u64,
    /// Byte distance between per-CPU entry trampolines (0 = shared entry).
    pub host_entry_stride: u64,
    /// Base address of per-CPU host stacks; CPU `i` gets
    /// `host_stack_base + (i + 1) * host_stack_size` as its stack top.
    pub host_stack_base: u64,
    /// Host stack size in bytes per CPU.
    pub host_stack_size: u64,
    /// Base address of the per-CPU VMCS blocks.
    pub vmcs_base: u64,
    /// Guest virtualization flavour.
    pub virt_mode: VirtMode,
    /// Cycle cost model.
    pub cycle_model: CycleModel,
}

impl MachineConfig {
    /// Initial host stack pointer for `cpu` (stacks grow down).
    pub fn host_stack_top(&self, cpu: CpuId) -> u64 {
        self.host_stack_base + (cpu as u64 + 1) * self.host_stack_size
    }

    /// Host entry point for `cpu` (per-CPU trampoline).
    pub fn host_entry_for(&self, cpu: CpuId) -> u64 {
        self.host_entry + cpu as u64 * self.host_entry_stride
    }

    /// Address of a VMCS field for `cpu`.
    pub fn vmcs_field(&self, cpu: CpuId, field: u64) -> u64 {
        self.vmcs_base + (cpu as u64 * VMCS_WORDS + field) * 8
    }
}

/// Deterministic port-I/O device model. Reads mix the port with a
/// per-port sequence number so values are reproducible from a snapshot and
/// independent across ports; writes are folded into a running hash so
/// golden-run differencing can detect corrupted device output.
#[derive(Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Devices {
    /// Number of OUT operations performed.
    pub out_count: u64,
    /// Per-port IN sequence numbers.
    pub in_counts: std::collections::HashMap<u16, u64>,
    /// Running hash of all (port, value) writes.
    pub out_hash: u64,
}

impl Clone for Devices {
    fn clone(&self) -> Devices {
        Devices {
            out_count: self.out_count,
            in_counts: self.in_counts.clone(),
            out_hash: self.out_hash,
        }
    }

    /// Field by field, so the port map keeps its allocation.
    fn clone_from(&mut self, source: &Devices) {
        let Devices {
            out_count,
            in_counts,
            out_hash,
        } = source;
        self.out_count = *out_count;
        self.in_counts.clone_from(in_counts);
        self.out_hash = *out_hash;
    }
}

impl Devices {
    fn mix(a: u64, b: u64) -> u64 {
        let mut z = a ^ b.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z ^ (z >> 31)
    }

    /// Record a port write.
    pub fn write(&mut self, port: u16, value: u64) {
        self.out_count += 1;
        self.out_hash = Devices::mix(
            self.out_hash,
            (port as u64) << 48 | (value & 0xffff_ffff_ffff),
        );
    }

    /// Produce a deterministic port read value (per-port stream).
    pub fn read(&mut self, port: u16) -> u64 {
        let c = self.in_counts.entry(port).or_insert(0);
        *c += 1;
        Devices::mix(*c, port as u64)
    }
}

/// What a single [`Machine::step`] produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepOutcome {
    /// The instruction retired normally; execution continues.
    Retired,
    /// Something the harness must handle.
    Event(Event),
}

/// Events surfaced to the orchestration layer (the hypervisor platform and
/// the Xentry shim).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// Guest → host transition completed; the CPU now sits at the host entry
    /// point with the VMCS block filled in.
    VmExit(ExitReason),
    /// Host executed VMENTRY; guest RIP/RSP/RFLAGS were loaded from the
    /// VMCS. The orchestrator must set the CPU's guest mode (it knows which
    /// VCPU the hypervisor scheduled).
    VmEntry,
    /// A hardware exception was raised in **host mode** — the raw signal the
    /// Xentry runtime detector parses. The CPU is left at the faulting
    /// instruction.
    Exception(Exception),
    /// A software assertion in hypervisor code failed (host mode only).
    AssertFail { id: u16, rip: u64 },
    /// Host executed HLT (idle); resume by injecting an interrupt.
    Halt,
}

/// Sparse difference between two [`Machine`] states that descend from one
/// boot image. CPU, device and noise state are small and copied whole; the
/// memory image — the bulk of a snapshot — is delta-compressed. Used by the
/// fault-injection campaign's checkpoint chain, where consecutive
/// checkpoints share almost the entire memory image.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MachineDelta {
    /// Full CPU states (a handful of registers each).
    pub cpus: Vec<Cpu>,
    /// Full noise-source state (seed + per-site counters).
    pub noise: SiteNoise,
    /// Full device state.
    pub devices: Devices,
    /// Sparse memory difference.
    pub mem: crate::mem::MemoryDelta,
}

impl MachineDelta {
    /// Number of memory words carried by this delta.
    pub fn mem_words(&self) -> usize {
        self.mem.len()
    }
}

/// The simulated machine.
#[derive(Debug, PartialEq, Serialize, Deserialize)]
pub struct Machine {
    /// Physical memory.
    pub mem: Memory,
    /// Logical CPUs.
    cpus: Vec<Cpu>,
    /// Workload-variability source backing the `NOISE` instruction
    /// (independent deterministic stream per instruction address).
    pub noise: SiteNoise,
    /// Port-I/O devices.
    pub devices: Devices,
    /// Static configuration.
    pub config: MachineConfig,
}

impl Clone for Machine {
    fn clone(&self) -> Machine {
        Machine {
            mem: self.mem.clone(),
            cpus: self.cpus.clone(),
            noise: self.noise.clone(),
            devices: self.devices.clone(),
            config: self.config,
        }
    }

    /// `*self = source.clone()` without its allocations: memory takes only
    /// the pages that differ ([`Memory::clone_from`]), and the CPU vector
    /// and the noise and device maps are overwritten in place.
    fn clone_from(&mut self, source: &Machine) {
        let Machine {
            mem,
            cpus,
            noise,
            devices,
            config,
        } = source;
        self.mem.clone_from(mem);
        self.cpus.clone_from(cpus);
        self.noise.clone_from(noise);
        self.devices.clone_from(devices);
        self.config = *config;
    }
}

impl Machine {
    /// Build a machine. Memory must already contain the regions the config
    /// points into (host stacks, VMCS block); the loader asserts this.
    pub fn new(config: MachineConfig, mem: Memory, seed: u64) -> Machine {
        let cpus = (0..config.nr_cpus)
            .map(|i| {
                let mut c = Cpu::new();
                c.rip = config.host_entry_for(i);
                c.set(Reg::Rsp, config.host_stack_top(i));
                c
            })
            .collect();
        Machine {
            mem,
            cpus,
            noise: SiteNoise::new(seed),
            devices: Devices::default(),
            config,
        }
    }

    /// Immutable CPU access.
    pub fn cpu(&self, id: CpuId) -> &Cpu {
        &self.cpus[id]
    }

    /// Mutable CPU access (fault injection, orchestration).
    pub fn cpu_mut(&mut self, id: CpuId) -> &mut Cpu {
        &mut self.cpus[id]
    }

    /// Number of CPUs.
    pub fn nr_cpus(&self) -> usize {
        self.cpus.len()
    }

    /// Snapshot the whole machine (for golden-run differencing).
    pub fn snapshot(&self) -> Machine {
        self.clone()
    }

    /// Delta-compress `self` against `base` (an earlier state of the same
    /// booted machine). `base.apply_delta(&d)` reproduces `self` exactly.
    pub fn delta_against(&self, base: &Machine) -> MachineDelta {
        debug_assert_eq!(self.config, base.config, "deltas cross machine configs");
        MachineDelta {
            cpus: self.cpus.clone(),
            noise: self.noise.clone(),
            devices: self.devices.clone(),
            mem: self.mem.delta_from(&base.mem),
        }
    }

    /// Apply a delta produced by [`Machine::delta_against`] whose base was
    /// this exact state, advancing `self` to the recorded state.
    pub fn apply_delta(&mut self, delta: &MachineDelta) {
        self.cpus.clone_from(&delta.cpus);
        self.noise.clone_from(&delta.noise);
        self.devices.clone_from(&delta.devices);
        self.mem.apply_delta(&delta.mem);
    }

    /// Deterministic digest of the complete dynamic state: CPUs (registers,
    /// flags, mode, PMU, cycle and instruction counters), memory image,
    /// noise streams and device state. Two machines with equal digests are
    /// indistinguishable to simulated code; the campaign determinism and
    /// snapshot round-trip tests compare these. HashMap-backed state (noise
    /// counters, per-port IN sequences) is folded in sorted key order.
    pub fn state_digest(&self) -> u64 {
        use crate::prng::fold64;
        let mut h = fold64(0x006d_6163_6869_6e65, self.cpus.len() as u64); // "machine"
        for c in &self.cpus {
            for &r in &c.regs {
                h = fold64(h, r);
            }
            h = fold64(h, c.rip);
            h = fold64(h, c.rflags);
            h = fold64(
                h,
                match c.mode {
                    Mode::Host => u64::MAX,
                    Mode::Guest { dom, vcpu } => (dom as u64) << 16 | vcpu as u64,
                },
            );
            let s = c.perf.sample();
            h = fold64(h, c.perf.enabled() as u64);
            h = fold64(h, s.inst_retired);
            h = fold64(h, s.branches);
            h = fold64(h, s.loads);
            h = fold64(h, s.stores);
            h = fold64(h, c.cycles);
            h = fold64(h, c.insns_retired);
        }
        h = fold64(h, self.mem.digest());
        h = self.noise.fold_digest(h);
        h = fold64(h, self.devices.out_count);
        h = fold64(h, self.devices.out_hash);
        let mut ports: Vec<(u16, u64)> = self
            .devices
            .in_counts
            .iter()
            .map(|(&p, &c)| (p, c))
            .collect();
        ports.sort_unstable();
        for (p, c) in ports {
            h = fold64(h, p as u64);
            h = fold64(h, c);
        }
        h
    }

    /// Split the machine into `cpu`'s register state and everything else
    /// its instructions can touch.
    fn split(&mut self, cpu: CpuId) -> (&mut Cpu, Core<'_>) {
        (
            &mut self.cpus[cpu],
            Core {
                mem: &mut self.mem,
                noise: &mut self.noise,
                devices: &mut self.devices,
                config: &self.config,
                cpu,
            },
        )
    }

    /// Inject an asynchronous VM exit (device/APIC interrupt, pending
    /// softirq) while `cpu` is in guest mode. The guest resumes at the
    /// current instruction after the hypervisor handles the interrupt.
    ///
    /// # Panics
    /// If the CPU is in host mode — asynchronous events arriving during
    /// hypervisor execution are queued by the platform, not injected.
    pub fn force_exit(&mut self, cpu: CpuId, reason: ExitReason) -> Event {
        let (c, mut core) = self.split(cpu);
        assert!(
            !c.mode.is_host(),
            "force_exit requires guest mode; host-mode interrupts are queued"
        );
        let rip = c.rip;
        core.hw_vm_exit(c, reason, rip, 0)
    }

    /// CPUID model: a fixed deterministic function of the leaf. The #GP
    /// emulation path in the hypervisor must reproduce these values — the
    /// paper's running example of long-latency error propagation is a
    /// corrupted emulated `eax`.
    pub fn cpuid_model(leaf: u64) -> [u64; 4] {
        let m = |s: u64| {
            let mut z = leaf.wrapping_add(s).wrapping_mul(0x2545_F491_4F6C_DD1D);
            z ^= z >> 29;
            z
        };
        [m(1), m(2), m(3), m(4)]
    }

    /// Run `cpu` until an instruction produces an [`Event`], `max_steps`
    /// instructions have been attempted, or the CPU's cycle counter has
    /// reached `cycle_deadline` (checked before each instruction, so a
    /// deadline already passed runs nothing). Returns how many instructions
    /// were attempted — the one that produced the event included — and the
    /// event, if that is what stopped the run.
    pub fn run(&mut self, cpu: CpuId, max_steps: u64, cycle_deadline: u64) -> (u64, Option<Event>) {
        let (c, mut core) = self.split(cpu);
        let mut text = FetchWindow::default();
        let mut data = DataWindow::default();
        let mut decoded = [UNDECODED; DECODED_ENTRIES];
        forget(&mut decoded);
        let mut hot = Hot::read(c);
        let (mut steps, mut event) = (0, None);
        while steps < max_steps && hot.cycles < cycle_deadline {
            steps += 1;
            if let StepOutcome::Event(e) =
                core.step(c, &mut hot, &mut text, &mut data, &mut decoded)
            {
                event = Some(e);
                break;
            }
        }
        hot.write(c);
        (steps, event)
    }

    /// Execute one instruction on `cpu`: the body [`Machine::run`] loops
    /// over, entered once with nothing remembered.
    pub fn step(&mut self, cpu: CpuId) -> StepOutcome {
        let (c, mut core) = self.split(cpu);
        let mut decoded = [UNDECODED; DECODED_ENTRIES];
        forget(&mut decoded);
        let mut hot = Hot::read(c);
        let outcome = core.step(
            c,
            &mut hot,
            &mut FetchWindow::default(),
            &mut DataWindow::default(),
            &mut decoded,
        );
        hot.write(c);
        outcome
    }
}

fn mem_error_to_exception(e: MemError, rip: u64, access: AccessKind) -> Exception {
    match e {
        MemError::Unmapped { addr } | MemError::Protection { addr } => {
            Exception::mem(Vector::PageFault, rip, addr, access)
        }
        MemError::Unaligned { addr } => Exception::mem(Vector::AlignmentCheck, rip, addr, access),
    }
}

fn set_flags_sub(c: &mut Cpu, a: u64, b: u64) {
    let (res, carry) = a.overflowing_sub(b);
    let sa = (a as i64) < 0;
    let sb = (b as i64) < 0;
    let sr = (res as i64) < 0;
    let of = (sa != sb) && (sr != sa);
    let mut f = c.rflags & !flags::ALL;
    if res == 0 {
        f |= flags::ZF;
    }
    if sr {
        f |= flags::SF;
    }
    if carry {
        f |= flags::CF;
    }
    if of {
        f |= flags::OF;
    }
    c.rflags = f;
}

fn set_flags_logic(c: &mut Cpu, res: u64) {
    let mut f = c.rflags & !flags::ALL;
    if res == 0 {
        f |= flags::ZF;
    }
    if (res as i64) < 0 {
        f |= flags::SF;
    }
    c.rflags = f;
}

fn cond_holds(c: &Cpu, cond: Cond) -> bool {
    let zf = c.rflags & flags::ZF != 0;
    let sf = c.rflags & flags::SF != 0;
    let of = c.rflags & flags::OF != 0;
    let cf = c.rflags & flags::CF != 0;
    match cond {
        Cond::Eq => zf,
        Cond::Ne => !zf,
        Cond::Lt => sf != of,
        Cond::Ge => sf == of,
        Cond::Gt => !zf && (sf == of),
        Cond::Le => zf || (sf != of),
        Cond::B => cf,
        Cond::Ae => !cf,
    }
}

/// The Table-I events one retired instruction contributes: `(is_branch,
/// loads, stores)`. Each arm of [`Core::execute`] names its class, so
/// retiring re-examines no instruction; [`Insn::is_branch`],
/// [`Insn::mem_reads`] and [`Insn::mem_writes`] are the specification the
/// arms are held to.
type Events = (bool, u64, u64);
const PLAIN: Events = (false, 0, 0);
const LOAD: Events = (false, 1, 0);
const STORE: Events = (false, 0, 1);
const BRANCH: Events = (true, 0, 0);
const CALL: Events = (true, 0, 1);
const RET: Events = (true, 1, 0);

/// Entries in a [`Decoded`] table. The measured hit rate is the same at 32,
/// 64, 128, 256, 512 and 1,024 entries — 99.8–99.9% of a guest run's
/// instructions, 84.5–85% of a handler run's — because what misses is the
/// first execution of an address in the run, not a conflict; 64 is 1.5 KiB
/// of `run`'s stack.
const DECODED_ENTRIES: usize = 64;

/// The instructions one [`Machine::run`] call has decoded, direct-mapped by
/// word address ([`decoded_index`]) and tagged with the full `rip`. Unlike
/// the two windows in [`crate::mem`] it holds *what* was fetched, which is
/// sound because nothing but the run's own stores can change that before
/// the run returns (ARCHITECTURE.md §1, "Step loop"): an entry is written
/// only after a checked fetch and a successful decode, and a store that
/// lands in an executable region forgets them all ([`forget`]). Nothing
/// stores one. A bare array, built by `run` with [`UNDECODED`] and
/// [`forget`]: wrapped in a struct, or returned from a function, it is
/// built somewhere else and copied into place.
type Decoded = [(u64, Insn); DECODED_ENTRIES];

/// What fills a new table, under the tags [`forget`] gives it. Which
/// instruction is immaterial.
const UNDECODED: (u64, Insn) = (0, Insn::Nop);

#[inline(always)]
fn decoded_index(rip: u64) -> usize {
    (rip / 8) as usize % DECODED_ENTRIES
}

/// Make `decoded` answer for no address. No single tag will do for that —
/// whatever address it spells would hit in the entry it indexes — so each
/// entry is tagged with an address that indexes another: entry 0 with entry
/// 1's `0x8`, the rest with entry 0's `0x0`.
#[inline(always)]
fn forget(decoded: &mut Decoded) {
    for known in decoded.iter_mut() {
        known.0 = 0;
    }
    decoded[0].0 = 8;
}

/// The three scalars every instruction reads and writes, taken out of the
/// [`Cpu`] for the length of a run so that they live in host registers
/// instead of being loaded and stored through `c` once per instruction.
/// The interpreter body works on these; the `Cpu`'s own `rip`, `cycles` and
/// `insns_retired` are stale from [`Hot::read`] to [`Hot::write`], so they
/// are written back before anything out of line looks at them
/// ([`Core::leave`]) and on the way out of the run.
#[derive(Clone, Copy)]
struct Hot {
    rip: u64,
    cycles: u64,
    insns: u64,
}

impl Hot {
    #[inline(always)]
    fn read(c: &Cpu) -> Hot {
        Hot {
            rip: c.rip,
            cycles: c.cycles,
            insns: c.insns_retired,
        }
    }

    #[inline(always)]
    fn write(self, c: &mut Cpu) {
        c.rip = self.rip;
        c.cycles = self.cycles;
        c.insns_retired = self.insns;
    }
}

/// Everything an instruction on one CPU can touch besides that CPU's own
/// registers. [`Machine::run`] takes it and the `&mut Cpu` once, so the
/// interpreter body below indexes `cpus` for no instruction.
struct Core<'a> {
    mem: &'a mut Memory,
    noise: &'a mut SiteNoise,
    devices: &'a mut Devices,
    config: &'a MachineConfig,
    /// Which CPU `c` is: selects its VMCS block, host stack and entry.
    cpu: CpuId,
}

impl Core<'_> {
    /// Perform the hardware part of a VM exit on `c`: fill the VMCS block,
    /// load host RSP/RIP, switch to host mode. `guest_rip` is the resume
    /// point to record (already advanced past trap-like instructions).
    fn hw_vm_exit(&mut self, c: &mut Cpu, reason: ExitReason, guest_rip: u64, qual: u64) -> Event {
        let (cfg, cpu) = (self.config, self.cpu);
        let guest_rsp = c.get(Reg::Rsp);
        let guest_rflags = c.rflags;
        c.mode = Mode::Host;
        c.rip = cfg.host_entry_for(cpu);
        c.set(Reg::Rsp, cfg.host_stack_top(cpu));
        c.cycles += cfg.cycle_model.vm_exit;
        // VMCS writes are "microcode": they bypass page permissions but the
        // block must be mapped.
        for (field, value) in [
            (vmcs::GUEST_RIP, guest_rip),
            (vmcs::GUEST_RSP, guest_rsp),
            (vmcs::GUEST_RFLAGS, guest_rflags),
            (vmcs::EXIT_REASON, reason.vmer() as u64),
            (vmcs::EXIT_QUAL, qual),
        ] {
            self.mem
                .poke(cfg.vmcs_field(cpu, field), value)
                .expect("VMCS mapped");
        }
        Event::VmExit(reason)
    }

    /// Raise an exception observed on `c`: in guest mode it becomes a VM
    /// exit (the hypervisor traps guest exceptions); in host mode it is
    /// surfaced to the harness.
    fn raise(&mut self, c: &mut Cpu, e: Exception) -> Event {
        if c.mode.is_host() {
            Event::Exception(e)
        } else {
            let qual = e.addr.unwrap_or(0);
            self.hw_vm_exit(c, ExitReason::Exception(e.vector), e.rip, qual)
        }
    }

    /// Leave the interpreter body for `f` — [`Core::raise`] or
    /// [`Core::hw_vm_exit`], which work on the whole `Cpu` — with `hot`
    /// written back before and read again after: a VM exit moves `rip` and
    /// charges cycles.
    #[inline(always)]
    fn leave(
        &mut self,
        c: &mut Cpu,
        hot: &mut Hot,
        f: impl FnOnce(&mut Self, &mut Cpu) -> Event,
    ) -> StepOutcome {
        hot.write(c);
        let event = f(self, c);
        *hot = Hot::read(c);
        StepOutcome::Event(event)
    }

    /// Retire bookkeeping: PMU events, cycles, dynamic instruction count.
    #[inline(always)]
    fn retire(
        &self,
        c: &mut Cpu,
        hot: &mut Hot,
        (is_branch, reads, writes): Events,
        taken_branch: bool,
    ) {
        c.perf.record(is_branch, reads, writes);
        hot.cycles += self
            .config
            .cycle_model
            .insn_cost(reads + writes, taken_branch);
        hot.insns += 1;
    }

    /// Fetch, decode and execute the instruction at `hot.rip`, or execute
    /// it as `decoded` remembers it. The one interpreter body:
    /// [`Machine::step`] enters it once, [`Machine::run`] in a loop with
    /// one pair of lookaside windows and one table of decoded instructions
    /// for the whole run.
    #[inline(always)]
    fn step(
        &mut self,
        c: &mut Cpu,
        hot: &mut Hot,
        text: &mut FetchWindow,
        data: &mut DataWindow,
        decoded: &mut Decoded,
    ) -> StepOutcome {
        let pc = hot.rip;
        let known = &mut decoded[decoded_index(pc)];
        if known.0 != pc {
            let word = match self.mem.fetch_near(text, pc) {
                Ok(w) => w,
                Err(e) => {
                    let exc = mem_error_to_exception(e, pc, AccessKind::Fetch);
                    return self.leave(c, hot, |core, c| core.raise(c, exc));
                }
            };
            match Insn::decode(word) {
                Ok(insn) => *known = (pc, insn),
                Err(DecodeError::BadOpcode(_)) | Err(DecodeError::BadOperand(_)) => {
                    let exc = Exception::at(Vector::InvalidOpcode, pc);
                    return self.leave(c, hot, |core, c| core.raise(c, exc));
                }
            }
        }
        let insn = known.1;
        self.execute(c, hot, pc, insn, data, decoded)
    }

    #[inline(always)]
    fn execute(
        &mut self,
        c: &mut Cpu,
        hot: &mut Hot,
        pc: u64,
        insn: Insn,
        data: &mut DataWindow,
        decoded: &mut Decoded,
    ) -> StepOutcome {
        use Insn::*;
        // Default next-RIP; control transfers overwrite.
        let mut next = pc.wrapping_add(8);
        let mut taken = false;

        macro_rules! fault {
            ($e:expr) => {
                return self.leave(c, hot, |core, c| core.raise(c, $e))
            };
        }
        macro_rules! mem_fault {
            ($e:expr, $access:expr) => {
                fault!(mem_error_to_exception($e, pc, $access))
            };
        }
        // A VM exit that records `pc + 8`: the guest resumes past the
        // instruction.
        macro_rules! exit_past {
            ($reason:expr, $qual:expr) => {
                return self.leave(c, hot, |core, c| {
                    core.hw_vm_exit(c, $reason, pc.wrapping_add(8), $qual)
                })
            };
        }
        // A privileged instruction in guest mode: PV guests trap with #GP
        // at the instruction, HVM guests exit past it.
        macro_rules! guest_privileged {
            ($reason:expr, $qual:expr) => {
                match self.config.virt_mode {
                    VirtMode::Para => fault!(Exception::at(Vector::GeneralProtection, pc)),
                    VirtMode::Hvm => exit_past!($reason, $qual),
                }
            };
        }

        // The four instructions that store. One that lands in an executable
        // region may have changed a word this run has already decoded.
        macro_rules! store {
            ($addr:expr, $value:expr) => {
                match self.mem.write_near(data, $addr, $value) {
                    Ok(false) => {}
                    Ok(true) => forget(decoded),
                    Err(e) => mem_fault!(e, AccessKind::Write),
                }
            };
        }

        // How every arm that completes ends: with its own Table-I events
        // as constants, so the bookkeeping folds into the arm. `$outcome`
        // is for the two instructions that retire *and* stop the run.
        macro_rules! retire {
            ($events:expr) => {
                retire!($events, StepOutcome::Retired)
            };
            ($events:expr, $outcome:expr) => {{
                debug_assert_eq!(
                    $events,
                    (insn.is_branch(), insn.mem_reads(), insn.mem_writes()),
                    "{insn:?} retired with another instruction's events"
                );
                hot.rip = next;
                self.retire(c, hot, $events, taken);
                return $outcome;
            }};
        }

        match insn {
            MovImm { dst, imm } => {
                c.set(dst, imm as u64);
                retire!(PLAIN)
            }
            MovReg { dst, src } => {
                c.set(dst, c.get(src));
                retire!(PLAIN)
            }
            Load { dst, base, off } => {
                let addr = c.get(base).wrapping_add(off as u64);
                match self.mem.read_near(data, addr) {
                    Ok(v) => c.set(dst, v),
                    Err(e) => mem_fault!(e, AccessKind::Read),
                }
                retire!(LOAD)
            }
            Store { base, src, off } => {
                let addr = c.get(base).wrapping_add(off as u64);
                store!(addr, c.get(src));
                retire!(STORE)
            }
            Add { dst, src } => {
                let v = c.get(dst).wrapping_add(c.get(src));
                c.set(dst, v);
                set_flags_logic(c, v);
                retire!(PLAIN)
            }
            AddImm { dst, imm } => {
                let v = c.get(dst).wrapping_add(imm as u64);
                c.set(dst, v);
                set_flags_logic(c, v);
                retire!(PLAIN)
            }
            Sub { dst, src } => {
                let (a, b) = (c.get(dst), c.get(src));
                set_flags_sub(c, a, b);
                c.set(dst, a.wrapping_sub(b));
                retire!(PLAIN)
            }
            SubImm { dst, imm } => {
                let (a, b) = (c.get(dst), imm as u64);
                set_flags_sub(c, a, b);
                c.set(dst, a.wrapping_sub(b));
                retire!(PLAIN)
            }
            Mul { dst, src } => {
                c.set(dst, c.get(dst).wrapping_mul(c.get(src)));
                retire!(PLAIN)
            }
            Div { dst, src } => {
                let b = c.get(src);
                if b == 0 {
                    fault!(Exception::at(Vector::DivideError, pc));
                }
                c.set(dst, c.get(dst) / b);
                retire!(PLAIN)
            }
            Rem { dst, src } => {
                let b = c.get(src);
                if b == 0 {
                    fault!(Exception::at(Vector::DivideError, pc));
                }
                c.set(dst, c.get(dst) % b);
                retire!(PLAIN)
            }
            And { dst, src } => {
                let v = c.get(dst) & c.get(src);
                c.set(dst, v);
                set_flags_logic(c, v);
                retire!(PLAIN)
            }
            Or { dst, src } => {
                let v = c.get(dst) | c.get(src);
                c.set(dst, v);
                set_flags_logic(c, v);
                retire!(PLAIN)
            }
            Xor { dst, src } => {
                let v = c.get(dst) ^ c.get(src);
                c.set(dst, v);
                set_flags_logic(c, v);
                retire!(PLAIN)
            }
            ShlImm { dst, imm } => {
                let v = c.get(dst) << (imm & 63);
                c.set(dst, v);
                set_flags_logic(c, v);
                retire!(PLAIN)
            }
            ShrImm { dst, imm } => {
                let v = c.get(dst) >> (imm & 63);
                c.set(dst, v);
                set_flags_logic(c, v);
                retire!(PLAIN)
            }
            Cmp { a, b } => {
                let (x, y) = (c.get(a), c.get(b));
                set_flags_sub(c, x, y);
                retire!(PLAIN)
            }
            CmpImm { a, imm } => {
                let x = c.get(a);
                set_flags_sub(c, x, imm as u64);
                retire!(PLAIN)
            }
            Test { a, b } => {
                let v = c.get(a) & c.get(b);
                set_flags_logic(c, v);
                retire!(PLAIN)
            }
            Jmp { target } => {
                next = target;
                taken = true;
                retire!(BRANCH)
            }
            Jcc { cond, target } => {
                if cond_holds(c, cond) {
                    next = target;
                    taken = true;
                }
                retire!(BRANCH)
            }
            Call { target } => {
                let rsp = c.rsp().wrapping_sub(8);
                store!(rsp, pc.wrapping_add(8));
                c.set(Reg::Rsp, rsp);
                next = target;
                taken = true;
                retire!(CALL)
            }
            Ret => {
                let rsp = c.rsp();
                match self.mem.read_near(data, rsp) {
                    Ok(ra) => {
                        c.set(Reg::Rsp, rsp.wrapping_add(8));
                        next = ra;
                        taken = true;
                    }
                    Err(e) => mem_fault!(e, AccessKind::Read),
                }
                retire!(RET)
            }
            Push { src } => {
                let rsp = c.rsp().wrapping_sub(8);
                store!(rsp, c.get(src));
                c.set(Reg::Rsp, rsp);
                retire!(STORE)
            }
            Pop { dst } => {
                let rsp = c.rsp();
                match self.mem.read_near(data, rsp) {
                    Ok(v) => {
                        c.set(dst, v);
                        c.set(Reg::Rsp, rsp.wrapping_add(8));
                    }
                    Err(e) => mem_fault!(e, AccessKind::Read),
                }
                retire!(LOAD)
            }
            JmpReg { target } => {
                next = c.get(target);
                taken = true;
                retire!(BRANCH)
            }
            CallReg { target } => {
                let dest = c.get(target);
                let rsp = c.rsp().wrapping_sub(8);
                store!(rsp, pc.wrapping_add(8));
                c.set(Reg::Rsp, rsp);
                next = dest;
                taken = true;
                retire!(CALL)
            }
            Cpuid => {
                if !c.mode.is_host() {
                    let leaf = c.get(Reg::Rax);
                    guest_privileged!(ExitReason::CpuidExit, leaf);
                }
                let out = Machine::cpuid_model(c.get(Reg::Rax));
                c.set(Reg::Rax, out[0]);
                c.set(Reg::Rbx, out[1]);
                c.set(Reg::Rcx, out[2]);
                c.set(Reg::Rdx, out[3]);
                retire!(PLAIN)
            }
            Rdtsc => {
                if !c.mode.is_host() {
                    guest_privileged!(ExitReason::RdtscExit, 0);
                }
                let t = hot.cycles;
                c.set(Reg::Rax, t & 0xffff_ffff);
                c.set(Reg::Rdx, t >> 32);
                retire!(PLAIN)
            }
            Hypercall { nr } => {
                if c.mode.is_host() {
                    fault!(Exception::at(Vector::InvalidOpcode, pc));
                }
                exit_past!(
                    ExitReason::Hypercall(nr % crate::exit::NR_HYPERCALLS),
                    nr as u64
                )
            }
            VmEntry => {
                if !c.mode.is_host() {
                    fault!(Exception::at(Vector::GeneralProtection, pc));
                }
                let (cfg, cpu) = (self.config, self.cpu);
                let field = |f| self.mem.peek(cfg.vmcs_field(cpu, f)).expect("VMCS");
                next = field(vmcs::GUEST_RIP);
                taken = true;
                c.set(Reg::Rsp, field(vmcs::GUEST_RSP));
                c.rflags = field(vmcs::GUEST_RFLAGS);
                hot.cycles += cfg.cycle_model.vm_entry;
                // Mode switch to Guest is performed by the orchestrator,
                // which knows (from the hypervisor's scheduling state) which
                // VCPU is being resumed.
                retire!(PLAIN, StepOutcome::Event(Event::VmEntry))
            }
            Hlt => {
                if !c.mode.is_host() {
                    let reason = match self.config.virt_mode {
                        VirtMode::Para => ExitReason::Hypercall(29), // PV guests yield via sched_op
                        VirtMode::Hvm => ExitReason::HltExit,
                    };
                    exit_past!(reason, 0);
                }
                retire!(PLAIN, StepOutcome::Event(Event::Halt))
            }
            Nop => retire!(PLAIN),
            AssertFail { id } => {
                if c.mode.is_host() {
                    return StepOutcome::Event(Event::AssertFail { id, rip: pc });
                }
                fault!(Exception::at(Vector::InvalidOpcode, pc));
            }
            Out { port, src } => {
                if !c.mode.is_host() {
                    guest_privileged!(ExitReason::IoInstruction { port, write: true }, port as u64);
                }
                self.devices.write(port, c.get(src));
                retire!(PLAIN)
            }
            In { dst, port } => {
                if !c.mode.is_host() {
                    guest_privileged!(
                        ExitReason::IoInstruction { port, write: false },
                        port as u64
                    );
                }
                c.set(dst, self.devices.read(port));
                retire!(PLAIN)
            }
            Noise { dst, bound } => {
                c.set(dst, self.noise.next_at(pc, bound));
                retire!(PLAIN)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem::Perms;

    fn test_config() -> MachineConfig {
        MachineConfig {
            nr_cpus: 1,
            host_entry: 0x1_0000,
            host_entry_stride: 0,
            host_stack_base: 0x2_0000,
            host_stack_size: 0x1000,
            vmcs_base: 0x3_0000,
            virt_mode: VirtMode::Para,
            cycle_model: CycleModel::default(),
        }
    }

    fn test_machine(code: &[Insn]) -> Machine {
        let cfg = test_config();
        let mut mem = Memory::new();
        mem.map("hv.text", cfg.host_entry, 4096, Perms::RX);
        mem.map("hv.stack", cfg.host_stack_base, 512, Perms::RW);
        mem.map("vmcs", cfg.vmcs_base, 64, Perms::RW);
        mem.map("hv.data", 0x4_0000, 1024, Perms::RW);
        mem.map("guest.text", 0x10_0000, 1024, Perms::RX);
        let words: Vec<u64> = code.iter().map(|i| i.encode()).collect();
        mem.load_image(cfg.host_entry, &words).unwrap();
        Machine::new(cfg, mem, 7)
    }

    fn run_steps(m: &mut Machine, n: usize) -> Vec<StepOutcome> {
        (0..n).map(|_| m.step(0)).collect()
    }

    #[test]
    fn mov_add_retires_and_counts_cycles() {
        let mut m = test_machine(&[
            Insn::MovImm {
                dst: Reg::Rax,
                imm: 40,
            },
            Insn::AddImm {
                dst: Reg::Rax,
                imm: 2,
            },
        ]);
        m.cpu_mut(0).perf.start();
        for o in run_steps(&mut m, 2) {
            assert_eq!(o, StepOutcome::Retired);
        }
        assert_eq!(m.cpu(0).get(Reg::Rax), 42);
        assert_eq!(m.cpu(0).perf.sample().inst_retired, 2);
        assert!(m.cpu(0).cycles >= 2);
        assert_eq!(m.cpu(0).insns_retired, 2);
    }

    #[test]
    fn load_store_round_trip_and_pmc_events() {
        let mut m = test_machine(&[
            Insn::MovImm {
                dst: Reg::Rbx,
                imm: 0x4_0000,
            },
            Insn::MovImm {
                dst: Reg::Rax,
                imm: 0x99,
            },
            Insn::Store {
                base: Reg::Rbx,
                src: Reg::Rax,
                off: 8,
            },
            Insn::Load {
                dst: Reg::Rcx,
                base: Reg::Rbx,
                off: 8,
            },
        ]);
        m.cpu_mut(0).perf.start();
        run_steps(&mut m, 4);
        assert_eq!(m.cpu(0).get(Reg::Rcx), 0x99);
        let s = m.cpu(0).perf.sample();
        assert_eq!(s.loads, 1);
        assert_eq!(s.stores, 1);
        assert_eq!(s.inst_retired, 4);
    }

    #[test]
    fn division_by_zero_raises_de_in_host() {
        let mut m = test_machine(&[Insn::Div {
            dst: Reg::Rax,
            src: Reg::Rbx,
        }]);
        match m.step(0) {
            StepOutcome::Event(Event::Exception(e)) => {
                assert_eq!(e.vector, Vector::DivideError);
            }
            other => panic!("expected #DE, got {other:?}"),
        }
    }

    #[test]
    fn unmapped_load_raises_pf_in_host() {
        let mut m = test_machine(&[Insn::Load {
            dst: Reg::Rax,
            base: Reg::Rbx,
            off: 0,
        }]);
        // rbx == 0 → null-page access.
        match m.step(0) {
            StepOutcome::Event(Event::Exception(e)) => {
                assert_eq!(e.vector, Vector::PageFault);
                assert_eq!(e.addr, Some(0));
            }
            other => panic!("expected #PF, got {other:?}"),
        }
    }

    #[test]
    fn corrupted_rip_fetches_invalid_opcode() {
        let mut m = test_machine(&[Insn::Nop]);
        // Point RIP at a zero-filled word inside the executable region:
        // word 0 decodes to #UD (fetching a non-exec region would be #PF).
        m.cpu_mut(0).rip = 0x1_0000 + 0x800;
        match m.step(0) {
            StepOutcome::Event(Event::Exception(e)) => {
                assert_eq!(e.vector, Vector::InvalidOpcode);
            }
            other => panic!("expected #UD, got {other:?}"),
        }
    }

    #[test]
    fn corrupted_rip_into_unmapped_space_is_fetch_fault() {
        let mut m = test_machine(&[Insn::Nop]);
        m.cpu_mut(0).rip = 0xdead_0000;
        match m.step(0) {
            StepOutcome::Event(Event::Exception(e)) => {
                assert_eq!(e.vector, Vector::PageFault);
                assert_eq!(e.access, Some(AccessKind::Fetch));
            }
            other => panic!("expected fetch #PF, got {other:?}"),
        }
    }

    #[test]
    fn call_ret_uses_stack() {
        let e = 0x1_0000u64;
        let mut m = test_machine(&[
            Insn::Call { target: e + 3 * 8 }, // call f
            Insn::MovImm {
                dst: Reg::Rbx,
                imm: 7,
            }, // after return
            Insn::Hlt,
            Insn::MovImm {
                dst: Reg::Rax,
                imm: 5,
            }, // f:
            Insn::Ret,
        ]);
        let outs = run_steps(&mut m, 4);
        assert!(outs.iter().take(4).all(|o| *o == StepOutcome::Retired));
        assert_eq!(m.cpu(0).get(Reg::Rax), 5);
        assert_eq!(m.cpu(0).get(Reg::Rbx), 7);
        assert_eq!(m.cpu(0).rsp(), m.config.host_stack_top(0));
    }

    #[test]
    fn conditional_branch_signed_semantics() {
        let e = 0x1_0000u64;
        let mut m = test_machine(&[
            Insn::MovImm {
                dst: Reg::Rax,
                imm: -5,
            },
            Insn::CmpImm {
                a: Reg::Rax,
                imm: 3,
            },
            Insn::Jcc {
                cond: Cond::Lt,
                target: e + 4 * 8,
            },
            Insn::MovImm {
                dst: Reg::Rbx,
                imm: 111,
            }, // skipped
            Insn::MovImm {
                dst: Reg::Rcx,
                imm: 222,
            },
        ]);
        run_steps(&mut m, 4);
        assert_eq!(m.cpu(0).get(Reg::Rbx), 0, "not-taken path must be skipped");
        assert_eq!(m.cpu(0).get(Reg::Rcx), 222);
    }

    #[test]
    fn unsigned_below_uses_carry() {
        let e = 0x1_0000u64;
        let mut m = test_machine(&[
            Insn::MovImm {
                dst: Reg::Rax,
                imm: -5,
            }, // huge unsigned
            Insn::CmpImm {
                a: Reg::Rax,
                imm: 3,
            },
            Insn::Jcc {
                cond: Cond::B,
                target: e + 4 * 8,
            }, // NOT below
            Insn::MovImm {
                dst: Reg::Rbx,
                imm: 1,
            },
            Insn::Nop,
        ]);
        run_steps(&mut m, 4);
        assert_eq!(m.cpu(0).get(Reg::Rbx), 1, "unsigned -5 is not below 3");
    }

    #[test]
    fn hypercall_from_guest_exits_with_reason_and_vmcs() {
        let mut m = test_machine(&[Insn::Nop]);
        // Place guest code.
        let g = 0x10_0000u64;
        m.mem
            .load_image(g, &[Insn::Hypercall { nr: 29 }.encode()])
            .unwrap();
        m.cpu_mut(0).mode = Mode::Guest { dom: 1, vcpu: 0 };
        m.cpu_mut(0).rip = g;
        m.cpu_mut(0).set(Reg::Rsp, 0x4_0000 + 512 * 8);
        match m.step(0) {
            StepOutcome::Event(Event::VmExit(ExitReason::Hypercall(29))) => {}
            other => panic!("expected hypercall exit, got {other:?}"),
        }
        assert!(m.cpu(0).mode.is_host());
        assert_eq!(m.cpu(0).rip, m.config.host_entry);
        assert_eq!(m.cpu(0).rsp(), m.config.host_stack_top(0));
        let cfg = m.config;
        assert_eq!(
            m.mem.peek(cfg.vmcs_field(0, vmcs::GUEST_RIP)).unwrap(),
            g + 8
        );
        assert_eq!(
            m.mem.peek(cfg.vmcs_field(0, vmcs::EXIT_REASON)).unwrap(),
            ExitReason::Hypercall(29).vmer() as u64
        );
    }

    #[test]
    fn pv_guest_cpuid_traps_as_gp_exit() {
        let mut m = test_machine(&[Insn::Nop]);
        let g = 0x10_0000u64;
        m.mem.load_image(g, &[Insn::Cpuid.encode()]).unwrap();
        m.cpu_mut(0).mode = Mode::Guest { dom: 1, vcpu: 0 };
        m.cpu_mut(0).rip = g;
        match m.step(0) {
            StepOutcome::Event(Event::VmExit(ExitReason::Exception(Vector::GeneralProtection))) => {
            }
            other => panic!("expected #GP exit, got {other:?}"),
        }
        // Fault-like exit: guest RIP in the VMCS points at the CPUID itself.
        let cfg = m.config;
        assert_eq!(m.mem.peek(cfg.vmcs_field(0, vmcs::GUEST_RIP)).unwrap(), g);
    }

    #[test]
    fn hvm_guest_cpuid_exits_directly() {
        let mut m = test_machine(&[Insn::Nop]);
        m.config.virt_mode = VirtMode::Hvm;
        let g = 0x10_0000u64;
        m.mem.load_image(g, &[Insn::Cpuid.encode()]).unwrap();
        m.cpu_mut(0).mode = Mode::Guest { dom: 1, vcpu: 0 };
        m.cpu_mut(0).rip = g;
        match m.step(0) {
            StepOutcome::Event(Event::VmExit(ExitReason::CpuidExit)) => {}
            other => panic!("expected cpuid exit, got {other:?}"),
        }
        let cfg = m.config;
        assert_eq!(
            m.mem.peek(cfg.vmcs_field(0, vmcs::GUEST_RIP)).unwrap(),
            g + 8
        );
    }

    #[test]
    fn vmentry_loads_guest_state_from_vmcs() {
        let mut m = test_machine(&[Insn::VmEntry]);
        let cfg = m.config;
        m.mem
            .poke(cfg.vmcs_field(0, vmcs::GUEST_RIP), 0x10_0008)
            .unwrap();
        m.mem
            .poke(cfg.vmcs_field(0, vmcs::GUEST_RSP), 0x4_0100)
            .unwrap();
        m.mem
            .poke(cfg.vmcs_field(0, vmcs::GUEST_RFLAGS), flags::ZF)
            .unwrap();
        match m.step(0) {
            StepOutcome::Event(Event::VmEntry) => {}
            other => panic!("expected vmentry, got {other:?}"),
        }
        assert_eq!(m.cpu(0).rip, 0x10_0008);
        assert_eq!(m.cpu(0).rsp(), 0x4_0100);
        assert_eq!(m.cpu(0).rflags, flags::ZF);
    }

    #[test]
    fn vmentry_in_guest_mode_is_gp() {
        let mut m = test_machine(&[Insn::Nop]);
        let g = 0x10_0000u64;
        m.mem.load_image(g, &[Insn::VmEntry.encode()]).unwrap();
        m.cpu_mut(0).mode = Mode::Guest { dom: 1, vcpu: 0 };
        m.cpu_mut(0).rip = g;
        match m.step(0) {
            StepOutcome::Event(Event::VmExit(ExitReason::Exception(Vector::GeneralProtection))) => {
            }
            other => panic!("expected trapped #GP, got {other:?}"),
        }
    }

    #[test]
    fn assert_fail_surfaces_in_host_mode() {
        let mut m = test_machine(&[Insn::AssertFail { id: 42 }]);
        match m.step(0) {
            StepOutcome::Event(Event::AssertFail { id: 42, .. }) => {}
            other => panic!("expected assert fail, got {other:?}"),
        }
    }

    #[test]
    fn host_cpuid_rdtsc_execute_natively() {
        let mut m = test_machine(&[
            Insn::MovImm {
                dst: Reg::Rax,
                imm: 5,
            },
            Insn::Cpuid,
            Insn::Rdtsc,
        ]);
        run_steps(&mut m, 3);
        let expect = Machine::cpuid_model(5);
        // CPUID overwrote RAX..RDX, then RDTSC overwrote RAX/RDX with time.
        assert_eq!(m.cpu(0).get(Reg::Rbx), expect[1]);
        assert_eq!(m.cpu(0).get(Reg::Rcx), expect[2]);
    }

    #[test]
    fn force_exit_records_resume_point() {
        let mut m = test_machine(&[Insn::Nop]);
        let g = 0x10_0000u64;
        m.mem
            .load_image(g, &[Insn::Nop.encode(), Insn::Nop.encode()])
            .unwrap();
        m.cpu_mut(0).mode = Mode::Guest { dom: 2, vcpu: 1 };
        m.cpu_mut(0).rip = g;
        m.step(0); // retire first nop
        let ev = m.force_exit(0, ExitReason::DeviceInterrupt(3));
        assert_eq!(ev, Event::VmExit(ExitReason::DeviceInterrupt(3)));
        let cfg = m.config;
        assert_eq!(
            m.mem.peek(cfg.vmcs_field(0, vmcs::GUEST_RIP)).unwrap(),
            g + 8
        );
    }

    #[test]
    #[should_panic(expected = "force_exit requires guest mode")]
    fn force_exit_in_host_mode_panics() {
        let mut m = test_machine(&[Insn::Nop]);
        m.force_exit(0, ExitReason::DeviceInterrupt(0));
    }

    #[test]
    fn noise_is_deterministic_from_snapshot() {
        let prog = [
            Insn::Noise {
                dst: Reg::Rax,
                bound: 1000,
            },
            Insn::Noise {
                dst: Reg::Rbx,
                bound: 1000,
            },
        ];
        let m0 = test_machine(&prog);
        let mut a = m0.snapshot();
        let mut b = m0.snapshot();
        run_steps(&mut a, 2);
        run_steps(&mut b, 2);
        assert_eq!(a.cpu(0).get(Reg::Rax), b.cpu(0).get(Reg::Rax));
        assert_eq!(a.cpu(0).get(Reg::Rbx), b.cpu(0).get(Reg::Rbx));
    }

    #[test]
    fn out_in_device_model_is_deterministic() {
        let mut m = test_machine(&[
            Insn::MovImm {
                dst: Reg::Rax,
                imm: 0x55,
            },
            Insn::Out {
                port: 0x3f8,
                src: Reg::Rax,
            },
            Insn::In {
                dst: Reg::Rbx,
                port: 0x60,
            },
        ]);
        let mut m2 = m.snapshot();
        run_steps(&mut m, 3);
        run_steps(&mut m2, 3);
        assert_eq!(m.devices.out_count, 1);
        assert_eq!(m.devices.out_hash, m2.devices.out_hash);
        assert_eq!(m.cpu(0).get(Reg::Rbx), m2.cpu(0).get(Reg::Rbx));
    }

    #[test]
    fn pv_guest_hlt_becomes_sched_op_hypercall() {
        let mut m = test_machine(&[Insn::Nop]);
        let g = 0x10_0000u64;
        m.mem.load_image(g, &[Insn::Hlt.encode()]).unwrap();
        m.cpu_mut(0).mode = Mode::Guest { dom: 1, vcpu: 0 };
        m.cpu_mut(0).rip = g;
        match m.step(0) {
            StepOutcome::Event(Event::VmExit(ExitReason::Hypercall(29))) => {}
            other => panic!("expected sched_op, got {other:?}"),
        }
    }

    #[test]
    fn guest_state_saved_to_vmcs_on_exit() {
        let mut m = test_machine(&[Insn::Nop]);
        let g = 0x10_0000u64;
        m.mem
            .load_image(g, &[Insn::Hypercall { nr: 0 }.encode()])
            .unwrap();
        m.cpu_mut(0).mode = Mode::Guest { dom: 1, vcpu: 0 };
        m.cpu_mut(0).rip = g;
        m.cpu_mut(0).set(Reg::Rsp, 0x1234_5678);
        m.cpu_mut(0).rflags = flags::CF | flags::SF;
        m.step(0);
        let cfg = m.config;
        assert_eq!(
            m.mem.peek(cfg.vmcs_field(0, vmcs::GUEST_RSP)).unwrap(),
            0x1234_5678
        );
        assert_eq!(
            m.mem.peek(cfg.vmcs_field(0, vmcs::GUEST_RFLAGS)).unwrap(),
            flags::CF | flags::SF
        );
        // GPRs are untouched by the hardware exit (software saves them).
        assert_eq!(m.cpu(0).get(Reg::Rsp), m.config.host_stack_top(0));
    }
}
