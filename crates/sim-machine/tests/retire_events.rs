//! The Table-I event class of every opcode, through the machine.
//!
//! Each arm of the interpreter retires with its own `(is_branch, loads,
//! stores)` constants; `Insn::{is_branch, mem_reads, mem_writes}` are the
//! specification, and a `debug_assert` holds the arms to it — in builds that
//! keep debug assertions. This file holds them to it in every build: one
//! instruction of each opcode, executed with the PMU running, must move the
//! four counters, the cycle counter and the retired-instruction count by
//! exactly its class, and by nothing when it faults or leaves for the
//! hypervisor instead of retiring. The class table below is written out, not
//! derived from `Insn`, so it pins the specification too.

use sim_machine::{
    Cond, CycleModel, Event, Insn, Machine, MachineConfig, Memory, Mode, Opcode, PerfSample, Perms,
    Reg, VirtMode,
};

const TEXT: u64 = 0x1000;
const DATA: u64 = 0x2000;
const STACK: u64 = 0x8000;
const VMCS: u64 = 0x1_0000;
/// Where branches go.
const TARGET: u64 = TEXT + 0x80;

/// Costs no two of which add up to a third, so a cycle delta names its parts.
const MODEL: CycleModel = CycleModel {
    base: 3,
    mem: 5,
    branch_taken: 17,
    vm_exit: 1000,
    vm_entry: 100,
    hz: 1,
};

/// A machine about to execute `insn` in host mode with the PMU running.
/// `RBX` points at writable data, `RCX` holds a divisor, `RDX` a branch
/// target, `RSP` sits in the middle of the stack, `R8` is zero (a null
/// base, a zero divisor) and the flags say "equal".
fn machine(insn: Insn, virt_mode: VirtMode) -> Machine {
    let cfg = MachineConfig {
        nr_cpus: 1,
        host_entry: TEXT,
        host_entry_stride: 0,
        host_stack_base: STACK,
        host_stack_size: 0x200,
        vmcs_base: VMCS,
        virt_mode,
        cycle_model: MODEL,
    };
    let mut mem = Memory::new();
    mem.map("text", TEXT, 64, Perms::RX);
    mem.map("data", DATA, 64, Perms::RW);
    mem.map("stack", STACK, 64, Perms::RW);
    mem.map("vmcs", VMCS, 8, Perms::RW);
    mem.load_image(TEXT, &[insn.encode()]).unwrap();
    // What a RET pops.
    mem.poke(STACK + 0x100, TARGET).unwrap();
    let mut m = Machine::new(cfg, mem, 1);
    let c = m.cpu_mut(0);
    c.set(Reg::Rax, 100);
    c.set(Reg::Rbx, DATA);
    c.set(Reg::Rcx, 3);
    c.set(Reg::Rdx, TARGET);
    c.set(Reg::Rsp, STACK + 0x100);
    c.set(Reg::R8, 0);
    c.rflags = sim_machine::reg::flags::ZF;
    c.perf.start();
    m
}

/// `(branches, loads, stores, taken)` a retired instruction of opcode `op`
/// contributes — `taken` for the completing forms [`completing`] builds —
/// or `None` for the two opcodes that never retire.
fn class(op: Opcode) -> Option<(u64, u64, u64, bool)> {
    use Opcode::*;
    Some(match op {
        MovImm | MovReg | Add | AddImm | Sub | SubImm | Mul | Div | Rem | And | Or | Xor
        | ShlImm | ShrImm | Cmp | CmpImm | Test | Cpuid | Rdtsc | Hlt | Nop | Out | In | Noise => {
            (0, 0, 0, false)
        }
        // Loads the guest context like a far return, counts as neither.
        VmEntry => (0, 0, 0, true),
        Load | Pop => (0, 1, 0, false),
        Store | Push => (0, 0, 1, false),
        Jmp | Jcc | JmpReg => (1, 0, 0, true),
        Call | CallReg => (1, 0, 1, true),
        Ret => (1, 1, 0, true),
        Hypercall | AssertFail => return None,
    })
}

/// An instruction of opcode `op` that completes on [`machine`] in host mode.
fn completing(op: Opcode) -> Option<Insn> {
    use Insn::*;
    let (dst, src) = (Reg::Rax, Reg::Rcx);
    Some(match op {
        Opcode::MovImm => MovImm { dst, imm: 7 },
        Opcode::MovReg => MovReg { dst, src },
        Opcode::Load => Load {
            dst,
            base: Reg::Rbx,
            off: 8,
        },
        Opcode::Store => Store {
            base: Reg::Rbx,
            src,
            off: 8,
        },
        Opcode::Add => Add { dst, src },
        Opcode::AddImm => AddImm { dst, imm: 7 },
        Opcode::Sub => Sub { dst, src },
        Opcode::SubImm => SubImm { dst, imm: 7 },
        Opcode::Mul => Mul { dst, src },
        Opcode::Div => Div { dst, src },
        Opcode::Rem => Rem { dst, src },
        Opcode::And => And { dst, src },
        Opcode::Or => Or { dst, src },
        Opcode::Xor => Xor { dst, src },
        Opcode::ShlImm => ShlImm { dst, imm: 3 },
        Opcode::ShrImm => ShrImm { dst, imm: 3 },
        Opcode::Cmp => Cmp { a: dst, b: src },
        Opcode::CmpImm => CmpImm { a: dst, imm: 7 },
        Opcode::Test => Test { a: dst, b: src },
        Opcode::Jmp => Jmp { target: TARGET },
        Opcode::Jcc => Jcc {
            cond: Cond::Eq,
            target: TARGET,
        },
        Opcode::Call => Call { target: TARGET },
        Opcode::Ret => Ret,
        Opcode::Push => Push { src },
        Opcode::Pop => Pop { dst },
        Opcode::JmpReg => JmpReg { target: Reg::Rdx },
        Opcode::CallReg => CallReg { target: Reg::Rdx },
        Opcode::Cpuid => Cpuid,
        Opcode::Rdtsc => Rdtsc,
        Opcode::VmEntry => VmEntry,
        Opcode::Hlt => Hlt,
        Opcode::Nop => Nop,
        Opcode::Out => Out { port: 0x3f8, src },
        Opcode::In => In { dst, port: 0x60 },
        Opcode::Noise => Noise { dst, bound: 10 },
        Opcode::Hypercall | Opcode::AssertFail => return None,
    })
}

/// An instruction of opcode `op` that faults on [`machine`] in host mode
/// (once `RSP` is zeroed, for the ones that use the stack).
fn faulting(op: Opcode) -> Option<Insn> {
    use Insn::*;
    let (dst, null) = (Reg::Rax, Reg::R8);
    Some(match op {
        Opcode::Load => Load {
            dst,
            base: null,
            off: 8,
        },
        Opcode::Store => Store {
            base: null,
            src: dst,
            off: 8,
        },
        Opcode::Div => Div { dst, src: null },
        Opcode::Rem => Rem { dst, src: null },
        Opcode::Call => Call { target: TARGET },
        Opcode::Ret => Ret,
        Opcode::Push => Push { src: dst },
        Opcode::Pop => Pop { dst },
        Opcode::CallReg => CallReg { target: Reg::Rdx },
        Opcode::Hypercall => Hypercall { nr: 3 },
        Opcode::AssertFail => AssertFail { id: 9 },
        _ => return None,
    })
}

/// `(counters, cycles, instructions retired)` of CPU 0.
fn counters(m: &Machine) -> (PerfSample, u64, u64) {
    let c = m.cpu(0);
    (c.perf.sample(), c.cycles, c.insns_retired)
}

fn all_opcodes() -> impl Iterator<Item = Opcode> {
    (0..=u8::MAX).filter_map(Opcode::from_u8)
}

#[test]
fn every_opcode_retires_with_exactly_its_class() {
    let mut seen = 0;
    for op in all_opcodes() {
        let Some((branches, loads, stores, taken)) = class(op) else {
            assert_eq!(completing(op), None, "{op:?} never retires");
            continue;
        };
        let mut forms = vec![(completing(op).expect("retires"), taken)];
        if op == Opcode::Jcc {
            // A branch that falls through is still a branch.
            let not_taken = Insn::Jcc {
                cond: Cond::Ne,
                target: TARGET,
            };
            forms.push((not_taken, false));
        }
        for (insn, taken) in forms {
            let mut m = machine(insn, VirtMode::Para);
            let (steps, event) = m.run(0, 1, u64::MAX);
            assert_eq!(steps, 1);
            match op {
                Opcode::VmEntry => assert_eq!(event, Some(Event::VmEntry)),
                Opcode::Hlt => assert_eq!(event, Some(Event::Halt)),
                _ => assert_eq!(event, None, "{insn:?}"),
            }
            let (sample, cycles, retired) = counters(&m);
            assert_eq!(
                sample,
                PerfSample {
                    inst_retired: 1,
                    branches,
                    loads,
                    stores
                },
                "{insn:?}"
            );
            let world_switch = if op == Opcode::VmEntry {
                MODEL.vm_entry
            } else {
                0
            };
            assert_eq!(
                cycles,
                MODEL.base
                    + MODEL.mem * (loads + stores)
                    + if taken { MODEL.branch_taken } else { 0 }
                    + world_switch,
                "{insn:?}"
            );
            assert_eq!(retired, 1, "{insn:?}");
            seen += 1;
        }
    }
    assert_eq!(seen, 36, "35 opcodes retire, one of them two ways");
}

#[test]
fn an_instruction_that_faults_moves_no_counter() {
    let mut seen = 0;
    for op in all_opcodes() {
        let Some(insn) = faulting(op) else { continue };
        let mut m = machine(insn, VirtMode::Para);
        m.cpu_mut(0).set(Reg::Rsp, 0);
        let before = counters(&m);
        let (steps, event) = m.run(0, 1, u64::MAX);
        assert_eq!(steps, 1);
        assert!(
            matches!(event, Some(Event::Exception(_) | Event::AssertFail { .. })),
            "{insn:?}: {event:?}"
        );
        assert_eq!(counters(&m), before, "{insn:?}");
        assert_eq!(m.cpu(0).rip, TEXT, "{insn:?} left at the fault");
        seen += 1;
    }
    assert_eq!(seen, 11);
}

/// A guest instruction that leaves for the hypervisor — by exiting or by
/// trapping — has not retired: the PMU sees nothing, the cycle counter only
/// the world switch.
#[test]
fn a_vm_exit_moves_no_counter() {
    use Opcode::*;
    for virt_mode in [VirtMode::Para, VirtMode::Hvm] {
        for op in [Cpuid, Rdtsc, Hypercall, VmEntry, Hlt, AssertFail, Out, In] {
            let insn = completing(op)
                .or_else(|| faulting(op))
                .expect("one form or the other");
            let mut m = machine(insn, virt_mode);
            m.cpu_mut(0).mode = Mode::Guest { dom: 1, vcpu: 0 };
            let (before, _, retired) = counters(&m);
            let (steps, event) = m.run(0, 1, u64::MAX);
            assert_eq!(steps, 1);
            assert!(
                matches!(event, Some(Event::VmExit(_))),
                "{insn:?}: {event:?}"
            );
            assert_eq!(
                counters(&m),
                (before, MODEL.vm_exit, retired),
                "{insn:?} under {virt_mode:?}"
            );
        }
    }
}
