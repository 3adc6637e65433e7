//! `Insn::reg_uses` held to the interpreter.
//!
//! The campaign engine calls a register flip dead when the golden handler
//! overwrites the flipped class before reading it, and then does not
//! simulate the flip. That is sound only if the table never leaves a read
//! out and never claims a write the interpreter does not make whole. So,
//! for arbitrary decodable words in host mode, with a mapped writable page
//! for memory operands to land in, one `Machine::step`:
//!
//! - from two register files that differ only in classes outside `reads`
//!   ends in machines that agree on everything but those classes — and on
//!   those too where the instruction retired and `writes` names them;
//! - keeps every class outside `writes` as it was;
//! - changes no RFLAGS bit outside `flags::ALL` unless it is `VmEntry`.

use proptest::prelude::*;
use sim_machine::reg::flags;
use sim_machine::{
    CycleModel, Event, Insn, Machine, MachineConfig, Memory, Opcode, Perms, Reg, RegSet,
    StepOutcome, VirtMode,
};

const TEXT: u64 = 0x1_0000;
const STACK: u64 = 0x2_0000;
const VMCS: u64 = 0x3_0000;
const DATA: u64 = 0x4_0000;
const DATA_WORDS: u64 = 512;

fn machine(word: u64) -> Machine {
    let config = MachineConfig {
        nr_cpus: 1,
        host_entry: TEXT,
        host_entry_stride: 0x40,
        host_stack_base: STACK,
        host_stack_size: 0x1000,
        vmcs_base: VMCS,
        virt_mode: VirtMode::Para,
        cycle_model: CycleModel::default(),
    };
    let mut mem = Memory::new();
    mem.map("text", TEXT, 8, Perms::RX);
    mem.map("stack", STACK, 512, Perms::RW);
    mem.map("vmcs", VMCS, 16, Perms::RW);
    mem.map("data", DATA, DATA_WORDS as usize, Perms::RW);
    mem.load_image(TEXT, &[word]).unwrap();
    Machine::new(config, mem, 5)
}

/// A register value: mostly a word in the middle of the writable page, so
/// that a memory operand at a small offset from it lands there.
fn arb_value() -> impl Strategy<Value = u64> {
    prop_oneof![
        (DATA_WORDS / 4..DATA_WORDS * 3 / 4).prop_map(|w| DATA + w * 8),
        (DATA_WORDS / 4..DATA_WORDS * 3 / 4).prop_map(|w| DATA + w * 8),
        (DATA_WORDS / 4..DATA_WORDS * 3 / 4).prop_map(|w| DATA + w * 8),
        Just(0u64),
        any::<u64>(),
    ]
}

/// A decodable word: any opcode, any register fields (a valid condition
/// where the field is one), and an immediate that is mostly a small,
/// aligned offset.
fn arb_word() -> impl Strategy<Value = u64> {
    let ops: Vec<Opcode> = (0u8..=u8::MAX).filter_map(Opcode::from_u8).collect();
    let imm = prop_oneof![(-8i64..8).prop_map(|w| (w * 8) as u64), any::<u64>()];
    (
        (0..ops.len()).prop_map(move |i| ops[i]),
        0u8..16,
        0u8..16,
        imm,
    )
        .prop_map(|(op, dst, src, imm)| {
            let dst = if op == Opcode::Jcc { dst % 8 } else { dst };
            (op as u64) << 56 | (dst as u64) << 52 | (src as u64) << 48 | imm & ((1 << 48) - 1)
        })
}

/// The two RFLAGS classes and the bits each covers.
const FLAG_CLASSES: [(RegSet, u64); 2] = [
    (RegSet::COND, flags::ALL),
    (RegSet::FLAGS_REST, !flags::ALL),
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    #[test]
    fn reg_uses_is_what_step_does(
        word in arb_word(),
        regs in proptest::collection::vec(arb_value(), 16),
        rflags in any::<u64>(),
        others in proptest::collection::vec(any::<u64>(), 16),
        other_rflags in any::<u64>(),
        vmcs in proptest::collection::vec(any::<u64>(), 3),
    ) {
        let insn = Insn::decode(word).expect("drawn to decode");
        let uses = insn.reg_uses();
        prop_assert!(uses.reads.meets(RegSet::RIP), "every instruction reads RIP");

        let mut a = machine(word);
        for (field, &v) in vmcs.iter().enumerate() {
            a.mem.poke(VMCS + field as u64 * 8, v).unwrap();
        }
        {
            let c = a.cpu_mut(0);
            for (r, &v) in Reg::ALL.iter().zip(&regs) {
                c.set(*r, v);
            }
            c.rip = TEXT;
            c.rflags = rflags;
            c.perf.start();
        }
        // `b`: every class the instruction does not read, changed.
        let mut b = a.clone();
        let mut differ = RegSet::EMPTY;
        for (r, &v) in Reg::ALL.iter().zip(&others) {
            if !uses.reads.meets(RegSet::gpr(*r)) && v != regs[r.index()] {
                b.cpu_mut(0).set(*r, v);
                differ = differ.with(RegSet::gpr(*r));
            }
        }
        for (class, bits) in FLAG_CLASSES {
            if !uses.reads.meets(class) && (rflags ^ other_rflags) & bits != 0 {
                let c = b.cpu_mut(0);
                c.rflags = c.rflags & !bits | other_rflags & bits;
                differ = differ.with(class);
            }
        }
        let before = a.cpu(0).clone();

        let (got_a, got_b) = (a.step(0), b.step(0));
        prop_assert_eq!(got_a, got_b, "{:?}", insn);
        let retired = matches!(
            got_a,
            StepOutcome::Retired | StepOutcome::Event(Event::VmEntry | Event::Halt)
        );

        // Outside `writes`, nothing moves.
        let after = a.cpu(0);
        for r in Reg::ALL {
            if !uses.writes.meets(RegSet::gpr(r)) {
                prop_assert_eq!(after.get(r), before.get(r), "{:?} wrote {}", insn, r);
            }
        }
        for (class, bits) in FLAG_CLASSES {
            if !uses.writes.meets(class) {
                prop_assert_eq!(after.rflags & bits, before.rflags & bits, "{:?}", insn);
            }
        }
        if insn != Insn::VmEntry {
            prop_assert_eq!(after.rflags & !flags::ALL, before.rflags & !flags::ALL, "{:?}", insn);
        }

        // What differed and was not overwritten whole may still differ;
        // everything else must agree.
        let kept = |class: RegSet| !(retired && uses.writes.meets(class));
        for r in Reg::ALL {
            if differ.meets(RegSet::gpr(r)) && kept(RegSet::gpr(r)) {
                let v = a.cpu(0).get(r);
                b.cpu_mut(0).set(r, v);
            }
        }
        for (class, bits) in FLAG_CLASSES {
            if differ.meets(class) && kept(class) {
                let f = a.cpu(0).rflags;
                let c = b.cpu_mut(0);
                c.rflags = c.rflags & !bits | f & bits;
            }
        }
        prop_assert!(a == b, "{:?} read a class it does not list, or wrote one in part", insn);
    }
}
