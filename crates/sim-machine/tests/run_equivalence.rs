//! `Machine::run` against `Machine::step`.
//!
//! `run` is the loop every driver uses; `step` is its body entered once.
//! For arbitrary text, registers, modes, budgets and deadlines, `run` must
//! stop where a loop of `step` calls written out here stops: same count,
//! same event, `==` machines, equal digests. `step` starts a fresh fetch
//! window per instruction and `run` keeps one, so this is also the window
//! against the table walk on whatever the text does — self-modifying
//! stores, jumps between regions sharing a page, a `rip` corrupted to
//! anywhere. The same goes for the data window: the text loads and stores
//! through a page-mapped region and stores new PTEs over the ones that
//! govern it (not present, read-only, pointing at another frame), so a
//! translation `run` remembered from earlier in the call is held against
//! the walk `step` does afresh. Neither entry point may panic: that is the
//! host-never-panics property, scoped to the step loop.
//!
//! `run` also keeps the instructions it has decoded, by address, for the
//! length of the call, and forgets them when one of its own stores lands in
//! an executable region; `step` decodes every word afresh. The directed
//! cases below the property are the ones that table can get wrong: a store
//! (plain, pushed, the return address of a call, through a PTE redirected
//! onto the text) over a word the same run has already executed and comes
//! back to, and addresses that share a table entry with, sit beside, or
//! spell the initial contents of, an entry.

use proptest::prelude::*;
use sim_machine::{
    Cond, CycleModel, Event, Exception, Insn, Machine, MachineConfig, Memory, Mode, Opcode,
    PageMap, Perms, Reg, StepOutcome, Vector, VirtMode, PAGE_BYTES, PTE_PRESENT, PTE_RW,
};

const TEXT: u64 = 0x1_0000;
/// Two pages and a bit, so straight-line code crosses a page and ends
/// inside one.
const TEXT_WORDS: usize = 1100;
const STACK: u64 = 0x2_0000;
const VMCS: u64 = 0x3_0000;
const DATA: u64 = 0x4_0000;
/// A sub-page executable region and a writable one on the same page.
const STUB: u64 = 0x5_0100;
const STUB_WORDS: usize = 8;
const STUB_DATA: u64 = 0x5_0200;
/// Writable and executable: stores here change what is fetched next.
const SMC: u64 = 0x6_0000;
const SMC_WORDS: usize = 64;
/// The PTEs of `PAGED`, writable by the text like any other data.
const PTBL: u64 = 0x7_0000;
/// Two data pages behind a page map.
const PAGED: u64 = 0x8_0000;
const PAGED_MAP: PageMap = PageMap {
    virt_base: PAGED,
    nr_pages: 2,
    ptbl_base: PTBL,
};

/// Where in the text the arbitrary words go (word index): the two CPUs'
/// host entries, where a VM exit lands; across the page boundary; off the
/// end of the region.
const LOAD_AT: [usize; 4] = [0, 8, 500, TEXT_WORDS - 10];

fn config(virt_mode: VirtMode) -> MachineConfig {
    MachineConfig {
        nr_cpus: 2,
        host_entry: TEXT,
        host_entry_stride: 0x40,
        host_stack_base: STACK,
        host_stack_size: 0x1000,
        vmcs_base: VMCS,
        virt_mode,
        cycle_model: CycleModel::default(),
    }
}

fn memory() -> Memory {
    let mut mem = Memory::new();
    mem.map("text", TEXT, TEXT_WORDS, Perms::RX);
    mem.map("stack", STACK, 1024, Perms::RW);
    mem.map("vmcs", VMCS, 16, Perms::RW);
    mem.map("data", DATA, 256, Perms::RW);
    mem.map("stub", STUB, STUB_WORDS, Perms::RX);
    mem.map("stub.data", STUB_DATA, 8, Perms::RW);
    mem.map("smc", SMC, SMC_WORDS, Perms::RWX);
    mem.map("ptbl", PTBL, 8, Perms::RW);
    mem.map("paged", PAGED, 2 * PAGE_BYTES as usize / 8, Perms::RW);
    for page in 0..2 {
        let pte = PAGED_MAP.identity_pte(page);
        mem.poke(PTBL + page as u64 * 8, pte).unwrap();
    }
    mem.add_page_map(PAGED_MAP);
    mem
}

/// A PTE for one of `PAGED`'s pages: as boot installs it, not present,
/// read-only, or pointing at another frame (the other page, plain data, or
/// nothing).
fn arb_pte() -> impl Strategy<Value = u64> {
    (0u32..2, 0usize..6).prop_map(|(page, shape)| {
        let identity = PAGED_MAP.identity_pte(page);
        [
            identity,
            identity & !PTE_PRESENT,
            identity & !PTE_RW,
            PAGED_MAP.identity_pte(1 - page),
            DATA | PTE_PRESENT | PTE_RW,
            identity ^ (1 << 30),
        ][shape]
    })
}

/// An address simulated code might plausibly hold: in or at the edge of a
/// region, aligned or not, or anything at all.
fn arb_addr() -> impl Strategy<Value = u64> {
    let near = |base: u64, words: usize| {
        let end = base + words as u64 * 8;
        let word = move || (0..words as u64).prop_map(move |w| base + w * 8);
        prop_oneof![
            word(),
            word(),
            word(),
            word(),
            (0..words as u64 * 8).prop_map(move |b| base + b),
            Just(base - 8),
            Just(end - 8),
            Just(end),
        ]
    };
    // (The vendored `prop_oneof!` is uniform: an arm listed twice weighs two.)
    prop_oneof![
        near(TEXT, TEXT_WORDS),
        near(TEXT, TEXT_WORDS),
        near(TEXT, TEXT_WORDS),
        near(STACK, 1024),
        near(STACK, 1024),
        near(VMCS, 16),
        near(DATA, 256),
        near(STUB, STUB_WORDS),
        near(STUB, STUB_WORDS),
        near(STUB_DATA, 8),
        near(SMC, SMC_WORDS),
        near(SMC, SMC_WORDS),
        near(PTBL, 8),
        near(PAGED, 1024),
        near(PAGED, 1024),
        prop_oneof![
            Just(0u64),
            Just(8),
            Just(0xdead_0000),
            Just(u64::MAX),
            Just(u64::MAX - 7)
        ],
        any::<u64>(),
        any::<u64>(),
    ]
}

/// Opcodes that retire whatever their operands: moves, ALU, NOP.
const ALU: [Opcode; 16] = {
    use Opcode::*;
    [
        MovImm, MovReg, Add, AddImm, Sub, SubImm, Mul, And, Or, Xor, ShlImm, ShrImm, Cmp, CmpImm,
        Test, Nop,
    ]
};
/// Direct branches and calls.
const BRANCH: [Opcode; 3] = [Opcode::Jmp, Opcode::Jcc, Opcode::Call];
/// Loads, stores, pushes, pops, returns.
const MEMORY: [Opcode; 5] = [
    Opcode::Load,
    Opcode::Store,
    Opcode::Ret,
    Opcode::Push,
    Opcode::Pop,
];

fn encode(op: Opcode, regs: u8, imm: u64) -> u64 {
    (op as u64) << 56 | (regs as u64) << 48 | imm & ((1 << 48) - 1)
}

/// A text word. Arbitrary bits mostly fail to decode and a valid opcode over
/// arbitrary operands mostly faults, so most words are drawn to retire —
/// ALU work, branches that land near loaded words, memory operations at
/// small offsets from whatever address a register holds — and runs get long
/// enough to cross pages, regions and their own stores.
fn arb_word() -> impl Strategy<Value = u64> {
    let of = |ops: &'static [Opcode]| (0..ops.len()).prop_map(move |i| ops[i]);
    // Every opcode the decoder knows, from the decoder.
    let any_opcode = (0u8..=u8::MAX)
        .filter_map(Opcode::from_u8)
        .collect::<Vec<_>>();
    let regs = any::<u8>;
    let small = || prop_oneof![(0u64..32).prop_map(|w| w * 8), 0u64..64];
    // Onto a loaded word of the text or, one time in five, of the writable
    // text — which its own stores through R15 may have replaced since it
    // last ran.
    let target = || {
        (0..LOAD_AT.len() + 1, 0u64..48).prop_map(|(at, w)| match LOAD_AT.get(at) {
            Some(&at) => TEXT + (at as u64 + w) * 8,
            None => SMC + w % 16 * 8,
        })
    };
    // A memory operation through one of `bases`, other operand free.
    let through = |bases: std::ops::Range<u8>| {
        (of(&MEMORY), bases, 0u8..16, any::<bool>(), small()).prop_map(
            |(op, base, other, base_is_dst, imm)| {
                let regs = if base_is_dst {
                    base << 4 | other
                } else {
                    other << 4 | base
                };
                encode(op, regs, imm)
            },
        )
    };
    let alu = || {
        (of(&ALU), regs(), prop_oneof![small(), arb_addr()])
            .prop_map(|(op, regs, imm)| encode(op, regs, imm))
    };
    prop_oneof![
        any::<u64>(),
        (
            (0..any_opcode.len()).prop_map(move |i| any_opcode[i]),
            regs(),
            prop_oneof![small(), arb_addr(), any::<u64>()]
        )
            .prop_map(|(op, regs, imm)| encode(op, regs, imm)),
        alu(),
        alu(),
        alu(),
        (of(&BRANCH), 0u8..8, target()).prop_map(|(op, cond, imm)| encode(op, cond << 4, imm)),
        // Into the middle of a word on a page just fetched from.
        (of(&BRANCH), 0u8..8, target(), 1u64..8).prop_map(|(op, cond, imm, off)| encode(
            op,
            cond << 4,
            imm + off
        )),
        (of(&MEMORY), regs(), small()).prop_map(|(op, regs, imm)| encode(op, regs, imm)),
        // A new PTE into R8..R11, and one of those stored over a live PTE
        // through R12.
        (8u8..12, arb_pte()).prop_map(|(dst, pte)| encode(Opcode::MovImm, dst << 4, pte)),
        (8u8..12, 0u64..2).prop_map(|(src, page)| encode(Opcode::Store, 12 << 4 | src, page * 8)),
        // Through R14 (data) or R15 (the writable text, at its loaded
        // words), and as often through R13 (the page-mapped data, just
        // below its page boundary).
        through(14..16),
        through(13..14),
    ]
}

fn arb_mode() -> impl Strategy<Value = Mode> {
    prop_oneof![
        Just(Mode::Host),
        (0u16..3, 0u16..2).prop_map(|(dom, vcpu)| Mode::Guest { dom, vcpu }),
    ]
}

/// `(max_steps, cycle_deadline relative to the cycle counter at the start
/// of the segment)`; a deadline at or below zero has already passed.
fn arb_segment() -> impl Strategy<Value = (u64, i64)> {
    (
        prop_oneof![0u64..4, 1u64..80, 1u64..80, 1u64..80],
        prop_oneof![
            Just(i64::MAX),
            Just(i64::MAX),
            Just(i64::MAX),
            1i64..200,
            1i64..200,
            -50i64..1
        ],
    )
}

/// `run`, written out over `step`.
fn run_by_steps(
    m: &mut Machine,
    cpu: usize,
    max_steps: u64,
    cycle_deadline: u64,
) -> (u64, Option<Event>) {
    let mut steps = 0;
    while steps < max_steps && m.cpu(cpu).cycles < cycle_deadline {
        steps += 1;
        if let StepOutcome::Event(e) = m.step(cpu) {
            return (steps, Some(e));
        }
    }
    (steps, None)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn run_is_a_loop_of_steps(
        text in proptest::collection::vec(arb_word(), 1..48),
        text_at in 0..LOAD_AT.len(),
        stub in proptest::collection::vec(arb_word(), STUB_WORDS),
        smc in proptest::collection::vec(arb_word(), 1..16),
        regs in proptest::collection::vec(arb_addr(), 16),
        ptes in proptest::collection::vec(arb_pte(), 4),
        rip in arb_addr(),
        rflags in any::<u64>(),
        mode in arb_mode(),
        hvm in any::<bool>(),
        cpu in 0usize..2,
        cycles0 in 0u64..100,
        pmu_on in any::<bool>(),
        segments in proptest::collection::vec(arb_segment(), 1..6),
    ) {
        let virt = if hvm { VirtMode::Hvm } else { VirtMode::Para };
        let mut mem = memory();
        // The same arbitrary words at each place a branch or a VM exit may
        // land; `rip` may or may not start on one.
        for at in LOAD_AT {
            let n = text.len().min(TEXT_WORDS - at);
            mem.load_image(TEXT + at as u64 * 8, &text[..n]).unwrap();
        }
        let text_at = LOAD_AT[text_at];
        mem.load_image(STUB, &stub).unwrap();
        mem.load_image(SMC, &smc).unwrap();
        let mut by_run = Machine::new(config(virt), mem, 11);
        {
            let c = by_run.cpu_mut(cpu);
            for (r, &v) in Reg::ALL.iter().zip(&regs) {
                c.set(*r, v);
            }
            // Registers a memory operation can rely on, and PTEs to store
            // through the one that points at the page table.
            for (r, &pte) in [Reg::R8, Reg::R9, Reg::R10, Reg::R11].iter().zip(&ptes) {
                c.set(*r, pte);
            }
            c.set(Reg::R12, PTBL);
            c.set(Reg::R13, PAGED + PAGE_BYTES - 0x80);
            c.set(Reg::R14, DATA + 0x400);
            c.set(Reg::R15, SMC);
            // Mostly start on the loaded words, else wherever.
            c.rip = if rflags & 3 != 0 { TEXT + text_at as u64 * 8 } else { rip };
            c.rflags = rflags;
            c.mode = mode;
            c.cycles = cycles0;
            if pmu_on {
                c.perf.start();
            }
        }
        let mut by_step = by_run.clone();

        for (max_steps, rel_deadline) in segments {
            let deadline = by_run.cpu(cpu).cycles.saturating_add_signed(rel_deadline);
            let got = by_run.run(cpu, max_steps, deadline);
            let want = run_by_steps(&mut by_step, cpu, max_steps, deadline);
            prop_assert_eq!(got, want, "max_steps {} deadline {}", max_steps, deadline);
            prop_assert!(got.0 <= max_steps);
            prop_assert!(by_run == by_step, "machines differ after {:?}", got);
            prop_assert_eq!(by_run.state_digest(), by_step.state_digest());
            // A host-mode fault leaves the CPU on the faulting instruction;
            // move both on, as a harness would, so later segments run.
            if let Some(Event::Exception(_) | Event::AssertFail { .. }) = got.1 {
                let resume = TEXT + (text_at as u64 + got.0) * 8;
                by_run.cpu_mut(cpu).rip = resume;
                by_step.cpu_mut(cpu).rip = resume;
            }
        }
    }
}

/// The stop conditions, one at a time, on code that would otherwise run on.
#[test]
fn run_stops_at_budget_deadline_and_event() {
    let mut mem = memory();
    let nops = vec![Insn::Nop.encode(); 10];
    mem.load_image(TEXT, &nops).unwrap();
    mem.load_image(TEXT + 80, &[Insn::Hlt.encode()]).unwrap();
    let m0 = Machine::new(config(VirtMode::Para), mem, 1);

    // Budget: exactly that many instructions, no event.
    let mut m = m0.clone();
    assert_eq!(m.run(0, 4, u64::MAX), (4, None));
    assert_eq!(m.cpu(0).rip, TEXT + 32);
    assert_eq!(m.run(0, 0, u64::MAX), (0, None));

    // Deadline: checked before each instruction; a NOP costs one cycle.
    let mut m = m0.clone();
    assert_eq!(m.run(0, 100, 3), (3, None));
    assert_eq!(m.cpu(0).cycles, 3);
    // Already passed: nothing runs.
    assert_eq!(m.run(0, 100, 3), (0, None));
    assert_eq!(m.run(0, 100, 0), (0, None));

    // Event: the instruction that produced it is counted.
    let mut m = m0.clone();
    assert_eq!(m.run(0, 100, u64::MAX), (11, Some(Event::Halt)));
}

// ---- What `run` remembers of its own text ---------------------------------

/// CPU 0 of a host-mode machine over `mem`, about to execute `rip` with
/// `regs` set.
fn host_at(mem: Memory, rip: u64, regs: &[(Reg, u64)]) -> Machine {
    let mut m = Machine::new(config(VirtMode::Para), mem, 3);
    let c = m.cpu_mut(0);
    c.rip = rip;
    for &(r, v) in regs {
        c.set(r, v);
    }
    m
}

/// One `run` of up to `max_steps` from `m0` against a loop of `step`s from
/// the same state: same count, same event (vector, `rip` and fault address
/// with it), `==` machines, equal digests. Returns the run side.
fn run_both_ways(m0: &Machine, max_steps: u64) -> (Machine, (u64, Option<Event>)) {
    let (mut by_run, mut by_step) = (m0.clone(), m0.clone());
    let got = by_run.run(0, max_steps, u64::MAX);
    let want = run_by_steps(&mut by_step, 0, max_steps, u64::MAX);
    assert_eq!(got, want);
    assert!(by_run == by_step, "machines differ after {got:?}");
    assert_eq!(by_run.state_digest(), by_step.state_digest());
    (by_run, got)
}

fn words(code: &[Insn]) -> Vec<u64> {
    code.iter().map(|i| i.encode()).collect()
}

const ADD_1: Insn = Insn::AddImm {
    dst: Reg::Rax,
    imm: 1,
};
const ADD_100: Insn = Insn::AddImm {
    dst: Reg::Rax,
    imm: 100,
};

/// `W: add rax, 1; <overwrite>; three times round; hlt` at the start of
/// the writable text, where `overwrite` puts R8 — `add rax, 100`, encoded
/// — over W. Every pass after the one that stored must execute the new W.
fn overwriting_loop(overwrite: &[Insn]) -> Vec<u64> {
    let mut code = vec![ADD_1];
    code.extend_from_slice(overwrite);
    code.extend([
        Insn::AddImm {
            dst: Reg::Rcx,
            imm: 1,
        },
        Insn::CmpImm {
            a: Reg::Rcx,
            imm: 3,
        },
        Insn::Jcc {
            cond: Cond::Lt,
            target: SMC,
        },
        Insn::Hlt,
    ]);
    assert!(code.len() <= SMC_WORDS);
    words(&code)
}

#[test]
fn a_store_over_an_executed_word_is_executed_next_time_round() {
    let store = [Insn::Store {
        base: Reg::R15,
        src: Reg::R8,
        off: 0,
    }];
    let push = [
        Insn::MovImm {
            dst: Reg::Rsp,
            imm: SMC as i64 + 8,
        },
        Insn::Push { src: Reg::R8 },
    ];
    for overwrite in [&store[..], &push[..]] {
        let mut mem = memory();
        mem.load_image(SMC, &overwriting_loop(overwrite)).unwrap();
        let m0 = host_at(mem, SMC, &[(Reg::R8, ADD_100.encode()), (Reg::R15, SMC)]);
        let (m, got) = run_both_ways(&m0, 100);
        assert_eq!(got.1, Some(Event::Halt), "{overwrite:?}");
        assert_eq!(m.cpu(0).get(Reg::Rax), 1 + 100 + 100, "{overwrite:?}");
    }
}

/// The same store through `PAGED`, whose PTE the loop itself points at the
/// writable text's frame: the first pass's store lands in plain data (and
/// leaves the data window remembering that it did), the second's on W.
#[test]
fn a_store_through_a_redirected_pte_onto_an_executed_word_is_seen() {
    let overwrite = [
        Insn::Store {
            base: Reg::R13,
            src: Reg::R8,
            off: 0,
        },
        Insn::Store {
            base: Reg::R12,
            src: Reg::R9,
            off: 0,
        },
    ];
    let mut mem = memory();
    mem.load_image(SMC, &overwriting_loop(&overwrite)).unwrap();
    let m0 = host_at(
        mem,
        SMC,
        &[
            (Reg::R8, ADD_100.encode()),
            (Reg::R9, SMC | PTE_PRESENT | PTE_RW),
            (Reg::R12, PTBL),
            (Reg::R13, PAGED),
        ],
    );
    let (m, got) = run_both_ways(&m0, 100);
    assert_eq!(got.1, Some(Event::Halt));
    assert_eq!(m.mem.peek(PAGED), Ok(ADD_100.encode()), "first pass");
    assert_eq!(m.mem.peek(SMC), Ok(ADD_100.encode()), "second pass");
    assert_eq!(m.cpu(0).get(Reg::Rax), 1 + 1 + 100);
}

/// `W: add rax, 1; call W` with the stack pointer just above W: the return
/// address the call pushes replaces W, and no address decodes.
#[test]
fn a_call_that_pushes_over_an_executed_word_finds_it_replaced() {
    let direct = Insn::Call { target: SMC };
    let indirect = Insn::CallReg { target: Reg::R8 };
    for call in [direct, indirect] {
        let mut mem = memory();
        mem.load_image(SMC, &words(&[ADD_1, call])).unwrap();
        let m0 = host_at(mem, SMC, &[(Reg::Rsp, SMC + 8), (Reg::R8, SMC)]);
        let (m, got) = run_both_ways(&m0, 100);
        let ud = Exception::at(Vector::InvalidOpcode, SMC);
        assert_eq!(got, (3, Some(Event::Exception(ud))), "{call:?}");
        assert_eq!(m.mem.peek(SMC), Ok(SMC + 16), "{call:?}");
    }
}

/// Two stretches of text that many bytes apart, executed turn and turn
/// about: for a table of `stride / 8` entries every word of one shares its
/// entry with a word of the other.
#[test]
fn addresses_that_share_a_table_entry_keep_their_own_instructions() {
    for stride in [0x100u64, 0x200, 0x400, 0x800, 0x1000, 0x2000] {
        let (here, there) = (TEXT, TEXT + stride);
        let mut mem = memory();
        mem.load_image(here, &words(&[ADD_1, Insn::Jmp { target: there }]))
            .unwrap();
        let far = [
            ADD_100,
            Insn::AddImm {
                dst: Reg::Rcx,
                imm: 1,
            },
            Insn::CmpImm {
                a: Reg::Rcx,
                imm: 3,
            },
            Insn::Jcc {
                cond: Cond::Lt,
                target: here,
            },
            Insn::Hlt,
        ];
        mem.load_image(there, &words(&far)).unwrap();
        let (m, got) = run_both_ways(&host_at(mem, here, &[]), 100);
        assert_eq!(got.1, Some(Event::Halt), "stride {stride:#x}");
        assert_eq!(m.cpu(0).get(Reg::Rax), 3 * 101, "stride {stride:#x}");
    }
}

/// An indirect jump into the middle of a word that has just been executed
/// is an alignment fault at that address, not the word again.
#[test]
fn a_jump_beside_an_executed_address_faults_there() {
    for off in 1..8 {
        let mut mem = memory();
        let code = [ADD_1, Insn::JmpReg { target: Reg::R8 }];
        mem.load_image(TEXT, &words(&code)).unwrap();
        let (_, got) = run_both_ways(&host_at(mem, TEXT, &[(Reg::R8, TEXT + off)]), 100);
        match got {
            (3, Some(Event::Exception(e))) => {
                assert_eq!(
                    (e.vector, e.rip, e.addr),
                    (Vector::AlignmentCheck, TEXT + off, Some(TEXT + off))
                );
            }
            other => panic!("+{off}: expected #AC, got {other:?}"),
        }
    }
}

/// A run that starts at an address a fresh table's entries could be tagged
/// with — the lowest addresses, where nothing is mapped by convention —
/// fetches like any other: the word that is there when a region is, a fetch
/// fault when none is, in host and in guest mode.
#[test]
fn a_run_from_the_lowest_addresses_fetches_what_is_there() {
    const LOW_WORDS: u64 = 1024;
    let mut low = memory();
    low.map("low", 0, LOW_WORDS as usize + 1, Perms::RX);
    let code: Vec<Insn> = (0..LOW_WORDS)
        .map(|w| Insn::MovImm {
            dst: Reg::Rax,
            imm: 0x1000 + w as i64,
        })
        .chain([Insn::Hlt])
        .collect();
    low.load_image(0, &words(&code)).unwrap();
    let none = memory();

    for w in 0..LOW_WORDS {
        let rip = w * 8;
        let (m, got) = run_both_ways(&host_at(low.clone(), rip, &[]), 1);
        assert_eq!(got, (1, None), "rip {rip:#x}");
        assert_eq!(m.cpu(0).get(Reg::Rax), 0x1000 + w, "rip {rip:#x}");

        let m0 = host_at(none.clone(), rip, &[]);
        let (_, got) = run_both_ways(&m0, 2);
        match got {
            (1, Some(Event::Exception(e))) => {
                assert_eq!(
                    (e.vector, e.rip, e.addr),
                    (Vector::PageFault, rip, Some(rip))
                );
            }
            other => panic!("rip {rip:#x}: expected a fetch fault, got {other:?}"),
        }
        let mut guest = m0;
        guest.cpu_mut(0).mode = Mode::Guest { dom: 1, vcpu: 0 };
        let (_, got) = run_both_ways(&guest, 2);
        assert!(
            matches!(got, (1, Some(Event::VmExit(_)))),
            "rip {rip:#x}: {got:?}"
        );
    }
}
