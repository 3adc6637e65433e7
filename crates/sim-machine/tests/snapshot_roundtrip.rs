//! Snapshot round-trip properties: the campaign engine's checkpoint
//! forking is only sound if a restored snapshot is *indistinguishable*
//! from the machine that produced it. For arbitrary straight-line
//! programs (arithmetic, memory traffic, port I/O, workload noise) we
//! check that snapshot → continue → restore → re-run reproduces the
//! original continuation cycle-for-cycle — registers, memory digest,
//! performance counters and step outcomes — and that the sparse
//! [`sim_machine::MachineDelta`] reproduces the exact same state as a
//! full snapshot — and that `clone_from`, which the engine rebuilds its
//! forks with, is `clone` whatever machine it overwrites.

use proptest::prelude::*;
use sim_machine::{
    CycleModel, Insn, Machine, MachineConfig, Memory, Perms, Reg, StepOutcome, VirtMode,
};

const TEXT: u64 = 0x1000;
const DATA: u64 = 0x9000;
const DATA_WORDS: u64 = 64;

/// Base register pinned to the data region; generated instructions never
/// write it, so loads and stores always hit mapped, aligned memory.
const BASE: u8 = 15;

fn build_machine(prog: &[Insn], seed: u64) -> Machine {
    let cfg = MachineConfig {
        nr_cpus: 1,
        host_entry: TEXT,
        host_entry_stride: 0,
        host_stack_base: 0x2_0000,
        host_stack_size: 0x800,
        vmcs_base: 0x3_0000,
        virt_mode: VirtMode::Para,
        cycle_model: CycleModel::default(),
    };
    let mut mem = Memory::new();
    mem.map("text", TEXT, prog.len() + 1, Perms::RX);
    mem.map("data", DATA, DATA_WORDS as usize, Perms::RW);
    mem.map("stack", 0x2_0000, 0x100, Perms::RW);
    mem.map("vmcs", 0x3_0000, 16, Perms::RW);
    let mut words: Vec<u64> = prog.iter().map(|i| i.encode()).collect();
    words.push(Insn::Hlt.encode());
    mem.load_image(TEXT, &words).unwrap();
    let mut m = Machine::new(cfg, mem, seed);
    m.cpu_mut(0).set(Reg::from_index(BASE), DATA);
    m
}

/// A destination register that is not the pinned data base.
fn arb_dst() -> impl Strategy<Value = Reg> {
    (0u8..BASE).prop_map(Reg::from_index)
}

fn arb_src() -> impl Strategy<Value = Reg> {
    (0u8..16).prop_map(Reg::from_index)
}

/// Instructions that cannot fault in host mode with the base register
/// pinned: arithmetic, aligned in-bounds memory traffic, port I/O and
/// the per-site workload-noise source.
fn arb_straightline_insn() -> impl Strategy<Value = Insn> {
    prop_oneof![
        (arb_dst(), -4096i64..4096).prop_map(|(dst, imm)| Insn::MovImm { dst, imm }),
        (arb_dst(), arb_src()).prop_map(|(dst, src)| Insn::MovReg { dst, src }),
        (arb_dst(), arb_src()).prop_map(|(dst, src)| Insn::Add { dst, src }),
        (arb_dst(), -4096i64..4096).prop_map(|(dst, imm)| Insn::AddImm { dst, imm }),
        (arb_dst(), arb_src()).prop_map(|(dst, src)| Insn::Sub { dst, src }),
        (arb_dst(), arb_src()).prop_map(|(dst, src)| Insn::Mul { dst, src }),
        (arb_dst(), arb_src()).prop_map(|(dst, src)| Insn::Xor { dst, src }),
        (arb_dst(), 0u8..64).prop_map(|(dst, imm)| Insn::ShlImm { dst, imm }),
        (arb_dst(), 0u8..64).prop_map(|(dst, imm)| Insn::ShrImm { dst, imm }),
        (arb_src(), arb_src()).prop_map(|(a, b)| Insn::Cmp { a, b }),
        (arb_src(), -4096i64..4096).prop_map(|(a, imm)| Insn::CmpImm { a, imm }),
        (arb_dst(), 0u64..DATA_WORDS).prop_map(|(dst, w)| Insn::Load {
            dst,
            base: Reg::from_index(BASE),
            off: (w * 8) as i64,
        }),
        (arb_src(), 0u64..DATA_WORDS).prop_map(|(src, w)| Insn::Store {
            base: Reg::from_index(BASE),
            src,
            off: (w * 8) as i64,
        }),
        (any::<u16>(), arb_src()).prop_map(|(port, src)| Insn::Out { port, src }),
        (arb_dst(), any::<u16>()).prop_map(|(dst, port)| Insn::In { dst, port }),
        (arb_dst(), 1u64..100_000).prop_map(|(dst, bound)| Insn::Noise { dst, bound }),
        Just(Insn::Nop),
    ]
}

/// Everything an observer could compare after one step.
#[derive(Debug, PartialEq)]
struct StepObs {
    outcome: StepOutcome,
    regs: [u64; 16],
    rip: u64,
    rflags: u64,
    cycles: u64,
    insns_retired: u64,
    perf: sim_machine::PerfSample,
    mem_digest: u64,
    state_digest: u64,
}

fn observe(m: &Machine, outcome: StepOutcome) -> StepObs {
    let c = m.cpu(0);
    StepObs {
        outcome,
        regs: c.regs,
        rip: c.rip,
        rflags: c.rflags,
        cycles: c.cycles,
        insns_retired: c.insns_retired,
        perf: c.perf.sample(),
        mem_digest: m.mem.digest(),
        state_digest: m.state_digest(),
    }
}

fn run_observed(m: &mut Machine, steps: usize) -> Vec<StepObs> {
    (0..steps)
        .map(|_| {
            let o = m.step(0);
            observe(m, o)
        })
        .collect()
}

proptest! {
    /// snapshot → continue → restore → re-run: the restored machine's
    /// continuation must match the original cycle-for-cycle, and both
    /// must match a fresh machine run straight through.
    #[test]
    fn snapshot_restore_rerun_matches_cycle_for_cycle(
        prog in proptest::collection::vec(arb_straightline_insn(), 1..40),
        seed in any::<u64>(),
        cut in 0usize..40,
    ) {
        let cut = cut % (prog.len() + 1);
        let mut live = build_machine(&prog, seed);
        for _ in 0..cut {
            live.step(0);
        }
        let snap = live.snapshot();
        prop_assert_eq!(snap.state_digest(), live.state_digest());

        // Continue the live machine to completion (past Hlt is fine —
        // the observation captures whatever the step produced).
        let rest = prog.len() + 1 - cut;
        let live_obs = run_observed(&mut live, rest);

        // Restore and re-run: every observable matches at every step.
        let mut restored = snap.clone();
        let re_obs = run_observed(&mut restored, rest);
        prop_assert_eq!(&re_obs, &live_obs);

        // A fresh machine run straight through agrees too (the snapshot
        // didn't perturb the original execution).
        let mut fresh = build_machine(&prog, seed);
        let fresh_obs = run_observed(&mut fresh, prog.len() + 1);
        prop_assert_eq!(&fresh_obs[cut..], &live_obs[..]);
    }

    /// The sparse delta reproduces exactly the state a full snapshot
    /// holds: `base.apply_delta(later.delta_against(base))` is `later`.
    #[test]
    fn delta_round_trip_reproduces_full_snapshot(
        prog in proptest::collection::vec(arb_straightline_insn(), 1..40),
        seed in any::<u64>(),
        cut in 0usize..40,
    ) {
        let cut = cut % (prog.len() + 1);
        let mut m = build_machine(&prog, seed);
        for _ in 0..cut {
            m.step(0);
        }
        let base = m.snapshot();
        for _ in cut..prog.len() + 1 {
            m.step(0);
        }
        let delta = m.delta_against(&base);
        let mut rebuilt = base.clone();
        rebuilt.apply_delta(&delta);
        prop_assert_eq!(rebuilt.state_digest(), m.state_digest());
        prop_assert_eq!(rebuilt.mem.digest(), m.mem.digest());
        prop_assert!(rebuilt == m, "delta round trip diverged");
        // The delta is sparse: it never carries more words than the
        // program could have written.
        prop_assert!(delta.mem_words() <= prog.len() + 1);
    }

    /// `a.clone_from(&b)` is `a = b.clone()` whatever `a` held — an older
    /// state of `b`'s run, a sibling that ran on from one with other
    /// register contents, a machine with another program, memory map and
    /// seed: `a == b`, equal digests, a store to either is not seen by the
    /// other, and both continue cycle for cycle.
    #[test]
    fn clone_from_is_clone_whatever_it_overwrites(
        prog in proptest::collection::vec(arb_straightline_insn(), 1..40),
        seed in any::<u64>(),
        cut in 0usize..40,
        fork_at in 0usize..40,
        target in 0u8..3,
        other in proptest::collection::vec(arb_straightline_insn(), 1..40),
        scribble in any::<u64>(),
    ) {
        let cut = cut % (prog.len() + 1);
        let fork_at = fork_at % (cut + 1);
        let mut b = build_machine(&prog, seed);
        run_observed(&mut b, fork_at);
        let mut a = b.clone();
        run_observed(&mut b, cut - fork_at);
        match target {
            // An older state of the same run.
            0 => {}
            // A sibling: on from the fork with scribbled registers, so it
            // stores, draws noise and does port I/O that `b` never did.
            1 => {
                for r in 0..BASE {
                    a.cpu_mut(0).set(Reg::from_index(r), scribble.rotate_left(r as u32));
                }
                run_observed(&mut a, prog.len() + 1 - fork_at);
            }
            // Nothing to do with `b`: nothing of it can be kept.
            _ => {
                a = build_machine(&other, !seed);
                run_observed(&mut a, other.len());
            }
        }

        a.clone_from(&b);
        prop_assert!(a == b, "clone_from left a difference");
        prop_assert_eq!(a.state_digest(), b.state_digest());
        prop_assert_eq!(a.mem.digest(), b.mem.digest());

        // A store to either side stays there.
        let digest = b.state_digest();
        let word = a.mem.peek(DATA).unwrap();
        a.mem.poke(DATA, !word).unwrap();
        prop_assert_eq!(b.state_digest(), digest, "the source saw a store to the copy");
        a.mem.poke(DATA, word).unwrap();
        b.mem.poke(DATA + 8, scribble).unwrap();
        prop_assert!(a.state_digest() == digest, "the copy saw a store to the source");
        a.mem.poke(DATA + 8, scribble).unwrap();

        let rest = prog.len() + 1 - cut;
        prop_assert_eq!(&run_observed(&mut a, rest), &run_observed(&mut b, rest));
    }

    /// serialize → deserialize rebuilds the page table and the pages from
    /// the flat per-region word arrays: the loaded machine has the same
    /// digest and its continuation matches the original step for step.
    #[test]
    fn serialized_machine_reloads_and_keeps_stepping(
        prog in proptest::collection::vec(arb_straightline_insn(), 1..40),
        seed in any::<u64>(),
        cut in 0usize..40,
    ) {
        let cut = cut % (prog.len() + 1);
        let mut live = build_machine(&prog, seed);
        for _ in 0..cut {
            live.step(0);
        }
        let json = serde_json::to_string(&live).unwrap();
        let mut loaded: Machine = serde_json::from_str(&json).unwrap();
        prop_assert_eq!(loaded.state_digest(), live.state_digest());
        prop_assert!(loaded == live, "reloaded machine differs");
        prop_assert_eq!(loaded.mem.regions(), live.mem.regions());

        let rest = prog.len() + 1 - cut;
        let live_obs = run_observed(&mut live, rest);
        let loaded_obs = run_observed(&mut loaded, rest);
        prop_assert_eq!(&loaded_obs, &live_obs);
    }
}

/// A memory image that cannot be a memory map is a typed error, not a
/// panic in `map`.
#[test]
fn overlapping_regions_in_a_serialized_machine_are_rejected() {
    let m = build_machine(&[Insn::Nop], 1);
    let json = serde_json::to_string(&m).unwrap();
    // Move "data" (0x9000) on top of "text" (0x1000).
    let bad = json.replacen("\"base\":36864", "\"base\":4096", 1);
    assert_ne!(bad, json, "fixture no longer matches the wire form");
    let err = serde_json::from_str::<Machine>(&bad).unwrap_err();
    assert!(err.to_string().contains("overlaps"), "{err}");
}
