//! Property tests for the assembler: label resolution, image layout and
//! executable correctness of generated programs.

use proptest::prelude::*;
use sim_asm::Asm;
use sim_machine::{CycleModel, Event, Insn, Machine, MachineConfig, Memory, Perms, Reg, VirtMode};

fn machine_for(img: &sim_asm::Image) -> Machine {
    let cfg = MachineConfig {
        nr_cpus: 1,
        host_entry: img.base,
        host_entry_stride: 0,
        host_stack_base: 0x2_0000,
        host_stack_size: 0x1000,
        vmcs_base: 0x3_0000,
        virt_mode: VirtMode::Para,
        cycle_model: CycleModel::default(),
    };
    let mut mem = Memory::new();
    mem.map("text", img.base, img.words.len().max(1), Perms::RX);
    mem.map("stack", 0x2_0000, 512, Perms::RW);
    mem.map("vmcs", 0x3_0000, 16, Perms::RW);
    mem.load_image(img.base, &img.words).unwrap();
    Machine::new(cfg, mem, 3)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A chain of `movi` + `addi` computes the same sum the host computes.
    #[test]
    fn straightline_arithmetic_matches_host(values in proptest::collection::vec(-1000i64..1000, 1..40)) {
        let mut a = Asm::new(0x1_0000);
        a.movi(Reg::Rax, 0);
        for &v in &values {
            a.addi(Reg::Rax, v);
        }
        a.hlt();
        let img = a.assemble().unwrap();
        let mut m = machine_for(&img);
        let halt = m.run(0, values.len() as u64 + 3, u64::MAX).1;
        prop_assert_eq!(halt, Some(Event::Halt));
        let expect = values.iter().sum::<i64>() as u64;
        prop_assert_eq!(m.cpu(0).get(Reg::Rax), expect);
    }

    /// Counted loops execute exactly the requested number of iterations.
    #[test]
    fn counted_loop_iterates_exactly(n in 1i64..200) {
        let mut a = Asm::new(0x1_0000);
        a.movi(Reg::Rcx, n);
        a.movi(Reg::Rax, 0);
        a.label("l");
        a.addi(Reg::Rax, 1);
        a.subi(Reg::Rcx, 1);
        a.cmpi(Reg::Rcx, 0);
        a.jne("l");
        a.hlt();
        let img = a.assemble().unwrap();
        let mut m = machine_for(&img);
        let halt = m.run(0, n as u64 * 5 + 10, u64::MAX).1;
        prop_assert_eq!(halt, Some(Event::Halt));
        prop_assert_eq!(m.cpu(0).get(Reg::Rax) as i64, n);
    }

    /// Every emitted instruction decodes back from the image.
    #[test]
    fn image_words_decode(k in 1usize..60) {
        let mut a = Asm::new(0x8000);
        for i in 0..k {
            match i % 5 {
                0 => a.movi(Reg::Rax, i as i64),
                1 => a.addi(Reg::Rbx, 2),
                2 => a.push(Reg::Rcx),
                3 => a.pop(Reg::Rcx),
                _ => a.nop(),
            }
        }
        a.ret();
        let img = a.assemble().unwrap();
        prop_assert_eq!(img.len(), k + 1);
        for w in &img.words {
            prop_assert!(Insn::decode(*w).is_ok());
        }
    }

    /// Nested calls return correctly for any depth the stack can hold.
    #[test]
    fn nested_calls_balance(depth in 1usize..60) {
        let mut a = Asm::new(0x1_0000);
        a.call("f0");
        a.hlt();
        for d in 0..depth {
            a.label(format!("f{d}"));
            a.addi(Reg::Rax, 1);
            if d + 1 < depth {
                a.call(format!("f{}", d + 1));
            }
            a.ret();
        }
        let img = a.assemble().unwrap();
        let mut m = machine_for(&img);
        let halt = m.run(0, depth as u64 * 6 + 10, u64::MAX).1;
        prop_assert_eq!(halt, Some(Event::Halt), "program must halt");
        prop_assert_eq!(m.cpu(0).get(Reg::Rax), depth as u64);
        // Stack fully unwound.
        prop_assert_eq!(m.cpu(0).rsp(), m.config.host_stack_top(0));
    }
}
