//! # sim-asm — assembler DSL for the simulated machine
//!
//! The Xen-like hypervisor of this reproduction is written *in simulated
//! code*, so that injected register faults propagate through genuine control
//! flow, memory traffic and performance-counter footprints. This crate is
//! the assembler those handlers are written in: a builder that emits
//! [`sim_machine::Insn`] words, resolves labels to absolute addresses, and
//! produces a loadable image plus a symbol table.
//!
//! ```
//! use sim_asm::Asm;
//! use sim_machine::Reg;
//!
//! let mut a = Asm::new(0x1_0000);
//! a.global("memset_loop");
//! a.movi(Reg::Rcx, 4);            // counter
//! a.label("loop");
//! a.store(Reg::Rdi, 0, Reg::Rax); // *rdi = rax
//! a.addi(Reg::Rdi, 8);
//! a.subi(Reg::Rcx, 1);
//! a.cmpi(Reg::Rcx, 0);
//! a.jne("loop");
//! a.ret();
//! let img = a.assemble().unwrap();
//! assert_eq!(img.symbol("memset_loop"), Some(0x1_0000));
//! ```

use sim_machine::{Cond, Insn, Reg};
use std::collections::HashMap;

/// A branch target: either an absolute address or a label resolved at
/// assembly time.
#[derive(Debug, Clone)]
pub enum Target {
    Abs(u64),
    Label(String),
}

impl From<u64> for Target {
    fn from(a: u64) -> Target {
        Target::Abs(a)
    }
}

impl From<&str> for Target {
    fn from(l: &str) -> Target {
        Target::Label(l.to_string())
    }
}

impl From<String> for Target {
    fn from(l: String) -> Target {
        Target::Label(l)
    }
}

/// Assembly errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AsmError {
    /// A label was referenced but never defined.
    UndefinedLabel(String),
    /// A label was defined twice.
    DuplicateLabel(String),
}

impl std::fmt::Display for AsmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AsmError::UndefinedLabel(l) => write!(f, "undefined label: {l}"),
            AsmError::DuplicateLabel(l) => write!(f, "duplicate label: {l}"),
        }
    }
}

impl std::error::Error for AsmError {}

/// An instruction slot, possibly with an unresolved target.
#[derive(Debug, Clone)]
enum Slot {
    Ready(Insn),
    Jmp(Target),
    Jcc(Cond, Target),
    Call(Target),
    /// `movi reg, <label address>` — for loading handler addresses into
    /// dispatch tables.
    MovLabel(Reg, Target),
}

/// An assembled image: contiguous instruction words at `base`, plus the
/// symbol table (label → absolute byte address).
#[derive(Debug, Clone)]
pub struct Image {
    pub base: u64,
    pub words: Vec<u64>,
    pub symbols: HashMap<String, u64>,
}

impl Image {
    /// Address of a label, if defined.
    pub fn symbol(&self, name: &str) -> Option<u64> {
        self.symbols.get(name).copied()
    }

    /// Address of a label; panics with the label name if missing (loader
    /// convenience).
    pub fn sym(&self, name: &str) -> u64 {
        *self
            .symbols
            .get(name)
            .unwrap_or_else(|| panic!("undefined symbol: {name}"))
    }

    /// Size in words.
    pub fn len(&self) -> usize {
        self.words.len()
    }

    /// Whether the image is empty.
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }
}

/// The assembler builder.
#[derive(Debug, Clone)]
pub struct Asm {
    base: u64,
    slots: Vec<Slot>,
    labels: HashMap<String, u64>,
    unique: u64,
}

impl Asm {
    /// Start assembling at byte address `base` (must be 8-aligned).
    pub fn new(base: u64) -> Asm {
        assert_eq!(base % 8, 0, "code base must be word aligned");
        Asm {
            base,
            slots: Vec::new(),
            labels: HashMap::new(),
            unique: 0,
        }
    }

    /// Current emission address.
    pub fn here(&self) -> u64 {
        self.base + (self.slots.len() as u64) * 8
    }

    /// Define a label at the current address.
    pub fn label(&mut self, name: impl Into<String>) {
        let name = name.into();
        let addr = self.here();
        if self.labels.insert(name.clone(), addr).is_some() {
            panic!("duplicate label: {name}");
        }
    }

    /// Alias of [`Asm::label`] that reads better at procedure heads.
    pub fn global(&mut self, name: impl Into<String>) {
        self.label(name);
    }

    /// Generate a fresh label name with the given prefix (for loop bodies in
    /// helper-generated code).
    pub fn fresh(&mut self, prefix: &str) -> String {
        self.unique += 1;
        format!("{prefix}${}", self.unique)
    }

    fn emit(&mut self, i: Insn) {
        self.slots.push(Slot::Ready(i));
    }

    // ---- data movement ----
    pub fn movi(&mut self, dst: Reg, imm: i64) {
        self.emit(Insn::MovImm { dst, imm });
    }
    pub fn mov(&mut self, dst: Reg, src: Reg) {
        self.emit(Insn::MovReg { dst, src });
    }
    /// `dst <- address of label` (resolved at assembly).
    pub fn lea(&mut self, dst: Reg, target: impl Into<Target>) {
        self.slots.push(Slot::MovLabel(dst, target.into()));
    }
    pub fn load(&mut self, dst: Reg, base: Reg, off: i64) {
        self.emit(Insn::Load { dst, base, off });
    }
    pub fn store(&mut self, base: Reg, off: i64, src: Reg) {
        self.emit(Insn::Store { base, src, off });
    }

    // ---- arithmetic / logic ----
    pub fn add(&mut self, dst: Reg, src: Reg) {
        self.emit(Insn::Add { dst, src });
    }
    pub fn addi(&mut self, dst: Reg, imm: i64) {
        self.emit(Insn::AddImm { dst, imm });
    }
    pub fn sub(&mut self, dst: Reg, src: Reg) {
        self.emit(Insn::Sub { dst, src });
    }
    pub fn subi(&mut self, dst: Reg, imm: i64) {
        self.emit(Insn::SubImm { dst, imm });
    }
    pub fn mul(&mut self, dst: Reg, src: Reg) {
        self.emit(Insn::Mul { dst, src });
    }
    pub fn div(&mut self, dst: Reg, src: Reg) {
        self.emit(Insn::Div { dst, src });
    }
    pub fn rem(&mut self, dst: Reg, src: Reg) {
        self.emit(Insn::Rem { dst, src });
    }
    pub fn and(&mut self, dst: Reg, src: Reg) {
        self.emit(Insn::And { dst, src });
    }
    pub fn or(&mut self, dst: Reg, src: Reg) {
        self.emit(Insn::Or { dst, src });
    }
    pub fn xor(&mut self, dst: Reg, src: Reg) {
        self.emit(Insn::Xor { dst, src });
    }
    pub fn shl(&mut self, dst: Reg, imm: u8) {
        self.emit(Insn::ShlImm { dst, imm });
    }
    pub fn shr(&mut self, dst: Reg, imm: u8) {
        self.emit(Insn::ShrImm { dst, imm });
    }

    // ---- compare / branch ----
    pub fn cmp(&mut self, a: Reg, b: Reg) {
        self.emit(Insn::Cmp { a, b });
    }
    pub fn cmpi(&mut self, a: Reg, imm: i64) {
        self.emit(Insn::CmpImm { a, imm });
    }
    pub fn test(&mut self, a: Reg, b: Reg) {
        self.emit(Insn::Test { a, b });
    }
    pub fn jmp(&mut self, t: impl Into<Target>) {
        self.slots.push(Slot::Jmp(t.into()));
    }
    pub fn jcc(&mut self, cond: Cond, t: impl Into<Target>) {
        self.slots.push(Slot::Jcc(cond, t.into()));
    }
    pub fn je(&mut self, t: impl Into<Target>) {
        self.jcc(Cond::Eq, t);
    }
    pub fn jne(&mut self, t: impl Into<Target>) {
        self.jcc(Cond::Ne, t);
    }
    pub fn jl(&mut self, t: impl Into<Target>) {
        self.jcc(Cond::Lt, t);
    }
    pub fn jge(&mut self, t: impl Into<Target>) {
        self.jcc(Cond::Ge, t);
    }
    pub fn jg(&mut self, t: impl Into<Target>) {
        self.jcc(Cond::Gt, t);
    }
    pub fn jle(&mut self, t: impl Into<Target>) {
        self.jcc(Cond::Le, t);
    }
    pub fn jb(&mut self, t: impl Into<Target>) {
        self.jcc(Cond::B, t);
    }
    pub fn jae(&mut self, t: impl Into<Target>) {
        self.jcc(Cond::Ae, t);
    }
    pub fn call(&mut self, t: impl Into<Target>) {
        self.slots.push(Slot::Call(t.into()));
    }
    pub fn callr(&mut self, r: Reg) {
        self.emit(Insn::CallReg { target: r });
    }
    pub fn ret(&mut self) {
        self.emit(Insn::Ret);
    }
    pub fn push(&mut self, r: Reg) {
        self.emit(Insn::Push { src: r });
    }
    pub fn pop(&mut self, r: Reg) {
        self.emit(Insn::Pop { dst: r });
    }

    // ---- system ----
    pub fn cpuid(&mut self) {
        self.emit(Insn::Cpuid);
    }
    pub fn rdtsc(&mut self) {
        self.emit(Insn::Rdtsc);
    }
    pub fn hypercall(&mut self, nr: u8) {
        self.emit(Insn::Hypercall { nr });
    }
    pub fn vmentry(&mut self) {
        self.emit(Insn::VmEntry);
    }
    pub fn hlt(&mut self) {
        self.emit(Insn::Hlt);
    }
    pub fn nop(&mut self) {
        self.emit(Insn::Nop);
    }
    pub fn assert_fail(&mut self, id: u16) {
        self.emit(Insn::AssertFail { id });
    }
    pub fn out(&mut self, port: u16, src: Reg) {
        self.emit(Insn::Out { port, src });
    }
    pub fn inp(&mut self, dst: Reg, port: u16) {
        self.emit(Insn::In { dst, port });
    }
    pub fn noise(&mut self, dst: Reg, bound: u64) {
        self.emit(Insn::Noise { dst, bound });
    }

    // ---- software assertions (paper §III-A) ----

    /// Boundary assertion (paper Listing 1): fall through if
    /// `reg <= bound`, else hit `ASSERT_FAIL id`.
    pub fn assert_le(&mut self, reg: Reg, bound: i64, id: u16) {
        let ok = self.fresh("assert_ok");
        self.cmpi(reg, bound);
        self.jle(ok.clone());
        self.assert_fail(id);
        self.label(ok);
    }

    /// Range assertion: `lo <= reg <= hi`.
    pub fn assert_in_range(&mut self, reg: Reg, lo: i64, hi: i64, id: u16) {
        let ok = self.fresh("assert_ok");
        let fail = self.fresh("assert_fail");
        self.cmpi(reg, lo);
        self.jl(fail.clone());
        self.cmpi(reg, hi);
        self.jle(ok.clone());
        self.label(fail);
        self.assert_fail(id);
        self.label(ok);
    }

    /// Condition assertion (paper Listing 2 style): caller set flags; fall
    /// through if `cond` holds, else `ASSERT_FAIL id`.
    pub fn assert_cond(&mut self, cond: Cond, id: u16) {
        let ok = self.fresh("assert_ok");
        self.jcc(cond, ok.clone());
        self.assert_fail(id);
        self.label(ok);
    }

    /// Non-zero assertion.
    pub fn assert_nonzero(&mut self, reg: Reg, id: u16) {
        self.cmpi(reg, 0);
        self.assert_cond(Cond::Ne, id);
    }

    /// Resolve all labels and produce the image.
    pub fn assemble(self) -> Result<Image, AsmError> {
        let resolve = |t: &Target| -> Result<u64, AsmError> {
            match t {
                Target::Abs(a) => Ok(*a),
                Target::Label(l) => self
                    .labels
                    .get(l)
                    .copied()
                    .ok_or_else(|| AsmError::UndefinedLabel(l.clone())),
            }
        };
        let mut words = Vec::with_capacity(self.slots.len());
        for slot in &self.slots {
            let insn = match slot {
                Slot::Ready(i) => *i,
                Slot::Jmp(t) => Insn::Jmp {
                    target: resolve(t)?,
                },
                Slot::Jcc(c, t) => Insn::Jcc {
                    cond: *c,
                    target: resolve(t)?,
                },
                Slot::Call(t) => Insn::Call {
                    target: resolve(t)?,
                },
                Slot::MovLabel(r, t) => Insn::MovImm {
                    dst: *r,
                    imm: resolve(t)? as i64,
                },
            };
            words.push(insn.encode());
        }
        Ok(Image {
            base: self.base,
            words,
            symbols: self.labels,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_machine::{CycleModel, Event, Machine, MachineConfig, Memory, Perms, VirtMode};

    fn machine_with(img: &Image) -> Machine {
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
        mem.map("data", 0x4_0000, 256, Perms::RW);
        mem.load_image(img.base, &img.words).unwrap();
        Machine::new(cfg, mem, 1)
    }

    fn run(m: &mut Machine, max: u64) -> Option<Event> {
        m.run(0, max, u64::MAX).1
    }

    #[test]
    fn label_resolution_forward_and_backward() {
        let mut a = Asm::new(0x1_0000);
        a.jmp("fwd"); // forward reference
        a.label("back");
        a.movi(Reg::Rax, 1);
        a.hlt();
        a.label("fwd");
        a.jmp("back"); // backward reference
        let img = a.assemble().unwrap();
        let mut m = machine_with(&img);
        let ev = run(&mut m, 10);
        assert_eq!(ev, Some(Event::Halt));
        assert_eq!(m.cpu(0).get(Reg::Rax), 1);
    }

    #[test]
    fn undefined_label_is_error() {
        let mut a = Asm::new(0x1_0000);
        a.jmp("nowhere");
        assert_eq!(
            a.assemble().unwrap_err(),
            AsmError::UndefinedLabel("nowhere".into())
        );
    }

    #[test]
    #[should_panic(expected = "duplicate label")]
    fn duplicate_label_panics() {
        let mut a = Asm::new(0x1_0000);
        a.label("x");
        a.label("x");
    }

    #[test]
    fn loop_executes_expected_iterations() {
        let mut a = Asm::new(0x1_0000);
        a.movi(Reg::Rcx, 5);
        a.movi(Reg::Rax, 0);
        a.label("loop");
        a.addi(Reg::Rax, 3);
        a.subi(Reg::Rcx, 1);
        a.cmpi(Reg::Rcx, 0);
        a.jne("loop");
        a.hlt();
        let img = a.assemble().unwrap();
        let mut m = machine_with(&img);
        assert_eq!(run(&mut m, 100), Some(Event::Halt));
        assert_eq!(m.cpu(0).get(Reg::Rax), 15);
    }

    #[test]
    fn lea_loads_label_address() {
        let mut a = Asm::new(0x1_0000);
        a.lea(Reg::Rax, "func");
        a.callr(Reg::Rax);
        a.hlt();
        a.label("func");
        a.movi(Reg::Rbx, 9);
        a.ret();
        let img = a.assemble().unwrap();
        assert_eq!(img.sym("func"), 0x1_0000 + 3 * 8);
        let mut m = machine_with(&img);
        assert_eq!(run(&mut m, 10), Some(Event::Halt));
        assert_eq!(m.cpu(0).get(Reg::Rbx), 9);
    }

    #[test]
    fn assert_le_passes_in_bounds() {
        let mut a = Asm::new(0x1_0000);
        a.movi(Reg::Rax, 19);
        a.assert_le(Reg::Rax, 19, 1);
        a.hlt();
        let img = a.assemble().unwrap();
        let mut m = machine_with(&img);
        assert_eq!(run(&mut m, 10), Some(Event::Halt));
    }

    #[test]
    fn assert_le_fires_out_of_bounds() {
        let mut a = Asm::new(0x1_0000);
        a.movi(Reg::Rax, 20);
        a.assert_le(Reg::Rax, 19, 7);
        a.hlt();
        let img = a.assemble().unwrap();
        let mut m = machine_with(&img);
        match run(&mut m, 10) {
            Some(Event::AssertFail { id: 7, .. }) => {}
            other => panic!("expected assert 7, got {other:?}"),
        }
    }

    #[test]
    fn assert_in_range_boundaries() {
        for (val, fires) in [(4i64, true), (5, false), (9, false), (10, true)] {
            let mut a = Asm::new(0x1_0000);
            a.movi(Reg::Rax, val);
            a.assert_in_range(Reg::Rax, 5, 9, 3);
            a.hlt();
            let img = a.assemble().unwrap();
            let mut m = machine_with(&img);
            let ev = run(&mut m, 12);
            if fires {
                assert!(
                    matches!(ev, Some(Event::AssertFail { id: 3, .. })),
                    "val={val}: expected assertion, got {ev:?}"
                );
            } else {
                assert_eq!(ev, Some(Event::Halt), "val={val}");
            }
        }
    }

    #[test]
    fn assert_nonzero_behaviour() {
        let mut a = Asm::new(0x1_0000);
        a.movi(Reg::Rbx, 0);
        a.assert_nonzero(Reg::Rbx, 11);
        a.hlt();
        let img = a.assemble().unwrap();
        let mut m = machine_with(&img);
        assert!(matches!(
            run(&mut m, 10),
            Some(Event::AssertFail { id: 11, .. })
        ));
    }

    #[test]
    fn fresh_labels_are_unique() {
        let mut a = Asm::new(0x1_0000);
        let l1 = a.fresh("x");
        let l2 = a.fresh("x");
        assert_ne!(l1, l2);
    }

    #[test]
    fn here_tracks_emission() {
        let mut a = Asm::new(0x1_0000);
        assert_eq!(a.here(), 0x1_0000);
        a.nop();
        a.nop();
        assert_eq!(a.here(), 0x1_0010);
    }

    #[test]
    fn image_symbol_lookup() {
        let mut a = Asm::new(0x8000);
        a.nop();
        a.label("mid");
        a.nop();
        let img = a.assemble().unwrap();
        assert_eq!(img.symbol("mid"), Some(0x8008));
        assert_eq!(img.symbol("missing"), None);
        assert_eq!(img.len(), 2);
    }
}
