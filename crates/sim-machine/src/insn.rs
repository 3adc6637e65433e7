//! Instruction set: encoding, decoding and disassembly.
//!
//! Every instruction occupies one 64-bit word:
//!
//! ```text
//!   63      56 55   52 51   48 47                                    0
//!  +----------+-------+-------+---------------------------------------+
//!  |  opcode  |  dst  |  src  |              imm48 (sign-ext)         |
//!  +----------+-------+-------+---------------------------------------+
//! ```
//!
//! Word encoding is what makes the fault model faithful: a corrupted `RIP`
//! that lands in a data region fetches arbitrary words, most of which fail to
//! decode (invalid opcode — the paper's canonical fatal corruption), while a
//! few decode into *valid but unintended* instructions — the paper's
//! "incorrect control flow" that only VM-transition detection can catch.

use crate::cpu::FlipTarget;
use crate::reg::{flags, Reg};
use serde::{Deserialize, Serialize};

/// Operation codes. The numeric values are part of the encoding and must not
/// change; gaps are intentionally left undefined so corrupted fetches raise
/// `#UD`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[repr(u8)]
pub enum Opcode {
    MovImm = 0x01,
    MovReg = 0x02,
    Load = 0x03,
    Store = 0x04,
    Add = 0x05,
    AddImm = 0x06,
    Sub = 0x07,
    SubImm = 0x08,
    Mul = 0x09,
    Div = 0x0A,
    Rem = 0x0B,
    And = 0x0C,
    Or = 0x0D,
    Xor = 0x0E,
    ShlImm = 0x0F,
    ShrImm = 0x10,
    Cmp = 0x11,
    CmpImm = 0x12,
    Test = 0x13,
    Jmp = 0x14,
    Jcc = 0x15,
    Call = 0x16,
    Ret = 0x17,
    Push = 0x18,
    Pop = 0x19,
    JmpReg = 0x1A,
    CallReg = 0x1B,
    Cpuid = 0x20,
    Rdtsc = 0x21,
    Hypercall = 0x22,
    VmEntry = 0x23,
    Hlt = 0x24,
    Nop = 0x25,
    AssertFail = 0x26,
    Out = 0x27,
    In = 0x28,
    Noise = 0x29,
}

impl Opcode {
    /// Decode an opcode byte.
    #[inline]
    pub fn from_u8(b: u8) -> Option<Opcode> {
        use Opcode::*;
        Some(match b {
            0x01 => MovImm,
            0x02 => MovReg,
            0x03 => Load,
            0x04 => Store,
            0x05 => Add,
            0x06 => AddImm,
            0x07 => Sub,
            0x08 => SubImm,
            0x09 => Mul,
            0x0A => Div,
            0x0B => Rem,
            0x0C => And,
            0x0D => Or,
            0x0E => Xor,
            0x0F => ShlImm,
            0x10 => ShrImm,
            0x11 => Cmp,
            0x12 => CmpImm,
            0x13 => Test,
            0x14 => Jmp,
            0x15 => Jcc,
            0x16 => Call,
            0x17 => Ret,
            0x18 => Push,
            0x19 => Pop,
            0x1A => JmpReg,
            0x1B => CallReg,
            0x20 => Cpuid,
            0x21 => Rdtsc,
            0x22 => Hypercall,
            0x23 => VmEntry,
            0x24 => Hlt,
            0x25 => Nop,
            0x26 => AssertFail,
            0x27 => Out,
            0x28 => In,
            0x29 => Noise,
            _ => return None,
        })
    }
}

/// Branch conditions for `Jcc`, encoded in the `dst` field.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[repr(u8)]
pub enum Cond {
    /// ZF == 1
    Eq = 0,
    /// ZF == 0
    Ne = 1,
    /// SF != OF (signed less-than)
    Lt = 2,
    /// SF == OF (signed greater-or-equal)
    Ge = 3,
    /// ZF == 0 && SF == OF (signed greater-than)
    Gt = 4,
    /// ZF == 1 || SF != OF (signed less-or-equal)
    Le = 5,
    /// CF == 1 (unsigned below)
    B = 6,
    /// CF == 0 (unsigned above-or-equal)
    Ae = 7,
}

impl Cond {
    /// Decode a condition from the 4-bit `dst` field; values 8..=15 are
    /// invalid encodings (raise `#UD` during decode).
    pub fn from_u8(b: u8) -> Option<Cond> {
        use Cond::*;
        Some(match b {
            0 => Eq,
            1 => Ne,
            2 => Lt,
            3 => Ge,
            4 => Gt,
            5 => Le,
            6 => B,
            7 => Ae,
            _ => return None,
        })
    }

    /// Mnemonic suffix (`je`, `jne`, ...).
    pub fn mnemonic(self) -> &'static str {
        match self {
            Cond::Eq => "je",
            Cond::Ne => "jne",
            Cond::Lt => "jl",
            Cond::Ge => "jge",
            Cond::Gt => "jg",
            Cond::Le => "jle",
            Cond::B => "jb",
            Cond::Ae => "jae",
        }
    }
}

/// A decoded instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Insn {
    /// `dst <- imm`
    MovImm {
        dst: Reg,
        imm: i64,
    },
    /// `dst <- src`
    MovReg {
        dst: Reg,
        src: Reg,
    },
    /// `dst <- mem[src + imm]`
    Load {
        dst: Reg,
        base: Reg,
        off: i64,
    },
    /// `mem[dst + imm] <- src`
    Store {
        base: Reg,
        src: Reg,
        off: i64,
    },
    /// `dst <- dst op src` (wrapping)
    Add {
        dst: Reg,
        src: Reg,
    },
    AddImm {
        dst: Reg,
        imm: i64,
    },
    Sub {
        dst: Reg,
        src: Reg,
    },
    SubImm {
        dst: Reg,
        imm: i64,
    },
    Mul {
        dst: Reg,
        src: Reg,
    },
    /// `dst <- dst / src`; `src == 0` raises `#DE`.
    Div {
        dst: Reg,
        src: Reg,
    },
    /// `dst <- dst % src`; `src == 0` raises `#DE`.
    Rem {
        dst: Reg,
        src: Reg,
    },
    And {
        dst: Reg,
        src: Reg,
    },
    Or {
        dst: Reg,
        src: Reg,
    },
    Xor {
        dst: Reg,
        src: Reg,
    },
    ShlImm {
        dst: Reg,
        imm: u8,
    },
    ShrImm {
        dst: Reg,
        imm: u8,
    },
    /// Set flags from `a - b`.
    Cmp {
        a: Reg,
        b: Reg,
    },
    CmpImm {
        a: Reg,
        imm: i64,
    },
    /// Set ZF/SF from `a & b`.
    Test {
        a: Reg,
        b: Reg,
    },
    /// Unconditional jump to absolute address `target`.
    Jmp {
        target: u64,
    },
    /// Conditional jump.
    Jcc {
        cond: Cond,
        target: u64,
    },
    /// Push return address, jump to `target`.
    Call {
        target: u64,
    },
    /// Pop return address into `RIP`.
    Ret,
    Push {
        src: Reg,
    },
    Pop {
        dst: Reg,
    },
    /// Indirect jump through a register (dispatch tables).
    JmpReg {
        target: Reg,
    },
    CallReg {
        target: Reg,
    },
    /// CPUID leaf in RAX; results written to RAX..RDX. Privileged-trapping in
    /// PV guest mode, direct-exiting in HVM guest mode, native in host mode.
    Cpuid,
    /// Cycle counter into RAX (low 32) / RDX (high 32). Trap/exit semantics
    /// mirror `Cpuid`.
    Rdtsc,
    /// Guest-only: request hypervisor service `nr`.
    Hypercall {
        nr: u8,
    },
    /// Host-only: resume the guest. Guest `RIP`/`RFLAGS` are loaded by
    /// "hardware" from the per-CPU VMCS block, mirroring Intel VMX, so the
    /// exit stub must have stored the (possibly updated) values there.
    VmEntry,
    Hlt,
    Nop,
    /// Host-only sink for failed software assertions; `id` names the
    /// assertion site. Never reached in error-free executions.
    AssertFail {
        id: u16,
    },
    /// Port output: port in imm, value in `src`.
    Out {
        port: u16,
        src: Reg,
    },
    /// Port input: port in imm, value to `dst`.
    In {
        dst: Reg,
        port: u16,
    },
    /// `dst <- prng() % max(imm,1)` — deterministic workload variability.
    Noise {
        dst: Reg,
        bound: u64,
    },
}

/// Why a word failed to decode. All decode failures surface as `#UD`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DecodeError {
    /// Unknown opcode byte.
    BadOpcode(u8),
    /// Opcode valid but an operand field uses an invalid encoding.
    BadOperand(u8),
}

/// A set of register classes, one bit each: the sixteen GPRs (bit
/// [`Reg::index`]), the RFLAGS condition bits [`flags::ALL`], every other
/// RFLAGS bit, and RIP. [`Insn::reg_uses`] answers in these.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegSet(u32);

impl RegSet {
    pub const EMPTY: RegSet = RegSet(0);
    /// The condition bits: every flag-setting instruction writes all of
    /// them, `Jcc` reads them.
    pub const COND: RegSet = RegSet(1 << 16);
    /// Every RFLAGS bit outside [`flags::ALL`]: only `VmEntry` writes them.
    pub const FLAGS_REST: RegSet = RegSet(1 << 17);
    pub const RIP: RegSet = RegSet(1 << 18);
    /// Every class.
    pub const ALL: RegSet = RegSet((1 << 19) - 1);

    /// One GPR.
    pub const fn gpr(r: Reg) -> RegSet {
        RegSet(1 << r as u32)
    }

    /// The union of two sets.
    pub const fn with(self, other: RegSet) -> RegSet {
        RegSet(self.0 | other.0)
    }

    /// Whether any class is in both sets.
    pub const fn meets(self, other: RegSet) -> bool {
        self.0 & other.0 != 0
    }

    /// The set as a bit mask, one bit per class, for set algebra the
    /// methods above do not offer.
    pub const fn bits(self) -> u32 {
        self.0
    }

    /// The class a [`Cpu::flip_bit`](crate::cpu::Cpu::flip_bit) of `bit`
    /// in `target` lands in.
    pub fn of_flip(target: FlipTarget, bit: u8) -> RegSet {
        match target {
            FlipTarget::Gpr(r) => RegSet::gpr(r),
            FlipTarget::Rip => RegSet::RIP,
            FlipTarget::Rflags if flags::ALL & 1 << (bit & 63) != 0 => RegSet::COND,
            FlipTarget::Rflags => RegSet::FLAGS_REST,
        }
    }
}

/// The register classes one instruction reads and writes, as it executes
/// in host mode ([`Insn::reg_uses`]). `reads` may say more than the
/// instruction reads; `writes` says nothing it does not overwrite whole
/// whenever it retires. So a class one instruction writes before anything
/// reads it holds nothing anyone will see.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegUses {
    pub reads: RegSet,
    pub writes: RegSet,
}

impl RegUses {
    /// What a shape the table does not list is taken to do: read
    /// everything, overwrite nothing.
    pub const UNKNOWN: RegUses = RegUses {
        reads: RegSet::ALL,
        writes: RegSet::EMPTY,
    };
}

const IMM_MASK: u64 = (1 << 48) - 1;

fn sext48(v: u64) -> i64 {
    ((v << 16) as i64) >> 16
}

impl Insn {
    /// Encode into a 64-bit word.
    pub fn encode(self) -> u64 {
        fn pack(op: Opcode, dst: u8, src: u8, imm: i64) -> u64 {
            ((op as u64) << 56)
                | (((dst & 0xf) as u64) << 52)
                | (((src & 0xf) as u64) << 48)
                | ((imm as u64) & IMM_MASK)
        }
        use Insn::*;
        match self {
            MovImm { dst, imm } => pack(Opcode::MovImm, dst as u8, 0, imm),
            MovReg { dst, src } => pack(Opcode::MovReg, dst as u8, src as u8, 0),
            Load { dst, base, off } => pack(Opcode::Load, dst as u8, base as u8, off),
            Store { base, src, off } => pack(Opcode::Store, base as u8, src as u8, off),
            Add { dst, src } => pack(Opcode::Add, dst as u8, src as u8, 0),
            AddImm { dst, imm } => pack(Opcode::AddImm, dst as u8, 0, imm),
            Sub { dst, src } => pack(Opcode::Sub, dst as u8, src as u8, 0),
            SubImm { dst, imm } => pack(Opcode::SubImm, dst as u8, 0, imm),
            Mul { dst, src } => pack(Opcode::Mul, dst as u8, src as u8, 0),
            Div { dst, src } => pack(Opcode::Div, dst as u8, src as u8, 0),
            Rem { dst, src } => pack(Opcode::Rem, dst as u8, src as u8, 0),
            And { dst, src } => pack(Opcode::And, dst as u8, src as u8, 0),
            Or { dst, src } => pack(Opcode::Or, dst as u8, src as u8, 0),
            Xor { dst, src } => pack(Opcode::Xor, dst as u8, src as u8, 0),
            ShlImm { dst, imm } => pack(Opcode::ShlImm, dst as u8, 0, imm as i64),
            ShrImm { dst, imm } => pack(Opcode::ShrImm, dst as u8, 0, imm as i64),
            Cmp { a, b } => pack(Opcode::Cmp, a as u8, b as u8, 0),
            CmpImm { a, imm } => pack(Opcode::CmpImm, a as u8, 0, imm),
            Test { a, b } => pack(Opcode::Test, a as u8, b as u8, 0),
            Jmp { target } => pack(Opcode::Jmp, 0, 0, target as i64),
            Jcc { cond, target } => pack(Opcode::Jcc, cond as u8, 0, target as i64),
            Call { target } => pack(Opcode::Call, 0, 0, target as i64),
            Ret => pack(Opcode::Ret, 0, 0, 0),
            Push { src } => pack(Opcode::Push, 0, src as u8, 0),
            Pop { dst } => pack(Opcode::Pop, dst as u8, 0, 0),
            JmpReg { target } => pack(Opcode::JmpReg, 0, target as u8, 0),
            CallReg { target } => pack(Opcode::CallReg, 0, target as u8, 0),
            Cpuid => pack(Opcode::Cpuid, 0, 0, 0),
            Rdtsc => pack(Opcode::Rdtsc, 0, 0, 0),
            Hypercall { nr } => pack(Opcode::Hypercall, 0, 0, nr as i64),
            VmEntry => pack(Opcode::VmEntry, 0, 0, 0),
            Hlt => pack(Opcode::Hlt, 0, 0, 0),
            Nop => pack(Opcode::Nop, 0, 0, 0),
            AssertFail { id } => pack(Opcode::AssertFail, 0, 0, id as i64),
            Out { port, src } => pack(Opcode::Out, 0, src as u8, port as i64),
            In { dst, port } => pack(Opcode::In, dst as u8, 0, port as i64),
            Noise { dst, bound } => pack(Opcode::Noise, dst as u8, 0, bound as i64),
        }
    }

    /// Decode a 64-bit word. Unknown opcodes and invalid operand encodings
    /// yield `Err`, which the CPU turns into `#UD`.
    #[inline]
    pub fn decode(word: u64) -> Result<Insn, DecodeError> {
        let opb = (word >> 56) as u8;
        let op = Opcode::from_u8(opb).ok_or(DecodeError::BadOpcode(opb))?;
        let d = ((word >> 52) & 0xf) as u8;
        let s = ((word >> 48) & 0xf) as u8;
        let rd = Reg::from_index(d);
        let rs = Reg::from_index(s);
        let imm = sext48(word & IMM_MASK);
        use Insn::*;
        Ok(match op {
            Opcode::MovImm => MovImm { dst: rd, imm },
            Opcode::MovReg => MovReg { dst: rd, src: rs },
            Opcode::Load => Load {
                dst: rd,
                base: rs,
                off: imm,
            },
            Opcode::Store => Store {
                base: rd,
                src: rs,
                off: imm,
            },
            Opcode::Add => Add { dst: rd, src: rs },
            Opcode::AddImm => AddImm { dst: rd, imm },
            Opcode::Sub => Sub { dst: rd, src: rs },
            Opcode::SubImm => SubImm { dst: rd, imm },
            Opcode::Mul => Mul { dst: rd, src: rs },
            Opcode::Div => Div { dst: rd, src: rs },
            Opcode::Rem => Rem { dst: rd, src: rs },
            Opcode::And => And { dst: rd, src: rs },
            Opcode::Or => Or { dst: rd, src: rs },
            Opcode::Xor => Xor { dst: rd, src: rs },
            Opcode::ShlImm => ShlImm {
                dst: rd,
                imm: (imm as u64 & 0x3f) as u8,
            },
            Opcode::ShrImm => ShrImm {
                dst: rd,
                imm: (imm as u64 & 0x3f) as u8,
            },
            Opcode::Cmp => Cmp { a: rd, b: rs },
            Opcode::CmpImm => CmpImm { a: rd, imm },
            Opcode::Test => Test { a: rd, b: rs },
            Opcode::Jmp => Jmp { target: imm as u64 },
            Opcode::Jcc => Jcc {
                cond: Cond::from_u8(d).ok_or(DecodeError::BadOperand(d))?,
                target: imm as u64,
            },
            Opcode::Call => Call { target: imm as u64 },
            Opcode::Ret => Ret,
            Opcode::Push => Push { src: rs },
            Opcode::Pop => Pop { dst: rd },
            Opcode::JmpReg => JmpReg { target: rs },
            Opcode::CallReg => CallReg { target: rs },
            Opcode::Cpuid => Cpuid,
            Opcode::Rdtsc => Rdtsc,
            Opcode::Hypercall => Hypercall {
                nr: (imm as u64 & 0xff) as u8,
            },
            Opcode::VmEntry => VmEntry,
            Opcode::Hlt => Hlt,
            Opcode::Nop => Nop,
            Opcode::AssertFail => AssertFail {
                id: (imm as u64 & 0xffff) as u16,
            },
            Opcode::Out => Out {
                port: (imm as u64 & 0xffff) as u16,
                src: rs,
            },
            Opcode::In => In {
                dst: rd,
                port: (imm as u64 & 0xffff) as u16,
            },
            Opcode::Noise => Noise {
                dst: rd,
                bound: imm as u64 & IMM_MASK,
            },
        })
    }

    /// True for instructions counted by the `BR_INST_RETIRED` performance
    /// event (all control transfers, taken or not, matching the x86 event
    /// the paper programs).
    pub fn is_branch(&self) -> bool {
        matches!(
            self,
            Insn::Jmp { .. }
                | Insn::Jcc { .. }
                | Insn::Call { .. }
                | Insn::Ret
                | Insn::JmpReg { .. }
                | Insn::CallReg { .. }
        )
    }

    /// Memory reads performed (for `MEM_INST_RETIRED.LOADS`).
    pub fn mem_reads(&self) -> u64 {
        match self {
            Insn::Load { .. } | Insn::Pop { .. } | Insn::Ret => 1,
            _ => 0,
        }
    }

    /// Memory writes performed (for `MEM_INST_RETIRED.STORES`).
    pub fn mem_writes(&self) -> u64 {
        match self {
            Insn::Store { .. } | Insn::Push { .. } | Insn::Call { .. } | Insn::CallReg { .. } => 1,
            _ => 0,
        }
    }

    /// The register classes this instruction reads and writes in host
    /// mode (see [`RegUses`]). Every instruction reads and writes RIP.
    /// `Hypercall`, `Hlt` and `AssertFail` are not listed: they read
    /// everything.
    pub fn reg_uses(&self) -> RegUses {
        use Insn::*;
        let g = RegSet::gpr;
        let (cond, rsp) = (RegSet::COND, g(Reg::Rsp));
        let (reads, writes) = match *self {
            MovImm { dst, .. } | In { dst, .. } | Noise { dst, .. } => (RegSet::EMPTY, g(dst)),
            MovReg { dst, src } => (g(src), g(dst)),
            Load { dst, base, .. } => (g(base), g(dst)),
            Store { base, src, .. } => (g(base).with(g(src)), RegSet::EMPTY),
            Add { dst, src }
            | Sub { dst, src }
            | And { dst, src }
            | Or { dst, src }
            | Xor { dst, src } => (g(dst).with(g(src)), g(dst).with(cond)),
            AddImm { dst, .. } | SubImm { dst, .. } | ShlImm { dst, .. } | ShrImm { dst, .. } => {
                (g(dst), g(dst).with(cond))
            }
            Mul { dst, src } | Div { dst, src } | Rem { dst, src } => (g(dst).with(g(src)), g(dst)),
            Cmp { a, b } | Test { a, b } => (g(a).with(g(b)), cond),
            CmpImm { a, .. } => (g(a), cond),
            Jmp { .. } | Nop => (RegSet::EMPTY, RegSet::EMPTY),
            Jcc { .. } => (cond, RegSet::EMPTY),
            Call { .. } | Ret => (rsp, rsp),
            CallReg { target } => (g(target).with(rsp), rsp),
            Push { src } => (g(src).with(rsp), rsp),
            Pop { dst } => (rsp, g(dst).with(rsp)),
            JmpReg { target } => (g(target), RegSet::EMPTY),
            Cpuid => (
                g(Reg::Rax),
                g(Reg::Rax)
                    .with(g(Reg::Rbx))
                    .with(g(Reg::Rcx))
                    .with(g(Reg::Rdx)),
            ),
            Rdtsc => (RegSet::EMPTY, g(Reg::Rax).with(g(Reg::Rdx))),
            Out { src, .. } => (g(src), RegSet::EMPTY),
            VmEntry => (RegSet::EMPTY, rsp.with(cond).with(RegSet::FLAGS_REST)),
            Hypercall { .. } | Hlt | AssertFail { .. } => return RegUses::UNKNOWN,
        };
        RegUses {
            reads: reads.with(RegSet::RIP),
            writes: writes.with(RegSet::RIP),
        }
    }

    /// Human-readable disassembly.
    pub fn disasm(&self) -> String {
        use Insn::*;
        match self {
            MovImm { dst, imm } => format!("mov {dst}, {imm:#x}"),
            MovReg { dst, src } => format!("mov {dst}, {src}"),
            Load { dst, base, off } => format!("mov {dst}, [{base}{off:+#x}]"),
            Store { base, src, off } => format!("mov [{base}{off:+#x}], {src}"),
            Add { dst, src } => format!("add {dst}, {src}"),
            AddImm { dst, imm } => format!("add {dst}, {imm:#x}"),
            Sub { dst, src } => format!("sub {dst}, {src}"),
            SubImm { dst, imm } => format!("sub {dst}, {imm:#x}"),
            Mul { dst, src } => format!("imul {dst}, {src}"),
            Div { dst, src } => format!("div {dst}, {src}"),
            Rem { dst, src } => format!("rem {dst}, {src}"),
            And { dst, src } => format!("and {dst}, {src}"),
            Or { dst, src } => format!("or {dst}, {src}"),
            Xor { dst, src } => format!("xor {dst}, {src}"),
            ShlImm { dst, imm } => format!("shl {dst}, {imm}"),
            ShrImm { dst, imm } => format!("shr {dst}, {imm}"),
            Cmp { a, b } => format!("cmp {a}, {b}"),
            CmpImm { a, imm } => format!("cmp {a}, {imm:#x}"),
            Test { a, b } => format!("test {a}, {b}"),
            Jmp { target } => format!("jmp {target:#x}"),
            Jcc { cond, target } => format!("{} {target:#x}", cond.mnemonic()),
            Call { target } => format!("call {target:#x}"),
            Ret => "ret".to_string(),
            Push { src } => format!("push {src}"),
            Pop { dst } => format!("pop {dst}"),
            JmpReg { target } => format!("jmp {target}"),
            CallReg { target } => format!("call {target}"),
            Cpuid => "cpuid".to_string(),
            Rdtsc => "rdtsc".to_string(),
            Hypercall { nr } => format!("hypercall {nr}"),
            VmEntry => "vmentry".to_string(),
            Hlt => "hlt".to_string(),
            Nop => "nop".to_string(),
            AssertFail { id } => format!("assert_fail {id}"),
            Out { port, src } => format!("out {port:#x}, {src}"),
            In { dst, port } => format!("in {dst}, {port:#x}"),
            Noise { dst, bound } => format!("noise {dst}, {bound}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_sample_insns() -> Vec<Insn> {
        use Insn::*;
        vec![
            MovImm {
                dst: Reg::Rax,
                imm: -5,
            },
            MovImm {
                dst: Reg::R15,
                imm: 0x7fff_ffff_ffff,
            },
            MovReg {
                dst: Reg::Rbx,
                src: Reg::Rcx,
            },
            Load {
                dst: Reg::Rdx,
                base: Reg::Rbp,
                off: -8,
            },
            Store {
                base: Reg::Rsp,
                src: Reg::Rdi,
                off: 16,
            },
            Add {
                dst: Reg::Rax,
                src: Reg::Rbx,
            },
            AddImm {
                dst: Reg::R9,
                imm: 1024,
            },
            Sub {
                dst: Reg::Rsi,
                src: Reg::R8,
            },
            SubImm {
                dst: Reg::R10,
                imm: -3,
            },
            Mul {
                dst: Reg::Rax,
                src: Reg::Rcx,
            },
            Div {
                dst: Reg::Rax,
                src: Reg::Rcx,
            },
            Rem {
                dst: Reg::Rdx,
                src: Reg::Rbx,
            },
            And {
                dst: Reg::Rax,
                src: Reg::R11,
            },
            Or {
                dst: Reg::Rax,
                src: Reg::R12,
            },
            Xor {
                dst: Reg::Rax,
                src: Reg::Rax,
            },
            ShlImm {
                dst: Reg::Rcx,
                imm: 3,
            },
            ShrImm {
                dst: Reg::Rcx,
                imm: 63,
            },
            Cmp {
                a: Reg::Rax,
                b: Reg::Rbx,
            },
            CmpImm {
                a: Reg::Rax,
                imm: 100,
            },
            Test {
                a: Reg::Rax,
                b: Reg::Rax,
            },
            Jmp { target: 0x10_0000 },
            Jcc {
                cond: Cond::Ne,
                target: 0x10_0008,
            },
            Call { target: 0x20_0000 },
            Ret,
            Push { src: Reg::Rbp },
            Pop { dst: Reg::Rbp },
            JmpReg { target: Reg::Rax },
            CallReg { target: Reg::R13 },
            Cpuid,
            Rdtsc,
            Hypercall { nr: 29 },
            VmEntry,
            Hlt,
            Nop,
            AssertFail { id: 7 },
            Out {
                port: 0x3f8,
                src: Reg::Rax,
            },
            In {
                dst: Reg::Rax,
                port: 0x60,
            },
            Noise {
                dst: Reg::Rcx,
                bound: 17,
            },
        ]
    }

    #[test]
    fn encode_decode_round_trips() {
        for insn in all_sample_insns() {
            let word = insn.encode();
            let back = Insn::decode(word).unwrap_or_else(|e| panic!("{insn:?}: {e:?}"));
            assert_eq!(back, insn, "round trip failed for {}", insn.disasm());
        }
    }

    #[test]
    fn zero_word_is_invalid_opcode() {
        assert_eq!(Insn::decode(0), Err(DecodeError::BadOpcode(0)));
    }

    #[test]
    fn small_data_values_fail_to_decode() {
        // Typical small integers stored in data regions must not decode:
        // they have opcode byte zero.
        for v in [1u64, 2, 100, 0xffff, 0xdead_beef] {
            assert!(Insn::decode(v).is_err(), "{v:#x} should not decode");
        }
    }

    #[test]
    fn invalid_jcc_condition_is_bad_operand() {
        // Build a Jcc word with condition field 12 (invalid).
        let word = ((Opcode::Jcc as u64) << 56) | (12u64 << 52) | 0x40;
        assert_eq!(Insn::decode(word), Err(DecodeError::BadOperand(12)));
    }

    #[test]
    fn negative_offsets_sign_extend() {
        let i = Insn::Load {
            dst: Reg::Rax,
            base: Reg::Rbp,
            off: -64,
        };
        match Insn::decode(i.encode()).unwrap() {
            Insn::Load { off, .. } => assert_eq!(off, -64),
            other => panic!("wrong decode: {other:?}"),
        }
    }

    #[test]
    fn branch_classification_matches_x86_event() {
        assert!(Insn::Jmp { target: 0 }.is_branch());
        assert!(Insn::Jcc {
            cond: Cond::Eq,
            target: 0
        }
        .is_branch());
        assert!(Insn::Ret.is_branch());
        assert!(Insn::CallReg { target: Reg::Rax }.is_branch());
        assert!(!Insn::Add {
            dst: Reg::Rax,
            src: Reg::Rbx
        }
        .is_branch());
        assert!(!Insn::Load {
            dst: Reg::Rax,
            base: Reg::Rbx,
            off: 0
        }
        .is_branch());
    }

    #[test]
    fn memory_event_counts() {
        assert_eq!(
            Insn::Load {
                dst: Reg::Rax,
                base: Reg::Rbx,
                off: 0
            }
            .mem_reads(),
            1
        );
        assert_eq!(Insn::Pop { dst: Reg::Rax }.mem_reads(), 1);
        assert_eq!(Insn::Ret.mem_reads(), 1);
        assert_eq!(
            Insn::Store {
                base: Reg::Rax,
                src: Reg::Rbx,
                off: 0
            }
            .mem_writes(),
            1
        );
        assert_eq!(Insn::Push { src: Reg::Rax }.mem_writes(), 1);
        assert_eq!(Insn::Call { target: 0 }.mem_writes(), 1);
        assert_eq!(Insn::Nop.mem_reads() + Insn::Nop.mem_writes(), 0);
    }

    #[test]
    fn disasm_is_nonempty_for_all() {
        for insn in all_sample_insns() {
            assert!(!insn.disasm().is_empty());
        }
    }
}
