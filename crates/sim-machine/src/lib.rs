//! # sim-machine — full-system simulator substrate
//!
//! This crate is the reproduction's stand-in for the Simics full-system
//! simulator used in the Xentry paper (ICPP 2014). It implements a compact
//! x86-like, word-encoded instruction set together with:
//!
//! * a 16-register architectural file plus `RIP` and `RFLAGS`, matching the
//!   fault model of the paper (single bit flips in architectural registers,
//!   instruction and stack pointers, and flags);
//! * a region-based physical memory with read/write/execute permissions, so
//!   that corrupted pointers produce page faults and corrupted instruction
//!   pointers produce invalid-opcode or fetch faults; stored in
//!   copy-on-write 4 KiB pages behind a flat page table, so an access is one
//!   index and a snapshot copies no words ([`mem`]);
//! * hardware exceptions (#DE, #UD, #PF, #GP, #AC, ...) reported to the
//!   harness exactly like the fatal-exception signals Xentry consumes;
//! * per-logical-CPU performance counters for the four events of Table I
//!   (`INST_RETIRED`, `BR_INST_RETIRED`, `MEM_INST_RETIRED.LOADS`,
//!   `MEM_INST_RETIRED.STORES`), start/stop controlled by the monitoring
//!   layer;
//! * VM exit / VM entry transitions between guest mode and host mode with a
//!   VMCS-like per-CPU exit-information block written by "hardware";
//! * deterministic snapshots for golden-run differencing during fault
//!   injection campaigns.
//!
//! The machine is intentionally deterministic: every run from the same
//! snapshot replays the same instruction stream, which is what makes the
//! paper's golden-run methodology possible.

// `Memory`, `Machine` and `Platform` have a hand-written `clone_from` that
// costs what differs; `a = b.clone()` over a live one throws that away.
#![warn(clippy::assigning_clones)]

pub mod cpu;
pub mod cycles;
pub mod exception;
pub mod exit;
pub mod insn;
pub mod machine;
pub mod mem;
pub mod perf;
pub mod prng;
pub mod reg;
pub mod trace;

pub use cpu::{Cpu, CpuId, Mode};
pub use cycles::CycleModel;
pub use exception::{Exception, Vector};
pub use exit::ExitReason;
pub use insn::{Cond, DecodeError, Insn, Opcode};
pub use machine::{
    vmcs, Devices, Event, Machine, MachineConfig, MachineDelta, StepOutcome, VirtMode, VMCS_WORDS,
};
pub use mem::{
    DataWindow, FetchWindow, MemError, Memory, MemoryDelta, PageMap, Perms, Region, RegionId,
    ADDR_LIMIT, PAGE_BYTES, PAGE_WORDS, PTE_FRAME_MASK, PTE_PRESENT, PTE_RW,
};
pub use perf::{PerfCounters, PerfSample};
pub use prng::fold64;
pub use reg::Reg;
pub use trace::{step_traced, TraceEntry, TraceRing};
