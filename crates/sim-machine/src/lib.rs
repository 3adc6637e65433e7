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

/// Write `bytes` to `path` atomically, creating its parent directory if
/// needed. The bytes go to `.<file name>.tmp.<pid>` beside the target,
/// which is then renamed over it, so a reader (or a kill signal) sees the
/// old file or the new one, never a torn one, and neither two targets in
/// one directory nor two processes share a temp file. A failed rename
/// leaves no temp file behind.
pub fn write_atomic(path: &std::path::Path, bytes: &[u8]) -> std::io::Result<()> {
    let file_name = path
        .file_name()
        .ok_or_else(|| std::io::Error::other("write_atomic: path has no file name"))?;
    let mut tmp_name = std::ffi::OsString::from(".");
    tmp_name.push(file_name);
    tmp_name.push(format!(".tmp.{}", std::process::id()));
    let tmp = path.with_file_name(tmp_name);
    if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
        std::fs::create_dir_all(parent)?;
    }
    std::fs::write(&tmp, bytes)?;
    std::fs::rename(&tmp, path).inspect_err(|_| {
        let _ = std::fs::remove_file(&tmp);
    })
}

#[cfg(test)]
mod tests {
    use super::write_atomic;

    #[test]
    fn write_atomic_replaces_in_place_and_never_leaves_a_temp() {
        let dir = std::env::temp_dir().join(format!("xentry-atomic-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let names = |dir: &std::path::Path| -> Vec<String> {
            let mut v: Vec<String> = std::fs::read_dir(dir)
                .unwrap()
                .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
                .collect();
            v.sort();
            v
        };
        // The parent directory is created; a second write replaces the first.
        let json = dir.join("freqmine.json");
        write_atomic(&json, b"first").unwrap();
        write_atomic(&json, b"second").unwrap();
        assert_eq!(std::fs::read(&json).unwrap(), b"second");
        // A second target of the same stem stages in its own temp.
        let journal = dir.join("freqmine.journal");
        write_atomic(&journal, b"{}").unwrap();
        assert_eq!(names(&dir), ["freqmine.journal", "freqmine.json"]);
        // Renaming a file onto a directory fails, and takes its temp with it.
        let occupied = dir.join("occupied");
        std::fs::create_dir_all(&occupied).unwrap();
        assert!(write_atomic(&occupied, b"{}").is_err());
        let all = ["freqmine.journal", "freqmine.json", "occupied"];
        assert_eq!(names(&dir), all);
        // A path without a file name is refused before anything is written.
        assert!(write_atomic(&dir.join(".."), b"{}").is_err());
        assert_eq!(names(&dir), all);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
