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

/// Map `f` over `items` on `min(threads, items.len())` scoped workers (none
/// for an empty list) and return the results in item order, whatever the
/// schedule. Each worker claims the next index from one shared counter
/// while the caller waits, so no static split of the list can reach the
/// results. A job that panics resurfaces as a panic of the caller once the
/// other workers have run the rest of the list.
pub fn par_map<T: Sync, R: Send>(
    threads: usize,
    items: &[T],
    f: impl Fn(&T) -> R + Sync,
) -> Vec<R> {
    // A claim ticket only: the results come back through `join`.
    let next = std::sync::atomic::AtomicUsize::new(0);
    let claim = || next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let work = || -> Vec<(usize, R)> {
        std::iter::repeat_with(claim)
            .map_while(|i| Some((i, f(items.get(i)?))))
            .collect()
    };
    let mut done: Vec<_> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..threads.max(1).min(items.len()))
            .map(|_| s.spawn(work))
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
            .collect()
    });
    done.sort_unstable_by_key(|(i, _)| *i);
    done.into_iter().map(|(_, r)| r).collect()
}

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
    use super::{par_map, write_atomic};
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn par_map_returns_the_serial_map_in_item_order() {
        let items: Vec<u64> = (0..97).collect();
        // Uneven job lengths, so workers finish out of order.
        let f = |&x: &u64| (0..(x % 7) * 1000).fold(x, |h, k| h.rotate_left(5) ^ k);
        let serial: Vec<u64> = items.iter().map(f).collect();
        for threads in [0, 1, 2, 8] {
            assert_eq!(par_map(threads, &items, f), serial, "threads={threads}");
        }
        // More workers than items: one job each, still in order.
        assert_eq!(par_map(8, &items[..3], f), serial[..3]);
    }

    #[test]
    fn par_map_of_nothing_runs_nothing() {
        let got: Vec<u8> = par_map(4, &[] as &[u8], |_| unreachable!("no item, no job"));
        assert!(got.is_empty());
        // A job runs on a worker, never on the waiting caller.
        let caller = std::thread::current().id();
        let ran_on = par_map(4, &[()], |_| std::thread::current().id());
        assert_ne!(ran_on, [caller]);
    }

    #[test]
    fn par_map_panics_the_caller_after_the_other_jobs_finish() {
        let finished = AtomicUsize::new(0);
        let items: Vec<usize> = (0..16).collect();
        let got = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            par_map(2, &items, |&i| {
                assert_ne!(i, 3, "job 3 failed its assert");
                finished.fetch_add(1, Ordering::SeqCst);
            })
        }));
        let panic = got.expect_err("the job's panic reaches the caller");
        let message = panic.downcast_ref::<String>().expect("a formatted assert");
        assert!(message.contains("job 3 failed its assert"), "{message}");
        // The other worker ran every job the panicking one left behind.
        assert_eq!(finished.load(Ordering::SeqCst), items.len() - 1);
    }

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
