//! Environment stamp carried by every output, and the process's peak RSS.

use crate::layers;
use serde_json::Value;
use std::process::{Command, Stdio};

#[derive(Debug, Clone)]
pub struct Env {
    pub nproc: usize,
    /// Campaign worker threads (`campaign_threads()`). The fleet workload
    /// always uses exactly two (one sender, one shard worker).
    pub campaign_threads: usize,
    /// What `BatchWalker::Auto` resolved to on this CPU.
    pub kernel: &'static str,
    pub rustc: String,
    pub profile: &'static str,
    pub commit: String,
    /// Whether `pin_allocator` took (glibc only).
    pub malloc_pinned: bool,
}

/// First line of a command's stdout, or "unknown" (the benchmark also runs
/// from a bare checkout that is not a git repository).
fn first_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Worker threads of the measured campaigns and of set-up: one CPU is left
/// to the rest of the box, at most four are used. A fork phase waits for
/// its slowest worker, so with a worker on every CPU anything else that
/// runs — the harness that started the benchmark, a kernel thread — lands
/// on the phase: beside a synthetic neighbour a two-worker fork phase on two
/// CPUs spread 10–21% over ten runs where the one-thread golden walk next to
/// it spread 1–3%.
pub fn campaign_threads() -> usize {
    nproc().saturating_sub(1).clamp(1, 4)
}

/// Every CPU, at most four: what the thread-count equivalence check and
/// `faultsim.fork_scaling` compare one thread against.
pub fn wide_threads() -> usize {
    nproc().min(4)
}

#[cfg(all(target_os = "linux", target_env = "gnu"))]
mod glibc {
    extern "C" {
        pub fn mallopt(param: i32, value: i32) -> i32;
    }
    pub const M_TRIM_THRESHOLD: i32 = -1;
    pub const M_MMAP_THRESHOLD: i32 = -3;
    /// The largest mmap threshold glibc accepts on 64-bit (32 MiB).
    pub const MMAP_THRESHOLD_MAX: i32 = 32 << 20;
}

/// Keep freed memory in the process: never trim the heap, and serve
/// everything up to 32 MiB from it. A campaign clones and drops a platform
/// per golden point and per injection; with glibc's self-adjusting
/// thresholds, whether those blocks go back to the kernel and fault in
/// again depends on the heap's history, and a fork phase reads 105 ms with
/// no faults or 150–290 ms with 45–140k of them (1.5–2 µs each in this VM),
/// run to run and process to process. Pinned, the benchmark measures the
/// program and not the threshold it happened to land on. Call before the
/// first large allocation; false where the allocator is not glibc's.
pub fn pin_allocator() -> bool {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        // SAFETY: mallopt only sets allocator parameters; no other thread
        // exists yet.
        unsafe {
            glibc::mallopt(glibc::M_TRIM_THRESHOLD, i32::MAX) == 1
                && glibc::mallopt(glibc::M_MMAP_THRESHOLD, glibc::MMAP_THRESHOLD_MAX) == 1
        }
    }
    #[cfg(not(all(target_os = "linux", target_env = "gnu")))]
    false
}

pub fn stamp(malloc_pinned: bool) -> Env {
    let nproc = nproc();
    Env {
        malloc_pinned,
        nproc,
        campaign_threads: campaign_threads(),
        kernel: layers::active_kernel_name(),
        rustc: first_line("rustc", &["--version"]),
        profile: if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
        commit: first_line("git", &["rev-parse", "--short", "HEAD"]),
    }
}

impl Env {
    pub fn line(&self) -> String {
        format!(
            "nproc={} campaign_threads={} fleet_threads=2 mltree_kernel={} malloc={} profile={} commit={} rustc=\"{}\"",
            self.nproc,
            self.campaign_threads,
            self.kernel,
            self.malloc(),
            self.profile,
            self.commit,
            self.rustc
        )
    }

    fn malloc(&self) -> &'static str {
        if self.malloc_pinned {
            "no-trim"
        } else {
            "default"
        }
    }

    pub fn json(&self) -> Value {
        Value::Object(vec![
            ("nproc".into(), Value::UInt(self.nproc as u64)),
            (
                "campaign_threads".into(),
                Value::UInt(self.campaign_threads as u64),
            ),
            ("fleet_threads".into(), Value::UInt(2)),
            ("mltree_kernel".into(), Value::Str(self.kernel.into())),
            ("malloc".into(), Value::Str(self.malloc().into())),
            ("rustc".into(), Value::Str(self.rustc.clone())),
            ("profile".into(), Value::Str(self.profile.into())),
            ("commit".into(), Value::Str(self.commit.clone())),
        ])
    }
}

/// Peak resident set of this process in MiB (`VmHWM`); 0 where
/// `/proc/self/status` does not exist.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
