//! Campaign-engine throughput: checkpoint forking vs from-boot replay,
//! the measured numbers behind `BENCH_campaign.json`.
//!
//! The tentpole claim — forking each injection from a delta-compressed
//! checkpoint of the golden execution instead of replaying from boot — is
//! recorded here, not assumed: the same configuration is driven through
//! both engines, the outputs are compared record-for-record, and the
//! wall-clock ratio is written to `results/campaign.json` (mirrored to
//! the repo-root `BENCH_campaign.json`). The forked engine is timed phase
//! by phase at every thread count the box can actually run in parallel,
//! the count in the row's name. The report also verifies the
//! determinism and resume guarantees end-to-end so the perf artifact
//! doubles as a correctness receipt.

use faultsim::campaign::{
    golden_trace, run_from_boot, run_resumable, run_with, CampaignConfig, RegFlips, Run,
};
use faultsim::checkpoint::CheckpointStats;
use guest_sim::Benchmark;
use serde::{Deserialize, Serialize};
use std::time::Instant;

use crate::pipeline::Scale;

/// The forked engine at one thread count, its two phases timed apart.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ThreadRow {
    /// `threads=N`: the count is part of the row's name, so a row recorded
    /// at one thread can never be read as a parallel one.
    pub name: String,
    pub threads: usize,
    /// Golden pass: the caller walks, `threads` workers run the golden
    /// handlers and post windows beside it.
    pub golden_secs: f64,
    /// Fork phase: `threads` workers step the chain and inject.
    pub fork_secs: f64,
    pub inj_per_sec: f64,
}

/// The measured campaign-engine record.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CampaignBenchReport {
    pub benchmark: String,
    pub injections: usize,
    pub checkpoint_interval: usize,
    /// CPUs the measurement had. Thread rows stop here: a count the box
    /// cannot run in parallel is not measured as if it could.
    pub nproc: usize,
    /// Wall-clock seconds for the from-boot baseline (one full boot +
    /// warmup + walk per injection), serial.
    pub from_boot_secs: f64,
    pub from_boot_inj_per_sec: f64,
    /// The checkpoint-forked engine at `threads` in {1, 2, 4, nproc},
    /// clipped to `nproc`; on a one-CPU box this is the `threads=1` row
    /// alone.
    pub forked: Vec<ThreadRow>,
    /// The headline: from-boot time over the `threads=1` row (golden pass
    /// plus fork phase).
    pub speedup_serial: f64,
    /// Checkpoint-chain sizing from the golden trace.
    pub checkpoint_stats: CheckpointStats,
    pub compression_ratio: f64,
    /// Every record of the forked run matched the from-boot run.
    pub equivalent_to_from_boot: bool,
    /// Every thread row, and a trace walked at one thread forked at four,
    /// produced byte-identical result JSON.
    pub deterministic_across_threads: bool,
    /// An interrupted resumable run, resumed, matched an uninterrupted one.
    pub resume_identical: bool,
}

/// The thread counts worth a row on a box with `nproc` CPUs.
fn thread_rows(nproc: usize) -> Vec<usize> {
    let mut counts: Vec<usize> = [1, 2, 4, nproc]
        .into_iter()
        .filter(|&t| t <= nproc.max(1))
        .collect();
    counts.sort_unstable();
    counts.dedup();
    counts
}

/// Run the campaign-engine benchmark. The from-boot baseline replays the
/// whole execution per injection, so the injection count is kept modest
/// at quick scale; paper scale (`overhead_runs > 5`) sizes it up.
pub fn campaign_experiment(scale: &Scale, seed: u64) -> CampaignBenchReport {
    let injections = if scale.overhead_runs > 5 { 400 } else { 120 };
    let benchmark = Benchmark::Freqmine;
    let mut cfg = CampaignConfig::paper(benchmark, injections, seed);
    cfg.threads = 1;
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let json = |records: &[faultsim::InjectionRecord]| serde_json::to_string(records).unwrap();

    // From-boot baseline (serial by construction).
    let t = Instant::now();
    let boot_res = json(&run_from_boot(&cfg, None, &RegFlips));
    let from_boot_secs = t.elapsed().as_secs_f64();

    // Forked engine, each phase timed apart, at every thread count the
    // box can run in parallel.
    let mut forked = Vec::new();
    let mut results = Vec::new();
    let mut last_trace = None;
    for threads in thread_rows(nproc) {
        let row_cfg = CampaignConfig {
            threads,
            ..cfg.clone()
        };
        let t = Instant::now();
        let trace = golden_trace(&row_cfg, None);
        let golden_secs = t.elapsed().as_secs_f64();
        let t = Instant::now();
        results.push(json(&run_with(&row_cfg, &trace, None, &RegFlips)));
        let fork_secs = t.elapsed().as_secs_f64();
        forked.push(ThreadRow {
            name: format!("threads={threads}"),
            threads,
            golden_secs,
            fork_secs,
            inj_per_sec: injections as f64 / (golden_secs + fork_secs).max(1e-9),
        });
        last_trace = Some(trace);
    }
    let trace = last_trace.expect("threads=1 is always a row");
    let stats = trace.checkpoint_stats();

    // Determinism is a correctness claim, not a timing: four fork threads
    // over the last trace walked, whatever the box has.
    let four = CampaignConfig {
        threads: 4,
        ..cfg.clone()
    };
    results.push(json(&run_with(&four, &trace, None, &RegFlips)));
    let deterministic = results.iter().all(|r| *r == results[0]);

    // Resume: stop after one chunk, restart, compare to the straight run.
    let dir = std::env::temp_dir().join(format!("xentry_campaign_bench_{seed}"));
    let journal = dir.join("campaign.journal");
    let _ = std::fs::remove_file(&journal);
    let first = run_resumable(&cfg, None, &RegFlips, &journal, Some(1)).expect("journal I/O");
    let interrupted = matches!(first, Run::Interrupted { .. });
    let resumed = run_resumable(&cfg, None, &RegFlips, &journal, None).expect("journal I/O");
    let resume_identical = interrupted
        && match resumed {
            Run::Complete(records) => json(&records) == results[0],
            Run::Interrupted { .. } => false,
        };
    let _ = std::fs::remove_dir_all(&dir);

    let serial_secs = forked[0].golden_secs + forked[0].fork_secs;
    CampaignBenchReport {
        benchmark: format!("{benchmark:?}"),
        injections,
        checkpoint_interval: cfg.checkpoint_interval,
        nproc,
        from_boot_secs,
        from_boot_inj_per_sec: injections as f64 / from_boot_secs.max(1e-9),
        speedup_serial: from_boot_secs / serial_secs.max(1e-9),
        equivalent_to_from_boot: boot_res == results[0],
        forked,
        compression_ratio: stats.compression_ratio(),
        checkpoint_stats: stats,
        deterministic_across_threads: deterministic,
        resume_identical,
    }
}

impl CampaignBenchReport {
    pub fn render(&self) -> String {
        let mut out = format!(
            "Campaign engine ({} injections on {}, checkpoint interval {}, {} CPUs)\n\
             ------------------------------------------------------------\n\
             from-boot replay       {:>8.2} s {:>10.1} inj/s\n",
            self.injections,
            self.benchmark,
            self.checkpoint_interval,
            self.nproc,
            self.from_boot_secs,
            self.from_boot_inj_per_sec,
        );
        for row in &self.forked {
            out += &format!(
                "chain fork {:<11} {:>8.3} s golden + {:.3} s fork {:>10.1} inj/s   {:>6.1}x\n",
                row.name,
                row.golden_secs,
                row.fork_secs,
                row.inj_per_sec,
                self.from_boot_secs / (row.golden_secs + row.fork_secs).max(1e-9),
            );
        }
        out + &format!(
            "chain entries {} (delta compression {:.0}x: {} full words, {} delta words)\n\
             equivalent to from-boot: {}  deterministic across threads: {}  resume identical: {}\n",
            self.checkpoint_stats.checkpoints,
            self.compression_ratio,
            self.checkpoint_stats.full_mem_words,
            self.checkpoint_stats.delta_mem_words,
            self.equivalent_to_from_boot,
            self.deterministic_across_threads,
            self.resume_identical,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn campaign_experiment_verifies_all_claims() {
        let scale = Scale::quick();
        let rep = campaign_experiment(&scale, 21);
        assert!(rep.equivalent_to_from_boot, "{rep:?}");
        assert!(rep.deterministic_across_threads, "{rep:?}");
        assert!(rep.resume_identical, "{rep:?}");
        assert!(
            rep.speedup_serial >= 5.0,
            "checkpoint forking should beat from-boot replay by >= 5x: {rep:?}"
        );
        assert!(rep.compression_ratio > 1.0);
        let text = rep.render();
        assert!(text.contains("from-boot replay"), "{text}");
        assert_eq!(rep.forked[0].name, "threads=1");
        assert!(rep.forked.iter().all(|r| r.threads <= rep.nproc), "{rep:?}");
        let back: CampaignBenchReport =
            serde_json::from_str(&serde_json::to_string(&rep).unwrap()).unwrap();
        assert_eq!(back.injections, rep.injections);
    }

    #[test]
    fn thread_rows_stop_at_the_cpu_count() {
        assert_eq!(thread_rows(1), [1]);
        assert_eq!(thread_rows(2), [1, 2]);
        assert_eq!(thread_rows(3), [1, 2, 3]);
        assert_eq!(thread_rows(4), [1, 2, 4]);
        assert_eq!(thread_rows(16), [1, 2, 4, 16]);
    }
}
