//! Fault-injection campaigns (§V-A/B): parallel sweeps of thousands of
//! single-bit injections across benchmarks, producing the records behind
//! Fig. 8, 9, 10 and Table II, plus the labeled datasets the VM-transition
//! detector is trained on.
//!
//! The paper's setup: a simulated 4-core machine running Xen 4.1.2 with one
//! Dom0 and two para-virtualized DomUs executing the same benchmark;
//! injection points are chosen randomly while applications run; one fault
//! per run.
//!
//! # One engine, four experiments
//!
//! That loop — walk to a VM exit, draw a fault, inject, classify — is
//! written once. An [`Experiment`] says what is drawn at a golden point and
//! what is kept of each injection ([`RegFlips`], [`Recovery`], [`Models`],
//! [`Multibit`]); four drivers generic over it say how the campaign is
//! walked: [`run`], [`run_with`] (a trace already walked),
//! [`run_resumable`] (journaled) and [`run_from_boot`] (the oracle).
//!
//! # Engine: one walk, stepped
//!
//! The golden (fault-free) execution is simulated exactly **once** per
//! campaign, and the thread that walks it does nothing else.
//! [`golden_trace`] walks on the calling thread — stride, `run_to_exit`,
//! the VM-exit state pushed onto a delta chain with a copy-on-write
//! keyframe every [`CampaignConfig::checkpoint_interval`] iterations (see
//! [`crate::checkpoint`]), live handler — and hands each exit's golden run
//! (golden handler and post window, which nothing further down the walk
//! waits for) to the workers beside it, which run it on the hand-off
//! snapshot itself; the scalar [`PointMeta`]s come back in walk order.
//! Injections are then grouped into keyframe-aligned **chunks**: a chunk
//! restores its keyframe, steps the chain from recorded VM exit to
//! recorded VM exit, and performs each point's injections — never
//! simulating boot, warmup, or any part of the walk again. Every platform
//! a chunk forks along the way is rebuilt from one an earlier fork left
//! behind (the crate's `fork` module). The naive alternative, replaying
//! the golden execution from boot for every injection
//! ([`run_from_boot`]), is kept as the equivalence oracle and benchmark
//! baseline.
//!
//! # Determinism and resumption
//!
//! The golden pass assembles its workers' results in walk order, injection
//! specs are a pure function of `(seed, point ordinal, point)` and chunks
//! are self-contained, so [`GoldenTrace`] and the records of every driver
//! are **bit-identical for any `threads` value** — fork workers claim whole
//! chunks from a shared queue and results are assembled in chunk order.
//! [`run_resumable`] additionally journals each completed chunk (atomic
//! temp + rename) under the experiment's [`Experiment::fingerprint`]; an
//! interrupted campaign resumes from the journal and recomputes only the
//! missing chunks, yielding the same bytes as an uninterrupted run.

use crate::checkpoint::{CheckpointStats, CheckpointStore};
use crate::fork::{fork_of, recycle};
use crate::injection::{
    golden_run, inject, inject_core, inject_spec, prepare_point, prepare_point_forked, record,
    InjectionPoint, InjectionRecord, InjectionSpec, PointMeta,
};
use crate::journal::CampaignJournal;
use crate::outcome::FaultOutcome;
use crate::policy::HmTable;
use crate::recovery::{
    detect_fault, recover_detected, BurstSite, BurstSpec, PmcSpec, PolicyRecovery, PteField,
    PteSpec, RecoverySpec,
};
use guest_sim::{dom0_profile, load_workload, profile, Benchmark};
use mltree::{Dataset, Label};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use sim_machine::cpu::FlipTarget;
use sim_machine::{fold64, par_map, VirtMode};
use std::collections::BTreeMap;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{sync_channel, TrySendError};
use std::sync::Mutex;
use xen_like::{DomainSpec, IrqProfile, Platform, Topology};
use xentry::{FeatureVec, VmTransitionDetector, Xentry, FEATURE_NAMES};

/// Campaign parameters.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    pub benchmark: Benchmark,
    pub mode: VirtMode,
    /// Total injections to perform.
    pub injections: usize,
    /// Activations to run before the first injection point.
    pub warmup: usize,
    /// Injections performed per golden point (amortizes golden runs).
    pub per_point: usize,
    /// Activations separating consecutive injection points.
    pub stride: usize,
    /// Post-VM-entry observation window (activations).
    pub post_window: usize,
    /// Guest kernel scale divider (campaigns shrink guest compute; handler
    /// behaviour — the thing under test — is unchanged).
    pub kernel_scale: u64,
    pub seed: u64,
    /// Worker threads: in the golden pass they run the golden runs beside
    /// the calling thread, which walks (`threads + 1` runnable threads); in
    /// the fork phase they run the chunks while the caller waits. Affects
    /// wall-clock only: trace and result are bit-identical for any value
    /// (the determinism regression tests pin this).
    pub threads: usize,
    /// Walk iterations per keyframe of the golden chain, and golden points
    /// per work chunk. Smaller intervals cost keyframe memory; larger ones
    /// cost delta steps per restore and coarser work units.
    pub checkpoint_interval: usize,
}

impl CampaignConfig {
    /// A paper-shaped campaign, sized down by `injections`.
    pub fn paper(benchmark: Benchmark, injections: usize, seed: u64) -> CampaignConfig {
        CampaignConfig {
            benchmark,
            mode: VirtMode::Para,
            injections,
            warmup: 60,
            per_point: 4,
            stride: 3,
            post_window: 6,
            kernel_scale: 24,
            seed,
            threads: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4),
            checkpoint_interval: 8,
        }
    }

    /// Golden injection points this campaign will visit.
    pub fn nr_points(&self) -> usize {
        self.injections.div_ceil(self.per_point.max(1))
    }

    /// Injections due at golden point `ordinal`: `per_point` of them, fewer
    /// at the last point.
    pub fn due_at(&self, ordinal: usize) -> usize {
        let per = self.per_point.max(1);
        self.injections.saturating_sub(ordinal * per).min(per)
    }

    /// Checkpoint-aligned work chunks this campaign divides into.
    pub fn nr_chunks(&self) -> usize {
        self.nr_points().div_ceil(self.checkpoint_interval.max(1))
    }

    /// Injections due in work chunk `chunk`: [`CampaignConfig::due_at`]
    /// summed over its golden points (none is due past the last point),
    /// so the records a complete chunk holds.
    pub fn due_in_chunk(&self, chunk: usize) -> usize {
        let ci = self.checkpoint_interval.max(1);
        (chunk * ci..(chunk + 1) * ci)
            .map(|ordinal| self.due_at(ordinal))
            .sum()
    }

    /// Stable fingerprint of every field that shapes the records (all but
    /// `threads`, which only changes scheduling). Uses the workspace digest
    /// fold rather than `DefaultHasher` so journals written by one binary
    /// are resumable by another.
    pub fn digest(&self) -> u64 {
        let mut h = fold64(0x6361_6d70, self.seed);
        for b in format!("{:?}/{:?}", self.benchmark, self.mode).bytes() {
            h = fold64(h, b as u64);
        }
        for v in [
            self.injections as u64,
            self.warmup as u64,
            self.per_point as u64,
            self.stride as u64,
            self.post_window as u64,
            self.kernel_scale,
            self.checkpoint_interval as u64,
        ] {
            h = fold64(h, v);
        }
        h
    }
}

/// Build the campaign platform: Dom0 plus two DomUs running `benchmark`
/// (the paper's fault-injection configuration), DomU 1 pinned to CPU 1.
pub fn campaign_platform(cfg: &CampaignConfig, seed: u64) -> Platform {
    let topo = Topology {
        nr_cpus: 3,
        domains: vec![DomainSpec { nr_vcpus: 1 }; 3],
        virt_mode: cfg.mode,
        seed,
        cycle_model: Default::default(),
    };
    let (mut plat, _img) = Platform::new(topo);
    let prof = profile(cfg.benchmark, cfg.mode).scaled(cfg.kernel_scale);
    load_workload(
        &mut plat.machine,
        0,
        &dom0_profile(cfg.mode).scaled(cfg.kernel_scale),
    );
    load_workload(&mut plat.machine, 1, &prof);
    load_workload(&mut plat.machine, 2, &prof);
    plat.irq = IrqProfile {
        // Faster virtual tick keeps campaign activations cheap while
        // preserving the interrupt mix.
        tick_period: 400_000,
        dev_irq_period: (prof.dev_irq_period / 4).max(50_000),
    };
    plat
}

/// Result of a campaign.
#[derive(Debug, Clone, Default, serde::Serialize, serde::Deserialize)]
pub struct CampaignResult {
    pub records: Vec<InjectionRecord>,
}

impl CampaignResult {
    /// Persist the raw records as JSON (the paper's stored injection
    /// traces; downstream analysis can re-aggregate without re-running).
    /// Written atomically so a crash never leaves a torn file.
    pub fn save_json(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        sim_machine::write_atomic(
            path.as_ref(),
            serde_json::to_string(self)
                .expect("records serialize")
                .as_bytes(),
        )
    }

    /// Load records saved by [`CampaignResult::save_json`].
    pub fn load_json(path: impl AsRef<std::path::Path>) -> std::io::Result<CampaignResult> {
        let text = std::fs::read_to_string(path)?;
        serde_json::from_str(&text)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
    }
}

/// One golden execution, walked once and frozen: the per-point scalar
/// metadata, the chain of VM-exit states the injection phase steps along
/// (keyframes and deltas, never a snapshot per point), and the fault-free
/// feature trace (a ready source of `Correct` training samples).
pub struct GoldenTrace {
    /// Scalar description of every golden injection point, in walk order.
    pub points: Vec<PointMeta>,
    store: CheckpointStore,
    /// Fault-free features collected along the walk (cold-start skipped).
    correct_features: Vec<FeatureVec>,
    /// Platform at the end of the walk (continuation for sample top-up).
    final_plat: Platform,
    cpu: sim_machine::CpuId,
    dom: usize,
}

impl GoldenTrace {
    /// Sizing diagnostics of the per-exit chain.
    pub fn checkpoint_stats(&self) -> CheckpointStats {
        self.store.stats()
    }

    /// `n` fault-free samples labeled `Correct`, drawn from the golden
    /// walk's own feature trace; if the walk was shorter than `n`, the
    /// final platform is run further (the campaign's activations are
    /// reused instead of paying for a separate fault-free execution).
    pub fn correct_samples(&self, n: usize) -> Dataset {
        let mut ds = Dataset::new(&FEATURE_NAMES);
        ds.extend_samples(
            self.correct_features
                .iter()
                .take(n)
                .map(|f| f.into_sample(Label::Correct)),
        );
        if ds.len() < n {
            let mut plat = self.final_plat.clone();
            let mut shim = Xentry::collector();
            while shim.trace.len() < n - ds.len() {
                let act = plat.run_activation(self.cpu, &mut shim);
                assert!(act.outcome.is_healthy(), "fault-free run died");
            }
            let missing = n - ds.len();
            ds.extend_samples(
                shim.trace
                    .iter()
                    .take(missing)
                    .map(|f| f.into_sample(Label::Correct)),
            );
        }
        ds
    }
}

/// Activations skipped at the start of the correct-sample trace (cold
/// structures right after boot distort the feature distribution).
const COLD_SKIP: usize = 20;

/// Jobs the producer may have handed off and not yet seen claimed: two per
/// worker, so a worker that finishes early finds its next job waiting.
fn handoff_depth(threads: usize) -> usize {
    2 * threads
}

/// Run `produce` on the calling thread and every job it submits on one of
/// `threads` workers, returning the results in submission order. The
/// hand-off is bounded and nobody waits on it: a submit that finds
/// [`handoff_depth`] jobs queued runs its job on the calling thread, and
/// once `produce` returns the caller helps drain the queue — so at most
/// `handoff_depth + threads + 1` jobs are alive at any time, and the
/// producer is never parked behind a barrier. A job that panics on a
/// worker resurfaces as a panic of the caller after the queue has drained.
fn overlap<J: Send, R: Send>(
    threads: usize,
    produce: impl FnOnce(&mut dyn FnMut(J)),
    work: impl Fn(J) -> R + Sync,
) -> Vec<R> {
    let threads = threads.max(1);
    let (tx, rx) = sync_channel::<(usize, J)>(handoff_depth(threads));
    let rx = Mutex::new(rx);
    // Run queued jobs until the queue is closed (`wait`) or merely empty.
    // The lock is held while claiming a job, never while running one.
    let run_queued = |wait: bool| {
        let mut done = Vec::new();
        loop {
            let rx = rx.lock().expect("no job runs under the hand-off lock");
            let claimed = if wait {
                rx.recv().ok()
            } else {
                rx.try_recv().ok()
            };
            drop(rx);
            let Some((i, job)) = claimed else { return done };
            done.push((i, work(job)));
        }
    };
    let mut done = std::thread::scope(|s| {
        let workers: Vec<_> = (0..threads).map(|_| s.spawn(|| run_queued(true))).collect();
        let mut done = Vec::new();
        let mut submitted = 0usize;
        produce(&mut |job| {
            if let Err(TrySendError::Full((i, job)) | TrySendError::Disconnected((i, job))) =
                tx.try_send((submitted, job))
            {
                done.push((i, work(job)));
            }
            submitted += 1;
        });
        drop(tx);
        done.extend(run_queued(false));
        for w in workers {
            done.extend(
                w.join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic)),
            );
        }
        done
    });
    done.sort_unstable_by_key(|(i, _)| *i);
    done.into_iter().map(|(_, r)| r).collect()
}

/// Fold one round of walk-order golden-run results into the trace: a
/// valid iteration becomes the next point and records how many invalid
/// ones the walk skipped right before it; an invalid one has a chain entry
/// but no point.
fn assemble(points: &mut Vec<PointMeta>, skipped: &mut usize, results: Vec<Option<PointMeta>>) {
    for meta in results {
        match meta {
            Some(meta) => points.push(PointMeta {
                ordinal: points.len(),
                skipped_before: std::mem::take(skipped),
                ..meta
            }),
            None => *skipped += 1,
        }
    }
}

/// Chain entry the walk stood at before the iteration(s) leading to point
/// `i`: entry 0 is the warmed-up platform and every walk iteration, valid
/// or skipped, appends its VM exit.
fn entry_before(points: &[PointMeta], i: usize) -> usize {
    i + points[..i].iter().map(|m| m.skipped_before).sum::<usize>()
}

/// Phase 1: walk the golden execution once. The calling thread only walks
/// — stride, `run_to_exit`, push the VM-exit state onto the chain, hand a
/// copy-on-write snapshot to a worker, live handler — while
/// [`CampaignConfig::threads`] workers run each exit's golden run (golden
/// handler and post window, the body of [`prepare_point`]) beside it, in
/// place on the snapshot. Results are assembled in walk order, so the
/// trace is the same for every thread count.
pub fn golden_trace(cfg: &CampaignConfig, detector: Option<&VmTransitionDetector>) -> GoldenTrace {
    let nr_points = cfg.nr_points();
    let (cpu, dom) = (1, 1); // DomU 1 and the CPU it is pinned to
    let mut plat = campaign_platform(cfg, cfg.seed);
    let mut collector = Xentry::collector();
    plat.boot(cpu, &mut collector);
    for _ in 0..cfg.warmup {
        let act = plat.run_activation(cpu, &mut collector);
        assert!(act.outcome.is_healthy(), "warmup died: {:?}", act.outcome);
    }
    let mut store = CheckpointStore::with_interval(plat.snapshot(), cfg.checkpoint_interval);
    let mut points: Vec<PointMeta> = Vec::with_capacity(nr_points);
    let mut skipped = 0usize;
    // A round walks one iteration per point still missing. There is a
    // second round only if some golden run did not complete healthily
    // (cannot happen in practice; defensive); it walks on from where the
    // first stopped, so the walk ends where a serial one would.
    while points.len() < nr_points {
        let missing = nr_points - points.len();
        let results = overlap(
            cfg.threads.min(missing),
            |submit| {
                for _ in 0..missing {
                    for _ in 0..cfg.stride {
                        let act = plat.run_activation(cpu, &mut collector);
                        assert!(act.outcome.is_healthy(), "trace died: {:?}", act.outcome);
                    }
                    let (reason, _gc) = plat.run_to_exit(cpu);
                    store.push(&plat);
                    submit((plat.snapshot(), reason));
                    // Resume the live (fault-free) platform past this activation.
                    plat.run_handler(cpu, reason, 0, &mut collector);
                }
            },
            // The golden run happens on the snapshot itself, which dies with
            // the job: only the scalars leave the worker.
            |(mut at_exit, reason)| {
                golden_run(
                    &mut at_exit,
                    cpu,
                    dom,
                    reason,
                    cfg.post_window,
                    detector,
                    |_| {},
                )
            },
        );
        assemble(&mut points, &mut skipped, results);
    }
    let correct_features = collector.trace.iter().skip(COLD_SKIP).copied().collect();
    GoldenTrace {
        points,
        store,
        correct_features,
        final_plat: plat,
        cpu,
        dom,
    }
}

/// Phase 2, one chunk: restore the chain entry the walk stood at before
/// the chunk's first point (a keyframe, unless iterations were skipped),
/// step the chain from VM exit to VM exit, rebuild each point via
/// [`prepare_point_forked`], and let `per_point` produce whatever the
/// caller aggregates (single-bit records, multi-bit pairs, ...). Nothing
/// of the walk is simulated again.
fn replay_chunk<R>(
    cfg: &CampaignConfig,
    trace: &GoldenTrace,
    chunk: usize,
    detector: Option<&VmTransitionDetector>,
    mut per_point: impl FnMut(&InjectionPoint) -> Vec<R>,
) -> Vec<R> {
    let ci = cfg.checkpoint_interval.max(1);
    let lo = chunk * ci;
    let hi = ((chunk + 1) * ci).min(trace.points.len());
    let mut entry = entry_before(&trace.points, lo);
    let mut plat = trace.store.restore(entry);
    let mut out = Vec::new();
    for meta in &trace.points[lo..hi] {
        // Over the exits of the iterations the golden pass skipped, onto
        // this point's own.
        for _ in 0..=meta.skipped_before {
            entry += 1;
            trace.store.advance(&mut plat, entry);
        }
        let point = prepare_point_forked(
            fork_of(&plat),
            trace.cpu,
            trace.dom,
            cfg.post_window,
            meta,
            detector,
        );
        out.extend(per_point(&point));
        point.recycle();
    }
    out
}

// ---------------------------------------------------------------------------
// The engine: one `Experiment` description, four drivers
// ---------------------------------------------------------------------------

/// What a campaign draws at each golden point and what it keeps of every
/// injection. Everything else — golden pass, chunk queue, journal,
/// from-boot oracle — is the four drivers below.
pub trait Experiment: Sync {
    /// One fault to inject.
    type Spec;
    /// What is kept of one injection; [`run_resumable`] journals it as JSON.
    type Record: Send + serde::Serialize + serde::Deserialize;

    /// Stable fingerprint of everything that shapes the records:
    /// [`CampaignConfig::digest`], the experiment and its parameters. A
    /// journal written under another fingerprint is ignored, not resumed.
    fn fingerprint(&self, cfg: &CampaignConfig) -> u64;

    /// The [`CampaignConfig::due_at`]`(ordinal)` specs injected at golden
    /// point `ordinal` — a pure function of the seed, the ordinal and the
    /// point's golden observables, whichever worker reaches the point and
    /// whether the walk forked from a checkpoint or ran from boot. This is
    /// the keystone of both determinism properties.
    fn specs_at(
        &self,
        cfg: &CampaignConfig,
        ordinal: usize,
        point: &InjectionPoint,
    ) -> Vec<Self::Spec>;

    /// Perform one injection at a prepared point.
    fn inject(
        &self,
        point: &InjectionPoint,
        ordinal: usize,
        spec: &Self::Spec,
        detector: Option<&VmTransitionDetector>,
    ) -> Self::Record;
}

/// Chunk results keyed by chunk id, assembled in id order.
type ChunkMap<R> = BTreeMap<usize, Vec<R>>;

/// The fork phase: every chunk of `exp`'s campaign not yet in `done` —
/// only the first `stop_after` of them, when given (the deterministic
/// stand-in for an interrupt) — on `cfg.threads` workers that claim whole
/// chunks in id order, so the division of labor cannot leak into the
/// results. Each completed chunk is inserted under its id and
/// `on_complete` (the journaling hook) sees the map while its lock is
/// held. The first error of `on_complete` keeps every chunk not yet begun
/// from running and is returned.
fn fork_pending<E: Experiment>(
    cfg: &CampaignConfig,
    trace: &GoldenTrace,
    detector: Option<&VmTransitionDetector>,
    exp: &E,
    done: ChunkMap<E::Record>,
    stop_after: Option<usize>,
    on_complete: &(dyn Fn(&ChunkMap<E::Record>) -> io::Result<()> + Sync),
) -> io::Result<ChunkMap<E::Record>> {
    let pending: Vec<usize> = (0..cfg.nr_chunks())
        .filter(|c| !done.contains_key(c))
        .take(stop_after.unwrap_or(usize::MAX))
        .collect();
    let collected = Mutex::new(done);
    let failed = AtomicBool::new(false);
    let saved = par_map(cfg.threads, &pending, |&chunk| {
        if failed.load(Ordering::Relaxed) {
            return Ok(());
        }
        let records = replay_chunk(cfg, trace, chunk, detector, |point| {
            let ordinal = point.meta.ordinal;
            exp.specs_at(cfg, ordinal, point)
                .iter()
                .map(|spec| exp.inject(point, ordinal, spec, detector))
                .collect()
        });
        let mut map = collected.lock().expect("chunk map lock");
        map.insert(chunk, records);
        on_complete(&map).inspect_err(|_| failed.store(true, Ordering::Relaxed))
    });
    saved.into_iter().collect::<io::Result<()>>()?;
    Ok(collected.into_inner().expect("chunk map lock"))
}

/// Run `exp`'s campaign against an already-walked golden trace, records in
/// chunk order. Deterministic: the records depend only on the configuration
/// and the experiment, never on `threads`.
pub fn run_with<E: Experiment>(
    cfg: &CampaignConfig,
    trace: &GoldenTrace,
    detector: Option<&VmTransitionDetector>,
    exp: &E,
) -> Vec<E::Record> {
    let chunks = fork_pending(
        cfg,
        trace,
        detector,
        exp,
        BTreeMap::new(),
        None,
        &|_| Ok(()),
    )
    .expect("the hook cannot fail");
    chunks.into_values().flatten().collect()
}

/// Run `exp`'s campaign, optionally with a deployed VM-transition detector:
/// golden pass once, then checkpoint-forked injections in parallel.
pub fn run<E: Experiment>(
    cfg: &CampaignConfig,
    detector: Option<&VmTransitionDetector>,
    exp: &E,
) -> Vec<E::Record> {
    run_with(cfg, &golden_trace(cfg, detector), detector, exp)
}

/// How a [`run_resumable`] invocation ended.
#[derive(Debug, Clone)]
pub enum Run<R> {
    /// Every chunk is done; the records are bit-identical to an
    /// uninterrupted [`run`] with the same configuration and experiment.
    Complete(Vec<R>),
    /// Stopped early (`stop_after_chunks`); progress is in the journal.
    Interrupted {
        chunks_done: usize,
        chunks_total: usize,
    },
}

/// [`run`] with crash-safe progress journaling. Completed chunks are
/// persisted (atomic temp + rename) after each finish; a rerun with the
/// same configuration, experiment and journal path resumes, recomputing
/// only missing chunks. A journal that does not load intact
/// ([`CampaignJournal::load_matching`]) is ignored, and a chunk that does
/// not hold exactly [`CampaignConfig::due_in_chunk`] records is computed
/// again, so whatever bytes the journal holds the result is [`run`]'s.
/// `stop_after_chunks` stops after exactly that many new chunks — the
/// deterministic stand-in for killing the process, used by the resume
/// tests. A journal write that fails stops the campaign and is returned.
pub fn run_resumable<E: Experiment>(
    cfg: &CampaignConfig,
    detector: Option<&VmTransitionDetector>,
    exp: &E,
    journal_path: &Path,
    stop_after_chunks: Option<usize>,
) -> io::Result<Run<E::Record>> {
    let fingerprint = exp.fingerprint(cfg);
    let chunks_total = cfg.nr_chunks();
    let mut chunks = CampaignJournal::load_matching(journal_path, fingerprint, chunks_total)
        .map_or_else(BTreeMap::new, |journal| journal.chunks);
    // A chunk short of (or past) its points' injections is not done: it is
    // computed again rather than resumed with records missing.
    chunks.retain(|&chunk, records| records.len() == cfg.due_in_chunk(chunk));
    if chunks.len() < chunks_total {
        // The golden pass is recomputed on resume: it is deterministic (for
        // any thread count), and journaling it would mean persisting the
        // chain.
        let trace = golden_trace(cfg, detector);
        let save = |chunks: &ChunkMap<E::Record>| {
            CampaignJournal::save(journal_path, fingerprint, chunks_total, chunks)
        };
        chunks = fork_pending(cfg, &trace, detector, exp, chunks, stop_after_chunks, &save)?;
    }
    Ok(if chunks.len() == chunks_total {
        Run::Complete(chunks.into_values().flatten().collect())
    } else {
        Run::Interrupted {
            chunks_done: chunks.len(),
            chunks_total,
        }
    })
}

/// The naive baseline the paper's methodology implies: every injection
/// replays the **entire golden execution from boot** (fresh platform, boot,
/// warmup, walk to the injection point, golden runs, inject). Kept as the
/// equivalence oracle — it must produce bit-identical records to [`run`] —
/// and as the benchmark baseline the ≥5x throughput target is measured
/// against. Serial, deliberately unoptimized, and sharing nothing with the
/// golden pass it checks.
pub fn run_from_boot<E: Experiment>(
    cfg: &CampaignConfig,
    detector: Option<&VmTransitionDetector>,
    exp: &E,
) -> Vec<E::Record> {
    let mut records = Vec::with_capacity(cfg.injections);
    let (cpu, dom) = (1, 1);
    for ordinal in 0..cfg.nr_points() {
        // One full replay from boot per injection at this point.
        for k in 0..cfg.due_at(ordinal) {
            let mut plat = campaign_platform(cfg, cfg.seed);
            let mut collector = Xentry::collector();
            plat.boot(cpu, &mut collector);
            for _ in 0..cfg.warmup {
                let act = plat.run_activation(cpu, &mut collector);
                assert!(act.outcome.is_healthy(), "warmup died: {:?}", act.outcome);
            }
            // Walk valid points until `ordinal`, deciding validity exactly
            // like the golden pass does (a full golden preparation).
            let mut valid = 0usize;
            let point = loop {
                for _ in 0..cfg.stride {
                    let act = plat.run_activation(cpu, &mut collector);
                    assert!(act.outcome.is_healthy(), "trace died: {:?}", act.outcome);
                }
                let (reason, _gc) = plat.run_to_exit(cpu);
                let prepared =
                    prepare_point(plat.clone(), cpu, dom, reason, cfg.post_window, detector);
                if let Some(p) = prepared {
                    if valid == ordinal {
                        break p;
                    }
                    valid += 1;
                }
                plat.run_handler(cpu, reason, 0, &mut collector);
            };
            let specs = exp.specs_at(cfg, ordinal, &point);
            records.push(exp.inject(&point, ordinal, &specs[k], detector));
        }
    }
    records
}

/// §V-A/B: one uniformly drawn register bit flip per injection, recorded
/// with the outcome taxonomy behind Fig. 8–10 and Table II.
pub struct RegFlips;

impl Experiment for RegFlips {
    type Spec = InjectionSpec;
    type Record = InjectionRecord;

    fn fingerprint(&self, cfg: &CampaignConfig) -> u64 {
        cfg.digest()
    }

    fn specs_at(
        &self,
        cfg: &CampaignConfig,
        ordinal: usize,
        point: &InjectionPoint,
    ) -> Vec<InjectionSpec> {
        let targets = FlipTarget::all();
        let mut rng = ChaCha8Rng::seed_from_u64(fold64(cfg.seed, 0x5350_4543 ^ ordinal as u64));
        (0..cfg.due_at(ordinal))
            .map(|_| InjectionSpec {
                target: targets[rng.gen_range(0..targets.len())],
                bit: rng.gen_range(0..64),
                at_step: rng.gen_range(0..point.meta.golden_len.max(1)),
            })
            .collect()
    }

    fn inject(
        &self,
        point: &InjectionPoint,
        _ordinal: usize,
        spec: &InjectionSpec,
        detector: Option<&VmTransitionDetector>,
    ) -> InjectionRecord {
        inject(point, *spec, detector)
    }
}

/// [`run`] for [`RegFlips`], the campaign nearly every caller wants.
pub fn run_campaign(
    cfg: &CampaignConfig,
    detector: Option<&VmTransitionDetector>,
) -> CampaignResult {
    CampaignResult {
        records: run(cfg, detector, &RegFlips),
    }
}

/// [`run_with`] for [`RegFlips`] (a name the repo benchmark calls).
pub fn run_campaign_with(
    cfg: &CampaignConfig,
    trace: &GoldenTrace,
    detector: Option<&VmTransitionDetector>,
) -> CampaignResult {
    CampaignResult {
        records: run_with(cfg, trace, detector, &RegFlips),
    }
}

/// [`run_from_boot`] for [`RegFlips`] (a name the repo benchmark calls).
pub fn run_campaign_from_boot(
    cfg: &CampaignConfig,
    detector: Option<&VmTransitionDetector>,
) -> CampaignResult {
    CampaignResult {
        records: run_from_boot(cfg, detector, &RegFlips),
    }
}

// ---------------------------------------------------------------------------
// Recovery phase: detected injections driven through health-monitor policies
// ---------------------------------------------------------------------------

/// One injection driven through every policy table under comparison.
/// Detection precedes policy, so a single detection verdict fans out to
/// one ladder run per table — whole policy tables compare head-to-head
/// on identical faults in one campaign.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct RecoveryRecord {
    /// Golden point ordinal the fault was injected at.
    pub ordinal: usize,
    /// The injected fault.
    pub spec: RecoverySpec,
    /// Ladder outcome per policy table, in the order the tables were
    /// passed to the campaign. `None` = the fault was not detected
    /// (recovery never triggered; identical across tables).
    pub per_policy: Vec<Option<PolicyRecovery>>,
}

/// Records of a recovery campaign, in injection order.
#[derive(Debug, Clone, Default)]
pub struct RecoveryCampaignResult {
    pub records: Vec<RecoveryRecord>,
}

/// The recovery experiment: every fault through detection, and every
/// detected one through each of the policy tables.
///
/// Its spec schedule is the architectural flips of [`RegFlips`] with every
/// third injection redirected into a hypervisor-private memory word — the latent-corruption class that
/// separates the microreboot tier from re-execution (the critical-state
/// copy cannot heal it) — and every third-plus-one injection redirected
/// into the extended fault models (spatial bursts, PTE strikes, PMC
/// strikes), so the HmTable receipts price every model the simulator
/// can produce, not just single-bit flips.
///
/// Memory flips land with `at_step: 0`: unlike a register flip, which
/// only matters while the value is live in the handler, a memory strike
/// persists from whenever it happened until the word is next read, so
/// the natural model is "already corrupted at handler entry". Region
/// and word choice are importance-sampled toward frequently-read state:
/// the dispatch table (consumed on every single exit) draws three of
/// every eight memory strikes, and half of those hit the in-flight
/// exit's own entry — the one word this handler is guaranteed to
/// consume. A uniformly random word in a multi-KB region is almost
/// never read and therefore benign by construction — sampling only
/// those would measure nothing, the standard argument for targeted
/// fault injection.
pub struct Recovery<'a>(pub &'a [HmTable]);

impl Experiment for Recovery<'_> {
    type Spec = RecoverySpec;
    type Record = RecoveryRecord;

    /// The base configuration plus every policy table under comparison.
    fn fingerprint(&self, cfg: &CampaignConfig) -> u64 {
        let salted = fold64(0x7265_6356, cfg.digest());
        self.0.iter().fold(salted, |h, t| fold64(h, t.digest()))
    }

    fn specs_at(
        &self,
        cfg: &CampaignConfig,
        ordinal: usize,
        point: &InjectionPoint,
    ) -> Vec<RecoverySpec> {
        let (golden_len, vmer) = (point.meta.golden_len, point.meta.reason.vmer());
        let mut rng = ChaCha8Rng::seed_from_u64(fold64(cfg.seed, 0x4856_4d45 ^ ordinal as u64));
        let dispatch = dispatch_region_index();
        let redirect = |(k, reg): (usize, InjectionSpec)| {
            if k % 3 == 2 {
                // 3/8 dispatch, the rest uniform over the other regions.
                let region = match rng.gen_range(0..8u8) {
                    0..=2 => dispatch,
                    3 => 0, // hv.global
                    4 => 1, // hv.scratch
                    5 => 3, // hv.pcpu
                    6 => 4, // hv.runq
                    _ => 5, // hv.stacks
                };
                let hot = rng.gen_range(0..2u8) == 0;
                let word = if region == dispatch && hot {
                    vmer
                } else {
                    rng.gen_range(0..256)
                };
                RecoverySpec::HvMem {
                    region,
                    word,
                    bit: rng.gen_range(0..64),
                    at_step: 0,
                }
            } else if k % 3 == 1 {
                // Extended models, bursts weighted up: a PMC strike is
                // architecturally invisible to the exception paths, so an
                // even split would starve the detection-rate signal the
                // tiered-vs-reexecute comparison rests on.
                match rng.gen_range(0..4u8) {
                    0 | 1 => RecoverySpec::Burst(random_burst(&mut rng, golden_len, vmer)),
                    2 => RecoverySpec::Pte(random_pte(&mut rng)),
                    _ => RecoverySpec::Pmc(random_pmc(&mut rng, golden_len)),
                }
            } else {
                RecoverySpec::Reg(reg)
            }
        };
        let regs = RegFlips.specs_at(cfg, ordinal, point);
        regs.into_iter().enumerate().map(redirect).collect()
    }

    fn inject(
        &self,
        point: &InjectionPoint,
        ordinal: usize,
        spec: &RecoverySpec,
        detector: Option<&VmTransitionDetector>,
    ) -> RecoveryRecord {
        let fault = detect_fault(point, *spec, detector);
        let per_policy = (self.0.iter())
            .map(|t| fault.as_ref().map(|f| recover_detected(f, point, t)))
            .collect();
        if let Some(fault) = fault {
            recycle(fault.plat);
        }
        RecoveryRecord {
            ordinal,
            spec: *spec,
            per_policy,
        }
    }
}

/// [`run_with`] for [`Recovery`] (a name the repo benchmark calls).
pub fn run_recovery_campaign_with(
    cfg: &CampaignConfig,
    trace: &GoldenTrace,
    detector: Option<&VmTransitionDetector>,
    tables: &[HmTable],
) -> RecoveryCampaignResult {
    RecoveryCampaignResult {
        records: run_with(cfg, trace, detector, &Recovery(tables)),
    }
}

/// Collect `n` fault-free feature samples (label `Correct`) from a
/// campaign-shaped platform seeded independently of the campaign. When the
/// campaign's own golden trace is at hand, prefer
/// [`GoldenTrace::correct_samples`], which reuses the walk already paid
/// for.
pub fn collect_correct_samples(cfg: &CampaignConfig, n: usize, seed: u64) -> Dataset {
    let mut plat = campaign_platform(cfg, seed);
    let cpu = 1;
    let mut shim = Xentry::collector();
    plat.boot(cpu, &mut shim);
    let mut ds = Dataset::new(&FEATURE_NAMES);
    // Skip the first few activations (cold structures).
    for _ in 0..COLD_SKIP {
        plat.run_activation(cpu, &mut shim);
    }
    shim.trace.clear();
    while shim.trace.len() < n {
        let act = plat.run_activation(cpu, &mut shim);
        assert!(act.outcome.is_healthy(), "fault-free run died");
    }
    ds.extend_samples(
        shim.trace
            .iter()
            .take(n)
            .map(|f| f.into_sample(Label::Correct)),
    );
    ds
}

/// Build a labeled dataset from campaign records: faulty executions that
/// completed VM entry contribute samples labeled by whether they actually
/// diverged from the golden run (the paper's trace-analysis labeling).
pub fn dataset_from_records(records: &[InjectionRecord]) -> Dataset {
    let mut ds = Dataset::new(&FEATURE_NAMES);
    ds.extend_samples(records.iter().filter_map(|r| {
        let f = r.features?;
        use crate::outcome::FaultOutcome::*;
        let label = match &r.outcome {
            Benign => Label::Correct,
            // Only executions that reached VM entry have features;
            // VM-transition positives and late detections are incorrect
            // executions by construction.
            MaskedAfterEntry | Undetected { .. } | Detected { .. } => Label::Incorrect,
        };
        Some(f.into_sample(label))
    }));
    ds
}

/// One k-bit upset: `flips` struck together at `at_step`. The 1-bit fault
/// it is paired with is the first flip alone.
#[derive(Debug, Clone, PartialEq)]
pub struct MultibitSpec {
    pub at_step: u64,
    pub flips: Vec<(FlipTarget, u8)>,
}

/// Multi-bit-upset comparison — the beyond-ECC scenario the paper motivates
/// in §V-B: at every injection, the 1-bit fault is the first flip of the
/// `bits`-bit fault, injected at the same point and step, so the comparison
/// stays paired.
pub struct Multibit {
    /// Flips per fault, at least 2.
    pub bits: usize,
}

impl Experiment for Multibit {
    type Spec = MultibitSpec;
    /// The first flip alone, then all `bits` of them.
    type Record = (InjectionRecord, InjectionRecord);

    fn fingerprint(&self, cfg: &CampaignConfig) -> u64 {
        fold64(fold64(0x4d42_4954, cfg.digest()), self.bits as u64)
    }

    fn specs_at(
        &self,
        cfg: &CampaignConfig,
        ordinal: usize,
        point: &InjectionPoint,
    ) -> Vec<MultibitSpec> {
        assert!(self.bits >= 2, "use RegFlips for single-bit faults");
        let targets = FlipTarget::all();
        let flip = |rng: &mut ChaCha8Rng| {
            let target = targets[rng.gen_range(0..targets.len())];
            (target, rng.gen_range(0..64))
        };
        let mut rng = ChaCha8Rng::seed_from_u64(fold64(cfg.seed, 0x4d42_4954 ^ ordinal as u64));
        (0..cfg.due_at(ordinal))
            .map(|_| MultibitSpec {
                at_step: rng.gen_range(0..point.meta.golden_len.max(1)),
                flips: (0..self.bits).map(|_| flip(&mut rng)).collect(),
            })
            .collect()
    }

    fn inject(
        &self,
        point: &InjectionPoint,
        _ordinal: usize,
        spec: &MultibitSpec,
        detector: Option<&VmTransitionDetector>,
    ) -> (InjectionRecord, InjectionRecord) {
        let (target, bit) = spec.flips[0];
        let first = InjectionSpec {
            target,
            bit,
            at_step: spec.at_step,
        };
        let all = inject_core(point, spec.at_step, detector, false, |m, c| {
            for &(target, bit) in &spec.flips {
                m.cpu_mut(c).flip_bit(target, bit);
            }
        });
        (inject(point, first, detector), record(point, first, all))
    }
}

// ---------------------------------------------------------------------------
// Extended fault models: spatial bursts, PTE strikes, PMC strikes
// ---------------------------------------------------------------------------

/// Index of `hv.dispatch` in [`xen_like::MICROREBOOT_PRIVATE_REGIONS`].
fn dispatch_region_index() -> u8 {
    xen_like::MICROREBOOT_PRIVATE_REGIONS
        .iter()
        .position(|n| *n == "hv.dispatch")
        .expect("dispatch region listed") as u8
}

fn random_burst(rng: &mut ChaCha8Rng, golden_len: u64, vmer: u16) -> BurstSpec {
    let width = rng.gen_range(2..=4);
    let stride = rng.gen_range(1..=3);
    let start_bit = rng.gen_range(0..64);
    let (site, at_step) = if rng.gen_range(0..2u8) == 0 {
        let targets = FlipTarget::all();
        let target = targets[rng.gen_range(0..targets.len())];
        (BurstSite::Reg(target), rng.gen_range(0..golden_len.max(1)))
    } else {
        // Importance-sample the dispatch table like [`Recovery`]'s schedule:
        // half the memory bursts anchor at the in-flight exit's own entry,
        // so cross-word spills reach the adjacent (also live) entries.
        let hot = rng.gen_range(0..2u8) == 0;
        let word = if hot { vmer } else { rng.gen_range(0..256) };
        let region = dispatch_region_index();
        // Memory strikes persist: corrupted at handler entry.
        (BurstSite::HvMem { region, word }, 0)
    };
    BurstSpec {
        site,
        start_bit,
        width,
        stride,
        at_step,
    }
}

fn random_pte(rng: &mut ChaCha8Rng) -> PteSpec {
    let field = match rng.gen_range(0..3u8) {
        0 => PteField::Present,
        1 => PteField::Rw,
        _ => PteField::Addr,
    };
    PteSpec {
        // Strike the observed DomU's table: PTEs of a domain never
        // scheduled on the observed CPU are benign by construction, and
        // sampling only those would measure nothing.
        dom: 1,
        page: rng.gen_range(0..xen_like::layout::ptbl::PAGES_PER_DOM as u16),
        field,
        bit: rng.gen_range(0..28),
        at_step: 0,
    }
}

fn random_pmc(rng: &mut ChaCha8Rng, golden_len: u64) -> PmcSpec {
    PmcSpec {
        counter: rng.gen_range(0..4),
        bit: rng.gen_range(0..64),
        at_step: rng.gen_range(0..golden_len.max(1)),
    }
}

/// The model-diversity spec schedule: golden point `ordinal`'s injections
/// rotate through the three extended fault models — spatial multi-bit
/// bursts, page-table-entry strikes and performance-counter strikes. A
/// pure function of (seed, ordinal, golden length, vmer), as
/// [`Experiment::specs_at`] requires, so model campaigns inherit both
/// determinism properties unchanged.
pub fn model_specs_at(
    cfg: &CampaignConfig,
    ordinal: usize,
    golden_len: u64,
    vmer: u16,
) -> Vec<RecoverySpec> {
    let mut rng = ChaCha8Rng::seed_from_u64(fold64(cfg.seed, 0x4d4f_444c ^ ordinal as u64));
    (0..cfg.due_at(ordinal))
        .map(|k| match k % 3 {
            0 => RecoverySpec::Burst(random_burst(&mut rng, golden_len, vmer)),
            1 => RecoverySpec::Pte(random_pte(&mut rng)),
            _ => RecoverySpec::Pmc(random_pmc(&mut rng, golden_len)),
        })
        .collect()
}

/// Outcome record of one extended-model injection. The labels the
/// vulnerability map buckets by — class, target, bit — are the spec's
/// ([`RecoverySpec::class`], [`RecoverySpec::target_label`],
/// [`RecoverySpec::bit`]).
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct ModelRecord {
    /// Golden point ordinal the fault was injected at.
    pub ordinal: usize,
    pub vmer: u16,
    /// The injected fault.
    pub spec: RecoverySpec,
    pub outcome: FaultOutcome,
    /// Faulty-run features, when the handler reached VM entry.
    pub features: Option<FeatureVec>,
}

/// The extended-model experiment: the burst / PTE / PMC strikes of
/// [`model_specs_at`], each recorded with its spec.
pub struct Models;

impl Experiment for Models {
    type Spec = RecoverySpec;
    type Record = ModelRecord;

    fn fingerprint(&self, cfg: &CampaignConfig) -> u64 {
        fold64(0x4d4f_444c, cfg.digest())
    }

    fn specs_at(
        &self,
        cfg: &CampaignConfig,
        ordinal: usize,
        point: &InjectionPoint,
    ) -> Vec<RecoverySpec> {
        model_specs_at(
            cfg,
            ordinal,
            point.meta.golden_len,
            point.meta.reason.vmer(),
        )
    }

    fn inject(
        &self,
        point: &InjectionPoint,
        ordinal: usize,
        spec: &RecoverySpec,
        detector: Option<&VmTransitionDetector>,
    ) -> ModelRecord {
        let (outcome, features) = inject_spec(point, spec, detector);
        ModelRecord {
            ordinal,
            vmer: point.meta.reason.vmer(),
            spec: *spec,
            outcome,
            features,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::outcome::FaultOutcome;

    fn small_cfg() -> CampaignConfig {
        let mut c = CampaignConfig::paper(Benchmark::Freqmine, 60, 11);
        c.threads = 2;
        c.warmup = 30;
        c.post_window = 4;
        c
    }

    use std::sync::mpsc::{channel, Receiver, Sender};

    /// A gate workers are held at until the producer has submitted
    /// everything (dropping the sender opens it), so the hand-off is
    /// exercised at its bound: every worker holds one job, the queue is
    /// full, and the caller runs the rest itself.
    fn gate() -> (Sender<()>, Mutex<Receiver<()>>) {
        let (open, opened) = channel();
        (open, Mutex::new(opened))
    }

    fn wait_at(gate: &Mutex<Receiver<()>>) {
        let _ = gate.lock().unwrap().recv();
    }

    #[test]
    fn overlap_keeps_order_and_its_bound_when_the_queue_overflows() {
        use std::sync::atomic::AtomicUsize;
        /// A job that counts how many of its kind are alive.
        struct Job<'a>(usize, &'a AtomicUsize);
        impl Drop for Job<'_> {
            fn drop(&mut self) {
                self.1.fetch_sub(1, Ordering::SeqCst);
            }
        }
        for threads in [1, 2, 7] {
            let depth = handoff_depth(threads);
            let jobs = 5 * depth + 3;
            let (alive, peak, on_caller) = (
                AtomicUsize::new(0),
                AtomicUsize::new(0),
                AtomicUsize::new(0),
            );
            let caller = std::thread::current().id();
            let (open, opened) = gate();
            let got = overlap(
                threads,
                |submit| {
                    for i in 0..jobs {
                        peak.fetch_max(alive.fetch_add(1, Ordering::SeqCst) + 1, Ordering::SeqCst);
                        submit(Job(i, &alive));
                    }
                    drop(open);
                },
                |job: Job| {
                    if std::thread::current().id() == caller {
                        on_caller.fetch_add(1, Ordering::SeqCst);
                    } else {
                        wait_at(&opened);
                    }
                    job.0 * 10
                },
            );
            let want: Vec<usize> = (0..jobs).map(|i| i * 10).collect();
            assert_eq!(got, want, "threads={threads}");
            assert_eq!(
                alive.load(Ordering::SeqCst),
                0,
                "a job outlived the hand-off"
            );
            let peak = peak.load(Ordering::SeqCst);
            assert!(
                peak <= depth + threads + 1,
                "threads={threads}: {peak} jobs alive, bound {depth} + {threads} + 1"
            );
            // Workers were held at the gate, so everything past the queue
            // and the workers' hands ran on the caller.
            assert!(
                on_caller.load(Ordering::SeqCst) >= jobs - depth - threads,
                "threads={threads}: caller ran {on_caller:?} of {jobs}"
            );
        }
    }

    #[test]
    fn overlap_of_no_jobs_returns_nothing() {
        let got = overlap(3, |_submit| {}, |j: usize| j);
        assert!(got.is_empty());
    }

    #[test]
    #[should_panic(expected = "job 0 failed its assert")]
    fn overlap_resurfaces_a_worker_panic_instead_of_hanging() {
        let caller = std::thread::current().id();
        let (open, opened) = gate();
        let (claimed, was_claimed) = channel();
        // The one worker claims job 0 and is held until every job is
        // submitted; it panics while the caller drains the queue.
        overlap(
            1,
            |submit| {
                submit(0usize);
                was_claimed
                    .recv()
                    .expect("the worker claims the queued job");
                (1..20).for_each(submit);
                drop(open);
            },
            |job| {
                if std::thread::current().id() != caller {
                    claimed.send(()).unwrap();
                    wait_at(&opened);
                    panic!("job {job} failed its assert");
                }
                job
            },
        );
    }

    #[test]
    #[should_panic(expected = "the walk died")]
    fn overlap_lets_waiting_workers_go_when_the_producer_panics() {
        overlap(
            2,
            |submit| {
                submit(1usize);
                panic!("the walk died");
            },
            |job| job,
        );
    }

    fn synthetic(valid: bool) -> Option<PointMeta> {
        valid.then_some(PointMeta {
            ordinal: 0,
            reason: sim_machine::ExitReason::Hypercall(0),
            skipped_before: 0,
            golden_len: 1,
            golden_features: FeatureVec {
                vmer: 0,
                rt: 1,
                br: 0,
                rm: 0,
                wm: 0,
            },
            window: Vec::new(),
        })
    }

    #[test]
    fn assembly_numbers_points_and_counts_skips() {
        // Walk iterations 0..12 in two rounds; invalid in the middle (3),
        // twice in a row at a keyframe boundary of interval 4 (7, 8: chain
        // entries 8 and 9), and first of the second round (10).
        let invalid = [3, 7, 8, 10];
        let walk: Vec<_> = (0..12).map(|i| synthetic(!invalid.contains(&i))).collect();
        let (mut points, mut skipped) = (Vec::new(), 0);
        assemble(&mut points, &mut skipped, walk[..10].to_vec());
        assert_eq!((points.len(), skipped), (7, 0));
        assemble(&mut points, &mut skipped, walk[10..].to_vec());
        assert_eq!((points.len(), skipped), (8, 0));
        let ordinals: Vec<_> = points.iter().map(|m| m.ordinal).collect();
        assert_eq!(ordinals, (0..8).collect::<Vec<_>>());
        let skips: Vec<_> = points.iter().map(|m| m.skipped_before).collect();
        assert_eq!(skips, [0, 0, 0, 1, 0, 0, 2, 1]);
        // Iteration i's VM exit is chain entry i + 1: each point's entry is
        // where `replay_chunk` arrives from `entry_before` it.
        let valid: Vec<_> = (0..12).filter(|i| !invalid.contains(i)).collect();
        for (i, meta) in points.iter().enumerate() {
            assert_eq!(
                entry_before(&points, i) + meta.skipped_before + 1,
                valid[i] + 1,
                "point {i}"
            );
        }
        // A trailing invalid iteration is carried into the next round.
        assemble(&mut points, &mut skipped, vec![synthetic(false)]);
        assert_eq!((points.len(), skipped), (8, 1));
    }

    #[test]
    fn recovery_campaign_tiered_beats_reexecute_only() {
        use crate::policy::RecoveryOutcome;
        let cfg = small_cfg();
        let tables = [HmTable::reexecute_only(), HmTable::tiered()];
        let records = run(&cfg, None, &Recovery(&tables));
        assert_eq!(records.len(), 60);
        let recovered = |idx: usize| {
            records
                .iter()
                .filter_map(|r| r.per_policy[idx].as_ref())
                .filter(|p| matches!(p.outcome, RecoveryOutcome::Recovered { .. }))
                .count()
        };
        let detected = records.iter().filter(|r| r.per_policy[0].is_some()).count();
        assert!(detected > 10, "too few detections: {detected}");
        // The microreboot tier closes faults re-execution leaves residual.
        assert!(
            recovered(1) >= recovered(0),
            "tiered ({}) worse than reexec-only ({})",
            recovered(1),
            recovered(0)
        );
        // Every ladder terminated within its proven bound.
        for r in &records {
            for (p, t) in r.per_policy.iter().zip(&tables) {
                if let Some(p) = p {
                    assert!(p.steps.len() <= t.max_attempts() as usize);
                }
            }
        }
    }

    #[test]
    fn campaign_produces_requested_injections() {
        let cfg = small_cfg();
        let res = run_campaign(&cfg, None);
        assert_eq!(res.records.len(), 60);
        // A healthy mix: some benign, some detected (exceptions dominate).
        let benign = res
            .records
            .iter()
            .filter(|r| !r.outcome.manifested())
            .count();
        let detected = res.records.iter().filter(|r| r.outcome.detected()).count();
        assert!(benign > 0, "no benign faults in 60 injections?");
        assert!(detected > 0, "no detections in 60 injections?");
    }

    #[test]
    fn hw_exceptions_dominate_detections() {
        // Fig. 8: "Most of errors (85.1%) are detected by the hardware
        // exceptions" — the shape must hold even in a small campaign.
        let mut cfg = small_cfg();
        cfg.injections = 120;
        let res = run_campaign(&cfg, None);
        let mut hw = 0;
        let mut other = 0;
        for r in &res.records {
            if let FaultOutcome::Detected { technique, .. } = &r.outcome {
                if *technique == xentry::Technique::HwException {
                    hw += 1;
                } else {
                    other += 1;
                }
            }
        }
        assert!(hw > other, "hw={hw} other={other}");
    }

    #[test]
    fn correct_samples_are_labeled_correct() {
        let cfg = small_cfg();
        let ds = collect_correct_samples(&cfg, 50, 5);
        assert_eq!(ds.len(), 50);
        assert!(ds.samples.iter().all(|s| s.label == Label::Correct));
        assert_eq!(ds.nr_features(), 5);
    }

    #[test]
    fn golden_trace_correct_samples_with_top_up() {
        let cfg = small_cfg();
        let trace = golden_trace(&cfg, None);
        // More samples than the walk produced, forcing the continuation.
        let n = trace.correct_features.len() + 25;
        let ds = trace.correct_samples(n);
        assert_eq!(ds.len(), n);
        assert!(ds.samples.iter().all(|s| s.label == Label::Correct));
    }

    #[test]
    fn dataset_from_records_labels_divergence() {
        let cfg = small_cfg();
        let res = run_campaign(&cfg, None);
        let ds = dataset_from_records(&res.records);
        assert!(!ds.is_empty());
        let (correct, incorrect) = ds.class_counts();
        assert!(
            correct > 0,
            "benign faults should contribute correct samples"
        );
        // Incorrect samples appear when faults slip past the handler.
        let _ = incorrect;
    }

    #[test]
    fn batch_reevaluation_matches_per_record_classify() {
        let cfg = small_cfg();
        let res = run_campaign(&cfg, None);
        let ds = dataset_from_records(&res.records);
        let tree = mltree::DecisionTree::train(&ds, &mltree::TrainConfig::decision_tree());
        let det = VmTransitionDetector::new(tree);
        let cm = mltree::evaluate_compiled(det.compiled(), &ds);
        assert_eq!(cm.total(), ds.len());
        // The batch path must agree with classifying each record alone.
        let mut expect = mltree::ConfusionMatrix::default();
        for r in &res.records {
            if let Some(f) = r.features {
                let actual = ds.samples[expect.total()].label;
                expect.record(actual, det.classify(&f));
            }
        }
        assert_eq!(cm, expect);
    }

    #[test]
    fn records_round_trip_through_json() {
        let mut cfg = small_cfg();
        cfg.injections = 20;
        cfg.threads = 1;
        let res = run_campaign(&cfg, None);
        let dir = std::env::temp_dir().join("xentry_campaign_test.json");
        res.save_json(&dir).unwrap();
        let back = CampaignResult::load_json(&dir).unwrap();
        assert_eq!(back.records.len(), res.records.len());
        for (a, b) in back.records.iter().zip(res.records.iter()) {
            assert_eq!(a.outcome, b.outcome);
            assert_eq!(a.vmer, b.vmer);
        }
        let _ = std::fs::remove_file(dir);
    }

    #[test]
    fn hvm_campaign_runs_and_detects() {
        let mut cfg = small_cfg();
        cfg.mode = sim_machine::VirtMode::Hvm;
        cfg.injections = 60;
        let res = run_campaign(&cfg, None);
        assert_eq!(res.records.len(), 60);
        let detected = res.records.iter().filter(|r| r.outcome.detected()).count();
        assert!(detected > 0, "HVM campaign produced no detections");
    }

    #[test]
    fn multibit_faults_manifest_at_least_as_often() {
        let mut cfg = small_cfg();
        cfg.injections = 80;
        cfg.seed = 7;
        let pairs = run(&cfg, None, &Multibit { bits: 2 });
        assert_eq!(pairs.len(), 80);
        let m1 = pairs.iter().filter(|p| p.0.outcome.manifested()).count();
        let m2 = pairs.iter().filter(|p| p.1.outcome.manifested()).count();
        // Two simultaneous flips strictly add corruption surface; paired
        // sampling means the 2-bit campaign manifests at least ~as often.
        assert!(
            m2 + 5 >= m1,
            "2-bit faults should manifest at least as often: {m2} vs {m1}"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let mut cfg = small_cfg();
        cfg.threads = 1;
        cfg.injections = 20;
        let a = run_campaign(&cfg, None);
        let b = run_campaign(&cfg, None);
        let oa: Vec<_> = a
            .records
            .iter()
            .map(|r| format!("{:?}", r.outcome))
            .collect();
        let ob: Vec<_> = b
            .records
            .iter()
            .map(|r| format!("{:?}", r.outcome))
            .collect();
        assert_eq!(oa, ob);
    }

    #[test]
    fn shared_trace_matches_fresh_campaign() {
        let mut cfg = small_cfg();
        cfg.injections = 24;
        let fresh = serde_json::to_string(&run_campaign(&cfg, None)).unwrap();
        // Walked at one thread, forked at the config's two and at four.
        let walk = CampaignConfig {
            threads: 1,
            ..cfg.clone()
        };
        let trace = golden_trace(&walk, None);
        for threads in [cfg.threads, 4] {
            let fork = CampaignConfig {
                threads,
                ..cfg.clone()
            };
            let reused = run_campaign_with(&fork, &trace, None);
            assert_eq!(
                serde_json::to_string(&reused).unwrap(),
                fresh,
                "forked at {threads} threads"
            );
        }
    }

    /// A campaign's records and how often each shortcut fired, its chunks
    /// replayed on this thread (the fire counts are per thread).
    fn replayed_here<E: Experiment>(
        cfg: &CampaignConfig,
        trace: &GoldenTrace,
        exp: &E,
    ) -> (Vec<E::Record>, [u64; 2]) {
        crate::injection::FIRED.set([0; 2]);
        let records = (0..cfg.nr_chunks())
            .flat_map(|chunk| {
                replay_chunk(cfg, trace, chunk, None, |point| {
                    let ordinal = point.meta.ordinal;
                    (exp.specs_at(cfg, ordinal, point).iter())
                        .map(|spec| exp.inject(point, ordinal, spec, None))
                        .collect()
                })
            })
            .collect();
        (records, crate::injection::FIRED.get())
    }

    /// The fork phase's shortcuts — dead register flips not simulated,
    /// faults that are golden again after one judged activation judged
    /// there — fire in a small register campaign and a small model
    /// campaign, and change no byte: the records are the engine's and the
    /// from-boot oracle's, which takes no shortcut.
    #[test]
    fn the_shortcuts_fire_and_the_oracle_agrees() {
        let cfg = CampaignConfig {
            injections: 48,
            ..small_cfg()
        };
        let trace = golden_trace(&cfg, None);
        fn json<T: serde::Serialize>(records: &T) -> String {
            serde_json::to_string(records).expect("records serialize")
        }

        let (reg, [dead, settled]) = replayed_here(&cfg, &trace, &RegFlips);
        assert!(dead > 0 && settled > 0, "dead {dead}, settled {settled}");
        assert_eq!(json(&reg), json(&run_with(&cfg, &trace, None, &RegFlips)));
        assert_eq!(json(&reg), json(&run_from_boot(&cfg, None, &RegFlips)));

        let cfg = CampaignConfig {
            injections: 96,
            ..cfg
        };
        let trace = golden_trace(&cfg, None);
        let (models, [dead, settled]) = replayed_here(&cfg, &trace, &Models);
        assert!(dead == 0 && settled > 0, "dead {dead}, settled {settled}");
        assert_eq!(json(&models), json(&run_with(&cfg, &trace, None, &Models)));
        assert_eq!(json(&models), json(&run_from_boot(&cfg, None, &Models)));
    }

    #[test]
    fn config_digest_ignores_threads_only() {
        let a = small_cfg();
        let mut b = a.clone();
        b.threads = 16;
        assert_eq!(a.digest(), b.digest());
        let mut c = a.clone();
        c.seed += 1;
        assert_ne!(a.digest(), c.digest());
        let mut d = a.clone();
        d.checkpoint_interval += 1;
        assert_ne!(a.digest(), d.digest());
    }
}
