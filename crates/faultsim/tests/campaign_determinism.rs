//! One contract, every experiment. For a fixed seed a campaign's records are
//! a pure function of the configuration and the [`Experiment`]: thread count
//! must not change a byte, an interrupted + resumed campaign must be
//! indistinguishable from an uninterrupted one, a journal of anything else
//! must be ignored, and the checkpoint-forked engine must equal the
//! from-boot oracle. Each leg below is generic and runs for all four
//! shipped experiments.

use faultsim::campaign::{
    golden_trace, run, run_from_boot, run_resumable, run_with, Experiment, Models, Multibit,
    Recovery, RegFlips, Run,
};
use faultsim::policy::HmTable;
use faultsim::{prepare_point, CampaignConfig, InjectionPoint};
use guest_sim::Benchmark;
use std::path::PathBuf;

fn cfg(threads: usize) -> CampaignConfig {
    let mut c = CampaignConfig::paper(Benchmark::Canneal, 72, 23);
    c.warmup = 30;
    c.threads = threads;
    c
}

fn json<R: serde::Serialize>(records: &[R]) -> String {
    serde_json::to_string(records).expect("records serialize")
}

fn tables() -> Vec<HmTable> {
    vec![HmTable::reexecute_only(), HmTable::tiered()]
}

const MULTIBIT: Multibit = Multibit { bits: 2 };

/// `$leg(&experiment, name, ..)` for each of the four experiments.
macro_rules! for_every_experiment {
    ($leg:ident $(, $arg:expr)*) => {{
        let tables = tables();
        $leg(&RegFlips, "reg" $(, $arg)*);
        $leg(&Recovery(&tables), "recovery" $(, $arg)*);
        $leg(&Models, "models" $(, $arg)*);
        $leg(&MULTIBIT, "multibit" $(, $arg)*);
    }};
}

/// A journal path of its own per (test, experiment), cleared.
fn journal_at(test: &str, name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("xentry_contract_{test}_{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    dir.join("campaign.journal")
}

fn completed<R>(run: Run<R>, what: &str) -> Vec<R> {
    match run {
        Run::Complete(records) => records,
        Run::Interrupted { .. } => panic!("{what} did not complete"),
    }
}

fn threads_leg<E: Experiment>(exp: &E, name: &str) {
    let baseline = json(&run(&cfg(1), None, exp));
    for threads in [4, 16] {
        let got = json(&run(&cfg(threads), None, exp));
        assert_eq!(
            got, baseline,
            "{name}: threads={threads} changed the result"
        );
    }
}

#[test]
fn thread_count_never_changes_a_byte() {
    for_every_experiment!(threads_leg);
}

/// Killed after the first chunk at `first` threads, resumed at `then`.
fn resume_leg<E: Experiment>(exp: &E, name: &str, first: usize, then: usize) {
    let journal = journal_at(&format!("resume{first}{then}"), name);
    // A straight run is the reference.
    let fresh = json(&run(&cfg(first), None, exp));

    // Kill the campaign after the first chunk...
    match run_resumable(&cfg(first), None, exp, &journal, Some(1)).unwrap() {
        Run::Interrupted {
            chunks_done,
            chunks_total,
        } => assert!((1..chunks_total).contains(&chunks_done), "{name}"),
        Run::Complete(_) => panic!("{name}: stop_after_chunks=1 should interrupt"),
    }
    assert!(journal.exists(), "{name}: interrupt must leave a journal");

    // ...and resume: same bytes as the uninterrupted run.
    let resumed = run_resumable(&cfg(then), None, exp, &journal, None).unwrap();
    assert_eq!(json(&completed(resumed, name)), fresh, "{name}: resumed");

    // A third invocation short-circuits off the complete journal.
    let again = run_resumable(&cfg(then), None, exp, &journal, Some(0)).unwrap();
    assert_eq!(json(&completed(again, name)), fresh, "{name}: reloaded");
    let _ = std::fs::remove_dir_all(journal.parent().unwrap());
}

#[test]
fn interrupted_campaign_resumes_to_the_identical_result() {
    for_every_experiment!(resume_leg, 2, 2);
}

#[test]
fn resuming_at_another_thread_count_still_equals_the_straight_run() {
    // One worker stops exactly after its first chunk; several could all
    // finish one before any of them looks at the cap.
    for_every_experiment!(resume_leg, 1, 4);
}

/// A partial journal of `exp` must be ignored by another seed and by
/// `other`, an experiment (or parameter set) it could be mistaken for.
fn stale_leg<E: Experiment, O: Experiment>(exp: &E, other: &O, name: &str) {
    let journal = journal_at("stale", name);
    let leave_partial = || {
        let left = run_resumable(&cfg(1), None, exp, &journal, Some(1)).unwrap();
        assert!(matches!(left, Run::Interrupted { .. }), "{name}");
    };

    leave_partial();
    let mut reseeded = cfg(2);
    reseeded.seed += 1;
    let fresh = json(&run(&reseeded, None, exp));
    let got = run_resumable(&reseeded, None, exp, &journal, None).unwrap();
    assert_eq!(json(&completed(got, name)), fresh, "{name}: another seed");

    leave_partial();
    let fresh = json(&run(&cfg(2), None, other));
    let got = run_resumable(&cfg(2), None, other, &journal, None).unwrap();
    assert_eq!(
        json(&completed(got, name)),
        fresh,
        "{name}: another experiment"
    );
    let _ = std::fs::remove_dir_all(journal.parent().unwrap());
}

#[test]
fn stale_journal_from_a_different_config_is_ignored() {
    let (tables, other_tables) = (tables(), [HmTable::ignore_all()]);
    stale_leg(&RegFlips, &Models, "reg");
    // Same record type, so only the fingerprint tells these apart.
    stale_leg(&Recovery(&tables), &Recovery(&other_tables), "recovery");
    stale_leg(&Models, &Recovery(&tables), "models");
    stale_leg(&MULTIBIT, &Multibit { bits: 3 }, "multibit");
}

/// Small: the oracle boots once per injection. Two points a chunk, so the
/// forks cross a keyframe and end on a short point.
fn oracle_cfg(seed: u64) -> CampaignConfig {
    let mut c = cfg(2);
    c.injections = 10;
    c.checkpoint_interval = 2;
    c.seed = seed;
    c
}

fn from_boot_leg<E: Experiment>(exp: &E, name: &str) {
    for seed in [23, 41] {
        let c = oracle_cfg(seed);
        let forked = run(&c, None, exp);
        assert_eq!(forked.len(), c.injections, "{name}");
        let booted = run_from_boot(&c, None, exp);
        assert_eq!(json(&forked), json(&booted), "{name}: seed {seed}");
    }
}

#[test]
fn forked_campaign_equals_from_boot() {
    for_every_experiment!(from_boot_leg);
}

/// The first golden point of `c`'s walk, prepared the way the oracle does.
fn first_point(c: &CampaignConfig) -> InjectionPoint {
    let (cpu, dom) = (1, 1);
    let mut plat = faultsim::campaign_platform(c, c.seed);
    let mut collector = xentry::Xentry::collector();
    plat.boot(cpu, &mut collector);
    for _ in 0..c.warmup + c.stride {
        assert!(plat
            .run_activation(cpu, &mut collector)
            .outcome
            .is_healthy());
    }
    let (reason, _) = plat.run_to_exit(cpu);
    prepare_point(plat, cpu, dom, reason, c.post_window, None).expect("golden run is healthy")
}

fn schedule_leg<E: Experiment>(exp: &E, name: &str, point: &InjectionPoint)
where
    E::Spec: PartialEq + std::fmt::Debug,
{
    let c = cfg(1);
    let at = |ordinal| exp.specs_at(&c, ordinal, point);
    assert_eq!(at(0), at(0), "{name}: the schedule is not pure");
    assert_eq!(at(0).len(), c.due_at(0), "{name}");
    assert_ne!(at(0), at(1), "{name}: the schedule ignores the ordinal");
    let mut reseeded = c.clone();
    reseeded.seed += 1;
    assert_ne!(
        at(0),
        exp.specs_at(&reseeded, 0, point),
        "{name}: the schedule ignores the seed"
    );
}

#[test]
fn every_schedule_is_pure_in_seed_and_ordinal() {
    let point = first_point(&cfg(1));
    for_every_experiment!(schedule_leg, &point);
}

/// A journal written before the engine became generic resumes after it:
/// these are the values `CampaignConfig::digest` and
/// `recovery_campaign_digest` computed for this configuration then.
#[test]
fn reg_and_recovery_fingerprints_are_the_historical_digests() {
    assert_eq!(RegFlips.fingerprint(&cfg(1)), 0x1a1e_02c6_4c1c_b31d);
    assert_eq!(
        Recovery(&tables()).fingerprint(&cfg(1)),
        0x64e5_4af5_a29b_0720
    );
    assert_eq!(RegFlips.fingerprint(&cfg(1)), cfg(9).digest());
}

fn write_error_leg<E: Experiment>(exp: &E, name: &str) {
    let journal = journal_at("unwritable", name);
    let dir = journal.parent().unwrap();
    // The journal's parent is a regular file: every write fails.
    std::fs::create_dir_all(dir.parent().unwrap()).unwrap();
    std::fs::write(dir, b"not a directory").unwrap();
    for threads in [1, 4] {
        let got = run_resumable(&cfg(threads), None, exp, &journal, None);
        assert!(got.is_err(), "{name}: threads={threads}");
    }
    let _ = std::fs::remove_file(dir);
}

#[test]
fn a_failed_journal_write_is_an_error_not_a_panic() {
    let tables = tables();
    write_error_leg(&RegFlips, "reg");
    write_error_leg(&Recovery(&tables), "recovery");
}

// ---------------------------------------------------------------------------
// Phase 1 runs on `threads` workers beside the walking caller: the trace it
// freezes must not know how many there were
// ---------------------------------------------------------------------------

#[test]
fn golden_trace_is_the_same_walk_at_every_thread_count() {
    let one = golden_trace(&cfg(1), None);
    assert_eq!(one.points.len(), cfg(1).nr_points());
    // More fault-free samples than the walk collected, so the top-up runs
    // the final platform on past the walk's end.
    let n = 4 * cfg(1).nr_points() * (cfg(1).stride + 1);
    let samples = one.correct_samples(n).samples;
    assert_eq!(samples.len(), n);
    for threads in [2, 4, 7] {
        let many = golden_trace(&cfg(threads), None);
        assert_eq!(many.points, one.points, "threads={threads}");
        assert_eq!(
            many.checkpoint_stats(),
            one.checkpoint_stats(),
            "threads={threads}"
        );
        assert_eq!(
            many.correct_samples(n).samples,
            samples,
            "threads={threads}"
        );
    }
}

#[test]
fn a_trace_walked_at_one_thread_count_forks_identically_at_another() {
    let tables = tables();
    let results = |walk: usize, fork: usize| {
        let trace = golden_trace(&cfg(walk), None);
        let c = cfg(fork);
        [
            json(&run_with(&c, &trace, None, &RegFlips)),
            json(&run_with(&c, &trace, None, &Recovery(&tables))),
            json(&run_with(&c, &trace, None, &Models)),
            json(&run_with(&c, &trace, None, &MULTIBIT)),
        ]
    };
    let baseline = results(1, 1);
    assert_eq!(baseline[0], json(&run(&cfg(1), None, &RegFlips)));
    for (walk, fork) in [(1, 4), (4, 1), (7, 2)] {
        assert_eq!(
            results(walk, fork),
            baseline,
            "walked at {walk}, forked at {fork}"
        );
    }
}
