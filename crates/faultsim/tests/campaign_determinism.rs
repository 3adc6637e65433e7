//! The determinism contract of the campaign engine: for a fixed seed the
//! campaign result is a pure function of the configuration — thread count
//! must not change a byte, and an interrupted + resumed campaign must be
//! indistinguishable from an uninterrupted one.

use faultsim::campaign::{run_campaign_resumable, CampaignRun};
use faultsim::{run_campaign, CampaignConfig, CampaignResult};
use guest_sim::Benchmark;

fn cfg(threads: usize) -> CampaignConfig {
    let mut c = CampaignConfig::paper(Benchmark::Canneal, 72, 23);
    c.warmup = 30;
    c.threads = threads;
    c
}

fn result_json(res: &CampaignResult) -> String {
    serde_json::to_string(res).expect("campaign result serializes")
}

#[test]
fn thread_count_never_changes_a_byte() {
    let baseline = result_json(&run_campaign(&cfg(1), None));
    for threads in [4, 16] {
        let got = result_json(&run_campaign(&cfg(threads), None));
        assert_eq!(
            got, baseline,
            "threads={threads} produced a different campaign result"
        );
    }
}

#[test]
fn interrupted_campaign_resumes_to_the_identical_result() {
    let c = cfg(2);
    let dir = std::env::temp_dir().join("xentry_campaign_determinism");
    let _ = std::fs::remove_dir_all(&dir);
    let journal = dir.join("campaign.journal");

    // A straight run is the reference.
    let fresh = result_json(&run_campaign(&c, None));

    // Kill the campaign after the first chunk...
    let first = run_campaign_resumable(&c, None, &journal, Some(1)).unwrap();
    match first {
        CampaignRun::Interrupted {
            chunks_done,
            chunks_total,
        } => {
            assert!(chunks_done >= 1);
            assert!(chunks_done < chunks_total);
        }
        CampaignRun::Complete(_) => panic!("stop_after_chunks=1 should interrupt"),
    }
    assert!(journal.exists(), "interrupt must leave a journal behind");

    // ...and resume: same bytes as the uninterrupted run.
    match run_campaign_resumable(&c, None, &journal, None).unwrap() {
        CampaignRun::Complete(res) => assert_eq!(result_json(&res), fresh),
        CampaignRun::Interrupted { .. } => panic!("resume did not complete"),
    }

    // A third invocation short-circuits off the complete journal.
    match run_campaign_resumable(&c, None, &journal, Some(0)).unwrap() {
        CampaignRun::Complete(res) => assert_eq!(result_json(&res), fresh),
        CampaignRun::Interrupted { .. } => panic!("complete journal should short-circuit"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn stale_journal_from_a_different_config_is_ignored() {
    let a = cfg(2);
    let mut b = cfg(2);
    b.seed += 1;
    let dir = std::env::temp_dir().join("xentry_campaign_stale_journal");
    let _ = std::fs::remove_dir_all(&dir);
    let journal = dir.join("campaign.journal");

    // Leave a partial journal for config `a`...
    let _ = run_campaign_resumable(&a, None, &journal, Some(1)).unwrap();
    // ...then run config `b` against the same path: it must start from
    // scratch and still match a fresh `b` campaign.
    let fresh_b = result_json(&run_campaign(&b, None));
    match run_campaign_resumable(&b, None, &journal, None).unwrap() {
        CampaignRun::Complete(res) => assert_eq!(result_json(&res), fresh_b),
        CampaignRun::Interrupted { .. } => panic!("resume did not complete"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// Recovery phase: same contract, policy tables included in the fingerprint
// ---------------------------------------------------------------------------

use faultsim::campaign::{
    run_recovery_campaign, run_recovery_campaign_resumable, RecoveryCampaignResult,
    RecoveryCampaignRun,
};
use faultsim::policy::HmTable;

fn recovery_tables() -> Vec<HmTable> {
    vec![HmTable::reexecute_only(), HmTable::tiered()]
}

fn recovery_json(res: &RecoveryCampaignResult) -> String {
    serde_json::to_string(&res.records).expect("recovery records serialize")
}

#[test]
fn recovery_thread_count_never_changes_a_byte() {
    let tables = recovery_tables();
    let baseline = recovery_json(&run_recovery_campaign(&cfg(1), None, &tables));
    let got = recovery_json(&run_recovery_campaign(&cfg(4), None, &tables));
    assert_eq!(
        got, baseline,
        "threads=4 produced a different recovery campaign result"
    );
}

#[test]
fn interrupted_recovery_campaign_resumes_to_the_identical_result() {
    let c = cfg(2);
    let tables = recovery_tables();
    let dir = std::env::temp_dir().join("xentry_recovery_determinism");
    let _ = std::fs::remove_dir_all(&dir);
    let journal = dir.join("recovery.journal");

    // A straight run is the reference.
    let fresh = recovery_json(&run_recovery_campaign(&c, None, &tables));

    // Kill the campaign mid-recovery-phase, after the first chunk...
    let first = run_recovery_campaign_resumable(&c, None, &tables, &journal, Some(1)).unwrap();
    match first {
        RecoveryCampaignRun::Interrupted {
            chunks_done,
            chunks_total,
        } => {
            assert!(chunks_done >= 1);
            assert!(chunks_done < chunks_total);
        }
        RecoveryCampaignRun::Complete(_) => panic!("stop_after_chunks=1 should interrupt"),
    }
    assert!(journal.exists(), "interrupt must leave a journal behind");

    // ...and resume: same bytes as the uninterrupted run.
    match run_recovery_campaign_resumable(&c, None, &tables, &journal, None).unwrap() {
        RecoveryCampaignRun::Complete(res) => assert_eq!(recovery_json(&res), fresh),
        RecoveryCampaignRun::Interrupted { .. } => panic!("resume did not complete"),
    }

    // A journal written under a different policy set must be ignored.
    let other = vec![HmTable::ignore_all()];
    let fresh_other = recovery_json(&run_recovery_campaign(&c, None, &other));
    match run_recovery_campaign_resumable(&c, None, &other, &journal, None).unwrap() {
        RecoveryCampaignRun::Complete(res) => assert_eq!(recovery_json(&res), fresh_other),
        RecoveryCampaignRun::Interrupted { .. } => panic!("resume did not complete"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// Phase 1 runs on `threads` workers beside the walking caller: the trace it
// freezes must not know how many there were
// ---------------------------------------------------------------------------

use faultsim::campaign::{golden_trace, run_campaign_with, run_model_campaign_with};
use faultsim::run_recovery_campaign_with;

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
    let tables = recovery_tables();
    let results = |walk: usize, fork: usize| {
        let trace = golden_trace(&cfg(walk), None);
        let c = cfg(fork);
        [
            result_json(&run_campaign_with(&c, &trace, None)),
            recovery_json(&run_recovery_campaign_with(&c, &trace, None, &tables)),
            serde_json::to_string(&run_model_campaign_with(&c, &trace, None)).unwrap(),
        ]
    };
    let baseline = results(1, 1);
    assert_eq!(baseline[0], result_json(&run_campaign(&cfg(1), None)));
    for (walk, fork) in [(1, 4), (4, 1), (7, 2)] {
        assert_eq!(
            results(walk, fork),
            baseline,
            "walked at {walk}, forked at {fork}"
        );
    }
}

#[test]
fn resuming_at_another_thread_count_still_equals_the_straight_run() {
    let dir = std::env::temp_dir().join("xentry_campaign_resume_threads");
    let _ = std::fs::remove_dir_all(&dir);
    let journal = dir.join("campaign.journal");
    let fresh = result_json(&run_campaign(&cfg(1), None));
    // One worker stops exactly after its first chunk; several could all
    // finish one before any of them looks at the cap.
    let first = run_campaign_resumable(&cfg(1), None, &journal, Some(1)).unwrap();
    assert!(matches!(first, CampaignRun::Interrupted { .. }));
    match run_campaign_resumable(&cfg(4), None, &journal, None).unwrap() {
        CampaignRun::Complete(res) => assert_eq!(result_json(&res), fresh),
        CampaignRun::Interrupted { .. } => panic!("resume did not complete"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}
