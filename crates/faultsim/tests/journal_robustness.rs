//! A campaign journal is a shortcut, never a source of records: whatever
//! bytes sit at the journal path — garbage, a torn prefix of a real
//! journal, a real journal with one bit flipped, one re-saved with a
//! record lost or duplicated, nesting deep enough to overflow a recursive
//! parser — `run_resumable` returns `Complete` with exactly `run`'s
//! records, and never panics.

use faultsim::campaign::{run, run_resumable, Experiment, RegFlips, Run};
use faultsim::{CampaignConfig, CampaignJournal};
use guest_sim::Benchmark;
use proptest::prelude::*;
use serde::Value;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

/// Freqmine, seed 7, one thread: 64 injections at 16 points, two chunks
/// of eight points each.
fn cfg() -> CampaignConfig {
    let mut c = CampaignConfig::paper(Benchmark::Freqmine, 64, 7);
    c.warmup = 30;
    c.threads = 1;
    c
}

fn json<R: serde::Serialize>(records: &[R]) -> String {
    serde_json::to_string(records).expect("records serialize")
}

/// A journal path of its own per test, cleared.
fn journal_at(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "xentry_journal_robustness_{test}_{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir.join("campaign.journal")
}

/// The uninterrupted campaign's records, and the bytes of the journal a
/// run stopped after its first chunk leaves.
fn fixture() -> &'static (String, Vec<u8>) {
    static FIXTURE: OnceLock<(String, Vec<u8>)> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let journal = journal_at("fixture");
        let stopped = run_resumable(&cfg(), None, &RegFlips, &journal, Some(1)).unwrap();
        assert!(matches!(stopped, Run::Interrupted { chunks_done: 1, .. }));
        let bytes = std::fs::read(&journal).unwrap();
        let _ = std::fs::remove_dir_all(journal.parent().unwrap());
        (json(&run(&cfg(), None, &RegFlips)), bytes)
    })
}

/// Resume from whatever `journal` holds: the uninterrupted records.
fn resumes_to_the_straight_run(journal: &Path) -> Result<(), String> {
    match run_resumable(&cfg(), None, &RegFlips, journal, None) {
        Ok(Run::Complete(records)) if json(&records) == fixture().0 => Ok(()),
        Ok(Run::Complete(records)) => Err(format!("{} records differ", records.len())),
        Ok(Run::Interrupted { .. }) => Err("interrupted".into()),
        Err(e) => Err(format!("error: {e}")),
    }
}

/// The first chunk of the fixture's journal, edited by `edit` and saved
/// back through the journal's own writer (so its digest is right).
fn resave_edited(journal: &Path, edit: impl FnOnce(&mut Vec<Value>)) {
    std::fs::write(journal, &fixture().1).unwrap();
    let (fp, total) = (RegFlips.fingerprint(&cfg()), cfg().nr_chunks());
    let mut j: CampaignJournal<Value> = CampaignJournal::load_matching(journal, fp, total).unwrap();
    let first = j.chunks.get_mut(&0).expect("the first chunk is journaled");
    assert_eq!(first.len(), cfg().due_in_chunk(0));
    edit(first);
    CampaignJournal::save(journal, fp, total, &j.chunks).unwrap();
}

#[test]
fn a_chunk_short_or_long_of_its_injections_is_computed_again() {
    let journal = journal_at("counts");
    assert_eq!(cfg().nr_chunks(), 2);
    assert_eq!((0..2).map(|c| cfg().due_in_chunk(c)).sum::<usize>(), 64);
    // The fixture's journal itself resumes.
    std::fs::write(&journal, &fixture().1).unwrap();
    resumes_to_the_straight_run(&journal).unwrap();
    // A record lost: 31 of 32 would resume as complete with 63 records.
    resave_edited(&journal, |records| {
        records.pop();
    });
    resumes_to_the_straight_run(&journal).unwrap();
    // A record duplicated.
    resave_edited(&journal, |records| {
        let last = records.last().unwrap().clone();
        records.push(last);
    });
    resumes_to_the_straight_run(&journal).unwrap();
    let _ = std::fs::remove_dir_all(journal.parent().unwrap());
}

#[test]
fn deeply_nested_bytes_load_as_no_journal() {
    let journal = journal_at("nesting");
    std::fs::write(&journal, "[".repeat(200_000)).unwrap();
    let (fp, total) = (RegFlips.fingerprint(&cfg()), cfg().nr_chunks());
    assert!(CampaignJournal::<Value>::load_matching(&journal, fp, total).is_none());
    resumes_to_the_straight_run(&journal).unwrap();
    let _ = std::fs::remove_dir_all(journal.parent().unwrap());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Arbitrary bytes, a truncation of the fixture's journal, or the
    /// fixture's journal with one bit flipped.
    #[test]
    fn any_journal_bytes_resume_to_the_straight_run(
        kind in 0u8..3,
        noise in proptest::collection::vec(any::<u8>(), 0..256),
        at in any::<u64>(),
    ) {
        let valid = &fixture().1;
        let bytes = match kind {
            0 => noise,
            1 => valid[..at as usize % valid.len()].to_vec(),
            _ => {
                let mut flipped = valid.clone();
                let bit = at as usize % (8 * valid.len());
                flipped[bit / 8] ^= 1 << (bit % 8);
                flipped
            }
        };
        let journal = journal_at("bytes");
        std::fs::write(&journal, &bytes).unwrap();
        let resumed = resumes_to_the_straight_run(&journal);
        let _ = std::fs::remove_dir_all(journal.parent().unwrap());
        prop_assert_eq!(resumed, Ok(()));
    }
}
