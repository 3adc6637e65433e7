//! Campaign journaling: crash-safe persistence of completed work chunks.
//!
//! A campaign is divided into checkpoint-aligned chunks (see
//! [`crate::campaign`]); after each chunk completes, the journal is
//! rewritten atomically (temp file + rename, so a kill mid-write leaves
//! either the old journal or the new one, never a torn file). A restarted
//! campaign with the same configuration loads the journal and recomputes
//! only the missing chunks — the engine is deterministic, so the resumed
//! result is bit-identical to an uninterrupted run.
//!
//! A journal is trusted only whole: it carries a digest of its chunks'
//! JSON, so a file corrupted after it was written (a flipped bit, a torn
//! copy) loads as absent, and the campaign starts over instead of resuming
//! records nobody computed.

use crate::injection::InjectionRecord;
use serde::{Deserialize, Serialize, Value};
use std::collections::BTreeMap;
use std::io;
use std::path::Path;

/// Digest of a chunk map's compact JSON: what a journal's `chunks_digest`
/// must equal for the journal to load.
fn chunks_digest(chunks_json: &str) -> u64 {
    let mut h = 0x6a6f_7572;
    for b in chunks_json.bytes() {
        h = sim_machine::fold64(h, b as u64);
    }
    h
}

/// On-disk record of a partially completed campaign, generic over the
/// per-injection record type ([`crate::campaign::Experiment::Record`]).
#[derive(Debug, Clone)]
pub struct CampaignJournal<R = InjectionRecord> {
    /// [`crate::campaign::Experiment::fingerprint`] of the campaign that
    /// produced the chunks (stable across processes). A journal from a
    /// different configuration or experiment is ignored, not resumed.
    pub config_digest: u64,
    /// Total chunks the campaign will produce when complete.
    pub chunks_total: usize,
    /// Completed chunks, keyed by chunk index.
    pub chunks: BTreeMap<usize, Vec<R>>,
    /// Digest of `chunks` as saved (see [`CampaignJournal::save`]).
    pub chunks_digest: u64,
}

// The vendored serde derive does not support generic types, so the
// journal passes through the value data model by hand.
impl<R: Deserialize> Deserialize for CampaignJournal<R> {
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        let obj = v
            .as_object()
            .ok_or_else(|| serde::Error::expected("object", "CampaignJournal", v))?;
        Ok(CampaignJournal {
            config_digest: serde::field(obj, "config_digest", "CampaignJournal")?,
            chunks_total: serde::field(obj, "chunks_total", "CampaignJournal")?,
            chunks: serde::field(obj, "chunks", "CampaignJournal")?,
            chunks_digest: serde::field(obj, "chunks_digest", "CampaignJournal")?,
        })
    }
}

impl<R: Serialize + Deserialize> CampaignJournal<R> {
    /// Load a journal, returning `None` when the file is absent, unreadable,
    /// does not match the expected configuration, holds a chunk index
    /// outside `0..chunks_total`, or holds chunks whose digest is not the
    /// one saved with them — in every such case the campaign simply starts
    /// from scratch. Whether each chunk holds as many records as its points
    /// owe is the caller's check ([`crate::campaign::run_resumable`]).
    pub fn load_matching(
        path: &Path,
        config_digest: u64,
        chunks_total: usize,
    ) -> Option<CampaignJournal<R>> {
        let text = std::fs::read_to_string(path).ok()?;
        let j: CampaignJournal<R> = serde_json::from_str(&text).ok()?;
        let in_range = j.chunks.keys().all(|&k| k < chunks_total);
        let intact = serde_json::to_string(&j.chunks)
            .is_ok_and(|json| chunks_digest(&json) == j.chunks_digest);
        (j.config_digest == config_digest && j.chunks_total == chunks_total && in_range && intact)
            .then_some(j)
    }

    /// Persist a journal of `chunks` atomically, with the digest of their
    /// JSON. Serialised from the borrowed map: the engine journals under
    /// its chunk-map lock, once per completed chunk, and must not clone
    /// every record so far to do it.
    pub fn save(
        path: &Path,
        config_digest: u64,
        chunks_total: usize,
        chunks: &BTreeMap<usize, Vec<R>>,
    ) -> io::Result<()> {
        let chunks_json = serde_json::to_string(chunks).expect("journal serializes");
        let digest = chunks_digest(&chunks_json);
        let head = Value::Object(vec![
            ("config_digest".into(), config_digest.to_value()),
            ("chunks_total".into(), chunks_total.to_value()),
            ("chunks_digest".into(), digest.to_value()),
        ]);
        let head = serde_json::to_string(&head).expect("journal serializes");
        // The head's closing brace gives way to the chunks, serialised once.
        let json = format!("{},\"chunks\":{chunks_json}}}", &head[..head.len() - 1]);
        sim_machine::write_atomic(path, json.as_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_atomic_replaces_whole_file() {
        let dir = std::env::temp_dir().join(format!("xentry_journal_test_{}", std::process::id()));
        let path = dir.join("j.json");
        sim_machine::write_atomic(&path, b"first").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"first");
        sim_machine::write_atomic(&path, b"second").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"second");
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn temps_of_one_stem_differ_and_a_failed_rename_leaves_none() {
        let dir = std::env::temp_dir().join(format!("xentry_journal_temps_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let (journal, json) = (dir.join("freqmine.journal"), dir.join("freqmine.json"));
        // A journal and a JSON of one stem each land whole, with no temp left.
        let chunks = BTreeMap::from([(0, Vec::<InjectionRecord>::new())]);
        CampaignJournal::save(&journal, 1, 1, &chunks).unwrap();
        sim_machine::write_atomic(&json, b"{}").unwrap();
        let mut names: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        assert_eq!(names, ["freqmine.journal", "freqmine.json"]);
        // Renaming a file onto a directory fails.
        std::fs::remove_file(&json).unwrap();
        std::fs::remove_file(&journal).unwrap();
        std::fs::create_dir_all(&json).unwrap();
        assert!(sim_machine::write_atomic(&json, b"{}").is_err());
        assert!(CampaignJournal::save(&json, 1, 1, &chunks).is_err());
        let left: Vec<_> = std::fs::read_dir(&dir).unwrap().flatten().collect();
        assert_eq!(left.len(), 1, "only the directory remains: {left:?}");
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn journal_round_trip_and_mismatch_rejection() {
        let dir = std::env::temp_dir().join("xentry_journal_rt");
        let path = dir.join("campaign.journal");
        let chunks = BTreeMap::from([(1, Vec::<InjectionRecord>::new())]);
        CampaignJournal::save(&path, 0xABCD, 3, &chunks).unwrap();
        let back: CampaignJournal = CampaignJournal::load_matching(&path, 0xABCD, 3).unwrap();
        assert_eq!(back.chunks.len(), 1);
        assert!(back.chunks.contains_key(&1));
        // Wrong digest or chunk count → treated as absent.
        assert!(CampaignJournal::<InjectionRecord>::load_matching(&path, 0xABCE, 3).is_none());
        assert!(CampaignJournal::<InjectionRecord>::load_matching(&path, 0xABCD, 4).is_none());
        // Chunks that are not the ones their digest was taken of, or no
        // digest at all → absent.
        let text = std::fs::read_to_string(&path).unwrap();
        for tampered in [
            text.replace("\"1\":[]", "\"2\":[]"),
            text.replace("chunks_digest", "digest"),
        ] {
            assert_ne!(tampered, text);
            std::fs::write(&path, tampered).unwrap();
            assert!(CampaignJournal::<InjectionRecord>::load_matching(&path, 0xABCD, 3).is_none());
        }
        // As many chunks as the campaign has, but one key out of range: a
        // resume would count it complete and never run chunk 3.
        let stray = BTreeMap::from([0, 1, 2, 99].map(|k| (k, Vec::<InjectionRecord>::new())));
        CampaignJournal::save(&path, 0xABCD, 4, &stray).unwrap();
        assert!(CampaignJournal::<InjectionRecord>::load_matching(&path, 0xABCD, 4).is_none());
        let _ = std::fs::remove_dir_all(dir);
    }
}
