//! Checkpoint-fork equivalence: the forked engine must reproduce the
//! from-boot engine exactly — same injections, same outcome for every
//! record — and both must match a golden corpus committed under
//! `tests/golden/`, so any future drift in the walk, the spec schedule
//! or the outcome taxonomy is caught as a diff against a pinned file.
//!
//! The corpus covers every fault model the engine can produce: `reg`
//! (the paper's single-bit register flips) plus the extended models
//! `burst` (spatial multi-bit), `pte` (page-table-entry strikes) and
//! `pmc` (performance-counter strikes).
//!
//! A second pinned file, `fault_paths.json`, holds what the corpus does
//! not: whole recovery records (every policy ladder a detected fault
//! went through) and multi-bit record pairs.
//!
//! Regenerate both (after an *intentional* engine change) with:
//!
//! ```text
//! XENTRY_UPDATE_GOLDEN=1 cargo test -p xentry-integration-tests \
//!     --test campaign_equivalence
//! ```

use faultsim::campaign::{
    golden_trace, run_from_boot, run_with, Models, Multibit, Recovery, RegFlips,
};
use faultsim::{CampaignConfig, HmTable, InjectionRecord, ModelRecord, RecoveryRecord};
use guest_sim::Benchmark;
use serde::{Deserialize, Serialize};
use std::path::PathBuf;

fn corpus_cfg() -> CampaignConfig {
    let mut c = CampaignConfig::paper(Benchmark::Freqmine, 48, 2014);
    c.warmup = 30;
    c.threads = 2;
    c
}

/// One corpus row: the spec that was injected and everything the engine
/// concluded about it. `FaultOutcome` serializes latency and consequence
/// fields too, so the pin covers the full outcome class.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct CorpusRecord {
    vmer: u16,
    target: String,
    bit: u8,
    at_step: u64,
    outcome: faultsim::FaultOutcome,
}

/// One extended-model corpus row: a [`ModelRecord`]'s labels, derived from
/// its spec, and its outcome.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct ModelCorpusRecord {
    ordinal: usize,
    vmer: u16,
    class: String,
    target: String,
    bit: u8,
    at_step: u64,
    outcome: faultsim::FaultOutcome,
}

/// The committed corpus: one pinned record list per fault model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Corpus {
    reg: Vec<CorpusRecord>,
    burst: Vec<ModelCorpusRecord>,
    pte: Vec<ModelCorpusRecord>,
    pmc: Vec<ModelCorpusRecord>,
}

fn corpus_of(records: &[InjectionRecord]) -> Vec<CorpusRecord> {
    records
        .iter()
        .map(|r| CorpusRecord {
            vmer: r.vmer,
            target: format!("{:?}", r.target),
            bit: r.bit,
            at_step: r.at_step,
            outcome: r.outcome.clone(),
        })
        .collect()
}

fn model_corpus_of(records: &[ModelRecord], class: &str) -> Vec<ModelCorpusRecord> {
    records
        .iter()
        .filter(|r| r.spec.class() == class)
        .map(|r| ModelCorpusRecord {
            ordinal: r.ordinal,
            vmer: r.vmer,
            class: r.spec.class().to_string(),
            target: r.spec.target_label(),
            bit: r.spec.bit(),
            at_step: r.spec.at_step(),
            outcome: r.outcome.clone(),
        })
        .collect()
}

fn golden_path(file: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("golden")
        .join(file)
}

/// The recovery and multi-bit records at the corpus configuration, whole.
#[derive(Debug, Serialize, Deserialize)]
struct FaultPaths {
    recovery: Vec<RecoveryRecord>,
    multibit: Vec<(InjectionRecord, InjectionRecord)>,
}

#[test]
fn forked_engine_matches_from_boot_and_the_golden_corpus() {
    let cfg = corpus_cfg();

    // Checkpoint-forked run.
    let trace = golden_trace(&cfg, None);
    let forked = run_with(&cfg, &trace, None, &RegFlips);
    assert_eq!(forked.len(), cfg.injections);

    // From-boot reference: every injection replayed from a fresh boot.
    let boot = run_from_boot(&cfg, None, &RegFlips);
    assert_eq!(
        serde_json::to_string(&boot).unwrap(),
        serde_json::to_string(&forked).unwrap(),
        "checkpoint forking changed the campaign result"
    );

    // Every outcome class from the from-boot campaign appears with the
    // same count in the forked one (implied by the byte equality above,
    // asserted separately so a future relaxation of the byte check still
    // guards the class distribution).
    let class = |rs: &[InjectionRecord]| {
        let mut m = std::collections::BTreeMap::new();
        for r in rs {
            *m.entry(format!("{:?}", std::mem::discriminant(&r.outcome)))
                .or_insert(0usize) += 1;
        }
        m
    };
    assert_eq!(class(&boot), class(&forked));

    // Extended-model campaign over the same golden trace, byte-identical
    // across thread counts (the model schedule is a pure function of the
    // config, and chunks reassemble in id order).
    let model = run_with(&cfg, &trace, None, &Models);
    assert_eq!(model.len(), cfg.injections);
    let mut serial_cfg = cfg.clone();
    serial_cfg.threads = 1;
    let serial = run_with(&serial_cfg, &trace, None, &Models);
    assert_eq!(
        serde_json::to_string(&serial).unwrap(),
        serde_json::to_string(&model).unwrap(),
        "thread count changed the model-campaign result"
    );

    // Pin every fault model against the committed corpus.
    let got = Corpus {
        reg: corpus_of(&forked),
        burst: model_corpus_of(&model, "burst"),
        pte: model_corpus_of(&model, "pte"),
        pmc: model_corpus_of(&model, "pmc"),
    };
    for (name, len) in [
        ("burst", got.burst.len()),
        ("pte", got.pte.len()),
        ("pmc", got.pmc.len()),
    ] {
        assert!(len > 0, "model campaign produced no {name} records");
    }
    let path = golden_path("campaign_corpus.json");
    if std::env::var("XENTRY_UPDATE_GOLDEN").is_ok() {
        faultsim::write_atomic(
            &path,
            serde_json::to_string_pretty(&got).unwrap().as_bytes(),
        )
        .unwrap();
        eprintln!("regenerated {path:?}");
        return;
    }
    let want: Corpus = serde_json::from_str(
        &std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("missing golden corpus {path:?}: {e}")),
    )
    .expect("golden corpus parses");
    assert_eq!(got.reg.len(), want.reg.len(), "reg corpus length changed");
    for (i, (g, w)) in got.reg.iter().zip(want.reg.iter()).enumerate() {
        assert_eq!(g, w, "reg corpus record {i} diverged");
    }
    for (name, g_rows, w_rows) in [
        ("burst", &got.burst, &want.burst),
        ("pte", &got.pte, &want.pte),
        ("pmc", &got.pmc, &want.pmc),
    ] {
        assert_eq!(g_rows.len(), w_rows.len(), "{name} corpus length changed");
        for (i, (g, w)) in g_rows.iter().zip(w_rows.iter()).enumerate() {
            assert_eq!(g, w, "{name} corpus record {i} diverged");
        }
    }
}

#[test]
fn recovery_ladders_and_multibit_pairs_match_the_pinned_records() {
    let cfg = corpus_cfg();
    let trace = golden_trace(&cfg, None);
    let tables = [
        HmTable::ignore_all(),
        HmTable::reexecute_only(),
        HmTable::tiered(),
    ];
    let got = FaultPaths {
        recovery: run_with(&cfg, &trace, None, &Recovery(&tables)),
        multibit: run_with(&cfg, &trace, None, &Multibit { bits: 2 }),
    };
    assert_eq!(got.recovery.len(), cfg.injections);
    assert_eq!(got.multibit.len(), cfg.injections);
    let got = serde_json::to_string_pretty(&got).unwrap();
    let path = golden_path("fault_paths.json");
    if std::env::var("XENTRY_UPDATE_GOLDEN").is_ok() {
        faultsim::write_atomic(&path, got.as_bytes()).unwrap();
        eprintln!("regenerated {path:?}");
        return;
    }
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing pinned records {path:?}: {e}"));
    // Name the first record that moved before comparing the bytes.
    let (g, w): (FaultPaths, FaultPaths) = (
        serde_json::from_str(&got).unwrap(),
        serde_json::from_str(&want).expect("pinned records parse"),
    );
    fn json(v: &impl Serialize) -> String {
        serde_json::to_string(v).unwrap()
    }
    for (i, (g, w)) in g.recovery.iter().zip(&w.recovery).enumerate() {
        assert_eq!(json(g), json(w), "recovery record {i} diverged");
    }
    for (i, (g, w)) in g.multibit.iter().zip(&w.multibit).enumerate() {
        assert_eq!(json(g), json(w), "multi-bit pair {i} diverged");
    }
    assert!(got == want, "pinned records changed");
}
