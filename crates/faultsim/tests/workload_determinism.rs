//! Determinism and exit-mix contracts for the adversarial guest
//! workloads (interrupt storm, event-channel ping-pong, hypercall-heavy
//! mix): same seed means byte-identical campaigns at any thread count,
//! and each profile must actually stress the exit-reason corner it is
//! named for — otherwise the classifier-coverage argument is hollow.

use faultsim::campaign::{golden_trace, run, Models};
use faultsim::{campaign_platform, run_campaign, CampaignConfig};
use guest_sim::Benchmark;
use std::collections::BTreeMap;
use xentry::Xentry;

fn cfg(b: Benchmark, threads: usize) -> CampaignConfig {
    let mut c = CampaignConfig::paper(b, 48, 31);
    c.warmup = 30;
    c.threads = threads;
    c
}

#[test]
fn adversarial_campaigns_are_thread_count_invariant() {
    for b in Benchmark::ADVERSARIAL {
        let reg_base = serde_json::to_string(&run_campaign(&cfg(b, 1), None)).unwrap();
        let model_base = serde_json::to_string(&run(&cfg(b, 1), None, &Models)).unwrap();
        for threads in [4, 16] {
            let reg = serde_json::to_string(&run_campaign(&cfg(b, threads), None)).unwrap();
            assert_eq!(
                reg,
                reg_base,
                "{}: threads={threads} changed the register campaign",
                b.name()
            );
            let model = serde_json::to_string(&run(&cfg(b, threads), None, &Models)).unwrap();
            assert_eq!(
                model,
                model_base,
                "{}: threads={threads} changed the model campaign",
                b.name()
            );
        }
    }
}

#[test]
fn adversarial_golden_traces_are_reproducible() {
    for b in Benchmark::ADVERSARIAL {
        let digest = |trace: &faultsim::GoldenTrace| {
            let vmers: Vec<u16> = trace.points.iter().map(|p| p.reason.vmer()).collect();
            serde_json::to_string(&vmers).unwrap()
        };
        let a = golden_trace(&cfg(b, 1), None);
        let b2 = golden_trace(&cfg(b, 1), None);
        assert_eq!(
            digest(&a),
            digest(&b2),
            "{}: golden walk is not a pure function of the seed",
            b.name()
        );
        assert!(!a.points.is_empty(), "{}: empty golden walk", b.name());
    }
}

/// Exit-reason histogram over `n` raw VM exits of the observed CPU,
/// after the same warmup the campaigns use.
fn exit_histogram(b: Benchmark, n: usize) -> BTreeMap<u16, usize> {
    let c = cfg(b, 1);
    let mut plat = campaign_platform(&c, c.seed);
    let mut shim = Xentry::collector();
    plat.boot(1, &mut shim);
    for _ in 0..30 {
        assert!(plat.run_activation(1, &mut shim).outcome.is_healthy());
    }
    let mut h = BTreeMap::new();
    for _ in 0..n {
        let (reason, _gc) = plat.run_to_exit(1);
        *h.entry(reason.vmer()).or_insert(0usize) += 1;
        plat.run_handler(1, reason, 0, &mut shim);
    }
    h
}

/// VMER bands of the dense code layout (see `ExitReason::vmer`).
fn band(h: &BTreeMap<u16, usize>, lo: u16, hi: u16) -> usize {
    h.iter()
        .filter(|(v, _)| (lo..hi).contains(*v))
        .map(|(_, n)| n)
        .sum()
}

#[test]
fn each_adversarial_profile_stresses_its_exit_corner() {
    const N: usize = 600;
    let storm = exit_histogram(Benchmark::IrqStorm, N);
    let pingpong = exit_histogram(Benchmark::EvtchnPingPong, N);
    let heavy = exit_histogram(Benchmark::HypercallHeavy, N);
    let baseline = exit_histogram(Benchmark::Freqmine, N);
    for (name, h) in [
        ("irq-storm", &storm),
        ("evtchn-pingpong", &pingpong),
        ("hypercall-heavy", &heavy),
        ("freqmine", &baseline),
    ] {
        eprintln!(
            "{name}: hypercalls {} exceptions {} async {} hw-assist {} distinct-hc {} :: {h:?}",
            band(h, 0, 38),
            band(h, 38, 58),
            band(h, 58, 86),
            band(h, 86, 91),
            h.keys().filter(|v| **v < 38).count(),
        );
    }

    // The storm hammers the hardware-interrupt corner: its device-IRQ
    // exits (VMER band 58..74) clearly outnumber the paper benchmark's,
    // and the whole asynchronous band is denser too.
    let dev = |h: &BTreeMap<u16, usize>| band(h, 58, 74);
    assert!(
        dev(&storm) >= 30 && dev(&storm) as f64 > 1.3 * dev(&baseline) as f64,
        "irq-storm device-IRQ exits {} vs freqmine {}",
        dev(&storm),
        dev(&baseline)
    );
    assert!(
        band(&storm, 58, 86) > band(&baseline, 58, 86),
        "irq-storm async band {} vs freqmine {}",
        band(&storm, 58, 86),
        band(&baseline, 58, 86)
    );

    // The ping-pong lives in a two-hypercall echo chamber: among its
    // hypercall exits, the top two numbers carry the majority.
    let hc_total = band(&pingpong, 0, 38);
    let mut hc: Vec<usize> = pingpong
        .iter()
        .filter(|(v, _)| **v < 38)
        .map(|(_, n)| *n)
        .collect();
    hc.sort_unstable_by(|a, b| b.cmp(a));
    let top2: usize = hc.iter().take(2).sum();
    assert!(
        hc_total > 0 && top2 * 2 > hc_total,
        "evtchn-pingpong top-2 hypercalls {top2} of {hc_total}"
    );

    // The hypercall-heavy mix walks the widest stretch of the hypercall
    // table — strictly more distinct hypercall numbers than either other
    // adversarial profile exercises.
    let distinct_hc = |h: &BTreeMap<u16, usize>| h.keys().filter(|v| **v < 38).count();
    assert!(
        distinct_hc(&heavy) > distinct_hc(&pingpong),
        "hypercall-heavy {} distinct vs ping-pong {}",
        distinct_hc(&heavy),
        distinct_hc(&pingpong)
    );
    assert!(
        distinct_hc(&heavy) > distinct_hc(&storm),
        "hypercall-heavy {} distinct vs irq-storm {}",
        distinct_hc(&heavy),
        distinct_hc(&storm)
    );
    assert!(
        distinct_hc(&heavy) >= 10,
        "hypercall-heavy mix too narrow: {} distinct",
        distinct_hc(&heavy)
    );
}
