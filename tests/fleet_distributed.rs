//! Loopback distributed integration test: real processes, real sockets.
//!
//! `run_distributed` (this package's `distributed` module) spawns
//! host-agent child processes (the `wire-host` bin of this package) plus
//! an in-process aggregator, SIGKILLs one host mid-run and restarts it
//! with a higher incarnation, and publishes a retrained model epoch over
//! the wire. The assertions: the fleet-wide accounting identity is exact
//! across the kill/reconnect, the pushed epoch is admitted through
//! `hot_swap_validated` on every surviving host, and the aggregator's
//! `/metrics` answers while the fleet is live.

use std::path::PathBuf;
use xentry_integration_tests::distributed::{run_distributed, DistributedConfig, DistributedRun};

/// Throttled enough that the kill lands mid-replay, small enough for the
/// test budget.
fn test_config(hosts: usize) -> DistributedConfig {
    DistributedConfig {
        hosts,
        records_per_host: 12_000,
        rate_per_host: 12_000.0,
        kill_restart_host: Some(0),
        publish_model: true,
        child_exe: PathBuf::from(env!("CARGO_BIN_EXE_wire-host")),
    }
}

/// The aggregator's `/metrics`, scraped mid-run, answered and carried one
/// up-gauge per host plus the fleet-wide accounting series.
fn assert_live_scrape(report: &DistributedRun, hosts: usize) {
    let series = |name: &str| report.scrape.iter().filter(|(n, _, _)| n == name).count();
    assert_eq!(report.scrape_status, 200, "mid-run /metrics scrape");
    assert_eq!(series("xentry_agg_host_up"), hosts);
    assert_eq!(series("xentry_agg_ingested_total"), 1);
    assert_eq!(series("xentry_agg_accounting_identity"), 1);
}

#[test]
fn distributed_replay_survives_kill_and_converges() {
    let report = run_distributed(&test_config(3)).expect("distributed run completes");

    // --- Accounting identity, exact, across a forced kill/reconnect.
    let fleet = &report.aggregator.fleet;
    assert_eq!(
        fleet.ingested,
        fleet.classified + fleet.lost,
        "fleet-wide ingested == classified + lost must be exact"
    );
    assert_eq!(fleet.in_flight, 0, "finalization closes every window");
    assert!(report.aggregator.accounting_identity());
    assert_eq!(fleet.identity_violations, 0);

    // --- The kill/reconnect actually happened and was reconciled.
    let killed = report.killed_host.expect("drill configured");
    let victim = report
        .aggregator
        .hosts
        .iter()
        .find(|h| h.id == killed)
        .expect("victim tracked");
    assert!(victim.sessions >= 2, "victim reconnected");
    assert!(
        victim.incarnation >= 2,
        "victim restarted as a new incarnation"
    );
    assert!(fleet.reconnects >= 1);
    // The SIGKILLed incarnation sent no Bye: whatever its last summary
    // held in flight was folded into lost, not silently dropped.
    assert_eq!(
        victim.counters.ingested,
        victim.counters.classified + victim.counters.lost
    );

    // --- Model epoch propagated and admitted on every host.
    let published_epoch = report.aggregator.published_epoch;
    assert!(published_epoch > 0);
    assert!(
        report.aggregator.model_converged(),
        "every host admitted the pushed epoch"
    );
    for host in &report.aggregator.hosts {
        assert_eq!(host.model_epoch, report.aggregator.published_epoch);
        assert_eq!(
            host.model_fingerprint,
            report.aggregator.published_fingerprint
        );
        assert!(host.clean_bye, "every final incarnation exited cleanly");
    }
    // Admission went through hot_swap_validated on each child (the
    // agent counts them), and none diverged.
    assert_eq!(fleet.model_divergences, 0);
    for child in report
        .children
        .iter()
        .filter(|c| c.agent.model_epoch == published_epoch)
    {
        assert!(child.agent.models_admitted >= 1);
    }
    assert!(
        report
            .children
            .iter()
            .all(|c| c.agent.model_epoch == published_epoch),
        "every surviving child converged on the published epoch"
    );

    assert!(report.children.iter().all(|c| c.drained));

    assert_live_scrape(&report, 3);
}

#[test]
fn distributed_replay_without_drills_is_exact_too() {
    let mut cfg = test_config(2);
    cfg.records_per_host = 6_000;
    cfg.rate_per_host = 0.0; // unthrottled: fastest possible run
    cfg.kill_restart_host = None;
    cfg.publish_model = false;
    let report = run_distributed(&cfg).expect("plain run completes");
    let fleet = &report.aggregator.fleet;
    assert_eq!(fleet.ingested, fleet.classified + fleet.lost);
    assert_eq!(fleet.reconciled_lost, 0, "clean Byes strand nothing");
    assert_eq!(fleet.sessions, 2);
    assert_eq!(fleet.reconnects, 0);
    assert!(report.children.iter().all(|c| c.drained));
    assert_eq!(fleet.in_flight, 0);
    assert_live_scrape(&report, 2);
}
