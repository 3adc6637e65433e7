//! # xentry-wire — the distributed tier of the fleet
//!
//! `xentry-fleet` scales the paper's per-hypervisor detector to many
//! hosts inside one process. This crate scales it across processes and
//! machines: each host runs its own `FleetService` wrapped by a
//! [`HostAgent`], and a regional [`Aggregator`] merges the fleet-wide
//! picture over a std-only wire protocol.
//!
//! ```text
//!   host process 0..N                      aggregator process
//!  ┌──────────────────┐  Summary/credit   ┌───────────────────┐
//!  │ FleetService     │ ────────────────► │ per-host windows  │
//!  │   ▲              │  ModelPublish     │ merge + reconcile │
//!  │ HostAgent ◄──────┼────────────────── │ model epochs      │──► /metrics
//!  │  (reconnect,     │  ModelStatus      │ (xentry_agg_*)    │
//!  │   backpressure)  │ ────────────────► └───────────────────┘
//!  └──────────────────┘   length-prefixed frames over TCP
//! ```
//!
//! * [`frame`] — the length-prefixed binary codec (magic + version +
//!   type + payload) and the timeout-safe [`FrameReader`].
//! * [`topology`] — the star of hosts around the aggregator: wire ids,
//!   names and the per-host credit budget.
//! * [`agent`] — the host-side session: credit-based backpressure,
//!   sequence-numbered summaries, exponential-backoff reconnect, and
//!   model admission through `hot_swap_validated`.
//! * [`aggregator`] — merges cumulative per-host counters so
//!   `ingested == classified + lost` holds fleet-wide even across
//!   disconnects (stranded in-flight windows are reconciled, never
//!   silently dropped), and publishes model epochs down every session.
//!
//! The loopback multi-process drill (real host processes, a SIGKILL and
//! restart, a model pushed over the wire) lives with the test that runs
//! it: `tests/fleet_distributed.rs`. The `fleet-replay` bin replays a
//! trace into one in-process service.

pub mod agent;
pub mod aggregator;
pub mod frame;
pub mod topology;

pub use agent::{AgentConfig, AgentStatus, HostAgent};
pub use aggregator::{
    aggregator_families, render_aggregator_prometheus, Aggregator, AggregatorSnapshot, FleetRollup,
    HostSnapshot,
};
pub use frame::{Frame, FrameError, FrameReader, HostCounters, SummaryFrame};
pub use topology::FleetTopology;

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::{Duration, Instant};
    use xentry_fleet::{replay, FleetConfig, FleetService, NullSink};

    fn local_service(shards: usize) -> Arc<FleetService> {
        let cfg = FleetConfig {
            shards,
            trace_depth: 0,
            ..FleetConfig::default()
        };
        Arc::new(FleetService::start(
            cfg,
            replay::synthetic_detector(1),
            Arc::new(NullSink),
        ))
    }

    fn wait_until(what: &str, timeout: Duration, mut pred: impl FnMut() -> bool) {
        let t0 = Instant::now();
        while !pred() {
            assert!(t0.elapsed() < timeout, "timed out waiting for {what}");
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    /// In-process end-to-end: one agent, one aggregator, summaries
    /// merged, model pushed and admitted, clean Bye.
    #[test]
    fn agent_and_aggregator_converge_in_process() {
        let topology = FleetTopology::star(1, 16).unwrap();
        let agg = Aggregator::start(&topology, "127.0.0.1:0").unwrap();
        let svc = local_service(2);
        let agent = HostAgent::start(
            Arc::clone(&svc),
            AgentConfig::new(0, agg.addr().to_string()),
        );

        let trace = replay::synthetic_trace(2048, 3);
        replay::replay(
            &svc,
            &trace,
            &xentry_fleet::ReplayConfig {
                hosts: 2,
                records_per_host: 4096,
                rate_per_host: 0.0,
            },
        );
        // Wait for a *drained* summary (in-flight window closed), so the
        // final Bye counters match the local shutdown snapshot exactly —
        // a Bye with records still in flight is legal but folds them
        // into `lost` while the local service goes on to classify them.
        wait_until("drained summary", Duration::from_secs(10), || {
            let h = &agg.snapshot().hosts[0];
            h.counters.ingested == 8192 && h.counters.in_flight == 0
        });

        let retrained = replay::synthetic_detector(42);
        let fingerprint = retrained.fingerprint();
        let epoch = agg.publish_model(retrained.to_json(), fingerprint);
        wait_until("model admission", Duration::from_secs(10), || {
            agg.snapshot().hosts[0].model_epoch == epoch
        });
        assert_eq!(agent.status().models_admitted, 1);

        let status = agent.shutdown();
        assert!(status.summaries_sent > 0);
        assert_eq!(status.model_fingerprint, fingerprint);
        wait_until("clean bye", Duration::from_secs(5), || {
            agg.snapshot().hosts[0].clean_bye
        });

        let svc = Arc::try_unwrap(svc).ok().expect("sole owner");
        let local = svc.shutdown();
        let snap = agg.shutdown();
        assert!(snap.accounting_identity());
        assert_eq!(snap.fleet.ingested, local.ingested);
        assert_eq!(snap.fleet.classified, local.classified);
        assert_eq!(snap.fleet.lost, local.lost);
        assert!(snap.model_converged());
        assert_eq!(snap.fleet.model_divergences, 0);
    }

    /// A garbage (undecodable) model push is rejected by the admission
    /// gate; the incumbent keeps serving and the divergence is counted
    /// upstream.
    #[test]
    fn rejected_model_reports_divergence_upstream() {
        let topology = FleetTopology::star(1, 16).unwrap();
        let agg = Aggregator::start(&topology, "127.0.0.1:0").unwrap();
        let svc = local_service(1);
        let before = svc.model_fingerprint();
        let agent = HostAgent::start(
            Arc::clone(&svc),
            AgentConfig::new(0, agg.addr().to_string()),
        );
        wait_until("host up", Duration::from_secs(10), || {
            agg.snapshot().fleet.hosts_up == 1
        });

        agg.publish_model("{\"not\":\"a detector\"}".to_string(), 0xbad);
        wait_until("divergence report", Duration::from_secs(10), || {
            agg.snapshot().fleet.model_divergences == 1
        });
        let status = agent.shutdown();
        assert_eq!(status.models_rejected, 1);
        assert_eq!(status.models_admitted, 0);
        // The incumbent kept serving: that is the local rollback.
        assert_eq!(svc.model_fingerprint(), before);
        let snap = agg.shutdown();
        assert_eq!(snap.hosts[0].divergences, 1);
        assert!(!snap.model_converged());
    }

    /// An agent pointed at a dead port keeps backing off, then converges
    /// once the aggregator appears late.
    #[test]
    fn agent_reconnects_after_late_aggregator() {
        // Reserve a port, start the agent against it, then free it and
        // bind the aggregator there after the agent has failed a few
        // connects.
        let placeholder = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = placeholder.local_addr().unwrap();
        drop(placeholder);

        let svc = local_service(1);
        let agent = HostAgent::start(Arc::clone(&svc), AgentConfig::new(0, addr.to_string()));
        std::thread::sleep(Duration::from_millis(100));
        assert!(!agent.status().connected);

        let topology = FleetTopology::star(1, 16).unwrap();
        let agg = Aggregator::start(&topology, addr).unwrap();
        wait_until("late connect", Duration::from_secs(10), || {
            agg.snapshot().fleet.hosts_up == 1
        });
        agent.shutdown();
        let snap = agg.shutdown();
        assert!(snap.accounting_identity());
    }

    /// A session that dies without a Bye strands its in-flight window;
    /// finalization folds it into `lost` and the identity stays exact.
    #[test]
    fn finalize_reconciles_a_dirty_disconnect() {
        use crate::frame::{write_frame, Frame, FrameReader, SummaryFrame};
        let topology = FleetTopology::star(1, 16).unwrap();
        let agg = Aggregator::start(&topology, "127.0.0.1:0").unwrap();

        // Hand-rolled host: handshake, one summary with in-flight, then
        // vanish (no Bye).
        let mut stream = std::net::TcpStream::connect(agg.addr()).unwrap();
        xentry_fleet::net::configure_stream(
            &stream,
            Some(Duration::from_millis(50)),
            Some(Duration::from_secs(2)),
        )
        .unwrap();
        write_frame(
            &mut stream,
            &Frame::Hello {
                host: 0,
                incarnation: 1,
                last_seq: 0,
                model_epoch: 0,
                model_fingerprint: 0,
            },
        )
        .unwrap();
        let mut reader = FrameReader::new();
        let ack = reader
            .poll_until(&mut stream, Instant::now() + Duration::from_secs(5))
            .unwrap();
        // The declared host gets its link's whole credit budget.
        assert!(matches!(ack, Frame::HelloAck { credits: 16, .. }));
        write_frame(
            &mut stream,
            &Frame::Summary(SummaryFrame {
                seq: 1,
                counters: HostCounters {
                    ingested: 100,
                    classified: 90,
                    lost: 2,
                    dropped: 1,
                    incorrect: 0,
                    in_flight: 8,
                },
                ..SummaryFrame::default()
            }),
        )
        .unwrap();
        wait_until("summary merged", Duration::from_secs(5), || {
            agg.snapshot().fleet.summaries == 1
        });
        drop(stream); // dirty disconnect

        wait_until("host marked down", Duration::from_secs(5), || {
            agg.snapshot().fleet.hosts_up == 0
        });
        let snap = agg.shutdown(); // finalizes
        assert_eq!(snap.fleet.ingested, 100);
        assert_eq!(snap.fleet.classified, 90);
        // 2 host-reported + 8 reconciled from the stranded window.
        assert_eq!(snap.fleet.lost, 10);
        assert_eq!(snap.fleet.reconciled_lost, 8);
        assert_eq!(snap.fleet.in_flight, 0);
        assert!(snap.accounting_identity());
    }

    /// A connection from a host the topology never declared is refused,
    /// whether its id is just past the star or far outside it; a star no
    /// host could report into is refused before an aggregator exists.
    #[test]
    fn undeclared_host_is_rejected() {
        use crate::frame::{write_frame, Frame};
        assert!(FleetTopology::star(0, 16).is_err());
        assert!(FleetTopology::star(1, 0).is_err());
        let topology = FleetTopology::star(2, 16).unwrap();
        let agg = Aggregator::start(&topology, "127.0.0.1:0").unwrap();
        let mut streams = Vec::new();
        for host in [2, 99] {
            let mut stream = std::net::TcpStream::connect(agg.addr()).unwrap();
            write_frame(
                &mut stream,
                &Frame::Hello {
                    host,
                    incarnation: 1,
                    last_seq: 0,
                    model_epoch: 0,
                    model_fingerprint: 0,
                },
            )
            .unwrap();
            streams.push(stream);
        }
        wait_until("rejection", Duration::from_secs(5), || {
            agg.snapshot().fleet.rejected_connections == 2
        });
        let snap = agg.shutdown();
        assert_eq!(snap.fleet.sessions, 0);
        assert_eq!(snap.fleet.hosts_configured, 2);
        let declared: Vec<(u32, &str)> = snap.hosts.iter().map(|h| (h.id, &*h.name)).collect();
        assert_eq!(declared, [(0, "host0"), (1, "host1")]);
    }
}
