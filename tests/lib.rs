//! Shared helpers for integration tests.

pub mod distributed;

use std::sync::{Arc, Barrier};
use xentry::FeatureVec;
use xentry_fleet::{CollectSink, FleetService, FleetVerdict, IncidentDump, VerdictSink};

/// A collecting sink through which a test makes a shard worker drain one
/// batch of exactly the records it chose, without a sleep: the worker is
/// held inside `on_verdict` of a lone *bait* record while the batch is
/// queued behind its back, so its next drain takes all of it (up to
/// `FleetConfig::batch`). The sink can also panic on one record of that
/// batch.
pub struct GateSink {
    pub collected: CollectSink,
    bait_seq: u64,
    panic_seq: Option<u64>,
    held: Barrier,
    release: Barrier,
}

impl GateSink {
    /// Holds the worker on the verdict of `bait_seq`; panics (once: the
    /// record is then lost, not retried) on the verdict of `panic_seq`.
    pub fn new(bait_seq: u64, panic_seq: Option<u64>) -> Arc<GateSink> {
        Arc::new(GateSink {
            collected: CollectSink::default(),
            bait_seq,
            panic_seq,
            held: Barrier::new(2),
            release: Barrier::new(2),
        })
    }

    /// Ingest the bait (the service must be idle, with one shard), wait
    /// until the worker is inside this sink with it, queue `batch` as
    /// records `bait_seq + 1..` of `host`, and let the worker go.
    pub fn form_batch(
        &self,
        svc: &FleetService,
        host: u32,
        bait: FeatureVec,
        batch: &[FeatureVec],
    ) {
        assert!(svc.ingest(host, 0, self.bait_seq, bait));
        self.held.wait();
        for (i, f) in batch.iter().enumerate() {
            assert!(svc.ingest(host, 0, self.bait_seq + 1 + i as u64, *f));
        }
        self.release.wait();
    }
}

impl VerdictSink for GateSink {
    fn on_verdict(&self, v: &FleetVerdict) {
        if v.seq == self.bait_seq {
            self.held.wait();
            self.release.wait();
        }
        if Some(v.seq) == self.panic_seq {
            panic!("GateSink: panicking on record {} as asked", v.seq);
        }
        self.collected.on_verdict(v);
    }

    fn on_incident(&self, dump: &IncidentDump) {
        self.collected.on_incident(dump);
    }
}
