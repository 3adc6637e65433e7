//! Telemetry and verdict record types flowing through the fleet service.
//!
//! A [`TelemetryRecord`] is what a per-host Xentry shim would emit at every
//! VM entry: the Table-I feature vector plus enough identity (host, VCPU,
//! per-host sequence number) to attribute the verdict. Records are `Copy`
//! and fixed-size so the ingest path moves them into preallocated queue
//! slots without touching the allocator.

use serde::{Deserialize, Serialize};
use xentry::FeatureVec;

/// Identifier of a simulated platform instance in the fleet.
pub type HostId = u32;

/// One hypervisor activation reported by a host's shim.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TelemetryRecord {
    /// Reporting host.
    pub host: HostId,
    /// VCPU whose VM entry produced the features.
    pub vcpu: u32,
    /// Per-host monotonically increasing activation number.
    pub seq: u64,
    /// Nanoseconds since service start at enqueue time (stamped by the
    /// service on ingest; senders leave it 0).
    pub enqueued_ns: u64,
    /// Flight-trace id (stamped by the service on ingest; senders leave
    /// it 0, and it stays 0 when tracing is disabled). Flows unchanged
    /// into the record's [`FleetVerdict`] and, for `Incorrect` verdicts,
    /// its incident dump — the link from any verdict back to its causal
    /// span chain in the service's trace rings.
    pub trace_id: u64,
    /// The five Table-I features of the activation.
    pub features: FeatureVec,
}

impl TelemetryRecord {
    /// Build a record; `enqueued_ns` and `trace_id` are stamped later by
    /// the service.
    pub fn new(host: HostId, vcpu: u32, seq: u64, features: FeatureVec) -> TelemetryRecord {
        TelemetryRecord {
            host,
            vcpu,
            seq,
            enqueued_ns: 0,
            trace_id: 0,
            features,
        }
    }
}

/// Result of classifying one telemetry record.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FleetVerdict {
    pub host: HostId,
    pub vcpu: u32,
    pub seq: u64,
    /// Classification by the deployed tree.
    pub label: mltree::Label,
    /// Version of the model that produced this verdict (monotone,
    /// incremented by every hot swap).
    pub model_version: u64,
    /// Fingerprint of that model (stable across processes).
    pub model_fingerprint: u64,
    /// Flight-trace id carried from the record that produced this verdict
    /// (0 when tracing is disabled).
    pub trace_id: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_are_small_and_copyable() {
        // The ingest hot path copies records by value into queue slots;
        // keep them register-friendly (identity + stamps + trace id in
        // one line, features spilling into a second).
        assert!(std::mem::size_of::<TelemetryRecord>() <= 72);
        let r = TelemetryRecord::new(
            3,
            1,
            42,
            FeatureVec {
                vmer: 7,
                rt: 1,
                br: 2,
                rm: 3,
                wm: 4,
            },
        );
        let r2 = r; // Copy
        assert_eq!(r, r2);
        assert_eq!(r.enqueued_ns, 0);
    }

    #[test]
    fn verdict_serializes_with_version() {
        let v = FleetVerdict {
            host: 1,
            vcpu: 0,
            seq: 9,
            label: mltree::Label::Incorrect,
            model_version: 3,
            model_fingerprint: 0xdead,
            trace_id: 41,
        };
        let s = serde_json::to_string(&v).unwrap();
        assert!(s.contains("\"model_version\":3"), "{s}");
        assert!(s.contains("Incorrect"), "{s}");
        assert!(s.contains("\"trace_id\":41"), "{s}");
    }
}
