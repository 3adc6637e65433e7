//! Telemetry, verdict and incident record types flowing through the fleet
//! service.
//!
//! A [`TelemetryRecord`] is what a per-host Xentry shim would emit at every
//! VM entry: the Table-I feature vector plus enough identity (host, VCPU,
//! per-host sequence number) to attribute the verdict. Records are `Copy`
//! and fixed-size so the ingest path moves them into preallocated queue
//! slots without touching the allocator.

use crate::trace::TraceEvent;
use xentry::FeatureVec;

/// Identifier of a simulated platform instance in the fleet.
pub type HostId = u32;

/// One hypervisor activation reported by a host's shim.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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

/// Everything an investigator gets about one `Incorrect` verdict: the
/// verdict (host, VCPU, seq, model version, trace id), the features that
/// tripped the detector, and the trigger's shard spans. Like the paper's
/// recovery, it is about the one activation, not a history of earlier
/// ones.
#[derive(Debug, Clone)]
pub struct IncidentDump {
    pub verdict: FleetVerdict,
    /// The trigger activation's five Table-I features.
    pub features: FeatureVec,
    /// The trigger's shard trace events, oldest first, ending with its
    /// own `QueueWait` and `Verdict` spans (empty when tracing is
    /// disabled).
    pub trace: Vec<TraceEvent>,
}

impl IncidentDump {
    /// Human-readable post-mortem block.
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let v = &self.verdict;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "incident: host {} vcpu {} seq {} (model v{})",
            v.host, v.vcpu, v.seq, v.model_version
        );
        if v.trace_id != 0 {
            let _ = writeln!(
                out,
                "  trace id {} ({} shard trace events attached)",
                v.trace_id,
                self.trace.len()
            );
        }
        let f = &self.features;
        let _ = writeln!(
            out,
            "  trigger features: vmer={} rt={} br={} rm={} wm={}",
            f.vmer, f.rt, f.br, f.rm, f.wm
        );
        out
    }
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

    fn incident(trace_id: u64, trace: Vec<TraceEvent>) -> IncidentDump {
        IncidentDump {
            verdict: FleetVerdict {
                host: 3,
                vcpu: 1,
                seq: 6,
                label: mltree::Label::Incorrect,
                model_version: 2,
                model_fingerprint: 0xdead,
                trace_id,
            },
            features: FeatureVec {
                vmer: 17,
                rt: 400,
                br: 25,
                rm: 9,
                wm: 6,
            },
            trace,
        }
    }

    #[test]
    fn render_flags_the_trigger() {
        let text = incident(0, Vec::new()).render();
        assert!(
            text.starts_with("incident: host 3 vcpu 1 seq 6 (model v2)"),
            "{text}"
        );
        assert!(text.contains("vmer=17 rt=400 br=25 rm=9 wm=6"), "{text}");
        assert!(!text.contains("trace id"), "untraced dump names no trace");
    }

    #[test]
    fn dump_with_trace_links_trigger_id_and_events() {
        use crate::trace::SpanKind;
        let events = vec![TraceEvent {
            ts_ns: 10,
            dur_ns: 5,
            trace_id: 77,
            kind: SpanKind::Verdict,
            arg: 1,
            lane: 0,
        }];
        let dump = incident(77, events);
        assert_eq!(
            dump.verdict.trace_id, 77,
            "dump keys on the trigger's trace id"
        );
        assert_eq!(dump.trace.len(), 1);
        let text = dump.render();
        assert!(text.contains("trace id 77 (1 shard trace events"), "{text}");
    }
}
