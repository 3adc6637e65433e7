//! Per-host flight recorder.
//!
//! Each shard worker keeps a small ring buffer of the last `N`
//! activations per host it serves. When the deployed model classifies an
//! activation as `Incorrect`, the ring is dumped into an [`IncidentDump`]
//! — the fleet-level analogue of the post-mortem trace inspection in
//! `examples/post_mortem.rs`: the investigator gets the suspect
//! activation plus the activations that led up to it, tagged with the
//! model version that raised the alarm.

use crate::record::{HostId, TelemetryRecord};
use crate::trace::TraceEvent;
use mltree::Label;
use serde::{Deserialize, Serialize};

/// One remembered activation (record + its verdict).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RecordedActivation {
    pub seq: u64,
    pub vcpu: u32,
    pub features: xentry::FeatureVec,
    pub label: Label,
    pub model_version: u64,
    /// Flight-trace id stamped on the record at ingest (0 when tracing
    /// is disabled).
    pub trace_id: u64,
}

/// Fixed-depth ring of recent activations for one host.
#[derive(Debug, Clone)]
pub struct FlightRecorder {
    depth: usize,
    ring: Vec<RecordedActivation>,
    next: usize,
    total: u64,
}

impl FlightRecorder {
    pub fn new(depth: usize) -> FlightRecorder {
        let depth = depth.max(1);
        FlightRecorder {
            depth,
            ring: Vec::with_capacity(depth),
            next: 0,
            total: 0,
        }
    }

    /// Remember one classified activation.
    pub fn push(&mut self, rec: &TelemetryRecord, label: Label, model_version: u64) {
        let entry = RecordedActivation {
            seq: rec.seq,
            vcpu: rec.vcpu,
            features: rec.features,
            label,
            model_version,
            trace_id: rec.trace_id,
        };
        if self.ring.len() < self.depth {
            self.ring.push(entry);
        } else {
            self.ring[self.next] = entry;
        }
        self.next = (self.next + 1) % self.depth;
        self.total += 1;
    }

    /// Activations seen so far (including overwritten ones).
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Recent activations, oldest first.
    pub fn recent(&self) -> Vec<RecordedActivation> {
        if self.ring.len() < self.depth {
            self.ring.clone()
        } else {
            let mut out = Vec::with_capacity(self.depth);
            out.extend_from_slice(&self.ring[self.next..]);
            out.extend_from_slice(&self.ring[..self.next]);
            out
        }
    }

    /// Dump the ring on an incident. The trigger is the last pushed entry.
    pub fn dump(&self, host: HostId) -> IncidentDump {
        self.dump_with_trace(host, Vec::new())
    }

    /// [`FlightRecorder::dump`] with the shard's trailing flight-trace
    /// events attached, so the dump carries the causal event chain
    /// (queue waits, batch spans, control events) around the trigger —
    /// not just the per-host activation history.
    pub fn dump_with_trace(&self, host: HostId, trace: Vec<TraceEvent>) -> IncidentDump {
        let recent = self.recent();
        // The worker dumps a host's ring right after pushing its trigger.
        let trigger = *recent.last().expect("dump after at least one push");
        IncidentDump {
            host,
            trace_id: trigger.trace_id,
            trigger,
            recent,
            total_seen: self.total,
            trace,
        }
    }
}

/// Token bucket bounding incident-dump emission for one host.
///
/// An `Incorrect` verdict clones the host's whole flight-recorder ring
/// into an [`IncidentDump`]. During an error storm — a genuinely broken
/// host, or a miscalibrated model flagging everything — that is an
/// allocation per record, fleet-wide, forever. The bucket lets `burst`
/// dumps through back-to-back (real incidents cluster), then refills at
/// `per_sec`; everything beyond is suppressed and counted. Suppression
/// loses *dumps*, never verdicts: the `Incorrect` label, the incident
/// counter, and the ring itself are untouched, so the next allowed dump
/// still carries the latest context.
#[derive(Debug, Clone)]
pub struct DumpBudget {
    burst: u64,
    /// Nanoseconds per replenished token; 0 disables limiting.
    refill_interval_ns: u64,
    tokens: u64,
    last_refill_ns: u64,
}

impl DumpBudget {
    /// Allow `burst` dumps at once, refilling at `per_sec` tokens/second.
    /// `burst == 0` disables limiting entirely (every dump allowed).
    pub fn new(burst: u64, per_sec: u64) -> DumpBudget {
        DumpBudget {
            burst,
            refill_interval_ns: if burst == 0 || per_sec == 0 {
                0
            } else {
                1_000_000_000 / per_sec.min(1_000_000_000)
            },
            tokens: burst,
            last_refill_ns: 0,
        }
    }

    /// Spend one token if available. `now_ns` is any monotone clock (the
    /// service's `now_ns`); only differences matter.
    pub fn try_take(&mut self, now_ns: u64) -> bool {
        if self.burst == 0 {
            return true;
        }
        let elapsed = now_ns.saturating_sub(self.last_refill_ns);
        if let Some(earned) = elapsed.checked_div(self.refill_interval_ns) {
            if earned > 0 {
                self.tokens = (self.tokens + earned).min(self.burst);
                // Advance by whole tokens only, so fractional refill time
                // is never discarded.
                self.last_refill_ns += earned * self.refill_interval_ns;
            }
        }
        if self.tokens > 0 {
            self.tokens -= 1;
            true
        } else {
            false
        }
    }
}

/// Everything an investigator needs about one `Incorrect` verdict.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct IncidentDump {
    pub host: HostId,
    /// Flight-trace id of the trigger record — the key for finding its
    /// span chain in `results/trace.json` (0 when tracing is disabled).
    pub trace_id: u64,
    /// The activation that tripped the detector.
    pub trigger: RecordedActivation,
    /// Last `N` activations on this host, oldest first (includes the
    /// trigger as the final entry).
    pub recent: Vec<RecordedActivation>,
    /// Total activations this host had reported when the incident fired.
    pub total_seen: u64,
    /// Trailing flight-trace events from the trigger's shard at dump
    /// time, oldest first (empty when tracing is disabled or the dump
    /// came from the traceless [`FlightRecorder::dump`]).
    pub trace: Vec<TraceEvent>,
}

impl IncidentDump {
    /// Human-readable post-mortem block (mirrors the `post_mortem`
    /// example's trace dump).
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "incident: host {} vcpu {} seq {} (model v{})",
            self.host, self.trigger.vcpu, self.trigger.seq, self.trigger.model_version
        );
        if self.trace_id != 0 {
            let _ = writeln!(
                out,
                "  trace id {} ({} shard trace events attached)",
                self.trace_id,
                self.trace.len()
            );
        }
        let f = &self.trigger.features;
        let _ = writeln!(
            out,
            "  trigger features: vmer={} rt={} br={} rm={} wm={}",
            f.vmer, f.rt, f.br, f.rm, f.wm
        );
        let _ = writeln!(
            out,
            "  last {} activations (oldest first):",
            self.recent.len()
        );
        for a in &self.recent {
            let mark = if a.label == Label::Incorrect {
                " <-- INCORRECT"
            } else {
                ""
            };
            let _ = writeln!(
                out,
                "    seq {:>8} vmer={:<3} rt={:<8} br={:<6} rm={:<6} wm={:<6}{}",
                a.seq,
                a.features.vmer,
                a.features.rt,
                a.features.br,
                a.features.rm,
                a.features.wm,
                mark
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xentry::FeatureVec;

    fn rec(seq: u64) -> TelemetryRecord {
        TelemetryRecord::new(
            7,
            0,
            seq,
            FeatureVec {
                vmer: 17,
                rt: seq,
                br: 1,
                rm: 1,
                wm: 1,
            },
        )
    }

    #[test]
    fn ring_keeps_last_n_in_order() {
        let mut fr = FlightRecorder::new(4);
        for seq in 0..10 {
            fr.push(&rec(seq), Label::Correct, 1);
        }
        let recent = fr.recent();
        assert_eq!(
            recent.iter().map(|a| a.seq).collect::<Vec<_>>(),
            vec![6, 7, 8, 9]
        );
        assert_eq!(fr.total(), 10);
    }

    #[test]
    fn partial_ring_dumps_what_exists() {
        let mut fr = FlightRecorder::new(8);
        fr.push(&rec(1), Label::Correct, 1);
        fr.push(&rec(2), Label::Incorrect, 1);
        let dump = fr.dump(7);
        assert_eq!(dump.host, 7);
        assert_eq!(dump.trigger.seq, 2);
        assert_eq!(dump.trigger.label, Label::Incorrect);
        assert_eq!(dump.recent.len(), 2);
        assert_eq!(dump.total_seen, 2);
    }

    #[test]
    fn render_flags_the_trigger() {
        let mut fr = FlightRecorder::new(4);
        fr.push(&rec(5), Label::Correct, 2);
        fr.push(&rec(6), Label::Incorrect, 2);
        let text = fr.dump(3).render();
        assert!(text.contains("host 3"), "{text}");
        assert!(text.contains("model v2"), "{text}");
        assert!(text.contains("<-- INCORRECT"), "{text}");
    }

    #[test]
    fn dump_budget_limits_bursts_and_refills() {
        let mut b = DumpBudget::new(3, 10); // 3 burst, one token per 100 ms
        let t0 = 5_000_000_000u64;
        assert!(b.try_take(t0));
        assert!(b.try_take(t0));
        assert!(b.try_take(t0));
        assert!(!b.try_take(t0), "burst exhausted");
        assert!(!b.try_take(t0 + 99_000_000), "no token before 100 ms");
        assert!(b.try_take(t0 + 100_000_000), "one token after 100 ms");
        assert!(!b.try_take(t0 + 100_000_000));
        // A long quiet period refills to the cap, not beyond.
        assert!(b.try_take(t0 + 60_000_000_000));
        assert!(b.try_take(t0 + 60_000_000_000));
        assert!(b.try_take(t0 + 60_000_000_000));
        assert!(!b.try_take(t0 + 60_000_000_000), "cap is the burst size");
    }

    #[test]
    fn dump_budget_zero_burst_is_unlimited() {
        let mut b = DumpBudget::new(0, 0);
        for i in 0..10_000u64 {
            assert!(b.try_take(i));
        }
    }

    #[test]
    fn dump_budget_without_refill_is_a_lifetime_cap() {
        let mut b = DumpBudget::new(2, 0);
        assert!(b.try_take(0));
        assert!(b.try_take(u64::MAX / 2));
        assert!(!b.try_take(u64::MAX));
    }

    #[test]
    fn dump_serializes() {
        let mut fr = FlightRecorder::new(2);
        fr.push(&rec(1), Label::Incorrect, 1);
        let json = serde_json::to_string(&fr.dump(9)).unwrap();
        let back: IncidentDump = serde_json::from_str(&json).unwrap();
        assert_eq!(back.host, 9);
        assert_eq!(back.trigger.seq, 1);
        assert_eq!(back.trace_id, 0, "traceless dump carries no id");
        assert!(back.trace.is_empty());
    }

    #[test]
    fn dump_with_trace_links_trigger_id_and_events() {
        use crate::trace::{SpanKind, TraceEvent};
        let mut fr = FlightRecorder::new(2);
        let mut r = rec(3);
        r.trace_id = 77;
        fr.push(&r, Label::Incorrect, 1);
        let events = vec![TraceEvent {
            ts_ns: 10,
            dur_ns: 5,
            trace_id: 77,
            kind: SpanKind::Verdict,
            arg: 1,
            lane: 0,
        }];
        let dump = fr.dump_with_trace(7, events);
        assert_eq!(dump.trace_id, 77, "dump keys on the trigger's trace id");
        assert_eq!(dump.trace.len(), 1);
        let text = dump.render();
        assert!(text.contains("trace id 77"), "{text}");
        let back: IncidentDump =
            serde_json::from_str(&serde_json::to_string(&dump).unwrap()).unwrap();
        assert_eq!(back.trace[0].trace_id, 77);
    }
}
