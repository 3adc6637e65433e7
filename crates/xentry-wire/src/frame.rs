//! Length-prefixed binary codec of the per-host `Summary` frame.
//!
//! A frame is:
//!
//! ```text
//!  offset  size  field
//!  0       4     magic  b"XWIR"
//!  4       1     version (currently 1)
//!  5       1     frame type (3 = Summary; no other type is defined)
//!  6       2     reserved (must be zero)
//!  8       4     payload length, u32 little-endian
//!  12      n     payload (Summary: thirteen u64, LE; n = 104)
//! ```
//!
//! The codec is defensive by construction: the payload length is checked
//! against [`MAX_PAYLOAD`] *before* any allocation, and a payload shorter
//! than a Summary or with trailing bytes is rejected (trailing garbage is
//! how corruption hides). Decoding never panics on any input — the proptest
//! suite in `tests/frame_roundtrip.rs` holds the codec to that.

/// First four bytes of every frame.
pub const MAGIC: [u8; 4] = *b"XWIR";
/// Wire protocol version this build speaks.
pub const VERSION: u8 = 1;
/// Fixed header size in bytes.
pub const HEADER_LEN: usize = 12;
/// Hard cap on payload size (16 MiB) — checked before allocating, so an
/// adversarial length field cannot balloon memory.
pub const MAX_PAYLOAD: usize = 16 << 20;

/// Cumulative per-incarnation accounting counters of one host's
/// `FleetService`. `in_flight` is the ingest-to-verdict window
/// (`ingested - classified - lost`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HostCounters {
    pub ingested: u64,
    pub classified: u64,
    pub lost: u64,
    pub dropped: u64,
    pub incorrect: u64,
    pub in_flight: u64,
}

/// One verdict/feature summary tick. Counters are cumulative for the
/// sending incarnation; `window_*` are deltas since the previous summary.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SummaryFrame {
    pub seq: u64,
    pub counters: HostCounters,
    pub model_epoch: u64,
    pub model_fingerprint: u64,
    pub window_classified: u64,
    pub window_incorrect: u64,
    pub queue_p99_ns: u64,
    pub classify_p99_ns: u64,
}

/// A decoded frame. `Summary` is the only type the codec defines.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Periodic accounting summary.
    Summary(SummaryFrame),
}

const TYPE_SUMMARY: u8 = 3;
/// A `Summary` payload: thirteen little-endian `u64`s.
const SUMMARY_LEN: usize = 13 * 8;

/// Why a buffer failed to decode. `Truncated` is recoverable (read more
/// bytes); everything else means the bytes are corrupt.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// Not enough bytes yet; `need` is the total length required.
    Truncated {
        need: usize,
    },
    BadMagic([u8; 4]),
    BadVersion(u8),
    BadReserved(u16),
    UnknownType(u8),
    /// Header advertises a payload larger than [`MAX_PAYLOAD`].
    Oversize {
        len: u64,
    },
    /// Payload present but malformed (short or with trailing bytes).
    BadPayload(&'static str),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Truncated { need } => write!(f, "truncated frame: need {need} bytes"),
            FrameError::BadMagic(m) => write!(f, "bad magic {m:02x?}"),
            FrameError::BadVersion(v) => write!(f, "unsupported wire version {v}"),
            FrameError::BadReserved(r) => write!(f, "reserved header bits set ({r:#06x})"),
            FrameError::UnknownType(t) => write!(f, "unknown frame type {t}"),
            FrameError::Oversize { len } => {
                write!(f, "payload length {len} exceeds cap {MAX_PAYLOAD}")
            }
            FrameError::BadPayload(what) => write!(f, "malformed payload: {what}"),
        }
    }
}

impl std::error::Error for FrameError {}

impl Frame {
    /// Serialize into one complete wire frame (header + payload).
    pub fn encode(&self) -> Vec<u8> {
        let Frame::Summary(s) = self;
        let c = &s.counters;
        let mut out = Vec::with_capacity(HEADER_LEN + SUMMARY_LEN);
        out.extend_from_slice(&MAGIC);
        out.push(VERSION);
        out.push(TYPE_SUMMARY);
        out.extend_from_slice(&0u16.to_le_bytes());
        out.extend_from_slice(&(SUMMARY_LEN as u32).to_le_bytes());
        for v in [
            s.seq,
            c.ingested,
            c.classified,
            c.lost,
            c.dropped,
            c.incorrect,
            c.in_flight,
            s.model_epoch,
            s.model_fingerprint,
            s.window_classified,
            s.window_incorrect,
            s.queue_p99_ns,
            s.classify_p99_ns,
        ] {
            out.extend_from_slice(&v.to_le_bytes());
        }
        out
    }

    /// Decode one frame from the front of `buf`. Returns the frame and
    /// the number of bytes consumed. [`FrameError::Truncated`] means
    /// "read more and retry"; any other error means the bytes are corrupt.
    pub fn decode(buf: &[u8]) -> Result<(Frame, usize), FrameError> {
        if buf.len() < HEADER_LEN {
            return Err(FrameError::Truncated { need: HEADER_LEN });
        }
        let magic: [u8; 4] = buf[0..4].try_into().unwrap();
        if magic != MAGIC {
            return Err(FrameError::BadMagic(magic));
        }
        if buf[4] != VERSION {
            return Err(FrameError::BadVersion(buf[4]));
        }
        let ty = buf[5];
        let reserved = u16::from_le_bytes(buf[6..8].try_into().unwrap());
        if reserved != 0 {
            return Err(FrameError::BadReserved(reserved));
        }
        let len = u32::from_le_bytes(buf[8..12].try_into().unwrap()) as usize;
        if len > MAX_PAYLOAD {
            return Err(FrameError::Oversize { len: len as u64 });
        }
        let total = HEADER_LEN + len;
        if buf.len() < total {
            return Err(FrameError::Truncated { need: total });
        }
        if ty != TYPE_SUMMARY {
            return Err(FrameError::UnknownType(ty));
        }
        let payload = &buf[HEADER_LEN..total];
        if payload.len() < SUMMARY_LEN {
            return Err(FrameError::BadPayload("payload shorter than declared"));
        }
        if payload.len() > SUMMARY_LEN {
            return Err(FrameError::BadPayload("trailing payload bytes"));
        }
        // Exactly thirteen words, one per field, read in wire order.
        let mut words = payload
            .chunks_exact(8)
            .map(|w| u64::from_le_bytes(w.try_into().unwrap()));
        let mut next = || words.next().unwrap();
        let frame = Frame::Summary(SummaryFrame {
            seq: next(),
            counters: HostCounters {
                ingested: next(),
                classified: next(),
                lost: next(),
                dropped: next(),
                incorrect: next(),
                in_flight: next(),
            },
            model_epoch: next(),
            model_fingerprint: next(),
            window_classified: next(),
            window_incorrect: next(),
            queue_p99_ns: next(),
            classify_p99_ns: next(),
        });
        Ok((frame, total))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_frames() -> Vec<Frame> {
        vec![
            Frame::Summary(SummaryFrame {
                seq: 42,
                counters: HostCounters {
                    ingested: 1000,
                    classified: 990,
                    lost: 4,
                    dropped: 2,
                    incorrect: 1,
                    in_flight: 6,
                },
                model_epoch: 8,
                model_fingerprint: 0xfeed_f00d,
                window_classified: 120,
                window_incorrect: 0,
                queue_p99_ns: 1800,
                classify_p99_ns: 5400,
            }),
            Frame::Summary(SummaryFrame::default()),
        ]
    }

    #[test]
    fn round_trips_every_frame_type() {
        for frame in sample_frames() {
            let bytes = frame.encode();
            let (decoded, used) = Frame::decode(&bytes).unwrap();
            assert_eq!(used, bytes.len());
            assert_eq!(decoded, frame);
        }
    }

    #[test]
    fn decodes_back_to_back_frames() {
        let mut buf = Vec::new();
        for frame in sample_frames() {
            buf.extend_from_slice(&frame.encode());
        }
        let mut offset = 0;
        let mut count = 0;
        while offset < buf.len() {
            let (_, used) = Frame::decode(&buf[offset..]).unwrap();
            offset += used;
            count += 1;
        }
        assert_eq!(count, sample_frames().len());
    }

    #[test]
    fn truncation_reports_total_needed() {
        let bytes = sample_frames()[0].encode();
        for cut in 0..bytes.len() {
            match Frame::decode(&bytes[..cut]) {
                Err(FrameError::Truncated { need }) => assert!(need > cut),
                other => panic!("cut at {cut}: expected Truncated, got {other:?}"),
            }
        }
    }

    #[test]
    fn oversize_length_is_rejected_before_buffering() {
        let mut bytes = sample_frames()[0].encode();
        bytes[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            Frame::decode(&bytes),
            Err(FrameError::Oversize { .. })
        ));
    }

    #[test]
    fn trailing_payload_bytes_are_rejected() {
        let mut bytes = sample_frames()[0].encode();
        // Grow the declared payload by one byte and append it: a decoder
        // that ignores trailing bytes would silently accept corruption.
        let len = u32::from_le_bytes(bytes[8..12].try_into().unwrap()) + 1;
        bytes[8..12].copy_from_slice(&len.to_le_bytes());
        bytes.push(0);
        assert_eq!(
            Frame::decode(&bytes),
            Err(FrameError::BadPayload("trailing payload bytes"))
        );
    }

    #[test]
    fn every_other_type_byte_is_unknown() {
        let bytes = sample_frames()[0].encode();
        for ty in (0..=u8::MAX).filter(|&t| t != TYPE_SUMMARY) {
            let mut b = bytes.clone();
            b[5] = ty;
            assert_eq!(Frame::decode(&b), Err(FrameError::UnknownType(ty)));
        }
    }

    /// The benchmark's `Summary` frame (`summary_frame_round_trips` at
    /// seed 2014) encodes to exactly these bytes.
    #[test]
    fn summary_frame_bytes_are_pinned() {
        let frame = Frame::Summary(SummaryFrame {
            seq: 2014,
            counters: HostCounters {
                ingested: 1_000_000,
                classified: 999_000,
                lost: 0,
                dropped: 10,
                incorrect: 12,
                in_flight: 1_000,
            },
            model_epoch: 3,
            // `fold64(2014, 0x7769_7265)`, as the benchmark computes it.
            model_fingerprint: 0x2c49_1556_bf5a_14cc,
            window_classified: 4_096,
            window_incorrect: 1,
            queue_p99_ns: 2_047,
            classify_p99_ns: 16_383,
        });
        let hex: String = frame.encode().iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(
            hex,
            "585749520103000068000000de0700000000000040420f0000000000583e0f00\
             0000000000000000000000000a000000000000000c00000000000000e8030000\
             000000000300000000000000cc145abf5615492c001000000000000001000000\
             00000000ff07000000000000ff3f000000000000"
        );
    }
}
