//! Property-based tests for the Summary frame codec: round-trip fidelity,
//! and — the security half — arbitrary, truncated, and adversarially
//! length-mangled byte streams must come back as clean `FrameError`s,
//! never a panic and never an allocation sized by attacker-controlled
//! fields.

use proptest::prelude::*;
use xentry_wire::frame::{Frame, FrameError, HostCounters, SummaryFrame, HEADER_LEN, MAX_PAYLOAD};

fn arb_counters() -> impl Strategy<Value = HostCounters> {
    (
        (any::<u64>(), any::<u64>(), any::<u64>()),
        (any::<u64>(), any::<u64>(), any::<u64>()),
    )
        .prop_map(
            |((ingested, classified, lost), (dropped, incorrect, in_flight))| HostCounters {
                ingested,
                classified,
                lost,
                dropped,
                incorrect,
                in_flight,
            },
        )
}

fn arb_frame() -> impl Strategy<Value = Frame> {
    (
        any::<u64>(),
        arb_counters(),
        any::<u64>(),
        any::<u64>(),
        (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()),
    )
        .prop_map(|(seq, counters, model_epoch, model_fingerprint, rest)| {
            let (window_classified, window_incorrect, queue_p99_ns, classify_p99_ns) = rest;
            Frame::Summary(SummaryFrame {
                seq,
                counters,
                model_epoch,
                model_fingerprint,
                window_classified,
                window_incorrect,
                queue_p99_ns,
                classify_p99_ns,
            })
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Encode → decode is the identity, and consumes exactly the bytes
    /// encode produced.
    #[test]
    fn round_trip(frame in arb_frame()) {
        let bytes = frame.encode();
        let (decoded, used) = Frame::decode(&bytes).expect("own encoding decodes");
        prop_assert_eq!(used, bytes.len());
        prop_assert_eq!(decoded, frame);
    }

    /// Any truncation of a valid frame is reported as `Truncated` with a
    /// `need` beyond what was offered — the "read more and retry"
    /// contract. Never a panic, never a bogus success.
    #[test]
    fn truncation_is_clean(frame in arb_frame(), cut_back in 1usize..64) {
        let bytes = frame.encode();
        let cut = bytes.len().saturating_sub(cut_back);
        match Frame::decode(&bytes[..cut]) {
            Err(FrameError::Truncated { need }) => {
                prop_assert!(need > cut);
                prop_assert!(need <= bytes.len());
            }
            other => prop_assert!(false, "expected Truncated, got {:?}", other),
        }
    }

    /// Completely arbitrary bytes decode to a clean error or a valid
    /// frame (when the fuzzer happens to build one) — never a panic.
    #[test]
    fn arbitrary_bytes_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        if let Ok((_, used)) = Frame::decode(&bytes) {
            prop_assert!(used <= bytes.len());
        }
    }

    /// Single-byte corruption anywhere in a valid frame decodes to a
    /// clean error or (for payload-value bytes) a different valid frame
    /// — never a panic, never reading past the buffer.
    #[test]
    fn bit_flips_never_panic(frame in arb_frame(), pos in any::<usize>(), bit in 0u8..8) {
        let mut bytes = frame.encode();
        let i = pos % bytes.len();
        bytes[i] ^= 1 << bit;
        if let Ok((_, used)) = Frame::decode(&bytes) {
            prop_assert!(used <= bytes.len());
        }
    }

    /// An adversarial header length never causes an allocation: lengths
    /// over the cap are rejected outright, lengths under it merely ask
    /// the caller for more bytes (bounded by header + cap).
    #[test]
    fn adversarial_lengths_never_over_allocate(frame in arb_frame(), len in any::<u32>()) {
        let mut bytes = frame.encode();
        bytes[8..12].copy_from_slice(&len.to_le_bytes());
        bytes.truncate(HEADER_LEN); // header only: the payload is a lie
        match Frame::decode(&bytes) {
            Err(FrameError::Oversize { len: l }) => {
                prop_assert!(l as usize > MAX_PAYLOAD);
            }
            Err(FrameError::Truncated { need }) => {
                prop_assert!(need <= HEADER_LEN + MAX_PAYLOAD);
                prop_assert_eq!(need, HEADER_LEN + len as usize);
            }
            Err(FrameError::BadPayload(_)) => {
                // Only len == 0 completes the frame, and a Summary with
                // no payload is short.
                prop_assert_eq!(len, 0);
            }
            other => prop_assert!(false, "unexpected outcome {:?}", other),
        }
    }

    /// Frames survive concatenation: a stream of k frames decodes back
    /// to the same k frames in order (the framing never bleeds).
    #[test]
    fn concatenated_frames_stay_delimited(frames in proptest::collection::vec(arb_frame(), 1..8)) {
        let mut stream = Vec::new();
        for f in &frames {
            stream.extend_from_slice(&f.encode());
        }
        let mut decoded = Vec::new();
        let mut offset = 0;
        while offset < stream.len() {
            let (f, used) = Frame::decode(&stream[offset..]).expect("stream decodes");
            decoded.push(f);
            offset += used;
        }
        prop_assert_eq!(decoded, frames);
    }
}
