//! # xentry-wire — the fleet's `Summary` frame codec
//!
//! One length-prefixed binary frame: a host's cumulative accounting
//! counters plus its model epoch and latency percentiles, as a
//! [`SummaryFrame`]. [`frame`] holds the codec and its defensive decode
//! (magic, version, reserved bits, a payload cap checked before
//! allocating, truncation and trailing bytes). The benchmark prices one
//! encode and one decode of this frame (`trace fleet-serve`).

pub mod frame;

pub use frame::{Frame, FrameError, HostCounters, SummaryFrame};
