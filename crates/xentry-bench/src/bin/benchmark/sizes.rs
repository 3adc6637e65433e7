//! Workload sizes. Owned by the benchmark so that no edit elsewhere in the
//! tree (for instance to `xentry_bench::pipeline::Scale::quick()`) can
//! silently change what a workload measures.
//!
//! One repeat is a fixed operation count, never a fixed time, so simulated
//! statistics and digests are exact. Full-size repeats are sized to a few
//! tenths of a second on two cores and cut into slices of a few
//! milliseconds, so that a ten-second run reads every slice twenty times
//! and more, spread over the whole run (`stats::quiet_slices` says why).

#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// 1 = full size; `--smoke` is 20.
    pub divisor: usize,

    // Shared set-up: the §III-B train-then-deploy pipeline.
    /// Injections in each of the three detector-less training campaigns.
    pub train_injections: usize,
    /// Sub-campaigns each training campaign is cut into (the slices of
    /// `setup_s`), each with a seed of its own.
    pub train_parts: usize,
    /// Fault-free samples taken from each training campaign's golden walk.
    pub train_correct: usize,

    // campaign-reg / campaign-recovery
    /// Injections of one repeat, over its sub-campaigns.
    pub campaign_injections: usize,
    /// Sub-campaigns a repeat is cut into, each with a seed of its own.
    pub campaign_parts: usize,
    /// Slice re-run at threads = 1 and threads = N, compared byte for byte.
    pub thread_check_injections: usize,
    /// Slice re-run through the from-boot reference engine.
    pub from_boot_injections: usize,
    /// Golden points the serial injection ladder walks in the traced pass.
    pub ladder_points: usize,

    // guest-run
    /// Kernel bursts each of the two legs runs to.
    pub guest_bursts: u64,
    /// Kernel bursts per timed slice of a leg (about 1.5 ms each).
    pub guest_slice_bursts: u64,

    // fleet-serve
    pub fleet_trace: usize,
    /// Records sent in each open-loop leg (rate × 0.15 s at full size).
    pub fleet_open_records: [usize; 2],
    pub fleet_closed_records: usize,

    // classify-pool
    pub pool: usize,
    pub batch_passes: usize,
    pub single_passes: usize,
    pub forest_passes: usize,
    /// Passes per timed slice of the batch, single and forest series (about
    /// 2 ms each).
    pub classify_slice_passes: [usize; 3],
    /// Passes of each reference walker in the traced pass.
    pub reference_passes: usize,
    /// Summary-frame encode/decode round trips in the traced fleet pass.
    pub wire_frames: usize,
}

/// Open-loop offered rates, records per second. Fixed at every size: the
/// smoke run sends for a shorter time, not more slowly.
pub const FLEET_RATES: [f64; 2] = [250_000.0, 1_000_000.0];
/// Large enough that a rejection below capacity means a real backlog
/// (65,536 records is 65 ms of traffic at 1M rec/s), not a preemption.
pub const FLEET_QUEUE_CAPACITY: usize = 65_536;
/// Windows each fleet leg is cut into after the fact (about 3 ms of
/// traffic each at full size), the slices of `fleet-serve`.
pub const FLEET_WINDOWS: usize = 48;
/// Incorrect training samples are repeated this many times (rebalancing).
pub const OVERSAMPLE_INCORRECT: usize = 8;
pub const FOREST_TREES: usize = 15;

pub const FULL: Sizes = Sizes {
    divisor: 1,
    train_injections: 1_200,
    train_parts: 4,
    train_correct: 1_500,
    // 64 golden points = 8 checkpoint chunks per sub-campaign.
    campaign_injections: 768,
    campaign_parts: 3,
    thread_check_injections: 256,
    from_boot_injections: 40,
    ladder_points: 64,
    guest_bursts: 150,
    guest_slice_bursts: 1,
    fleet_trace: 4_096,
    fleet_open_records: [37_500, 150_000],
    fleet_closed_records: 600_000,
    pool: 8_192,
    batch_passes: 1_000,
    single_passes: 250,
    forest_passes: 60,
    classify_slice_passes: [25, 5, 2],
    reference_passes: 100,
    wire_frames: 200_000,
};

impl Sizes {
    /// Every operation count divided by `d` (floors chosen so each check
    /// still has something to compare). Pool and trace lengths stay: they
    /// set the working set, not the amount of work.
    pub fn divided(d: usize) -> Sizes {
        let d = d.max(1);
        let f = FULL;
        Sizes {
            divisor: d,
            train_injections: (f.train_injections / d).max(16),
            train_correct: (f.train_correct / d).max(16),
            campaign_injections: (f.campaign_injections / d).max(16),
            thread_check_injections: (f.thread_check_injections / d).max(8),
            from_boot_injections: (f.from_boot_injections / d).max(4),
            ladder_points: (f.ladder_points / d).max(2),
            guest_bursts: (f.guest_bursts / d as u64).max(8),
            fleet_open_records: f.fleet_open_records.map(|n| (n / d).max(1_000)),
            fleet_closed_records: (f.fleet_closed_records / d).max(1_000),
            batch_passes: (f.batch_passes / d).max(2),
            single_passes: (f.single_passes / d).max(2),
            forest_passes: (f.forest_passes / d).max(2),
            reference_passes: (f.reference_passes / d).max(2),
            wire_frames: (f.wire_frames / d).max(100),
            ..f
        }
    }
}
