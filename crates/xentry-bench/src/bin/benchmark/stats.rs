//! Order statistics for repeated measurements and a latency histogram
//! fine enough (≤ 2% per bucket) to report percentiles from.

/// Summary of one metric over the R repeats of a pass: the value the
/// benchmark reports and, printed beside it as spread, the five-number
/// summary of what the whole repeats read.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub min: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub max: f64,
    /// The one number every command reports for the metric (`run`,
    /// `compare` and the driver line alike). For a simulated metric, which
    /// is identical across repeats, the median; for a host metric, the
    /// workload's formula over the quiet slices of all repeats (see
    /// [`quiet_slices`]).
    pub value: f64,
}

/// Timed slices of one repeat: per series, the cost in ns of each slice in
/// order. A slice is a few milliseconds of work that is identical, for one
/// seed, in every repeat: one kernel burst of the guest, a few passes over
/// the pool, a window of consecutive fleet verdicts, one phase of one
/// sub-campaign. Its cost is a duration or, for the open-loop windows, a
/// latency percentile; lower is quieter either way.
pub type Slices = Vec<(&'static str, Vec<f64>)>;

/// Which of a slice's R costs stands for it, 1-based from the smallest:
/// about the tenth percentile — the smallest of up to ten repeats, the
/// second smallest of up to twenty, and so on. On a shared box interference
/// only ever adds to a slice. Here it comes as sub-millisecond bursts whose
/// density changes from second to second: in a busy minute nine in ten
/// 3 ms slices of the guest carry one, so every whole repeat, and the
/// median of the repeats, reads 25–70% slow, while the smallest reading of
/// each slice within any two seconds stays inside 3%. So repeats are small
/// and many, each slice is read twenty times and more across the whole run,
/// and a low rank is taken per slice. R is fixed before measuring, so
/// faster code gets no more draws; the rank grows with R so that one
/// freak reading in a long run moves nothing.
pub fn quiet_rank(repeats: usize) -> usize {
    1 + repeats.saturating_sub(1) / 10
}

/// The quiet-machine view of R repeats of the same sliced work: per series
/// and slice index, the `quiet_rank(R)`-th smallest cost any repeat paid
/// for that slice. A workload's host metrics are its own formulas over this
/// view.
pub fn quiet_slices(repeats: &[&Slices]) -> Slices {
    let rank = quiet_rank(repeats.len());
    let first = repeats[0];
    first
        .iter()
        .enumerate()
        .map(|(series, (name, costs))| {
            let quiet = (0..costs.len())
                .map(|i| {
                    let mut column: Vec<f64> = repeats.iter().map(|r| r[series].1[i]).collect();
                    column.sort_by(f64::total_cmp);
                    column[rank - 1]
                })
                .collect();
            (*name, quiet)
        })
        .collect()
}

/// Sum of one series of `slices`; panics if the workload never timed it.
pub fn series_sum(slices: &Slices, name: &str) -> f64 {
    series(slices, name).iter().sum()
}

pub fn series<'a>(slices: &'a Slices, name: &str) -> &'a [f64] {
    &slices
        .iter()
        .find(|(n, _)| *n == name)
        .unwrap_or_else(|| panic!("no slice series {name}"))
        .1
}

/// Quantile `q` in [0, 1] of an ascending slice, linearly interpolated
/// between the two nearest ranks.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn summarize(values: &[f64]) -> Summary {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    Summary {
        n: v.len(),
        min: v[0],
        q1: quantile(&v, 0.25),
        median: quantile(&v, 0.5),
        q3: quantile(&v, 0.75),
        max: v[v.len() - 1],
        value: quantile(&v, 0.5),
    }
}

/// The highest of p90 / p99 / p99.9 / p99.99 that still has at least ten
/// samples beyond it — the tail a sample count of `n` can support. `None`
/// below 100 samples, where only the median is reportable.
pub fn tail_percentile(n: usize) -> Option<f64> {
    // (percentile, fewest samples that leave ten beyond it)
    [
        (0.9999, 100_000),
        (0.999, 10_000),
        (0.99, 1_000),
        (0.90, 100),
    ]
    .into_iter()
    .find(|&(_, enough)| n >= enough)
    .map(|(p, _)| p)
}

/// Median and supportable tail of a set of timings, for the per-layer
/// rows ("median + highest percentile with ≥ 10 samples beyond it + n").
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Timing {
    pub n: usize,
    pub median: f64,
    /// `(percentile, value)`, e.g. `(0.99, 1234.0)`.
    pub tail: Option<(f64, f64)>,
}

pub fn timing(values: &[f64]) -> Timing {
    if values.is_empty() {
        return Timing {
            n: 0,
            median: 0.0,
            tail: None,
        };
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    Timing {
        n: v.len(),
        median: quantile(&v, 0.5),
        tail: tail_percentile(v.len()).map(|p| (p, quantile(&v, p))),
    }
}

/// Sub-buckets per power of two: bucket width / bucket floor = 1/256 ≈ 0.4%,
/// fine enough that a gated median is not visibly quantized.
const SUB_BITS: u32 = 8;
const SUB: usize = 1 << SUB_BITS;

/// Log-linear histogram of nanosecond latencies. Values below 256 ns are
/// exact; above, each octave is cut into 256 equal buckets, so a reported
/// percentile is within 0.4% of the true sample — unlike the service's own
/// log2 buckets, which are only good to a factor of two.
#[derive(Debug, Clone)]
pub struct LatencyHist {
    counts: Vec<u64>,
    total: u64,
}

impl Default for LatencyHist {
    fn default() -> LatencyHist {
        LatencyHist {
            counts: vec![0; (64 - SUB_BITS as usize + 1) * SUB],
            total: 0,
        }
    }
}

impl LatencyHist {
    fn index(v: u64) -> usize {
        if v < SUB as u64 {
            return v as usize;
        }
        let octave = 63 - v.leading_zeros(); // >= SUB_BITS
        let sub = (v >> (octave - SUB_BITS)) as usize & (SUB - 1);
        (octave - SUB_BITS + 1) as usize * SUB + sub
    }

    /// Largest value that lands in bucket `i`.
    fn upper_edge(i: usize) -> u64 {
        if i < SUB {
            return i as u64;
        }
        let octave = (i / SUB) as u32 + SUB_BITS - 1;
        let sub = (i % SUB) as u64;
        let width = 1u64 << (octave - SUB_BITS);
        ((1u64 << octave) + sub * width).saturating_add(width - 1)
    }

    pub fn record(&mut self, v: u64) {
        self.counts[Self::index(v)] += 1;
        self.total += 1;
    }

    /// Upper edge of the bucket holding the `p`-th sample (0 if empty).
    pub fn percentile(&self, p: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let target = ((self.total as f64) * p).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= target {
                return Self::upper_edge(i);
            }
        }
        u64::MAX
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quartiles_interpolate() {
        let s = summarize(&[5.0, 1.0, 3.0, 2.0, 4.0]);
        assert_eq!(
            (s.min, s.q1, s.median, s.q3, s.max),
            (1.0, 2.0, 3.0, 4.0, 5.0)
        );
        assert_eq!(summarize(&[1.0, 2.0, 3.0, 10.0]).median, 2.5);
        assert_eq!(summarize(&[7.0]).median, 7.0);
        assert_eq!(s.value, 3.0);
    }

    #[test]
    fn quiet_slices_take_a_low_rank_per_slice() {
        assert_eq!(
            [1, 3, 10, 11, 20, 21, 31].map(quiet_rank),
            [1, 1, 1, 2, 2, 3, 4]
        );
        // Three repeats of two series; a burst hits a different slice of
        // each repeat, and no whole repeat is quiet.
        let r = |a: [f64; 3], b: [f64; 1]| -> Slices { vec![("a", a.to_vec()), ("b", b.to_vec())] };
        let (r1, r2, r3) = (
            r([9.0, 1.1, 1.0], [5.0]),
            r([1.0, 9.0, 1.2], [4.0]),
            r([1.3, 1.0, 9.0], [6.0]),
        );
        let quiet = quiet_slices(&[&r1, &r2, &r3]);
        assert_eq!(series(&quiet, "a"), [1.0, 1.0, 1.0]);
        assert_eq!(series_sum(&quiet, "a"), 3.0);
        assert_eq!(series(&quiet, "b"), [4.0]);
        assert_eq!(quiet_slices(&[&r1]), r1);
        // Eleven repeats: the second smallest of each slice.
        let many: Vec<Slices> = (0..11).map(|i| vec![("a", vec![i as f64])]).collect();
        let refs: Vec<&Slices> = many.iter().collect();
        assert_eq!(series(&quiet_slices(&refs), "a"), [1.0]);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(tail_percentile(99), None);
        assert_eq!(tail_percentile(100), Some(0.90));
        assert_eq!(tail_percentile(999), Some(0.90));
        assert_eq!(tail_percentile(1_000), Some(0.99));
        assert_eq!(tail_percentile(10_000), Some(0.999));
        assert_eq!(tail_percentile(1_000_000), Some(0.9999));
        let t = timing(&(1..=1000).map(f64::from).collect::<Vec<_>>());
        assert_eq!(t.n, 1000);
        assert_eq!(t.median, 500.5);
        let (p, v) = t.tail.unwrap();
        assert_eq!(p, 0.99);
        assert!((v - 990.0).abs() < 1.0, "{v}");
        assert_eq!(timing(&[]).n, 0);
    }

    #[test]
    fn histogram_resolves_two_percent() {
        // Every value maps to a bucket whose edge is >= it and within 2%.
        let mut v = 1u64;
        while v < 1 << 40 {
            for probe in [v, v + v / 3, v + v / 2 + 1] {
                let edge = LatencyHist::upper_edge(LatencyHist::index(probe));
                assert!(edge >= probe, "{probe} -> {edge}");
                assert!(
                    (edge - probe) as f64 <= 0.02 * probe as f64,
                    "{probe} -> {edge}"
                );
            }
            v = v * 2 + 1;
        }
        assert_eq!(
            LatencyHist::index(u64::MAX),
            LatencyHist::default().counts.len() - 1
        );
    }

    #[test]
    fn histogram_percentiles_match_exact_within_resolution() {
        let mut h = LatencyHist::default();
        let samples: Vec<u64> = (0..10_000u64).map(|i| 800 + (i * 7919) % 5000).collect();
        for &s in &samples {
            h.record(s);
        }
        let mut sorted = samples.clone();
        sorted.sort_unstable();
        for p in [0.5, 0.9, 0.99, 0.999] {
            let exact = sorted[((sorted.len() as f64 * p).ceil() as usize).max(1) - 1];
            let got = h.percentile(p);
            assert!(got >= exact && (got - exact) as f64 <= 0.02 * exact as f64);
        }
        assert_eq!(h.total, 10_000);
        assert_eq!(LatencyHist::default().percentile(0.5), 0);
    }
}
