//! A log-linear latency histogram: constant memory, mergeable, and at most
//! 1.6 % wide per bucket — the replacement for the factor-2 buckets of
//! `WorkerStats::latency_us_log2`, which cannot tell 33 µs from 63 µs.
//!
//! Values are nanoseconds. Values below [`SUB`] get a bucket each; above
//! that every power-of-two range is split into [`SUB`] equal buckets, so a
//! bucket's width is at most 1/[`SUB`] of its lower bound. Quantiles
//! interpolate linearly inside the bucket that holds the rank, so a reported
//! percentile is a continuous value, not a bucket edge.

/// Sub-buckets per power of two.
const SUB_BITS: u32 = 6;
const SUB: u64 = 1 << SUB_BITS;
/// Values are clamped below `2^MAX_EXP` ns (~73 minutes).
const MAX_EXP: u32 = 42;
const BUCKETS: usize = ((MAX_EXP - SUB_BITS + 1) as usize) << SUB_BITS;

/// The fewest samples that must lie beyond a percentile for it to be
/// reported (choosing-metrics §1).
pub const TAIL_SAMPLES: u64 = 10;

/// Log-linear histogram of nanosecond durations.
#[derive(Clone)]
pub struct Hist {
    counts: Box<[u64]>,
    total: u64,
}

impl Default for Hist {
    fn default() -> Self {
        Hist {
            counts: vec![0; BUCKETS].into_boxed_slice(),
            total: 0,
        }
    }
}

fn bucket_of(ns: u64) -> usize {
    let v = ns.min((1 << MAX_EXP) - 1);
    if v < SUB {
        return v as usize;
    }
    let shift = 63 - v.leading_zeros() - SUB_BITS;
    ((((shift + 1) as u64) << SUB_BITS) + ((v >> shift) - SUB)) as usize
}

/// Lower bound and width of bucket `idx`.
fn bucket_range(idx: usize) -> (u64, u64) {
    let idx = idx as u64;
    if idx < SUB {
        return (idx, 1);
    }
    let shift = (idx >> SUB_BITS) - 1;
    ((SUB + (idx & (SUB - 1))) << shift, 1 << shift)
}

impl Hist {
    /// Records one duration.
    #[inline]
    pub fn record(&mut self, ns: u64) {
        self.counts[bucket_of(ns)] += 1;
        self.total += 1;
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Adds another histogram's samples to this one.
    pub fn merge(&mut self, other: &Hist) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.total += other.total;
    }

    /// The value (ns) below which a share `q` of the samples lies; 0 when
    /// empty. The rank `q × count` is located in its bucket and the value
    /// interpolated linearly across the bucket.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        self.value_at_rank(q.clamp(0.0, 1.0) * self.total as f64)
    }

    /// The value with `rank` samples at or below it (`0 < rank <= count`).
    fn value_at_rank(&self, rank: f64) -> f64 {
        let mut below = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            if c > 0 && (below + c) as f64 >= rank {
                let (lo, width) = bucket_range(idx);
                let inside = ((rank - below as f64) / c as f64).clamp(0.0, 1.0);
                return lo as f64 + width as f64 * inside;
            }
            below += c;
        }
        unreachable!("rank {rank} beyond {} samples", self.total)
    }

    /// The highest percentile that still has [`TAIL_SAMPLES`] samples
    /// beyond it, as `(q, value_ns)`; `None` with fewer than twice that many
    /// samples (the "percentile" would sit below the median).
    pub fn top_quantile(&self) -> Option<(f64, f64)> {
        if self.total < 2 * TAIL_SAMPLES {
            return None;
        }
        // The rank is computed in integers: `q × count` can round up past the
        // last sample that belongs below the percentile.
        let rank = self.total - TAIL_SAMPLES;
        let q = rank as f64 / self.total as f64;
        Some((q, self.value_at_rank(rank as f64)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_contiguous_and_narrow() {
        let mut expect_lo = 0u64;
        for idx in 0..BUCKETS {
            let (lo, width) = bucket_range(idx);
            assert_eq!(lo, expect_lo, "bucket {idx} leaves a gap");
            assert_eq!(bucket_of(lo), idx);
            assert_eq!(bucket_of(lo + width - 1), idx);
            if lo >= SUB {
                assert!(width as f64 / lo as f64 <= 1.0 / SUB as f64);
            }
            expect_lo = lo + width;
        }
        assert_eq!(expect_lo, 1 << MAX_EXP);
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn percentile_selection_is_within_two_percent() {
        // 1..=100_000 µs, uniformly: the q-quantile is q × 100 ms.
        let mut h = Hist::default();
        for us in 1..=100_000u64 {
            h.record(us * 1_000);
        }
        assert_eq!(h.count(), 100_000);
        for q in [0.01, 0.25, 0.5, 0.9, 0.99, 0.999] {
            let want = q * 100_000_000.0;
            let got = h.quantile(q);
            assert!(
                (got - want).abs() / want < 0.02,
                "q={q}: got {got}, want {want}"
            );
        }
    }

    #[test]
    fn quantile_interpolates_inside_a_bucket() {
        // 1000 and 1001 ns share a bucket (width 16 at this magnitude): the
        // histogram cannot tell them apart, but the median of many equal
        // samples must land inside that bucket, not on a far edge.
        let mut h = Hist::default();
        for _ in 0..1000 {
            h.record(1_000);
        }
        let (lo, width) = bucket_range(bucket_of(1_000));
        let p50 = h.quantile(0.5);
        assert!(p50 >= lo as f64 && p50 <= (lo + width) as f64);
        assert!((p50 - 1_000.0).abs() / 1_000.0 < 0.02);
        // Two well-separated modes: the median rank sits at the end of the
        // lower mode, p75 in the upper one.
        for _ in 0..1000 {
            h.record(50_000);
        }
        assert!(h.quantile(0.25) < 1_100.0);
        assert!(h.quantile(0.75) > 49_000.0);
    }

    #[test]
    fn merge_equals_recording_into_one() {
        let (mut a, mut b, mut both) = (Hist::default(), Hist::default(), Hist::default());
        for i in 0..5_000u64 {
            let v = i * i % 1_000_003;
            if i % 2 == 0 {
                a.record(v);
            } else {
                b.record(v);
            }
            both.record(v);
        }
        a.merge(&b);
        assert_eq!(a.count(), both.count());
        for q in [0.1, 0.5, 0.99] {
            assert_eq!(a.quantile(q), both.quantile(q));
        }
    }

    #[test]
    fn top_quantile_keeps_ten_samples_beyond_it() {
        let mut h = Hist::default();
        assert!(h.top_quantile().is_none());
        for _ in 0..19 {
            h.record(100);
        }
        assert!(h.top_quantile().is_none(), "19 samples: below the median");
        // 990 fast samples and exactly ten slow ones: the top percentile is
        // p99, and it still reads the fast mode — the ten slow samples are
        // the ones beyond it.
        let mut h = Hist::default();
        for _ in 0..990 {
            h.record(1_000);
        }
        for _ in 0..10 {
            h.record(1_000_000);
        }
        let (q, v) = h.top_quantile().unwrap();
        assert!((q - 0.99).abs() < 1e-12);
        assert!(v < 1_100.0, "top percentile {v} reached into the tail");
        // One more slow sample moves the rank into the tail.
        h.record(1_000_000);
        let (q, v) = h.top_quantile().unwrap();
        assert!(q > 0.99);
        assert!(v > 900_000.0);
    }

    #[test]
    fn empty_histogram_reads_zero() {
        let h = Hist::default();
        assert_eq!(h.quantile(0.5), 0.0);
        assert_eq!(h.count(), 0);
    }
}
