//! Measurement primitive: the latency histogram.
//!
//! Every Apiary experiment reports latencies through it so that the benchmark
//! harness can print consistent tables. [`Histogram`] uses HDR-style
//! log-linear buckets: cheap to update on the simulation fast path, while
//! still giving accurate tail percentiles.

/// Number of linear sub-buckets per power-of-two bucket. 16 gives ~6%
/// worst-case relative error on reported quantiles.
const SUB_BUCKETS: usize = 16;
const SUB_BITS: u32 = 4; // log2(SUB_BUCKETS)

/// A log-linear histogram of `u64` samples (HdrHistogram-style).
///
/// Values are bucketed with a relative precision of about 1/16; updates are
/// O(1) and quantile queries are O(buckets). Suits latency distributions with
/// long tails.
///
/// # Examples
///
/// ```
/// use apiary_sim::Histogram;
///
/// let mut h = Histogram::new();
/// for v in 1..=1000u64 {
///     h.record(v);
/// }
/// let p50 = h.quantile(0.5);
/// assert!((450..=560).contains(&p50), "p50 was {p50}");
/// ```
#[derive(Debug, Clone)]
pub struct Histogram {
    buckets: Vec<u64>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

#[inline]
fn bucket_index(value: u64) -> usize {
    if value < SUB_BUCKETS as u64 {
        return value as usize;
    }
    // Position of the highest set bit determines the power-of-two bucket;
    // the next SUB_BITS bits pick the linear sub-bucket.
    let msb = 63 - value.leading_zeros();
    let shift = msb - SUB_BITS;
    let sub = ((value >> shift) & (SUB_BUCKETS as u64 - 1)) as usize;
    let major = (msb - SUB_BITS + 1) as usize;
    major * SUB_BUCKETS + sub
}

#[inline]
fn bucket_low(index: usize) -> u64 {
    if index < SUB_BUCKETS {
        return index as u64;
    }
    let major = (index / SUB_BUCKETS) as u32;
    let sub = (index % SUB_BUCKETS) as u64;
    ((SUB_BUCKETS as u64) + sub) << (major - 1)
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Histogram {
        Histogram {
            buckets: Vec::new(),
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        let idx = bucket_index(value);
        if idx >= self.buckets.len() {
            self.buckets.resize(idx + 1, 0);
        }
        self.buckets[idx] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Arithmetic mean of samples (zero when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Smallest recorded sample (zero when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded sample (zero when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Returns an approximation of the `q`-quantile (`0.0 ..= 1.0`) as the
    /// lower bound of the bucket containing it. Relative error is bounded by
    /// the bucket width (~6%).
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let target = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                return bucket_low(i).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Median shorthand.
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 99th-percentile shorthand.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        if other.buckets.len() > self.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// One-line summary for report tables.
    pub fn summary(&self) -> String {
        format!(
            "n={} mean={:.1} p50={} p99={} max={}",
            self.count,
            self.mean(),
            self.p50(),
            self.p99(),
            self.max()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_exact_for_small_values() {
        let mut h = Histogram::new();
        for v in 0..16u64 {
            h.record(v);
        }
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 15);
        assert_eq!(h.quantile(0.0), 0);
        assert_eq!(h.quantile(1.0), 15);
    }

    #[test]
    fn histogram_quantiles_are_close() {
        let mut h = Histogram::new();
        for v in 1..=100_000u64 {
            h.record(v);
        }
        for (q, expect) in [(0.5, 50_000.0), (0.9, 90_000.0), (0.99, 99_000.0)] {
            let got = h.quantile(q) as f64;
            let err = (got - expect).abs() / expect;
            assert!(err < 0.10, "q={q}: got {got}, expected ~{expect}");
        }
    }

    #[test]
    fn histogram_merge_adds_counts() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        a.record(10);
        b.record(1_000_000);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.min(), 10);
        assert_eq!(a.max(), 1_000_000);
    }

    #[test]
    fn histogram_empty_is_zeroed() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.p50(), 0);
        assert_eq!(h.min(), 0);
    }

    #[test]
    fn bucket_index_monotonic() {
        let mut last = 0;
        for v in 0..1_000_000u64 {
            let idx = bucket_index(v);
            assert!(idx >= last);
            last = idx;
        }
    }

    #[test]
    fn bucket_low_is_lower_bound() {
        for v in [0u64, 1, 15, 16, 17, 255, 1024, 123_456_789] {
            let idx = bucket_index(v);
            assert!(bucket_low(idx) <= v, "value {v} bucket low too high");
            if idx + 1 < usize::MAX {
                assert!(bucket_low(idx + 1) > v, "value {v} next bucket low too low");
            }
        }
    }
}
