//! Exact order statistics over the benchmark's own per-operation records,
//! and the FNV digest that pins every simulated number of a run.

/// Median of `values` (mean of the two middle values for an even count).
/// Zero for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Nearest-rank percentile of an ascending slice: the smallest value with at
/// least `p` of the samples at or below it. Zero for an empty slice.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    sorted[rank(p, sorted.len()).clamp(1, sorted.len()) - 1]
}

/// `ceil(p * n)`, forgiving the binary rounding of `p` (0.99 * 1000 is a
/// hair above 990 in floating point and must still rank 990).
fn rank(p: f64, n: usize) -> usize {
    (p * n as f64 - 1e-9).ceil() as usize
}

/// The highest percentile of the ladder that still has at least ten samples
/// beyond it, as `(label, p)`. Below twenty samples only the median is left.
pub fn tail_percentile(samples: usize) -> (&'static str, f64) {
    const LADDER: [(&str, f64); 5] = [
        ("p99.99", 0.9999),
        ("p99.9", 0.999),
        ("p99", 0.99),
        ("p90", 0.90),
        ("p50", 0.50),
    ];
    for (label, p) in LADDER {
        let beyond = samples - rank(p, samples);
        if beyond >= 10 {
            return (label, p);
        }
    }
    ("p50", 0.50)
}

/// FNV-1a over a stream of words and byte strings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn word(&mut self, w: u64) {
        self.bytes(&w.to_le_bytes());
    }

    pub fn value(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.50), 50);
        assert_eq!(percentile(&v, 0.99), 99);
        assert_eq!(percentile(&v, 1.0), 100);
        assert_eq!(percentile(&[7], 0.99), 7);
        assert_eq!(percentile(&[], 0.99), 0);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        assert_eq!(tail_percentile(0).0, "p50");
        assert_eq!(tail_percentile(19).0, "p50");
        assert_eq!(tail_percentile(20).0, "p50");
        assert_eq!(tail_percentile(100).0, "p90");
        assert_eq!(tail_percentile(999).0, "p90");
        assert_eq!(tail_percentile(1_000).0, "p99");
        assert_eq!(tail_percentile(10_000).0, "p99.9");
        assert_eq!(tail_percentile(100_000).0, "p99.99");
    }

    #[test]
    fn digest_is_stable_and_order_sensitive() {
        let mut a = Digest::default();
        a.bytes(b"noc.flit_hops");
        a.word(42);
        // Pinned: a change to the hash breaks comparison with stored reports.
        assert_eq!(a.value(), 0x91e4_3883_3111_1133);
        let mut b = Digest::default();
        b.word(42);
        b.bytes(b"noc.flit_hops");
        assert_ne!(a.value(), b.value());
        assert_eq!(Digest::default().value(), 0xcbf2_9ce4_8422_2325);
    }
}
