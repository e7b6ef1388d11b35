//! A small, fast, seedable PRNG for reproducible simulations.
//!
//! Apiary simulations must be bit-for-bit reproducible from a single seed, so
//! this module implements its own generator (xoshiro256++ seeded through
//! SplitMix64) rather than depending on platform entropy. The generator is
//! *not* cryptographic; it exists to drive workloads and traffic patterns.

/// A deterministic pseudo-random number generator (xoshiro256++).
///
/// # Examples
///
/// ```
/// use apiary_sim::SimRng;
///
/// let mut a = SimRng::new(42);
/// let mut b = SimRng::new(42);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Debug, Clone)]
pub struct SimRng {
    s: [u64; 4],
}

#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl SimRng {
    /// Creates a generator from a 64-bit seed.
    pub fn new(seed: u64) -> SimRng {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        SimRng { s }
    }

    /// Returns the next 64 random bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Returns a uniform value in `[0, bound)`.
    ///
    /// Uses Lemire's multiply-shift rejection method, so the distribution is
    /// unbiased for every bound.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    pub fn gen_range(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "gen_range bound must be positive");
        loop {
            let x = self.next_u64();
            let m = (x as u128).wrapping_mul(bound as u128);
            let lo = m as u64;
            if lo >= bound || lo >= (bound.wrapping_neg() % bound) {
                return (m >> 64) as u64;
            }
        }
    }

    /// Returns a uniform value in the inclusive range `[lo, hi]`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn gen_range_inclusive(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo <= hi, "empty range {lo}..={hi}");
        let span = hi - lo;
        if span == u64::MAX {
            return self.next_u64();
        }
        lo + self.gen_range(span + 1)
    }

    /// Returns a uniform `f64` in `[0, 1)`.
    #[inline]
    pub fn gen_f64(&mut self) -> f64 {
        // 53 random mantissa bits.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Returns `true` with probability `p` (clamped to `[0, 1]`).
    pub fn gen_bool(&mut self, p: f64) -> bool {
        self.gen_f64() < p
    }

    /// Samples an exponential distribution with the given mean.
    ///
    /// Used for Poisson inter-arrival times in open-loop load generators.
    pub fn gen_exp(&mut self, mean: f64) -> f64 {
        let u = self.gen_f64();
        // Guard against ln(0).
        -mean * (1.0 - u).max(f64::MIN_POSITIVE).ln()
    }

    /// Samples a (truncated, discrete) Zipf distribution over `[0, n)` with
    /// exponent `theta`, via inverse-CDF on precomputable weights done
    /// directly. `theta == 0` degenerates to uniform.
    ///
    /// This is an O(n) cold path; callers that sample heavily should build a
    /// [`ZipfTable`] once instead.
    pub fn gen_zipf(&mut self, n: usize, theta: f64) -> usize {
        ZipfTable::new(n, theta).sample(self)
    }

    /// Picks a uniform random element of a non-empty slice.
    ///
    /// # Panics
    ///
    /// Panics if the slice is empty.
    pub fn pick<'a, T>(&mut self, xs: &'a [T]) -> &'a T {
        assert!(!xs.is_empty(), "pick from empty slice");
        &xs[self.gen_range(xs.len() as u64) as usize]
    }

    /// Fills `buf` with random bytes.
    pub fn fill_bytes(&mut self, buf: &mut [u8]) {
        for chunk in buf.chunks_mut(8) {
            let v = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&v[..chunk.len()]);
        }
    }
}

/// A precomputed table for fast Zipf sampling (popularity-skewed workloads,
/// e.g. key-value store key choice).
#[derive(Debug, Clone)]
pub struct ZipfTable {
    cdf: Vec<f64>,
}

impl ZipfTable {
    /// Builds the cumulative distribution for `n` items with exponent
    /// `theta`. `theta == 0` is uniform; larger values are more skewed.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: usize, theta: f64) -> ZipfTable {
        assert!(n > 0, "Zipf over zero items");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for i in 0..n {
            acc += 1.0 / ((i + 1) as f64).powf(theta);
            cdf.push(acc);
        }
        let total = acc;
        for v in &mut cdf {
            *v /= total;
        }
        ZipfTable { cdf }
    }

    /// Draws one sample in `[0, n)`.
    pub fn sample(&self, rng: &mut SimRng) -> usize {
        let u = rng.gen_f64();
        match self
            .cdf
            .binary_search_by(|p| p.partial_cmp(&u).expect("CDF is finite"))
        {
            Ok(i) => i,
            Err(i) => i.min(self.cdf.len() - 1),
        }
    }

    /// Number of items in the distribution.
    pub fn len(&self) -> usize {
        self.cdf.len()
    }

    /// Returns `true` if the table is empty (never true post-construction).
    pub fn is_empty(&self) -> bool {
        self.cdf.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_from_seed() {
        let mut a = SimRng::new(7);
        let mut b = SimRng::new(7);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SimRng::new(1);
        let mut b = SimRng::new(2);
        let same = (0..100).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 5);
    }

    #[test]
    fn gen_range_stays_in_bounds() {
        let mut rng = SimRng::new(3);
        for bound in [1u64, 2, 3, 7, 100, 1 << 40] {
            for _ in 0..200 {
                assert!(rng.gen_range(bound) < bound);
            }
        }
    }

    #[test]
    fn gen_range_inclusive_covers_endpoints() {
        let mut rng = SimRng::new(4);
        let mut seen_lo = false;
        let mut seen_hi = false;
        for _ in 0..1000 {
            match rng.gen_range_inclusive(5, 7) {
                5 => seen_lo = true,
                7 => seen_hi = true,
                6 => {}
                other => panic!("out of range: {other}"),
            }
        }
        assert!(seen_lo && seen_hi);
    }

    #[test]
    fn gen_f64_is_unit_interval() {
        let mut rng = SimRng::new(5);
        for _ in 0..10_000 {
            let x = rng.gen_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn exp_mean_is_roughly_right() {
        let mut rng = SimRng::new(6);
        let n = 50_000;
        let mean = 40.0;
        let sum: f64 = (0..n).map(|_| rng.gen_exp(mean)).sum();
        let measured = sum / n as f64;
        assert!(
            (measured - mean).abs() < mean * 0.05,
            "measured {measured}, expected ~{mean}"
        );
    }

    #[test]
    fn zipf_is_skewed() {
        let mut rng = SimRng::new(8);
        let table = ZipfTable::new(100, 0.99);
        let mut counts = [0usize; 100];
        for _ in 0..50_000 {
            counts[table.sample(&mut rng)] += 1;
        }
        // Item 0 should dominate item 99 heavily under theta ~ 1.
        assert!(counts[0] > counts[99] * 10);
        // Uniform theta = 0 should not.
        let uni = ZipfTable::new(100, 0.0);
        let mut counts = [0usize; 100];
        for _ in 0..50_000 {
            counts[uni.sample(&mut rng)] += 1;
        }
        assert!(counts[0] < counts[99] * 3);
    }

    #[test]
    fn fill_bytes_fills_every_length() {
        let mut rng = SimRng::new(11);
        for len in [0usize, 1, 7, 8, 9, 31] {
            let mut buf = vec![0u8; len];
            rng.fill_bytes(&mut buf);
            if len >= 8 {
                assert!(buf.iter().any(|&b| b != 0));
            }
        }
    }
}
