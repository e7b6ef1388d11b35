//! Token-bucket rate limiting.

use apiary_sim::Cycle;

/// A token bucket metering bytes per cycle, in integer milli-byte units to
/// stay exact (and synthesizable: a counter, an adder and a comparator).
///
/// # Examples
///
/// ```
/// use apiary_monitor::TokenBucket;
/// use apiary_sim::Cycle;
///
/// // 2 bytes/cycle sustained, 64-byte bursts.
/// let mut tb = TokenBucket::new(2_000, 64);
/// assert!(tb.try_consume(64, Cycle(0)), "burst allowed");
/// assert!(!tb.try_consume(64, Cycle(1)), "bucket drained");
/// assert!(tb.try_consume(64, Cycle(32)), "refilled at 2 B/cyc");
/// ```
#[derive(Debug, Clone)]
pub struct TokenBucket {
    /// Refill rate in milli-bytes per cycle (1000 = 1 B/cycle).
    rate_millibytes: u64,
    /// Capacity in milli-bytes.
    burst_millibytes: u64,
    tokens_millibytes: u64,
    last_update: Cycle,
    /// Consumptions denied.
    denials: u64,
}

impl TokenBucket {
    /// Creates a bucket with the given sustained rate (milli-bytes/cycle)
    /// and burst size (bytes). The bucket starts full.
    pub fn new(rate_millibytes_per_cycle: u64, burst_bytes: u64) -> TokenBucket {
        TokenBucket {
            rate_millibytes: rate_millibytes_per_cycle,
            burst_millibytes: burst_bytes * 1000,
            tokens_millibytes: burst_bytes * 1000,
            last_update: Cycle::ZERO,
            denials: 0,
        }
    }

    /// An effectively unlimited bucket (rate limiting disabled).
    pub fn unlimited() -> TokenBucket {
        TokenBucket::new(u64::MAX / 2, u64::MAX / 2000)
    }

    fn refill(&mut self, now: Cycle) {
        let dt = now - self.last_update;
        self.last_update = self.last_update.max(now);
        let add = dt.saturating_mul(self.rate_millibytes);
        self.tokens_millibytes = self
            .tokens_millibytes
            .saturating_add(add)
            .min(self.burst_millibytes);
    }

    /// Attempts to consume `bytes` at time `now`; returns whether allowed.
    pub fn try_consume(&mut self, bytes: u64, now: Cycle) -> bool {
        self.refill(now);
        let need = bytes.saturating_mul(1000);
        if self.tokens_millibytes >= need {
            self.tokens_millibytes -= need;
            true
        } else {
            self.denials += 1;
            false
        }
    }

    /// Consumptions denied so far.
    pub fn denials(&self) -> u64 {
        self.denials
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn burst_then_sustained() {
        let mut tb = TokenBucket::new(1_000, 10); // 1 B/cyc, 10 B burst.
        assert!(tb.try_consume(10, Cycle(0)));
        assert!(!tb.try_consume(1, Cycle(0)));
        // After 5 cycles, 5 bytes accrue.
        assert!(tb.try_consume(5, Cycle(5)));
        assert!(!tb.try_consume(1, Cycle(5)));
    }

    #[test]
    fn bucket_never_exceeds_burst() {
        let mut tb = TokenBucket::new(1_000, 10);
        // A long idle spell still buys only the 10-byte burst.
        assert!(tb.try_consume(10, Cycle(1_000_000)));
        assert!(!tb.try_consume(1, Cycle(1_000_000)));
    }

    #[test]
    fn fractional_rates_accumulate() {
        // 0.25 B/cycle: 250 milli-bytes.
        let mut tb = TokenBucket::new(250, 100);
        assert!(tb.try_consume(100, Cycle(0)));
        // 4 cycles buys exactly 1 byte.
        assert!(!tb.try_consume(1, Cycle(3)));
        assert!(tb.try_consume(1, Cycle(4)));
    }

    #[test]
    fn denials_counted() {
        let mut tb = TokenBucket::new(0, 1);
        assert!(tb.try_consume(1, Cycle(0)));
        assert!(!tb.try_consume(1, Cycle(100)));
        assert!(!tb.try_consume(1, Cycle(200)));
        assert_eq!(tb.denials(), 2);
    }

    #[test]
    fn unlimited_never_denies() {
        let mut tb = TokenBucket::unlimited();
        for i in 0..1000 {
            assert!(tb.try_consume(1 << 20, Cycle(i)));
        }
        assert_eq!(tb.denials(), 0);
    }

    #[test]
    fn time_going_backwards_is_harmless() {
        let mut tb = TokenBucket::new(1_000, 4);
        assert!(tb.try_consume(4, Cycle(10)));
        // An out-of-order probe at an earlier time must not panic or mint
        // negative time tokens.
        assert!(!tb.try_consume(4, Cycle(5)));
        assert!(tb.try_consume(4, Cycle(14)));
    }
}
