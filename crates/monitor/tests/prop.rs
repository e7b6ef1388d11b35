//! Property-based tests for the monitor's policy mechanisms.

use apiary_monitor::monitor::wire_mem;
use apiary_monitor::TokenBucket;
use apiary_sim::Cycle;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The token bucket never over-grants: across any request sequence,
    /// the bytes admitted by time T are at most `burst + rate * T`.
    #[test]
    fn bucket_never_overgrants(
        rate_milli in 1u64..5_000,
        burst in 1u64..10_000,
        reqs in prop::collection::vec((0u64..2_000, 1u64..4_096), 1..200),
    ) {
        let mut tb = TokenBucket::new(rate_milli, burst);
        let mut now = Cycle::ZERO;
        let mut granted_bytes: u64 = 0;
        for (gap, bytes) in reqs {
            now += gap;
            if tb.try_consume(bytes, now) {
                granted_bytes += bytes;
            }
            // Invariant at every step: milli-byte budget respected.
            let budget = burst * 1000 + now.as_u64() * rate_milli;
            prop_assert!(
                granted_bytes * 1000 <= budget,
                "granted {granted_bytes} B by cycle {now}, budget {budget} mB"
            );
        }
    }

    /// The bucket is work-conserving at quiescence: after waiting long
    /// enough to refill the full burst, a burst-sized request is always
    /// admitted.
    #[test]
    fn bucket_recovers_after_idle(
        rate_milli in 100u64..5_000,
        burst in 1u64..4_096,
        drain in prop::collection::vec(1u64..4_096, 0..20),
    ) {
        let mut tb = TokenBucket::new(rate_milli, burst);
        let mut now = Cycle::ZERO;
        for bytes in drain {
            let _ = tb.try_consume(bytes, now);
            now += 1;
        }
        // Wait out a full refill (ceil(burst_mB / rate) cycles).
        let wait = (burst * 1000).div_ceil(rate_milli) + 1;
        now += wait;
        prop_assert!(tb.try_consume(burst, now));
    }

    /// Denial accounting is exact: every probe either grants or counts as
    /// a denial.
    #[test]
    fn denials_are_counted(
        reqs in prop::collection::vec((0u64..50, 1u64..512), 1..100),
    ) {
        let mut tb = TokenBucket::new(500, 256);
        let mut now = Cycle::ZERO;
        let mut grants = 0u64;
        let total = reqs.len() as u64;
        for (gap, bytes) in reqs {
            now += gap;
            if tb.try_consume(bytes, now) {
                grants += 1;
            }
        }
        prop_assert_eq!(tb.denials(), total - grants);
    }

    /// A memory request payload of any bytes decodes to its fields or
    /// `None` (under 16 bytes), never a panic.
    #[test]
    fn memory_request_decoder_never_panics(
        data in prop::collection::vec(any::<u8>(), 0..512),
    ) {
        match wire_mem::decode(&data) {
            Some((_, _, rest)) => prop_assert_eq!(rest.len() + 16, data.len()),
            None => prop_assert!(data.len() < 16),
        }
    }
}
