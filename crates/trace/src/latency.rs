//! Request latency, measured from the record that tracks the request.

use apiary_sim::{Cycle, Histogram};

/// The latency histogram of one hop or path of a request.
///
/// It holds no request state: each layer already keeps one record per
/// request (a cluster `Pending` or ingress entry, a faas in-flight
/// invocation), and records a latency from that record's start cycle when
/// the hop ends. A request that fails or is forgotten simply records
/// nothing. The type survives only because `benchmark/` reads
/// [`LatencyTracker::histogram`] by name; once it may change, each of these
/// can become a plain [`Histogram`].
///
/// # Examples
///
/// ```
/// use apiary_sim::Cycle;
/// use apiary_trace::LatencyTracker;
///
/// let mut lt = LatencyTracker::default();
/// lt.record(Cycle(100), Cycle(150));
/// assert_eq!(lt.histogram().count(), 1);
/// assert_eq!(lt.histogram().max(), 50);
/// ```
#[derive(Debug, Clone, Default)]
pub struct LatencyTracker {
    hist: Histogram,
}

impl LatencyTracker {
    /// Records a span that started at `from` and ended at `to`.
    pub fn record(&mut self, from: Cycle, to: Cycle) {
        debug_assert!(from <= to, "span ends at {to} before it starts at {from}");
        self.hist.record(to - from);
    }

    /// The recorded latencies.
    pub fn histogram(&self) -> &Histogram {
        &self.hist
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measures_latency() {
        let mut lt = LatencyTracker::default();
        lt.record(Cycle(20), Cycle(25));
        lt.record(Cycle(10), Cycle(110));
        assert_eq!(lt.histogram().count(), 2);
        assert_eq!(lt.histogram().max(), 100);
    }
}
