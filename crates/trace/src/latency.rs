//! Tag-correlated latency measurement.

use apiary_sim::{Cycle, Histogram};
use std::collections::HashMap;

/// Measures request/response latency by correlation tag.
///
/// A span is opened when a request leaves and closed when its response
/// (same tag) returns; the duration lands in a histogram. Unmatched
/// responses are counted rather than silently dropped because in Apiary an
/// unmatched response usually means a buggy or malicious accelerator is
/// forging tags.
///
/// # Examples
///
/// ```
/// use apiary_sim::Cycle;
/// use apiary_trace::LatencyTracker;
///
/// let mut lt = LatencyTracker::new();
/// lt.start(7, Cycle(100));
/// assert_eq!(lt.finish(7, Cycle(150)), Some(50));
/// assert_eq!(lt.histogram().count(), 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct LatencyTracker {
    open: HashMap<u64, Cycle>,
    hist: Histogram,
    unmatched: u64,
}

impl LatencyTracker {
    /// Creates an empty tracker.
    pub fn new() -> LatencyTracker {
        LatencyTracker::default()
    }

    /// Opens a span for `tag` at time `at`. Re-opening an existing tag
    /// restarts it (the earlier request is counted as unmatched).
    pub fn start(&mut self, tag: u64, at: Cycle) {
        if self.open.insert(tag, at).is_some() {
            self.unmatched += 1;
        }
    }

    /// Closes the span for `tag`, returning its latency in cycles, or `None`
    /// (and counting it) if no span was open.
    ///
    /// A response timestamped *before* its request is a forged or reordered
    /// tag, not a zero-cycle round trip: it counts as unmatched and stays
    /// out of the histogram (Cycle subtraction saturates, so `at - start`
    /// would otherwise record a silent bogus 0).
    pub fn finish(&mut self, tag: u64, at: Cycle) -> Option<u64> {
        match self.open.remove(&tag) {
            Some(start) if at >= start => {
                let lat = at - start;
                self.hist.record(lat);
                Some(lat)
            }
            Some(_) | None => {
                self.unmatched += 1;
                None
            }
        }
    }

    /// The completed-span latency histogram.
    pub fn histogram(&self) -> &Histogram {
        &self.hist
    }

    /// Spans currently open.
    pub fn open_count(&self) -> usize {
        self.open.len()
    }

    /// Responses without a request, plus restarted requests.
    pub fn unmatched(&self) -> u64 {
        self.unmatched
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measures_latency() {
        let mut lt = LatencyTracker::new();
        lt.start(1, Cycle(10));
        lt.start(2, Cycle(20));
        assert_eq!(lt.finish(2, Cycle(25)), Some(5));
        assert_eq!(lt.finish(1, Cycle(110)), Some(100));
        assert_eq!(lt.histogram().count(), 2);
        assert_eq!(lt.histogram().max(), 100);
        assert_eq!(lt.open_count(), 0);
    }

    #[test]
    fn unmatched_response_counted() {
        let mut lt = LatencyTracker::new();
        assert_eq!(lt.finish(9, Cycle(5)), None);
        assert_eq!(lt.unmatched(), 1);
    }

    #[test]
    fn restarted_tag_counted() {
        let mut lt = LatencyTracker::new();
        lt.start(1, Cycle(1));
        lt.start(1, Cycle(5));
        assert_eq!(lt.unmatched(), 1);
        // Latency measured from the restart.
        assert_eq!(lt.finish(1, Cycle(9)), Some(4));
    }

    #[test]
    fn out_of_order_response_is_unmatched_not_zero() {
        let mut lt = LatencyTracker::new();
        lt.start(1, Cycle(100));
        // Response "arrives" before the request was sent: a forged or
        // reordered tag. It must not record a 0-cycle latency.
        assert_eq!(lt.finish(1, Cycle(50)), None);
        assert_eq!(lt.unmatched(), 1);
        assert_eq!(lt.histogram().count(), 0);
        assert_eq!(lt.open_count(), 0, "the bogus span is still closed");
    }
}
