//! The span recorder of the traced pass.
//!
//! The benchmark wraps its own calls into each layer's public functions in
//! spans. A layer's *self time* is its span's duration minus the part of
//! that interval its child spans cover, so nested spans never count a
//! nanosecond twice. Spans live in a preallocated vector and are written
//! out only after the run ends. With the recorder off (`--trace 0`) a span
//! costs one branch and no clock read.

use crate::json::Json;
use std::time::Instant;

/// One recorded span. `parent` indexes the span that was open when this one
/// started (`u32::MAX` for a root).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
}

const NO_PARENT: u32 = u32::MAX;

/// Handle returned by [`Recorder::start`]; give it back to
/// [`Recorder::end`].
#[derive(Debug, Clone, Copy)]
pub struct Open(u32);

/// Open-span bookkeeping: what is needed to close it and charge its parent.
struct Frame {
    name: &'static str,
    start_ns: u64,
    child_ns: u64,
    /// Slot in `spans`, or `NO_PARENT` when the vector was already full.
    slot: u32,
}

pub struct Recorder {
    enabled: bool,
    base: Instant,
    stack: Vec<Frame>,
    /// The first `capacity` spans, kept for the trace file.
    spans: Vec<Span>,
    /// Spans that did not fit in `spans` (still counted in the totals).
    pub overflowed: u64,
    /// `(name, self_ns, total_ns, count)` per span name, in first-seen order.
    totals: Vec<(&'static str, u64, u64, u64)>,
}

impl Recorder {
    /// A recorder that records nothing.
    pub fn off() -> Recorder {
        Recorder::new(false, 0)
    }

    /// A recorder that keeps the first `capacity` spans verbatim and
    /// aggregates self time over all of them.
    pub fn on(capacity: usize) -> Recorder {
        Recorder::new(true, capacity)
    }

    fn new(enabled: bool, capacity: usize) -> Recorder {
        Recorder {
            enabled,
            base: Instant::now(),
            stack: Vec::with_capacity(16),
            spans: Vec::with_capacity(capacity),
            overflowed: 0,
            totals: Vec::new(),
        }
    }

    #[inline]
    pub fn start(&mut self, name: &'static str) -> Open {
        if !self.enabled {
            return Open(0);
        }
        let now = self.base.elapsed().as_nanos() as u64;
        self.start_at(name, now)
    }

    #[inline]
    pub fn end(&mut self, open: Open) {
        if !self.enabled {
            return;
        }
        let now = self.base.elapsed().as_nanos() as u64;
        self.end_at(open, now);
    }

    fn start_at(&mut self, name: &'static str, now: u64) -> Open {
        let parent = self.stack.last().map_or(NO_PARENT, |f| f.slot);
        let slot = if self.spans.len() < self.spans.capacity() {
            self.spans.push(Span {
                name,
                start_ns: now,
                end_ns: now,
                parent,
            });
            (self.spans.len() - 1) as u32
        } else {
            self.overflowed += 1;
            NO_PARENT
        };
        self.stack.push(Frame {
            name,
            start_ns: now,
            child_ns: 0,
            slot,
        });
        Open(self.stack.len() as u32)
    }

    fn end_at(&mut self, open: Open, now: u64) {
        assert_eq!(
            open.0 as usize,
            self.stack.len(),
            "spans must close innermost first"
        );
        let frame = self.stack.pop().expect("checked above");
        let dur = now.saturating_sub(frame.start_ns);
        if frame.slot != NO_PARENT {
            self.spans[frame.slot as usize].end_ns = now;
        }
        if let Some(parent) = self.stack.last_mut() {
            parent.child_ns += dur;
        }
        let self_ns = dur.saturating_sub(frame.child_ns);
        match self.totals.iter_mut().find(|t| t.0 == frame.name) {
            Some(t) => {
                t.1 += self_ns;
                t.2 += dur;
                t.3 += 1;
            }
            None => self.totals.push((frame.name, self_ns, dur, 1)),
        }
    }

    /// Self time of every span called `name`, in seconds.
    #[cfg(test)]
    pub fn self_seconds(&self, name: &str) -> f64 {
        self.totals
            .iter()
            .find(|t| t.0 == name)
            .map_or(0.0, |t| t.1 as f64 / 1e9)
    }

    /// `(name, self seconds, total seconds, count)` per span name.
    pub fn summary(&self) -> Vec<(&'static str, f64, f64, u64)> {
        self.totals
            .iter()
            .map(|t| (t.0, t.1 as f64 / 1e9, t.2 as f64 / 1e9, t.3))
            .collect()
    }

    /// The trace file: per-name totals plus the first spans verbatim.
    pub fn to_json(&self, workload: &str) -> Json {
        let totals = self
            .summary()
            .into_iter()
            .map(|(name, self_s, total_s, count)| {
                Json::obj()
                    .set("name", name)
                    .set("self_s", self_s)
                    .set("total_s", total_s)
                    .set("count", count)
            })
            .collect::<Vec<_>>();
        let spans = self
            .spans
            .iter()
            .map(|s| {
                Json::obj()
                    .set("name", s.name)
                    .set("start_ns", s.start_ns)
                    .set("end_ns", s.end_ns)
                    .set(
                        "parent",
                        if s.parent == NO_PARENT {
                            Json::Null
                        } else {
                            Json::Num(s.parent as f64)
                        },
                    )
            })
            .collect::<Vec<_>>();
        Json::obj()
            .set("workload", workload)
            .set("spans_not_kept", self.overflowed)
            .set("self_time", totals)
            .set("spans", spans)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_nested_and_sibling_children() {
        let mut r = Recorder::on(16);
        // root [0, 100): children a [10, 30) and b [40, 90); b holds c [50, 60).
        let root = r.start_at("root", 0);
        let a = r.start_at("a", 10);
        r.end_at(a, 30);
        let b = r.start_at("b", 40);
        let c = r.start_at("c", 50);
        r.end_at(c, 60);
        r.end_at(b, 90);
        r.end_at(root, 100);
        let ns = |name| (r.self_seconds(name) * 1e9).round() as u64;
        assert_eq!(ns("root"), 100 - 20 - 50);
        assert_eq!(ns("a"), 20);
        assert_eq!(ns("b"), 50 - 10);
        assert_eq!(ns("c"), 10);
        // Self times partition the root's duration.
        assert_eq!(ns("root") + ns("a") + ns("b") + ns("c"), 100);
        assert_eq!(r.spans[3].parent, 2, "c's parent is b");
        assert_eq!(r.spans[0].parent, NO_PARENT);
    }

    #[test]
    fn repeated_names_accumulate_and_overflow_still_counts() {
        let mut r = Recorder::on(1);
        for i in 0..3u64 {
            let s = r.start_at("step", i * 10);
            r.end_at(s, i * 10 + 4);
        }
        assert_eq!(r.summary(), vec![("step", 12e-9, 12e-9, 3)]);
        assert_eq!(r.spans.len(), 1);
        assert_eq!(r.overflowed, 2);
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut r = Recorder::off();
        let s = r.start("x");
        r.end(s);
        assert!(r.summary().is_empty());
        assert_eq!(r.self_seconds("x"), 0.0);
    }
}
