//! A deterministic, time-ordered event queue: the future-event list of the
//! host baseline model (`apiary-host`).

use crate::clock::Cycle;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// An entry in the queue: events sort by time, then by insertion order so
/// that two events scheduled for the same cycle pop in FIFO order. This makes
/// runs bit-for-bit reproducible regardless of heap internals.
struct Entry<E> {
    at: Cycle,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}

impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest event is on top.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A deterministic future-event list.
///
/// Events are popped in nondecreasing time order; ties break in insertion
/// order (FIFO). The queue never invents times: popping hands back the
/// scheduled [`Cycle`] together with the event.
///
/// # Examples
///
/// ```
/// use apiary_sim::{Cycle, EventQueue};
///
/// let mut q = EventQueue::new();
/// q.schedule(Cycle(20), "later");
/// q.schedule(Cycle(10), "sooner");
/// assert_eq!(q.pop(), Some((Cycle(10), "sooner")));
/// q.schedule_in(5, "relative"); // 5 cycles after the last pop
/// assert_eq!(q.pop(), Some((Cycle(15), "relative")));
/// assert_eq!(q.pop(), Some((Cycle(20), "later")));
/// assert_eq!(q.pop(), None);
/// ```
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    next_seq: u64,
    /// Time cursor for [`EventQueue::schedule_in`]: the latest time ever
    /// popped.
    now: Cycle,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> EventQueue<E> {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
            now: Cycle::ZERO,
        }
    }

    /// Schedules `event` to fire at absolute time `at`.
    pub fn schedule(&mut self, at: Cycle, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry { at, seq, event });
    }

    /// Schedules `event` to fire `delay` cycles after the queue's current
    /// time (the time of the last popped event).
    pub fn schedule_in(&mut self, delay: u64, event: E) {
        self.schedule(self.now.saturating_add(delay), event)
    }

    /// Removes and returns the earliest event together with its time.
    pub fn pop(&mut self) -> Option<(Cycle, E)> {
        self.heap.pop().map(|e| {
            self.now = self.now.max(e.at);
            (e.at, e.event)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(Cycle(30), 3);
        q.schedule(Cycle(10), 1);
        q.schedule(Cycle(20), 2);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn ties_break_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(Cycle(5), i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn interleaved_schedule_and_pop_stays_ordered() {
        let mut q = EventQueue::new();
        q.schedule(Cycle(10), "x");
        q.schedule(Cycle(30), "z");
        assert_eq!(q.pop(), Some((Cycle(10), "x")));
        q.schedule(Cycle(20), "y");
        assert_eq!(q.pop(), Some((Cycle(20), "y")));
        assert_eq!(q.pop(), Some((Cycle(30), "z")));
    }

    #[test]
    fn schedule_in_tracks_popped_time() {
        let mut q = EventQueue::new();
        q.schedule(Cycle(50), "base");
        assert_eq!(q.pop(), Some((Cycle(50), "base")));
        q.schedule_in(25, "rel");
        assert_eq!(q.pop(), Some((Cycle(75), "rel")));
    }
}
