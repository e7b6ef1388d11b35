//! [`Machine`], the one interface a board, a cluster and the serverless
//! plane are driven through, so that their run loops are written once.

use crate::clock::Cycle;

/// `return Err(format!(..))` unless `cond` holds: the one-line `assert!`
/// of a law that returns `Result<(), String>`.
#[macro_export]
macro_rules! ensure {
    ($cond:expr, $($msg:tt)+) => {
        if !$cond {
            return Err(::std::format!($($msg)+));
        }
    };
}

/// A machine that advances in scheduling steps.
///
/// The loops check their predicate (or the laws) after every step, never
/// on entry. One already true on entry stops them after one step, which is
/// one cycle under the dense clock but a jump to the next event under the
/// event clock. Otherwise both clocks stop on the same cycle, provided the
/// predicate reads component state, not raw time.
pub trait Machine {
    /// Current simulated time.
    fn now(&self) -> Cycle;

    /// One step: one cycle under the dense clock, or up to the next due
    /// cycle (never beyond `horizon`, where a driver puts its own next
    /// wakeup) under the event clock. None once `now() >= horizon`.
    fn advance_toward(&mut self, horizon: Cycle);

    /// Nothing in flight: the machine has drained.
    fn quiescent(&self) -> bool;

    /// `Ok`, or the first law found broken.
    fn check_invariants(&self) -> Result<(), String>;

    /// Runs for `cycles` cycles and ends at exactly `now() + cycles`.
    fn run(&mut self, cycles: u64) {
        self.run_until(cycles, |_| false);
    }

    /// Runs until `pred` fires or `max_cycles` elapse; returns whether it
    /// fired.
    fn run_until(&mut self, max_cycles: u64, mut pred: impl FnMut(&Self) -> bool) -> bool {
        let end = self.now().saturating_add(max_cycles);
        while self.now() < end {
            self.advance_toward(end);
            if pred(self) {
                return true;
            }
        }
        false
    }

    /// Runs for `cycles` cycles, checking the laws after every step, and
    /// stops at the first broken one with an `Err` naming its cycle.
    fn run_checked(&mut self, cycles: u64) -> Result<(), String> {
        let mut laws = Ok(());
        self.run_until(cycles, |m| {
            laws = m.check_invariants();
            laws.is_err()
        });
        laws.map_err(|e| format!("cycle {}: {e}", self.now()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A counter with an event every `period` cycles, under either clock.
    /// Its law breaks once `events` reaches `breaks_at`.
    struct Toy {
        now: Cycle,
        period: u64,
        dense: bool,
        events: u64,
        breaks_at: u64,
    }

    fn toy(dense: bool) -> Toy {
        Toy {
            now: Cycle(3),
            period: 10,
            dense,
            events: 0,
            breaks_at: u64::MAX,
        }
    }

    impl Machine for Toy {
        fn now(&self) -> Cycle {
            self.now
        }

        fn advance_toward(&mut self, horizon: Cycle) {
            if self.now >= horizon {
                return;
            }
            let next_event = Cycle((self.now.0 / self.period + 1) * self.period);
            self.now = if self.dense {
                self.now + 1
            } else {
                next_event.min(horizon)
            };
            if self.now == next_event {
                self.events += 1;
            }
        }

        fn quiescent(&self) -> bool {
            self.events > 0
        }

        fn check_invariants(&self) -> Result<(), String> {
            ensure!(self.events < self.breaks_at, "{} events", self.events);
            Ok(())
        }
    }

    #[test]
    fn run_ends_at_exactly_now_plus_cycles() {
        for dense in [false, true] {
            let mut m = toy(dense);
            m.run(25);
            assert_eq!((m.now(), m.events), (Cycle(28), 2));
            m.run(0);
            assert_eq!(m.now(), Cycle(28));
        }
    }

    #[test]
    fn run_until_checks_after_each_step_never_on_entry() {
        for (dense, stop) in [(false, Cycle(20)), (true, Cycle(11))] {
            let mut m = toy(dense);
            assert!(m.run_until(100, Machine::quiescent));
            assert_eq!(m.now(), Cycle(10));
            // Already true on entry: one step, whose length is the clock's.
            assert!(m.run_until(100, Machine::quiescent));
            assert_eq!(m.now(), stop);
        }
        let mut m = toy(false);
        assert!(!m.run_until(5, Machine::quiescent), "budget ran out");
        assert_eq!(m.now(), Cycle(8));
    }

    #[test]
    fn run_checked_stops_at_the_first_broken_law() {
        for dense in [false, true] {
            let mut m = toy(dense);
            assert_eq!(m.run_checked(100), Ok(()));
            m.breaks_at = m.events + 2;
            assert_eq!(m.run_checked(100), Err("cycle 120: 12 events".to_string()));
            assert_eq!(m.now(), Cycle(120));
        }
    }
}
