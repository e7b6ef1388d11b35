//! [`Machine`], the one interface a board, a cluster and the serverless
//! plane are driven through, so that their run loops are written once, and
//! [`Load`], what a driver feeds one of them from outside.

use crate::clock::Cycle;
use core::ops::ControlFlow;

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
/// on entry. In `run_until` and `run_checked` one already true on entry
/// stops them after one step, which is one cycle under the dense clock but
/// a jump to the next event under the event clock ([`Machine::drive`]'s
/// first step is one cycle under both). Otherwise both clocks stop on the
/// same cycle, provided the predicate reads component state, not raw time.
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

    /// Runs for up to `cycles` cycles with `load` attached: each step goes
    /// toward the earliest of the end, the load's [`Load::next_wakeup`] and
    /// the deadline `look` last named, but at least one cycle; then the
    /// load [`pump`](Load::pump)s and `look` runs, under either clock.
    /// `look` holds the caller's own logic (a kill, a swap, a "done?"): it
    /// breaks, or names its next timed action as the deadline (`Cycle::MAX`
    /// for none). A condition on raw time must be that deadline, or the
    /// event clock steps over it. Returns whether `look` broke.
    ///
    /// The entry rule: `look` has named no deadline before the first step,
    /// so that step is one cycle under both clocks, and a load already done
    /// on entry costs exactly one cycle.
    fn drive<L: Load<Self> + ?Sized>(
        &mut self,
        load: &mut L,
        cycles: u64,
        mut look: impl FnMut(&mut Self, &mut L) -> ControlFlow<(), Cycle>,
    ) -> bool {
        let end = self.now().saturating_add(cycles);
        let mut deadline = self.now().saturating_add(1);
        while self.now() < end {
            let due = end.min(deadline).min(load.next_wakeup(self));
            self.advance_toward(due.max(self.now().saturating_add(1)));
            load.pump(self);
            match look(self, load) {
                ControlFlow::Break(()) => return true,
                ControlFlow::Continue(next) => deadline = next,
            }
        }
        false
    }
}

/// A [`Machine::drive`] `look` with no deadline: break once `done`.
pub fn until(done: bool) -> ControlFlow<(), Cycle> {
    if done {
        ControlFlow::Break(())
    } else {
        ControlFlow::Continue(Cycle::MAX)
    }
}

/// Load a driver feeds a machine from outside: clients at a board's tile
/// monitors, or at a fleet's network ingress. [`Machine::drive`] steps the
/// machine no further than the load's next wakeup and pumps it after every
/// step.
pub trait Load<M: ?Sized> {
    /// The next cycle on which [`Load::pump`] has work of its own (an
    /// arrival, a retry, a timeout), `Cycle::MAX` if only the machine can
    /// wake it.
    fn next_wakeup(&self, m: &M) -> Cycle;

    /// Acts on the current cycle: takes what the machine has for the load,
    /// then issues what is due.
    fn pump(&mut self, m: &mut M);
}

/// No load: the machine runs on its own.
impl<M: ?Sized> Load<M> for () {
    fn next_wakeup(&self, _: &M) -> Cycle {
        Cycle::MAX
    }

    fn pump(&mut self, _: &mut M) {}
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

    /// A load with work every `every` cycles; it records each pump.
    struct Ticks {
        every: u64,
        pumped: Vec<u64>,
    }

    fn ticks(every: u64) -> Ticks {
        Ticks {
            every,
            pumped: Vec::new(),
        }
    }

    impl Load<Toy> for Ticks {
        fn next_wakeup(&self, m: &Toy) -> Cycle {
            Cycle((m.now.0 / self.every + 1) * self.every)
        }

        fn pump(&mut self, m: &mut Toy) {
            self.pumped.push(m.now.0);
        }
    }

    #[test]
    fn drive_spends_one_cycle_on_a_load_done_on_entry() {
        for dense in [false, true] {
            let mut m = toy(dense);
            let mut load = ticks(1_000);
            assert!(m.drive(&mut load, 100, |_, _| ControlFlow::Break(())));
            assert_eq!((m.now(), load.pumped), (Cycle(4), vec![4]));
            assert!(!m.drive(&mut ticks(1), 0, |_, _| ControlFlow::Break(())));
            assert_eq!(m.now(), Cycle(4), "a zero budget takes no step");
        }
    }

    #[test]
    fn drive_lands_on_every_wakeup_and_deadline() {
        for dense in [false, true] {
            let mut m = toy(dense);
            let mut load = ticks(7);
            let mut looked = Vec::new();
            let broke = m.drive(&mut load, 60, |m, _| {
                looked.push(m.now.0);
                ControlFlow::Continue(Cycle((m.now.0 / 25 + 1) * 25))
            });
            assert!(!broke);
            assert_eq!(m.now(), Cycle(63));
            assert_eq!(looked, load.pumped, "`look` runs after every pump");
            let due = (4..=63).filter(|t| t % 7 == 0 || t % 25 == 0 || t % 10 == 0);
            assert!(due.clone().all(|t| looked.contains(&t)), "stepped past one");
            if dense {
                assert_eq!(looked, (4..=63).collect::<Vec<_>>());
            } else {
                let stops: Vec<u64> = [4].into_iter().chain(due).collect();
                assert_eq!(looked, stops, "and nowhere else");
            }
        }
    }

    #[test]
    fn drive_stops_at_the_step_look_breaks_on() {
        for (dense, stop) in [(false, 20), (true, 8)] {
            let mut m = toy(dense);
            let mut load = ticks(7);
            let mut looks = 0;
            let broke = m.drive(&mut load, 100, |_, _| {
                looks += 1;
                if looks == 5 {
                    ControlFlow::Break(())
                } else {
                    ControlFlow::Continue(Cycle::MAX)
                }
            });
            assert!(broke);
            assert_eq!((m.now(), load.pumped.len()), (Cycle(stop), 5));
        }
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
