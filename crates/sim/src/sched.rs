//! The wakeup-scheduling contract: components tell the driver when they
//! next need CPU instead of being polled every cycle.
//!
//! The old world ticked every component every cycle; a quiescent DMA engine
//! or an accelerator waiting on a DRAM row burned host time doing nothing.
//! Under the event-driven core a component's step function — the contract
//! is `apiary_accel::Accelerator::wake` — returns a [`Wakeup`] describing
//! the *next* cycle it could possibly do work, and the driver (see `System`
//! / `ClusterSystem`) advances the clock straight to the earliest pending
//! wakeup. Message arrival implicitly re-arms [`Wakeup::OnMessage`]
//! sleepers, so request/response components stay latency-exact without
//! busy-polling.
//!
//! # Determinism rules
//!
//! Event-driven execution must be bit-identical to dense per-cycle ticking.
//! That holds iff every wakeup is *conservative*: a component may be woken
//! earlier than it asked (it must no-op gracefully) but never later than the
//! first cycle at which its dense-ticked twin would have changed state.
//! Ties between components woken on the same cycle are broken by the fixed
//! phase order of the driver, exactly as in the dense loop — the event core
//! only decides *which cycles run*, never the order within a cycle.

use crate::clock::Cycle;

/// When a component next needs to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Wakeup {
    /// Wake at the given absolute cycle (a timer: DRAM ready, ARQ retry,
    /// reconfig completion, supervisor backoff, lease expiry...).
    At(Cycle),
    /// Wake when a message arrives at the component's inbox; the driver
    /// re-arms this implicitly on delivery.
    OnMessage,
    /// Wake at the given cycle *or* earlier if a message arrives first —
    /// a timer guarding a receive (timeout + inbox).
    AtOrMessage(Cycle),
    /// Nothing pending: do not wake again until external state changes
    /// (the driver still re-checks after deliveries and faults).
    Idle,
}

impl Wakeup {
    /// A wakeup `delay` cycles after `now`.
    #[inline]
    pub fn after(now: Cycle, delay: u64) -> Wakeup {
        Wakeup::At(now.saturating_add(delay))
    }

    /// The earlier of two wakeups. `OnMessage` and `Idle` carry no time;
    /// combining a timed wakeup with `OnMessage` yields `AtOrMessage`.
    pub fn earliest(self, other: Wakeup) -> Wakeup {
        use Wakeup::*;
        match (self, other) {
            (Idle, w) | (w, Idle) => w,
            (OnMessage, OnMessage) => OnMessage,
            (OnMessage, At(t)) | (At(t), OnMessage) => AtOrMessage(t),
            (OnMessage, AtOrMessage(t)) | (AtOrMessage(t), OnMessage) => AtOrMessage(t),
            (At(a), At(b)) => At(a.min(b)),
            (At(a), AtOrMessage(b)) | (AtOrMessage(b), At(a)) => AtOrMessage(a.min(b)),
            (AtOrMessage(a), AtOrMessage(b)) => AtOrMessage(a.min(b)),
        }
    }

    /// The absolute deadline this wakeup imposes on the driver's clock jump:
    /// the latest cycle the driver may skip to without missing this
    /// component. `OnMessage` / `Idle` impose none ([`Cycle::MAX`]).
    #[inline]
    pub fn deadline(self) -> Cycle {
        match self {
            Wakeup::At(t) | Wakeup::AtOrMessage(t) => t,
            Wakeup::OnMessage | Wakeup::Idle => Cycle::MAX,
        }
    }

    /// Whether a message arrival should wake this sleeper early.
    #[inline]
    pub fn wakes_on_message(self) -> bool {
        matches!(self, Wakeup::OnMessage | Wakeup::AtOrMessage(_))
    }
}

/// How a machine's drivers advance its time. The mode is a field of the
/// machine's configuration (`SystemConfig::clock`): two machines under
/// different clocks can be stepped side by side in one process.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ClockMode {
    /// Tick every cycle (the legacy loop; reference behaviour).
    Dense,
    /// Jump between scheduled wakeups (default; bit-identical by
    /// construction, validated by `--det-check=event-vs-dense`).
    #[default]
    Event,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn earliest_combines_times_and_messages() {
        use Wakeup::*;
        assert_eq!(At(Cycle(5)).earliest(At(Cycle(9))), At(Cycle(5)));
        assert_eq!(Idle.earliest(At(Cycle(9))), At(Cycle(9)));
        assert_eq!(OnMessage.earliest(Idle), OnMessage);
        assert_eq!(OnMessage.earliest(At(Cycle(9))), AtOrMessage(Cycle(9)));
        assert_eq!(
            AtOrMessage(Cycle(7)).earliest(At(Cycle(3))),
            AtOrMessage(Cycle(3))
        );
        assert_eq!(Idle.earliest(Idle), Idle);
    }

    #[test]
    fn deadline_and_message_flags() {
        assert_eq!(Wakeup::At(Cycle(4)).deadline(), Cycle(4));
        assert_eq!(Wakeup::Idle.deadline(), Cycle::MAX);
        assert_eq!(Wakeup::OnMessage.deadline(), Cycle::MAX);
        assert!(Wakeup::OnMessage.wakes_on_message());
        assert!(Wakeup::AtOrMessage(Cycle(1)).wakes_on_message());
        assert!(!Wakeup::At(Cycle(1)).wakes_on_message());
        assert_eq!(Wakeup::after(Cycle(10), 5), Wakeup::At(Cycle(15)));
    }

    #[test]
    fn event_is_the_default_clock() {
        assert_eq!(ClockMode::default(), ClockMode::Event);
    }
}
