//! The cycle loop: the dense tick, the six kernel phases every cycle
//! that runs funnels through, and the event clock that runs them only on
//! cycles something is due.

use super::System;
use crate::fault::{preemption_downtime, FaultAction, FaultPolicy, FaultRecord};
use crate::tile::KernelOs;
use apiary_accel::CapEnv;
use apiary_monitor::TileState;
use apiary_noc::NodeId;
use apiary_sim::{ensure, ClockMode, Cycle, Machine};
use core::ops::ControlFlow;

impl System {
    /// Advances the machine by one cycle (the dense reference clock: every
    /// kernel phase runs every cycle). The event clock in
    /// [`Machine::advance_toward`] reaches the same states by running the
    /// private `cycle_phases` only on cycles a component scheduled a wakeup
    /// for.
    pub fn tick(&mut self) {
        self.noc.step();
        self.cycle_phases(self.noc.now(), true);
    }

    /// Everything a cycle does after the NoC moves its flits, one named
    /// phase after another. Both clocks funnel through this, so a cycle that
    /// runs is identical under either; the clocks differ only in *which*
    /// cycles run, and in which tiles the wake phase visits: `all` of them
    /// under the dense clock, only the due ones under the event clock.
    fn cycle_phases(&mut self, now: Cycle, all: bool) {
        self.touched().phase_cycles += 1;
        self.finish_reconfigs(now);
        self.pump_inbound(now);
        self.wake_accelerators(now, all);
        self.check_watchdogs(now);
        self.pump_outbound(now);
        if self.cfg.supervisor.enabled {
            self.step_supervisor(now);
        }
    }

    /// Completed reconfigurations come online reset.
    fn finish_reconfigs(&mut self, now: Cycle) {
        for job in self.reconfig.take_completed(now) {
            let tile = &mut self.tiles[job.node.index()];
            tile.monitor.reset(now);
            tile.seat(job.accel, job.app, job.policy, CapEnv::new());
            tile.busy_until = now;
        }
    }

    /// Deliveries into monitors (fail-stopped tiles NACK here). Skips tiles
    /// with nothing ejected: pump_in is a no-op for them, and most tiles are
    /// quiet most cycles.
    fn pump_inbound(&mut self, now: Cycle) {
        for (i, tile) in self.tiles.iter_mut().enumerate() {
            if self.noc.eject_pending(NodeId(i as u16)) > 0 {
                tile.monitor.pump_in(&mut self.noc, now);
            }
        }
    }

    /// Accelerator execution: every installed, running, non-busy tile is
    /// woken — with `all` unset, only those `Tile::due` by `now`, since a
    /// wake before that is a no-op by the wakeup contract — and the first
    /// fault it raises gets the tile's fault policy.
    fn wake_accelerators(&mut self, now: Cycle, all: bool) {
        for i in 0..self.tiles.len() {
            let tile = &self.tiles[i];
            if tile.accel.is_none()
                || (!all && tile.due() > now)
                || tile.busy_until > now
                || tile.monitor.state() == TileState::FailStopped
            {
                continue;
            }
            let node = NodeId(i as u16);
            if self.reconfig.in_progress(node) {
                continue;
            }
            let tile = &mut self.tiles[i];
            let mut accel = tile.accel.take().expect("checked above");
            let (wake, raised) = {
                let mut os = KernelOs::new(&mut tile.monitor, &tile.env, now);
                let wake = accel.wake(now, &mut os);
                (wake, os.raised)
            };
            tile.accel = Some(accel);
            tile.wake = wake;
            if let Some(&code) = raised.first() {
                self.apply_fault(node, code, now);
            }
        }
    }

    /// Watchdog: tiles sitting on unconsumed traffic beyond their window
    /// are treated as hung (§4.4) and get the fault policy.
    fn check_watchdogs(&mut self, now: Cycle) {
        for i in 0..self.tiles.len() {
            if self.tiles[i].monitor.hang_detected(now) {
                self.apply_fault(NodeId(i as u16), crate::fault::WATCHDOG_FAULT, now);
            }
        }
    }

    /// Outbound traffic into the NoC; empty outboxes have nothing to do.
    fn pump_outbound(&mut self, now: Cycle) {
        for tile in &mut self.tiles {
            if tile.monitor.outbox_len() > 0 {
                tile.monitor.pump_out(&mut self.noc, now);
            }
        }
    }

    /// The next cycle at which the kernel phases could do something a
    /// skipped cycle would not: a reconfiguration completes, an outbox head
    /// becomes ready, a watchdog window expires, an accelerator's scheduled
    /// wakeup (or a message already waiting for an `OnMessage` sleeper)
    /// comes due, or the supervisor has a detection or backoff expiry
    /// pending. [`Cycle::MAX`] when nothing is scheduled. Undelivered NoC
    /// traffic is handled by the caller, which asks the NoC how long it
    /// stays quiet ([`Noc::quiet_until`]).
    pub(super) fn next_phase_due(&self, now: Cycle) -> Cycle {
        let next = now.saturating_add(1);
        if self.noc.rx_pending_total() > 0 {
            return next;
        }
        let mut due = Cycle::MAX;
        if let Some(t) = self.reconfig.next_completion() {
            due = due.min(t.max(next));
        }
        for tile in &self.tiles {
            if let Some(ready) = tile.monitor.outbox_next_ready() {
                due = due.min(ready.max(next));
            }
            if let Some(t) = tile.monitor.hang_deadline() {
                due = due.min(t.max(next));
            }
            if tile.accel.is_some() && tile.monitor.state() != TileState::FailStopped {
                due = due.min(tile.due().max(next));
            }
        }
        if self.cfg.supervisor.enabled {
            due = due.min(self.supervisor_due(next));
        }
        due.max(next)
    }

    /// One event-clock step: advance to the next cycle where the kernel
    /// phases can matter, or to `horizon` if that comes first — jumping
    /// the clock while the NoC is quiet (empty, or carrying only packets on
    /// disjoint routes, the first of which the jump delivers on its
    /// cycle), stepping it cycle by
    /// cycle otherwise (a delivery re-arms every `OnMessage` sleeper, so
    /// phases run the cycle it lands) — then run the phases if that cycle
    /// is one they are due on. Stopping at the caller's `horizon` alone
    /// runs no phases: the cycle is a no-op by the wakeup contract. Always
    /// advances at least one cycle and never beyond `horizon`.
    fn event_step(&mut self, horizon: Cycle) {
        let due = self.phase_due();
        let stop = due.min(horizon);
        let now = loop {
            if let Some(quiet) = self.noc.quiet_until() {
                let to = stop.min(quiet);
                self.jump_to(to);
                break to;
            }
            self.noc.step();
            let now = self.noc.now();
            if now >= stop || self.noc.rx_pending_total() > 0 {
                break now;
            }
        };
        if now >= due || self.noc.rx_pending_total() > 0 {
            self.cycle_phases(now, false);
        } else {
            // No phase ran and nothing waits to be ejected: the scan would
            // read what it read, and `due` still lies ahead of the clock.
            self.phase_due.set(Some(due));
        }
    }

    /// `next_phase_due(now)`, from the memo when one is held.
    fn phase_due(&self) -> Cycle {
        let fresh = || self.next_phase_due(self.noc.now());
        debug_assert!(
            self.phase_due.get().is_none_or(|d| d == fresh()),
            "stale memo"
        );
        self.phase_due.get().unwrap_or_else(fresh)
    }

    /// The next cycle at which this system can do anything on its own: the
    /// earlier of the NoC's next event and the earliest kernel-phase
    /// deadline ([`Cycle::MAX`] when nothing is scheduled). The NoC's is
    /// `now + 1` while traffic it must step is in flight, the first landing
    /// while its packets fly on disjoint routes, and none when it is empty;
    /// undrained deliveries make the kernel due at `now + 1`. Lockstep
    /// drivers that advance several systems against one shared clock (the
    /// cluster) use this to find the global next event; every cycle
    /// strictly before the returned one is provably a no-op for this system
    /// and may be crossed with [`System::skip_to`]. The kernel scan it
    /// makes is kept as the memo the next step reads, so a lockstep driver's
    /// question costs no second scan.
    pub fn next_event_due(&self) -> Cycle {
        match self.noc.quiet_until() {
            Some(quiet) => {
                let due = self.phase_due();
                self.phase_due.set(Some(due));
                quiet.min(due)
            }
            None => self.noc.now().saturating_add(1),
        }
    }

    /// Jumps the clock to `target` without running any kernel phases. Only
    /// sound when every cycle in `(now, target]` is a no-op — i.e. `target`
    /// is strictly before what [`System::next_event_due`] reported, so the
    /// NoC is quiet until past it: empty, or carrying packets on disjoint
    /// routes that land later. The NoC still accounts the skipped cycles
    /// (and the flying packets' progress) and steps its chaos plane through
    /// them.
    pub fn skip_to(&mut self, target: Cycle) {
        debug_assert!(
            self.noc.quiet_until().is_some_and(|quiet| quiet > target),
            "cannot skip over traffic that must be stepped or lands by then"
        );
        self.jump_to(target);
    }

    /// Carries the NoC, whose cycle is this machine's clock, to `target`
    /// in closed form. Time never moves backwards, and a skip reaches its
    /// target: the kernel phases would otherwise run on the wrong cycle.
    fn jump_to(&mut self, target: Cycle) {
        let from = self.noc.now();
        assert!(from <= target, "clock moved backwards: {from} -> {target}");
        let reached = self.noc.skip_to(target);
        assert_eq!(reached, target, "a skip from {from} fell short");
    }

    /// [`Machine::advance_toward`], under the name `benchmark/` calls.
    #[inline]
    pub fn advance_toward(&mut self, horizon: Cycle) {
        Machine::advance_toward(self, horizon);
    }

    /// [`Machine::run_until`], under the name `benchmark/` calls.
    pub fn run_until(&mut self, max_cycles: u64, pred: impl FnMut(&System) -> bool) -> bool {
        Machine::run_until(self, max_cycles, pred)
    }

    /// Runs until no traffic has been in flight for a settle window (long
    /// enough to cover in-progress accelerator compute), or until
    /// `max_cycles` elapse; returns `true` on quiescence.
    ///
    /// "Idle" means the NoC and all outbound queues are empty. Messages
    /// already delivered into inboxes do not count: an undriven tile (e.g.
    /// a test client) may leave responses unread indefinitely.
    pub fn run_until_idle(&mut self, max_cycles: u64) -> bool {
        const SETTLE: u64 = 4096;
        // Idleness only changes on the cycle a step lands on: the cycles it
        // crosses keep the state it started in, so they are quiet if it
        // was. An idle system is stepped no further than the end of its
        // settle window, which is the cycle per-cycle ticking would stop on.
        let mut at = self.now();
        // Consecutive idle cycles, while the system is idle.
        let mut quiet = self.quiescent().then_some(0);
        let settled = Machine::drive(self, &mut (), max_cycles, |sys, _| {
            let crossed = quiet.map_or(0, |q| q + sys.now().saturating_since(at) - 1);
            at = sys.now();
            quiet = sys.quiescent().then_some(crossed + 1);
            match quiet {
                Some(q) if q >= SETTLE => ControlFlow::Break(()),
                Some(q) => ControlFlow::Continue(at.saturating_add(SETTLE - q)),
                None => ControlFlow::Continue(Cycle::MAX),
            }
        });
        settled || quiet.is_some()
    }

    /// [`Machine::quiescent`], under the name `benchmark/` calls.
    pub fn is_idle(&self) -> bool {
        Machine::quiescent(self)
    }

    pub(super) fn apply_fault(&mut self, node: NodeId, code: u32, now: Cycle) {
        let tile = &mut self.tiles[node.index()];
        let preemptible = tile.accel.as_ref().is_some_and(|a| a.is_preemptible());
        let preempt = tile.policy == FaultPolicy::Preempt && preemptible;
        let action = match preempt.then(|| tile.preempt_in_place(now)) {
            Some(Ok(len)) => FaultAction::Preempted {
                downtime: preemption_downtime(len),
            },
            _ => {
                tile.monitor.fail_stop();
                FaultAction::FailStopped
            }
        };
        tile.faults.push(FaultRecord {
            code,
            at: now,
            action,
        });
    }
}

impl Machine for System {
    fn now(&self) -> Cycle {
        self.noc.now()
    }

    fn advance_toward(&mut self, horizon: Cycle) {
        if self.noc.now() >= horizon {
            return;
        }
        match self.cfg.clock {
            ClockMode::Dense => self.tick(),
            ClockMode::Event => self.event_step(horizon),
        }
    }

    /// The NoC and every outbox are empty. Unread inbox messages and
    /// compute in progress do not count (see [`System::run_until_idle`]).
    fn quiescent(&self) -> bool {
        self.noc.pending() == 0 && self.tiles.iter().all(|t| t.monitor.outbox_len() == 0)
    }

    /// The memoised kernel deadline, if held, is a fresh scan's; the NoC
    /// keeps its layout's and its flights' laws
    /// ([`Noc::check_invariants`](apiary_noc::Noc::check_invariants)); every
    /// tile's flow cache agrees with its cap table
    /// ([`Monitor::check_invariants`](apiary_monitor::Monitor::check_invariants));
    /// and every supervised service stands on one rung of the escalation
    /// ladder (`Supervisor::check`).
    fn check_invariants(&self) -> Result<(), String> {
        let fresh = self.next_phase_due(self.noc.now());
        ensure!(
            self.phase_due.get().is_none_or(|d| d == fresh),
            "stale memo"
        );
        self.noc.check_invariants()?;
        for tile in &self.tiles {
            tile.monitor.check_invariants()?;
        }
        self.allocator.check_invariants()?;
        self.supervisor.check(&self.reconfig)
    }
}
