//! A tile: monitor + accelerator slot + kernel bookkeeping, and the
//! kernel's implementation of the [`TileOs`] interface.

use crate::fault::{preemption_downtime, FaultPolicy, FaultRecord};
use crate::process::AppId;
use crate::system::SystemError;
use apiary_accel::{Accelerator, CapEnv, TileOs};
use apiary_cap::CapRef;
use apiary_mem::AccessKind;
use apiary_monitor::{Monitor, SendError};
use apiary_noc::{Delivered, TrafficClass};
use apiary_sim::{Cycle, Payload, Wakeup};
use apiary_trace::EventKind;

/// A swapped-out tenant on a time-multiplexed tile (§4.4 preemptive
/// sharing): its accelerator instance, identity, capability environment,
/// and the architectural-state snapshot taken when it was swapped out
/// (`None` until its first swap-in — it starts cold).
pub struct ParkedTenant {
    /// The swapped-out accelerator instance.
    pub accel: Box<dyn Accelerator>,
    /// Owning application.
    pub app: AppId,
    /// Fault policy to apply while this tenant is active.
    pub policy: FaultPolicy,
    /// Capability environment restored on swap-in.
    pub env: CapEnv,
    /// State saved at swap-out; restored on the next swap-in.
    pub snapshot: Option<Vec<u8>>,
}

/// One mesh tile.
pub struct Tile {
    /// The trusted monitor fronting this tile.
    pub monitor: Monitor,
    /// The accelerator occupying the dynamic region, if any.
    pub accel: Option<Box<dyn Accelerator>>,
    /// The capability environment granted to the accelerator.
    pub env: CapEnv,
    /// Which application owns this tile (None = empty slot).
    pub app: Option<AppId>,
    /// Fault policy.
    pub policy: FaultPolicy,
    /// The tile is paused (preemption save/restore in progress) until this
    /// cycle.
    pub busy_until: Cycle,
    /// The accelerator's last reported wakeup — when the event clock next
    /// owes this tile a run (`Tile::due`). Dense ticking stores but
    /// ignores it. Kernel lifecycle changes (install, context swap,
    /// reconfiguration completion, preemption in place) reset it to "due
    /// now", which is always safe: a spurious wake is a no-op.
    pub wake: Wakeup,
    /// Fault history.
    pub faults: Vec<FaultRecord>,
    /// The swapped-out second tenant, when the tile is time-multiplexed
    /// (see [`crate::System::install_shared`]).
    pub parked: Option<ParkedTenant>,
}

impl Tile {
    /// Creates an empty tile around a monitor.
    pub fn new(monitor: Monitor) -> Tile {
        Tile {
            monitor,
            accel: None,
            env: CapEnv::new(),
            app: None,
            policy: FaultPolicy::default(),
            busy_until: Cycle::ZERO,
            wake: Wakeup::AtOrMessage(Cycle::ZERO),
            faults: Vec::new(),
            parked: None,
        }
    }

    /// The accelerator's name, or `"-"` for an empty slot.
    pub fn accel_name(&self) -> &'static str {
        self.accel.as_ref().map_or("-", |a| a.name())
    }

    /// The first cycle the event clock owes this tile a wake: at once if it
    /// sleeps on messages and has mail, else its reported deadline
    /// ([`Cycle::MAX`] for none); never before the tile's stall ends.
    pub(crate) fn due(&self) -> Cycle {
        let due = if self.wake.wakes_on_message() && self.monitor.inbox_len() > 0 {
            Cycle::ZERO
        } else {
            self.wake.deadline()
        };
        due.max(self.busy_until)
    }

    /// Seats a tenant, due at once: its first wake reports its schedule.
    pub(crate) fn seat(
        &mut self,
        accel: Box<dyn Accelerator>,
        app: AppId,
        policy: FaultPolicy,
        env: CapEnv,
    ) {
        (self.accel, self.app, self.policy, self.env) = (Some(accel), Some(app), policy, env);
        self.wake = Wakeup::AtOrMessage(Cycle::ZERO);
    }

    /// Decommissions the tile: every capability and name binding wiped,
    /// the monitor sealed and the slot emptied, so no authority survives.
    pub(crate) fn vacate(&mut self, now: Cycle) {
        self.monitor.reset(now);
        self.monitor.fail_stop(now);
        (self.accel, self.app, self.env) = (None, None, CapEnv::new());
    }

    /// Saves and at once restores the accelerator's state, stalling the
    /// tile for the downtime, and re-arms it: the restored accelerator is
    /// due once the stall ends, whatever it reported when it faulted.
    /// Returns the snapshot's size; an error changes nothing.
    pub(crate) fn preempt_in_place(&mut self, now: Cycle) -> Result<usize, SystemError> {
        let node = self.monitor.node();
        let accel = self.accel.as_mut().ok_or(SystemError::SlotEmpty(node))?;
        let snap = accel
            .save_state()
            .ok_or(SystemError::NotPreemptible(node))?;
        accel
            .restore_state(&snap)
            .expect("an accelerator restores its own snapshot");
        self.busy_until = now + preemption_downtime(snap.len());
        self.wake = Wakeup::AtOrMessage(Cycle::ZERO);
        let event = EventKind::Preempt { context: 0 };
        self.monitor.tracer_mut().record(now, node.0, event);
        Ok(snap.len())
    }
}

/// The kernel's [`TileOs`] implementation: a per-tick view that routes every
/// accelerator action through the tile's monitor.
pub struct KernelOs<'a> {
    monitor: &'a mut Monitor,
    env: &'a CapEnv,
    now: Cycle,
    /// Faults raised during this tick (applied by the system afterwards).
    pub raised: Vec<u32>,
}

impl<'a> KernelOs<'a> {
    /// Builds the per-tick OS view.
    pub fn new(monitor: &'a mut Monitor, env: &'a CapEnv, now: Cycle) -> KernelOs<'a> {
        KernelOs {
            monitor,
            env,
            now,
            raised: Vec::new(),
        }
    }
}

impl TileOs for KernelOs<'_> {
    fn now(&self) -> Cycle {
        self.now
    }

    fn recv(&mut self) -> Option<Delivered> {
        self.monitor.recv()
    }

    fn inbox_depth(&self) -> usize {
        self.monitor.inbox_len()
    }

    fn send(
        &mut self,
        cap: CapRef,
        kind: u16,
        tag: u64,
        class: TrafficClass,
        payload: Payload,
    ) -> Result<(), SendError> {
        self.monitor.send(cap, kind, tag, class, payload, self.now)
    }

    fn reply(
        &mut self,
        to: &Delivered,
        kind: u16,
        class: TrafficClass,
        payload: Payload,
    ) -> Result<(), SendError> {
        let cap = self
            .monitor
            .find_endpoint_cap(to.msg.src)
            .ok_or(SendError::Cap(apiary_cap::CapError::InvalidRef))?;
        self.monitor
            .send(cap, kind, to.msg.tag, class, payload, self.now)
    }

    fn mem_read(
        &mut self,
        mem_cap: CapRef,
        offset: u64,
        len: u64,
        tag: u64,
    ) -> Result<(), SendError> {
        let svc = self
            .env
            .get("mem-service")
            .ok_or(SendError::UnknownService)?;
        self.monitor.send_mem(
            mem_cap,
            svc,
            AccessKind::Read,
            offset,
            len,
            &[],
            tag,
            self.now,
        )
    }

    fn mem_write(
        &mut self,
        mem_cap: CapRef,
        offset: u64,
        data: &[u8],
        tag: u64,
    ) -> Result<(), SendError> {
        let svc = self
            .env
            .get("mem-service")
            .ok_or(SendError::UnknownService)?;
        self.monitor.send_mem(
            mem_cap,
            svc,
            AccessKind::Write,
            offset,
            data.len() as u64,
            data,
            tag,
            self.now,
        )
    }

    fn cap_env(&self) -> &CapEnv {
        self.env
    }

    fn note(&mut self, text: &str) {
        let node = self.monitor.node().0;
        self.monitor
            .tracer_mut()
            .record(self.now, node, EventKind::Note(text.to_string()));
    }

    fn raise_fault(&mut self, code: u32) {
        let node = self.monitor.node().0;
        self.monitor
            .tracer_mut()
            .record(self.now, node, EventKind::Fault { code });
        self.raised.push(code);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apiary_cap::{CapKind, Capability, EndpointId, Rights};
    use apiary_monitor::MonitorConfig;
    use apiary_noc::NodeId;

    fn tile(node: u16) -> Tile {
        Tile::new(Monitor::new(NodeId(node), MonitorConfig::default()))
    }

    #[test]
    fn empty_tile_basics() {
        let t = tile(3);
        assert_eq!(t.accel_name(), "-");
        assert!(t.app.is_none());
        assert_eq!(t.policy, FaultPolicy::FailStop);
    }

    #[test]
    fn kernel_os_reply_requires_endpoint_cap() {
        let mut t = tile(0);
        let env = CapEnv::new();
        let mut os = KernelOs::new(&mut t.monitor, &env, Cycle(1));
        let mut msg = apiary_noc::Message::new(NodeId(5), NodeId(0), TrafficClass::Request, vec![]);
        msg.kind = apiary_monitor::wire::KIND_REQUEST;
        let d = Delivered {
            msg,
            injected_at: Cycle(0),
            delivered_at: Cycle(1),
        };
        // No cap for node 5: reply denied.
        assert!(os
            .reply(
                &d,
                apiary_monitor::wire::KIND_RESPONSE,
                TrafficClass::Request,
                Payload::empty()
            )
            .is_err());
        drop(os);
        // Grant the cap; reply now works.
        t.monitor
            .install_cap(Capability::new(
                CapKind::Endpoint(EndpointId(5)),
                Rights::SEND,
            ))
            .expect("space");
        let mut os = KernelOs::new(&mut t.monitor, &env, Cycle(2));
        os.reply(
            &d,
            apiary_monitor::wire::KIND_RESPONSE,
            TrafficClass::Request,
            Payload::empty(),
        )
        .expect("granted");
    }

    #[test]
    fn kernel_os_mem_needs_service_cap_in_env() {
        let mut t = tile(0);
        let env = CapEnv::new();
        let mem_cap = CapRef {
            index: 0,
            generation: 0,
        };
        let mut os = KernelOs::new(&mut t.monitor, &env, Cycle(0));
        assert_eq!(
            os.mem_read(mem_cap, 0, 8, 1),
            Err(SendError::UnknownService)
        );
    }

    #[test]
    fn raise_fault_records() {
        let mut t = tile(2);
        let env = CapEnv::new();
        let mut os = KernelOs::new(&mut t.monitor, &env, Cycle(9));
        os.raise_fault(77);
        assert_eq!(os.raised, vec![77]);
        assert_eq!(t.monitor.tracer().count(&EventKind::Fault { code: 0 }), 1);
    }
}
