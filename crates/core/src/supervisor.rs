//! The self-healing supervisor (§4.4 taken to its conclusion).
//!
//! Fail-stop answers *what* happens when a tile dies: the monitor seals it
//! and correspondents get errors. The supervisor answers *what happens
//! next*. Services registered with [`crate::System::deploy_service`] are
//! watched; when their tile fail-stops (accelerator fault, watchdog hang,
//! or an operator/chaos [`crate::System::inject_fault`]), the supervisor
//! walks an escalation ladder:
//!
//! 1. **restart in place** — after a backoff that doubles per attempt, the
//!    tile is partially reconfigured with a fresh instance from the
//!    service's factory;
//! 2. **migrate** — once `max_restarts` in-place attempts are exhausted,
//!    the next incident re-instantiates the service on a spare node from
//!    [`SupervisorConfig::spare_nodes`];
//! 3. **give up** — with no spares left the incident is recorded as
//!    abandoned and the service stays down.
//!
//! Recovery is only complete once the kernel has **rewired** the service:
//! every registered client's name table is rebound to the new home (their
//! existing service capabilities keep working — naming is late-bound,
//! §4.3), and the new home is granted reply endpoints to each client. The
//! dead tile's own capability table was already cleared by fail-stop/reset,
//! so no stale authority survives the move.
//!
//! Rewiring also keeps the monitors' flow-verdict caches honest: every
//! client rebind lands in `Monitor::bind_service`, and the failed tile's
//! teardown lands in `Monitor::fail_stop`/`reset` — each of which clears
//! the tile's cached (capability, destination) verdicts. A batched verdict
//! therefore never survives the reconfiguration that could invalidate it.
//!
//! Each incident records detection and recovery cycles; the difference is
//! the incident's MTTR, the metric experiment E16 sweeps.

use crate::checkpoint::CheckpointStore;
use crate::fault::{checkpoint_downtime, FaultPolicy};
use crate::process::AppId;
use crate::reconfig::ReconfigController;
use crate::system::System;
use apiary_accel::Accelerator;
use apiary_cap::ServiceId;
use apiary_monitor::TileState;
use apiary_noc::NodeId;
use apiary_sim::{ensure, Cycle};
use apiary_trace::EventKind;
use std::collections::VecDeque;

/// Builds a fresh instance of a supervised service's accelerator.
pub type AccelFactory = Box<dyn Fn() -> Box<dyn Accelerator>>;

/// Supervisor policy knobs, part of [`crate::SystemConfig`].
#[derive(Debug, Clone)]
pub struct SupervisorConfig {
    /// Master switch. Off by default: systems that never call
    /// [`crate::System::deploy_service`] behave exactly as before.
    pub enabled: bool,
    /// In-place restarts per service before escalating to migration.
    pub max_restarts: u32,
    /// Base restart delay in cycles; doubles with each restart of the same
    /// service (exponential backoff).
    pub restart_backoff: u64,
    /// Nodes kept empty as migration targets.
    pub spare_nodes: Vec<NodeId>,
    /// Cycles between periodic checkpoints of preemptible services
    /// (0 disables checkpointing; recovery is then always cold). Each
    /// checkpoint stalls the service for
    /// [`crate::fault::checkpoint_downtime`] of its state size, so the
    /// interval trades recovery staleness against steady-state overhead.
    pub checkpoint_interval: u64,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        SupervisorConfig {
            enabled: false,
            max_restarts: 2,
            restart_backoff: 256,
            spare_nodes: Vec::new(),
            checkpoint_interval: 0,
        }
    }
}

/// What a fresh instance of a service is built from: the kernel loads one
/// through the ICAP at every restart, re-home and cross-board migration.
pub struct ServiceImage {
    /// Owning application.
    pub app: AppId,
    /// Fault policy for (re)installed instances.
    pub policy: FaultPolicy,
    /// Bitstream size, which prices every load via the ICAP.
    pub bitstream_bytes: u64,
    /// Fresh-instance factory.
    pub factory: AccelFactory,
}

/// A service under supervision.
pub struct ServiceSpec {
    /// Logical name clients bind to.
    pub service: ServiceId,
    /// Current home node (updated on migration).
    pub node: NodeId,
    /// What a restart loads.
    pub image: ServiceImage,
    /// Clients whose name tables must be rebound after a move.
    pub clients: Vec<NodeId>,
    /// In-place restarts consumed so far.
    pub restarts_used: u32,
    /// Cached terminal state: `true` once an incident for this service was
    /// abandoned, so the per-tick detection scan never walks the incident
    /// log.
    pub abandoned: bool,
    /// Next cycle at which a periodic checkpoint is due. `Cycle::MAX`
    /// once the service proves non-preemptible (or checkpointing is off).
    pub next_checkpoint_at: Cycle,
}

/// Where an incident's recovery is pointed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryTarget {
    /// Restart on the same tile.
    InPlace(NodeId),
    /// Migrate to a spare.
    Migrate(NodeId),
    /// No recovery possible (restarts and spares exhausted).
    Abandoned,
}

/// Phase of an open incident.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Phase {
    /// Waiting out the restart backoff.
    Backoff { restart_at: Cycle },
    /// Bitstream in flight.
    Reconfiguring,
    /// Terminal (recovered or abandoned).
    Closed,
}

/// One detected failure of a supervised service, with its recovery timing.
#[derive(Debug, Clone)]
pub struct Incident {
    /// The service that failed.
    pub service: ServiceId,
    /// The node it was on when it failed.
    pub node: NodeId,
    /// Fault code from the tile's fault record (0 if none).
    pub code: u32,
    /// Cycle the supervisor noticed the fail-stop.
    pub detected_at: Cycle,
    /// Cycle service was back up and rewired; `None` while recovery is in
    /// flight or if abandoned.
    pub recovered_at: Option<Cycle>,
    /// What the supervisor decided to do.
    pub target: RecoveryTarget,
    /// `true` if recovery restored a checkpoint (warm) rather than
    /// deploying factory-fresh (cold).
    pub warm: bool,
    pub(crate) phase: Phase,
}

impl Incident {
    /// Mean-time-to-repair contribution: cycles from detection to rewired
    /// recovery. `None` until recovered.
    pub fn mttr(&self) -> Option<u64> {
        self.recovered_at.map(|r| r - self.detected_at)
    }

    /// `true` once the incident is resolved (recovered or abandoned).
    pub fn closed(&self) -> bool {
        self.phase == Phase::Closed
    }

    /// `true` if the supervisor gave up on this incident.
    pub fn abandoned(&self) -> bool {
        self.phase == Phase::Closed && self.recovered_at.is_none()
    }
}

/// The supervisor: specs, incident log, and the escalation state machine.
/// Stepped by [`crate::System::tick`]; holds no reference to the system
/// (it is taken out, stepped against it, and put back).
#[derive(Default)]
pub struct Supervisor {
    /// Supervised services.
    pub(crate) specs: Vec<ServiceSpec>,
    /// All incidents ever opened, in detection order.
    pub(crate) incidents: Vec<Incident>,
    /// Spares not yet consumed by a migration (FIFO: O(1) pop_front).
    pub(crate) free_spares: VecDeque<NodeId>,
    /// Latest checkpoint per supervised service.
    pub(crate) checkpoints: CheckpointStore,
}

impl Supervisor {
    /// The incident log.
    pub fn incidents(&self) -> &[Incident] {
        &self.incidents
    }

    /// MTTR samples (cycles) of every recovered incident.
    pub fn mttr_samples(&self) -> Vec<u64> {
        self.incidents.iter().filter_map(|i| i.mttr()).collect()
    }

    /// The spec of a supervised service.
    pub fn spec(&self, service: ServiceId) -> Option<&ServiceSpec> {
        self.specs.iter().find(|s| s.service == service)
    }

    /// The current home node of a supervised service.
    pub fn service_home(&self, service: ServiceId) -> Option<NodeId> {
        self.spec(service).map(|s| s.node)
    }

    /// Open (unresolved) incident index for a service, if any.
    pub(crate) fn open_incident(&self, service: ServiceId) -> Option<usize> {
        self.incidents
            .iter()
            .position(|i| i.service == service && !i.closed())
    }

    /// The checkpoint store.
    pub fn checkpoints(&self) -> &CheckpointStore {
        &self.checkpoints
    }

    /// `Err` unless every service stands on one rung of the ladder: at
    /// most one incident open, none once abandoned, an open one naming the
    /// service's node and, while `Reconfiguring`, its target's bitstream
    /// in flight; and no free spare hosts a service.
    pub(crate) fn check(&self, reconfig: &ReconfigController) -> Result<(), String> {
        for spec in &self.specs {
            let (s, node) = (spec.service, spec.node);
            ensure!(!self.free_spares.contains(&node), "{s:?} on a free spare");
            let open = |i: &&Incident| i.service == s && !i.closed();
            for (k, i) in self.incidents.iter().filter(open).enumerate() {
                ensure!(k == 0, "{s:?} has two open incidents");
                ensure!(!spec.abandoned, "abandoned {s:?} has an open incident");
                ensure!(i.node == node, "{s:?}'s open incident is elsewhere");
                if let RecoveryTarget::InPlace(to) | RecoveryTarget::Migrate(to) = i.target {
                    let idle = i.phase == Phase::Reconfiguring && !reconfig.in_progress(to);
                    ensure!(!idle, "{s:?} reconfigures {to} with nothing in flight");
                }
            }
        }
        Ok(())
    }
}

/// The ladder itself: the half of [`System`] that steps the supervisor.
impl System {
    /// One supervisor pass: take due checkpoints, detect fail-stopped
    /// services, escalate through the restart/migrate ladder, and finish
    /// recoveries whose bitstream completed. Runs at the end of every tick
    /// when enabled.
    pub(crate) fn step_supervisor(&mut self, now: Cycle) {
        let mut sup = std::mem::take(&mut self.supervisor);
        self.checkpoint_pass(&mut sup, now);
        for si in 0..sup.specs.len() {
            let service = sup.specs[si].service;
            match sup.open_incident(service) {
                None => {
                    // Detection: the service's home tile fail-stopped. Once
                    // an incident was abandoned the service stays down —
                    // re-detecting it every cycle would flood the log.
                    let node = sup.specs[si].node;
                    if self.tiles[node.index()].monitor.state() != TileState::FailStopped
                        || self.reconfig.in_progress(node)
                        || sup.specs[si].abandoned
                    {
                        continue;
                    }
                    let spec = &sup.specs[si];
                    let code = self.tiles[node.index()].faults.last().map_or(0, |f| f.code);
                    let backoff = self
                        .cfg
                        .supervisor
                        .restart_backoff
                        .saturating_mul(1u64 << spec.restarts_used.min(16));
                    let target = if spec.restarts_used < self.cfg.supervisor.max_restarts {
                        RecoveryTarget::InPlace(node)
                    } else if let Some(spare) = sup.free_spares.pop_front() {
                        RecoveryTarget::Migrate(spare)
                    } else {
                        RecoveryTarget::Abandoned
                    };
                    let phase = if target == RecoveryTarget::Abandoned {
                        sup.specs[si].abandoned = true;
                        Phase::Closed
                    } else {
                        Phase::Backoff {
                            restart_at: now + backoff,
                        }
                    };
                    sup.incidents.push(Incident {
                        service,
                        node,
                        code,
                        detected_at: now,
                        recovered_at: None,
                        target,
                        warm: false,
                        phase,
                    });
                }
                Some(ii) => {
                    let (target, phase) = (sup.incidents[ii].target, sup.incidents[ii].phase);
                    let dst = match target {
                        RecoveryTarget::InPlace(n) | RecoveryTarget::Migrate(n) => n,
                        RecoveryTarget::Abandoned => continue,
                    };
                    match phase {
                        Phase::Backoff { restart_at } if now >= restart_at => {
                            // Warm path: the latest verified checkpoint, if
                            // any, restores into the fresh instance.
                            let snapshot = sup.checkpoints.latest(service.0).map(|s| &s.state[..]);
                            let spec = &mut sup.specs[si];
                            // A busy ICAP just pushes the restart out.
                            match self.warm_start(dst, &spec.image, snapshot) {
                                Ok((_, warm)) => {
                                    spec.restarts_used += 1;
                                    sup.incidents[ii].phase = Phase::Reconfiguring;
                                    sup.incidents[ii].warm = warm;
                                    if warm {
                                        sup.checkpoints.warm_restores += 1;
                                    }
                                }
                                Err(_) => {
                                    // The ICAP is mid-flight on this very
                                    // tile. Rather than silently polling
                                    // every cycle, park the incident until
                                    // the blocking job lands — the exact
                                    // cycle the old retry loop would have
                                    // first succeeded — and leave a span in
                                    // the trace so the stall is visible.
                                    let resume = self
                                        .reconfig
                                        .completion_of(dst)
                                        .unwrap_or_else(|| now.saturating_add(1));
                                    sup.incidents[ii].phase = Phase::Backoff { restart_at: resume };
                                    self.tiles[dst.index()].monitor.tracer_mut().record(
                                        now,
                                        dst.0,
                                        EventKind::Note(format!(
                                            "supervisor restart blocked by reconfig; retry at {resume}"
                                        )),
                                    );
                                }
                            }
                        }
                        Phase::Reconfiguring if !self.reconfig.in_progress(dst) => {
                            // Bitstream done; the tile came back reset this
                            // tick. Rewire clients and close the incident.
                            let spec = &mut sup.specs[si];
                            let old = spec.node;
                            if old != dst {
                                self.tiles[old.index()].vacate(now);
                            }
                            spec.node = dst;
                            for &c in &spec.clients {
                                self.tiles[c.index()].monitor.bind_service(service.0, dst);
                                let _ = self.open_reply_path(dst, c);
                            }
                            sup.incidents[ii].recovered_at = Some(now);
                            sup.incidents[ii].phase = Phase::Closed;
                        }
                        _ => {}
                    }
                }
            }
        }
        self.supervisor = sup;
    }

    /// Periodic checkpointing: snapshot every healthy preemptible service
    /// whose interval elapsed. The tile stalls for the save leg
    /// ([`checkpoint_downtime`]), so checkpoints are not free — E19
    /// measures the trade. A service whose accelerator cannot externalize
    /// state is permanently excused (`next_checkpoint_at = Cycle::MAX`).
    fn checkpoint_pass(&mut self, sup: &mut Supervisor, now: Cycle) {
        let interval = self.cfg.supervisor.checkpoint_interval;
        if interval == 0 {
            return;
        }
        for spec in &mut sup.specs {
            if spec.abandoned || now < spec.next_checkpoint_at {
                continue;
            }
            let node = spec.node;
            if self.reconfig.in_progress(node) {
                continue;
            }
            let tile = &mut self.tiles[node.index()];
            if tile.monitor.state() != TileState::Running || tile.busy_until > now {
                continue;
            }
            let Some(accel) = tile.accel.as_ref() else {
                continue;
            };
            match accel.save_state() {
                Some(state) => {
                    let len = state.len();
                    tile.busy_until = now + checkpoint_downtime(len);
                    let seq = sup.checkpoints.put(spec.service.0, now, state);
                    tile.monitor.tracer_mut().record(
                        now,
                        node.0,
                        EventKind::Note(format!("checkpoint seq {seq} ({len} B)")),
                    );
                    spec.next_checkpoint_at = now + interval;
                }
                None => {
                    spec.next_checkpoint_at = Cycle::MAX;
                }
            }
        }
    }

    /// The supervisor's contribution to [`System::next_phase_due`]: `next`
    /// if a fail-stop is waiting to be detected, else the earliest backoff
    /// expiry or periodic-checkpoint deadline. Reconfiguring incidents
    /// close on the bitstream completion cycle, which the reconfig
    /// deadline already covers. A due-but-blocked checkpoint (tile busy)
    /// re-arms at `busy_until` — the first cycle the dense clock's
    /// every-cycle retry would have succeeded.
    pub(crate) fn supervisor_due(&self, next: Cycle) -> Cycle {
        let mut due = Cycle::MAX;
        for spec in &self.supervisor.specs {
            match self.supervisor.open_incident(spec.service) {
                None => {
                    let node = spec.node;
                    if spec.abandoned {
                        continue;
                    }
                    let tile = &self.tiles[node.index()];
                    if tile.monitor.state() == TileState::FailStopped
                        && !self.reconfig.in_progress(node)
                    {
                        return next;
                    }
                    if spec.next_checkpoint_at != Cycle::MAX
                        && tile.monitor.state() == TileState::Running
                        && !self.reconfig.in_progress(node)
                    {
                        due = due.min(spec.next_checkpoint_at.max(tile.busy_until).max(next));
                    }
                }
                Some(ii) => {
                    if let Phase::Backoff { restart_at } = self.supervisor.incidents[ii].phase {
                        due = due.min(restart_at.max(next));
                    }
                }
            }
        }
        due
    }

    /// When a freshly (re)deployed service's first periodic checkpoint is
    /// due: one interval from now, or never if checkpointing is off.
    pub(crate) fn first_checkpoint_due(&self) -> Cycle {
        let interval = self.cfg.supervisor.checkpoint_interval;
        if interval > 0 {
            self.clock.now() + interval
        } else {
            Cycle::MAX
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_off() {
        let cfg = SupervisorConfig::default();
        assert!(!cfg.enabled);
        assert!(cfg.spare_nodes.is_empty());
        assert!(cfg.max_restarts > 0);
    }

    #[test]
    fn incident_mttr() {
        let mut i = Incident {
            service: ServiceId(1),
            node: NodeId(2),
            code: 7,
            detected_at: Cycle(100),
            recovered_at: None,
            target: RecoveryTarget::InPlace(NodeId(2)),
            warm: false,
            phase: Phase::Backoff {
                restart_at: Cycle(200),
            },
        };
        assert_eq!(i.mttr(), None);
        assert!(!i.closed());
        i.recovered_at = Some(Cycle(850));
        i.phase = Phase::Closed;
        assert_eq!(i.mttr(), Some(750));
        assert!(i.closed());
        assert!(!i.abandoned());
    }
}
