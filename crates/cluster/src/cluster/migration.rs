//! Cross-board live migration: the state machine a replica moves through
//! on its way from one board to another, **withdraw → quiesce → snapshot →
//! transfer → restore → republish**.
//!
//! A second `impl ClusterSystem`: [`ClusterSystem::migrate_replica`] starts
//! a migration, and the cluster cycle calls back into this module at the
//! three points one can make progress (`drive_migrations` after the boards
//! advanced, `restore_migration` when the snapshot comes off the fabric,
//! `finish_migrations` after the republish pass).

use crate::cluster::{ClusterSystem, NO_REPLICA};
use crate::fabric::{Body, ClusterMsg};
use apiary_cap::ServiceId;
use apiary_core::{ServiceImage, SystemError};
use apiary_noc::NodeId;
use apiary_sim::Cycle;

/// Phase of an in-flight live migration.
enum MigPhase {
    /// Source entry withdrawn; draining until the snapshot cycle.
    Quiesce { until: Cycle },
    /// Snapshot serialized onto the fabric; source already decommissioned,
    /// its spec's image held here for the destination to load.
    Transfer(ServiceImage),
    /// Destination loading bitstream + state through the ICAP, awaiting
    /// republish.
    Restore,
}

/// One live migration in flight.
pub(crate) struct Migration {
    name: String,
    service: ServiceId,
    src: u16,
    dst: u16,
    dst_node: NodeId,
    started_at: Cycle,
    snapshot_at: Cycle,
    state_bytes: u64,
    warm: bool,
    phase: MigPhase,
}

/// A completed live migration, with its measured phase boundaries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MigrationOutcome {
    /// Migrated service name.
    pub name: String,
    /// Its registry id.
    pub service: ServiceId,
    /// Source board.
    pub src: u16,
    /// Destination board.
    pub dst: u16,
    /// Serialized architectural state moved, bytes.
    pub state_bytes: u64,
    /// Cycle the migration was requested (source entry withdrawn).
    pub started_at: Cycle,
    /// Cycle the source stopped serving (snapshot taken, tile freed).
    pub snapshot_at: Cycle,
    /// Cycle the destination replica was republished and answering.
    pub restored_at: Cycle,
    /// `true` if the destination restored the snapshot (vs cold fallback).
    pub warm: bool,
}

impl MigrationOutcome {
    /// Cycles with no live replica: source down → destination republished.
    pub fn blackout(&self) -> u64 {
        self.restored_at - self.snapshot_at
    }
}

impl ClusterSystem {
    /// Starts a live migration of the named replica from `src` to a free
    /// tile on `dst`: **withdraw → quiesce → snapshot → transfer → restore
    /// → republish**. The source keeps serving through the quiesce window
    /// (new work is steered away as the withdrawal tombstone gossips),
    /// then stops at the snapshot cycle; the blackout ends when the
    /// destination replica is republished. Client capabilities survive the
    /// move: naming is late-bound, so the same service name simply
    /// resolves to the new home — no client re-attach.
    pub fn migrate_replica(
        &mut self,
        name: &str,
        src: u16,
        dst: u16,
        dst_node: NodeId,
    ) -> Result<(), SystemError> {
        let now = self.now();
        if src == dst || !self.boards[src as usize].alive || !self.boards[dst as usize].alive {
            return Err(NO_REPLICA);
        }
        let service = *self.boards[src as usize]
            .replicas
            .get(name)
            .ok_or(NO_REPLICA)?;
        if self.migrations.contains_key(&service.0) {
            return Err(NO_REPLICA);
        }
        self.boards[src as usize].dir.withdraw(now, name);
        self.migrations.insert(
            service.0,
            Migration {
                name: name.to_string(),
                service,
                src,
                dst,
                dst_node,
                started_at: now,
                snapshot_at: now,
                state_bytes: 0,
                warm: false,
                phase: MigPhase::Quiesce {
                    until: now + self.cfg.migration_quiesce,
                },
            },
        );
        Ok(())
    }

    /// Completed live migrations, in completion order.
    pub fn migration_outcomes(&self) -> &[MigrationOutcome] {
        &self.migrations_done
    }

    /// Live migrations currently in flight.
    pub fn migrations_in_flight(&self) -> usize {
        self.migrations.len()
    }

    /// The earliest cycle a migration needs the cluster awake for on its
    /// own account: the end of a quiesce window. The other phases wait on
    /// a fabric delivery or a board's reconfiguration, which wake the
    /// cluster themselves.
    pub(crate) fn next_migration_due(&self) -> Cycle {
        self.migrations
            .values()
            .filter_map(|m| match m.phase {
                MigPhase::Quiesce { until } => Some(until),
                _ => None,
            })
            .min()
            .unwrap_or(Cycle::MAX)
    }

    /// Cycle phase 1b. Live migrations whose quiesce window elapsed take
    /// their snapshot: the source stops serving (tile decommissioned, spec
    /// and checkpoint dropped) and the state goes out over the fabric.
    /// Migrations whose source or destination died abort.
    pub(crate) fn drive_migrations(&mut self, now: Cycle) {
        if self.migrations.is_empty() {
            return;
        }
        let due: Vec<u32> = self
            .migrations
            .iter()
            .filter(|(_, m)| {
                matches!(m.phase, MigPhase::Quiesce { until } if until <= now)
                    && self.boards[m.src as usize].alive
                    && self.boards[m.dst as usize].alive
            })
            .map(|(&s, _)| s)
            .collect();
        for sid in due {
            self.drive_migration_snapshot(sid, now);
        }
        let dead: Vec<u32> = self
            .migrations
            .iter()
            .filter(|(_, m)| {
                !self.boards[m.src as usize].alive || !self.boards[m.dst as usize].alive
            })
            .map(|(&s, _)| s)
            .collect();
        for sid in dead {
            self.migrations.remove(&sid);
            self.migrations_failed += 1;
        }
    }

    /// Quiesce elapsed: capture the source replica's state and put it on
    /// the fabric (transfer time scales with state size through the link's
    /// serialization model). Aborts — republishing the source binding — if
    /// the service cannot snapshot right now (mid-reconfiguration or not
    /// preemptible).
    fn drive_migration_snapshot(&mut self, sid: u32, now: Cycle) {
        let m = self.migrations.get_mut(&sid).expect("listed by caller");
        let b = &mut self.boards[m.src as usize];
        let home = b.sys().service_home(m.service);
        let state = home
            .and_then(|n| b.sys().tile(n).accel.as_ref())
            .and_then(|a| a.save_state());
        let Some(state) = state else {
            if let Some(n) = home {
                let _ = b.dir.publish(now, &m.name, m.service, n);
            }
            self.migrations.remove(&sid);
            self.migrations_failed += 1;
            return;
        };
        m.snapshot_at = now;
        m.state_bytes = state.len() as u64;
        let spec = b
            .sys_mut()
            .undeploy_service(m.service)
            .expect("homed above");
        m.phase = MigPhase::Transfer(spec.image);
        b.local_caps.remove(&sid);
        b.replicas.remove(&m.name);
        b.republish.retain(|r| r.name != m.name);
        let msg = ClusterMsg {
            src: m.src,
            dst: m.dst,
            body: Body::Migrate {
                service: sid,
                name: m.name.clone(),
                snapshot: state,
            },
        };
        self.fabric.send(&msg);
    }

    /// A [`Body::Migrate`] snapshot came off the fabric at live board
    /// `dst`: the destination adopts the source spec's image at
    /// `dst_node`, warm if the snapshot restores (cold otherwise), loaded
    /// through the ICAP. The republish pass publishes the new home once
    /// the tile is back online.
    pub(crate) fn restore_migration(&mut self, src: u16, dst: u16, service: u32, snapshot: &[u8]) {
        let m = match self.migrations.get_mut(&service) {
            Some(m) if m.src == src && matches!(m.phase, MigPhase::Transfer(_)) => m,
            // Migration aborted while the snapshot was in flight; the
            // state is lost with it (a later migration of the service
            // waits for its own snapshot).
            _ => return,
        };
        let MigPhase::Transfer(image) = std::mem::replace(&mut m.phase, MigPhase::Restore) else {
            unreachable!("matched above");
        };
        let b = &mut self.boards[dst as usize];
        match b.adopt_replica(&m.name, m.service, m.dst_node, image, Some(snapshot)) {
            Ok((_, warm)) => {
                m.warm = warm;
            }
            Err(_) => {
                self.migrations.remove(&service);
                self.migrations_failed += 1;
            }
        }
    }

    /// Cycle phase 2b. Migrations finalize once the destination
    /// republished: the blackout window closes, and every live board's
    /// stale remote cap against the old home is proactively revoked (a
    /// fresh cap is minted against the new home on the next submit —
    /// clients never see a cap change, naming is late-bound).
    pub(crate) fn finish_migrations(&mut self, now: Cycle) {
        let finished: Vec<u32> = self
            .migrations
            .iter()
            .filter(|(_, m)| {
                matches!(m.phase, MigPhase::Restore)
                    && self.boards[m.dst as usize]
                        .dir
                        .lookup_local(now, &m.name)
                        .is_some_and(|e| e.node == m.dst_node)
            })
            .map(|(&s, _)| s)
            .collect();
        for sid in finished {
            let m = self.migrations.remove(&sid).expect("listed above");
            self.revoke_remote_caps(m.src, sid);
            self.migrations_done.push(MigrationOutcome {
                name: m.name,
                service: m.service,
                src: m.src,
                dst: m.dst,
                state_bytes: m.state_bytes,
                started_at: m.started_at,
                snapshot_at: m.snapshot_at,
                restored_at: now,
                warm: m.warm,
            });
        }
    }
}
