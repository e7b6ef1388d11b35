//! One board of the cluster: a full [`System`] plus the cluster kernel's
//! per-board state.
//!
//! The board caches its system's next-event deadline so the lockstep loop
//! can pass over a board with nothing due in O(1). The system is private to
//! this module for that reason: every mutable hand-out goes through
//! [`Board::sys_mut`], which drops the cached deadline, so no caller can
//! change the board behind the cache's back.

use crate::directory::Directory;
use apiary_cap::{CapRef, ServiceId};
use apiary_core::supervisor::ServiceSpec;
use apiary_core::{ServiceImage, System, SystemError};
use apiary_noc::NodeId;
use apiary_sim::{ensure, Cycle, Machine};
use std::collections::BTreeMap;

pub(crate) struct Republish {
    pub(crate) name: String,
    pub(crate) service: ServiceId,
}

pub(crate) struct Ingress {
    pub(crate) src: u16,
    pub(crate) tag: u64,
    /// When the gateway forwarded the invocation to the local replica.
    pub(crate) forwarded: Cycle,
}

pub(crate) struct Board {
    sys: System,
    /// `sys.next_event_due()`, if nothing has touched the system since it
    /// was computed. The deadline does not move as the clock approaches it,
    /// so it stays exact until the board runs or is handed out mutably.
    due: Option<Cycle>,
    /// [`System::phase_cycles`] when the gateway inbox was last looked at.
    mail_seen: u64,
    pub(crate) dir: Directory,
    pub(crate) alive: bool,
    /// Gateway caps to local replicas, by service id (from `attach_client`,
    /// so they survive supervisor restarts and migrations).
    pub(crate) local_caps: BTreeMap<u32, CapRef>,
    /// Gateway caps for remote invocation, by `(board, service)`.
    pub(crate) remote_caps: BTreeMap<(u16, u32), CapRef>,
    /// Forwarded remote work in flight on this board, by local ingress tag.
    pub(crate) ingress: BTreeMap<u64, Ingress>,
    /// Locally deployed replicas, by name. Everything else about one —
    /// its node, app, policy and image — is its supervisor spec.
    pub(crate) replicas: BTreeMap<String, ServiceId>,
    /// Reconfigurations whose directory entry awaits republish.
    pub(crate) republish: Vec<Republish>,
}

impl Board {
    pub(crate) fn new(sys: System, dir: Directory) -> Board {
        Board {
            sys,
            due: None,
            mail_seen: 0,
            dir,
            alive: true,
            local_caps: BTreeMap::new(),
            remote_caps: BTreeMap::new(),
            ingress: BTreeMap::new(),
            replicas: BTreeMap::new(),
            republish: Vec::new(),
        }
    }

    pub(crate) fn sys(&self) -> &System {
        &self.sys
    }

    /// Mutable access to the system; forgets the cached deadline.
    pub(crate) fn sys_mut(&mut self) -> &mut System {
        self.due = None;
        &mut self.sys
    }

    /// The next cycle this board can do anything on its own
    /// ([`System::next_event_due`]), computed at most once per change; the
    /// system keeps the kernel scan behind it for the step that follows.
    pub(crate) fn next_event_due(&mut self) -> Cycle {
        *self.due.get_or_insert_with(|| self.sys.next_event_due())
    }

    /// Whether mail waits in the gateway inbox, which fills in the kernel
    /// phases and nowhere else: looked at only if they ran since last time.
    pub(crate) fn has_gateway_mail(&mut self, gw: NodeId) -> bool {
        let ran = self.sys.phase_cycles();
        let looked = std::mem::replace(&mut self.mail_seen, ran) != ran;
        let waiting = || self.sys.tile(gw).monitor.inbox_len() > 0;
        debug_assert!(looked || !waiting(), "mail arrived outside the phases");
        looked && waiting()
    }

    /// Brings the board to cluster cycle `now`. The dense reference ticks
    /// it (`now` is then exactly one cycle ahead); the event clock jumps a
    /// board with nothing due and otherwise takes the single-board event
    /// path, which steps the NoC only while flits are in flight and runs
    /// the kernel phases only on a cycle they are due.
    pub(crate) fn advance_to(&mut self, now: Cycle, dense: bool) {
        if dense {
            self.sys_mut().tick();
        } else if self.next_event_due() > now {
            debug_assert!(
                self.sys.next_event_due() > now,
                "stale cached deadline: board skipped while due"
            );
            self.sys.skip_to(now);
        } else {
            let sys = self.sys_mut();
            while sys.now() < now {
                sys.advance_toward(now);
            }
        }
        debug_assert_eq!(self.sys.now(), now, "board left lockstep");
    }

    /// The supervisor spec of the replica published here as `name`.
    pub(crate) fn replica(&self, name: &str) -> Option<&ServiceSpec> {
        self.sys.service_spec(*self.replicas.get(name)?)
    }

    /// Points each replica's live directory entry at the node its
    /// supervisor homes it on, should a re-home have moved it.
    pub(crate) fn rehome_entries(&mut self, now: Cycle) {
        for (name, &service) in &self.replicas {
            if let Some(node) = self.sys.service_home(service) {
                self.dir.rehome(now, name, node);
            }
        }
    }

    /// Takes on a replica by loading `image` onto `node`, warm from
    /// `snapshot` if it restores ([`System::adopt_service`]): supervised
    /// from now, published (with the gateway wired as its client) by the
    /// republish pass once the tile is back online. Returns the load's
    /// completion cycle and whether the start was warm.
    pub(crate) fn adopt_replica(
        &mut self,
        name: &str,
        service: ServiceId,
        node: NodeId,
        image: ServiceImage,
        snapshot: Option<&[u8]>,
    ) -> Result<(Cycle, bool), SystemError> {
        let started = self
            .sys_mut()
            .adopt_service(service, node, image, snapshot)?;
        self.replicas.insert(name.to_string(), service);
        self.republish.push(Republish {
            name: name.to_string(),
            service,
        });
        Ok(started)
    }

    /// `Err` unless the board is in lockstep with cluster cycle `now`, the
    /// system's own laws hold (its memoised kernel deadline among them),
    /// the board's cached deadline, if any, is what the system reports, and
    /// a replica has one record: every listed replica names a service its
    /// supervisor holds a spec for, and every pending republish names a
    /// listed replica.
    pub(crate) fn check_invariants(&self, index: usize, now: Cycle) -> Result<(), String> {
        ensure!(
            self.sys.now() == now,
            "board {index} is not on the cluster's cycle"
        );
        self.sys.check_invariants()?;
        let fresh = self.sys.next_event_due();
        ensure!(
            self.due.is_none_or(|d| d == fresh),
            "board {index} caches a stale deadline"
        );
        for (name, &service) in &self.replicas {
            ensure!(
                self.sys.service_spec(service).is_some(),
                "board {index} lists replica {name} with no supervisor spec"
            );
        }
        for r in &self.republish {
            ensure!(
                self.replicas.get(&r.name) == Some(&r.service),
                "board {index} republishes {}, which it does not list",
                r.name
            );
        }
        Ok(())
    }
}
