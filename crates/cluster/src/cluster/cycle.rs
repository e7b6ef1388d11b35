//! The phases of one cluster cycle that are not migration's, in the order
//! `ClusterSystem::cycle` runs them, with the helpers only they call.

use super::{ClusterSystem, GATEWAY};
use crate::board::Ingress;
use crate::fabric::{msg, BodyView};
use apiary_cap::ServiceId;
use apiary_monitor::wire::{KIND_ERROR, KIND_REQUEST};
use apiary_noc::{NodeId, TrafficClass};
use apiary_sim::{Cycle, Payload};

/// High bit marks gateway-local ingress tags, so a board can tell replies
/// to forwarded remote work from replies to its own clients' local work.
/// Client tags are `client_id << 32 | seq` with 32-bit ids, so the spaces
/// cannot collide.
const INGRESS_BIT: u64 = 1 << 63;

impl ClusterSystem {
    /// 1. Boards advance in index order; dead boards stay frozen.
    pub(super) fn advance_boards(&mut self, now: Cycle, dense: bool) {
        for b in &mut self.boards {
            if b.alive {
                b.advance_to(now, dense);
            }
        }
    }

    /// 2. Completed reconfigurations republish their directory entry.
    pub(super) fn republish_ready(&mut self, now: Cycle) {
        for bi in 0..self.boards.len() {
            if !self.boards[bi].alive || self.boards[bi].republish.is_empty() {
                continue;
            }
            let sys = self.boards[bi].sys();
            let done: Vec<(usize, NodeId)> = self.boards[bi]
                .republish
                .iter()
                .enumerate()
                .filter_map(|(i, r)| Some((i, sys.service_home(r.service)?)))
                .filter(|&(_, node)| sys.tile(node).accel.is_some())
                .collect();
            for (i, node) in done.into_iter().rev() {
                let r = self.boards[bi].republish.remove(i);
                let b = &mut self.boards[bi];
                // Re-wire: the reset wiped the replica tile's reply caps;
                // attach_client reinstalls them and refreshes the
                // gateway's service cap.
                if let Ok(cap) = b.sys_mut().attach_client(GATEWAY, r.service) {
                    b.local_caps.insert(r.service.0, cap);
                }
                let _ = b.dir.publish(now, &r.name, r.service, node);
            }
        }
    }

    /// Drops board `at`'s remote capability against `service` on board
    /// `home`, if it holds one: revoked at the gateway and counted.
    fn revoke_remote_cap(&mut self, at: u16, home: u16, service: u32) {
        let b = &mut self.boards[at as usize];
        if let Some(cap) = b.remote_caps.remove(&(home, service)) {
            let gateway = b.sys_mut().tile_mut(GATEWAY);
            if gateway.monitor.revoke_cap(cap).is_ok() {
                self.caps_revoked += 1;
            }
        }
    }

    /// Revokes every live board's remote capability against `service` on
    /// board `home`: the binding is gone (torn down or migrated away), so
    /// authority over it must not linger until the lease runs out.
    pub(super) fn revoke_remote_caps(&mut self, home: u16, service: u32) {
        for at in 0..self.cfg.boards {
            if self.boards[at as usize].alive {
                self.revoke_remote_cap(at, home, service);
            }
        }
    }

    /// 3. Gossip round: point entries at re-homed replicas, renew leases,
    ///    sweep expiries (revoking remote caps for entries that lapsed),
    ///    push one snapshot round-robin, written straight into its frame.
    pub(super) fn gossip_round(&mut self, now: Cycle) {
        let round = self.ticks / self.cfg.gossip_interval;
        let n = self.cfg.boards;
        for bi in 0..n {
            if !self.boards[bi as usize].alive {
                continue;
            }
            let b = &mut self.boards[bi as usize];
            b.rehome_entries(now);
            b.dir.renew_local(now);
            for dead in b.dir.sweep(now) {
                if dead.home != bi {
                    self.revoke_remote_cap(bi, dead.home, dead.service.0);
                }
            }
            if n > 1 {
                // The round's partner among the other boards, in index
                // order.
                let k = (round % u64::from(n - 1)) as u16;
                let partner = if k < bi { k } else { k + 1 };
                let frame = self.boards[bi as usize].dir.gossip_frame(partner);
                self.fabric.send_frame(frame);
            }
        }
    }

    /// 0. The fabric's internal events of the cycles skipped since the last
    ///    one, so that whatever this cycle sends leaves on it.
    pub(super) fn catch_up_fabric(&mut self, now: Cycle) {
        self.fabric.catch_up(Cycle(now.0 - 1));
    }

    /// 4. Fabric: deliveries, read where they landed.
    pub(super) fn deliver_fabric(&mut self, now: Cycle, dense: bool) {
        let deliveries = if dense {
            self.fabric.step_dense(now)
        } else {
            self.fabric.step(now).0
        };
        for msg in deliveries {
            if !self.boards[msg.dst as usize].alive {
                self.dead_board_drops += 1;
                continue;
            }
            match msg.body {
                BodyView::Invoke {
                    service,
                    tag,
                    payload,
                } => self.forward_invoke(msg.src, msg.dst, service, tag, payload, now),
                BodyView::Reply {
                    tag,
                    is_error,
                    payload: _,
                } => {
                    if let Some(replied) = self.requests.get(tag).and_then(|p| p.replied) {
                        self.fabric_back.record(replied, now);
                    }
                    self.finish_request(tag, is_error, now);
                }
                BodyView::Gossip(gossip) => {
                    self.boards[msg.dst as usize].dir.merge(&gossip);
                }
                BodyView::Migrate {
                    service,
                    name: _,
                    snapshot,
                } => self.restore_migration(msg.src, msg.dst, service, &snapshot),
            }
        }
    }

    /// A remote invocation arrived at live board `dst`: forward it to the
    /// local replica through the gateway's capability, or answer `src` with
    /// an error reply if there is none to forward to. The payload goes on
    /// as it arrived, a view of its frame.
    fn forward_invoke(
        &mut self,
        src: u16,
        dst: u16,
        service: u32,
        tag: u64,
        payload: Payload,
        now: Cycle,
    ) {
        if let Some(p) = self.requests.get(tag) {
            self.fabric_out.record(p.submitted, now);
        }
        let b = &mut self.boards[dst as usize];
        let cap = b.local_caps.get(&service).copied();
        let home = b.sys().service_home(ServiceId(service));
        let forwarded = match (cap, home) {
            (Some(cap), Some(_)) => {
                let ltag = INGRESS_BIT | self.next_ingress;
                self.next_ingress += 1;
                match b.sys_mut().tile_mut(GATEWAY).monitor.send(
                    cap,
                    KIND_REQUEST,
                    ltag,
                    TrafficClass::Request,
                    payload,
                    now,
                ) {
                    Ok(()) => {
                        let ing = Ingress {
                            src,
                            tag,
                            forwarded: now,
                        };
                        b.ingress.insert(ltag, ing);
                        true
                    }
                    Err(_) => false,
                }
            }
            _ => false,
        };
        if !forwarded {
            let err = [apiary_monitor::wire::err::NO_SUCH_SERVICE];
            self.fabric
                .send_frame(msg::reply(dst, src, tag, true, &err));
        }
    }

    /// 5. Drain gateway inboxes: replies to local submits complete
    ///    directly; replies to forwarded ingress go back over the fabric,
    ///    their frames written from the delivered payload.
    pub(super) fn drain_gateways(&mut self, now: Cycle) {
        for bi in 0..self.boards.len() {
            // Look before taking the board mutably: an empty inbox is the
            // common case and must not cost the board its cached deadline.
            if !self.boards[bi].alive || !self.boards[bi].has_gateway_mail() {
                continue;
            }
            while let Some(d) = self.boards[bi].sys_mut().tile_mut(GATEWAY).monitor.recv() {
                let is_error = d.msg.kind == KIND_ERROR;
                if d.msg.tag & INGRESS_BIT != 0 {
                    if let Some(ing) = self.boards[bi].ingress.remove(&d.msg.tag) {
                        self.on_board.record(ing.forwarded, now);
                        self.requests.note_reply(ing.tag, bi as u16, now);
                        let payload = &d.msg.payload;
                        let frame = msg::reply(bi as u16, ing.src, ing.tag, is_error, payload);
                        self.fabric.send_frame(frame);
                    }
                } else {
                    self.finish_request(d.msg.tag, is_error, now);
                }
            }
        }
    }

    /// 6. Cluster-level timeouts feed the client retry path.
    pub(super) fn expire_requests(&mut self, now: Cycle, dense: bool) {
        for tag in self.requests.pop_expired(now, dense) {
            self.timeouts += 1;
            self.finish_request(tag, true, now);
        }
    }
}
