//! Fault handling: the chaos plane's levers, rerouting around dead links,
//! purging packets a fault tore apart, and the no-progress valve.

use super::{dir_index, Noc, DIRS, NO_LOCK, UNREACHABLE};
use crate::config::VCS;
use crate::fault::{FaultEvent, FaultPlane};
use crate::topology::{Direction, NodeId, Port, PORTS};
use std::collections::VecDeque;

/// Cycles without any flit movement (while packets are in flight) after
/// which the no-progress valve purges the network. Detour routing after a
/// permanent link death is not provably deadlock-free, so this valve bounds
/// the damage: stuck packets are dropped and counted instead of hanging the
/// simulation. Fault-free XY routing never triggers it.
pub(super) const DEADLOCK_WINDOW: u64 = 4096;

impl Noc {
    /// Corrupts every flit crossing outgoing link `l = node * 4 + dir`:
    /// the in-flight region of the rings it feeds.
    fn corrupt_in_link(&mut self, l: usize) {
        let down = self.feeds[l].f as usize;
        for f in down..down + VCS {
            let landed = self.fifo_len[f] as usize;
            for i in landed..landed + self.fifo_fly[f] as usize {
                let at = self.at(f, i);
                self.fifo[at].corrupt();
            }
        }
    }

    /// Installs a chaos plane; its schedule and random draws are applied
    /// at the start of every [`Noc::step`].
    pub fn install_fault_plane(&mut self, plane: FaultPlane) {
        self.settle();
        self.fault_plane = Some(Box::new(plane));
    }

    /// The installed chaos plane, if any.
    pub fn fault_plane(&self) -> Option<&FaultPlane> {
        self.fault_plane.as_deref()
    }

    /// Whether a live route from `from` to `to` exists.
    pub fn reachable(&self, from: NodeId, to: NodeId) -> bool {
        self.mesh.contains(from)
            && self.mesh.contains(to)
            && self.routes[from.index() * self.mesh.nodes() + to.index()] != UNREACHABLE
    }

    /// Permanently kills the outgoing link `node -> dir`: flits currently
    /// crossing it are corrupted, routing detours around it, and packets
    /// whose path change would split them mid-stream are flushed (counted
    /// in [`super::NocStats::dropped_flushed`] / `dropped_unreachable`). Returns
    /// `false` if no such link exists (mesh edge).
    pub fn kill_link(&mut self, node: NodeId, dir: Direction) -> bool {
        if self.mesh.neighbor(node, dir).is_none() {
            return false;
        }
        let di = dir_index(dir);
        if self.dead_links[node.index()][di] {
            return true;
        }
        self.settle();
        self.dead_links[node.index()][di] = true;
        self.stats.link_faults += 1;
        self.corrupt_in_link(node.index() * 4 + di);
        let old = std::mem::take(&mut self.routes);
        self.recompute_routes();
        self.rebuild_requests();
        self.flush_rerouted(&old);
        debug_assert_eq!(self.check_invariants(), Ok(()));
        true
    }

    /// Starts a transient outage on the outgoing link `node -> dir`: flits
    /// entering it during the next `cycles` cycles are corrupted (and the
    /// packets dropped at the destination). Routing is unchanged. Returns
    /// `false` if no such link exists.
    pub fn fail_link_for(&mut self, node: NodeId, dir: Direction, cycles: u64) -> bool {
        if self.mesh.neighbor(node, dir).is_none() {
            return false;
        }
        self.settle();
        let di = dir_index(dir);
        let until = self.now.as_u64() + cycles;
        let slot = &mut self.link_down_until[node.index()][di];
        *slot = (*slot).max(until);
        self.stats.link_faults += 1;
        self.corrupt_in_link(node.index() * 4 + di);
        true
    }

    /// Freezes `node`'s switch allocator for `cycles` cycles: buffered
    /// flits stay put, arrivals still buffer (pure added delay).
    pub fn stall_router(&mut self, node: NodeId, cycles: u64) {
        self.settle();
        let until = self.now.as_u64() + cycles;
        let slot = &mut self.stall_until[node.index()];
        *slot = (*slot).max(until);
        self.stats.router_stalls += 1;
    }

    pub(super) fn apply_fault_event(&mut self, ev: FaultEvent) {
        match ev {
            FaultEvent::LinkDown {
                node,
                dir,
                heal_after: None,
            } => {
                self.kill_link(node, dir);
            }
            FaultEvent::LinkDown {
                node,
                dir,
                heal_after: Some(cycles),
            } => {
                self.fail_link_for(node, dir, cycles);
            }
            FaultEvent::RouterStall { node, cycles } => self.stall_router(node, cycles),
        }
    }

    /// Rebuilds `routes` around `dead_links`: BFS shortest paths, keeping
    /// the XY next hop wherever it still lies on a shortest live path so
    /// fault-free pairs keep their original routes.
    fn recompute_routes(&mut self) {
        let n = self.mesh.nodes();
        self.routes = vec![UNREACHABLE; n * n];
        for dst in 0..n {
            // BFS from the destination over *reversed* live links.
            let mut dist = vec![u32::MAX; n];
            dist[dst] = 0;
            let mut q = VecDeque::from([dst]);
            while let Some(v) = q.pop_front() {
                for d in DIRS {
                    let Some(u) = self.mesh.neighbor(NodeId(v as u16), d) else {
                        continue;
                    };
                    let u = u.index();
                    // The link u -> v leaves u in the opposite direction.
                    if self.dead_links[u][dir_index(d.opposite())] || dist[u] != u32::MAX {
                        continue;
                    }
                    dist[u] = dist[v] + 1;
                    q.push_back(u);
                }
            }
            for src in 0..n {
                if src == dst {
                    self.routes[src * n + dst] = Port::Local.index() as u8;
                    continue;
                }
                if dist[src] == u32::MAX {
                    continue; // Stays UNREACHABLE.
                }
                let mut chosen: Option<Port> = None;
                let xy = self.mesh.route(NodeId(src as u16), NodeId(dst as u16));
                if let Port::Dir(d) = xy {
                    let nb = self
                        .mesh
                        .neighbor(NodeId(src as u16), d)
                        .expect("XY routes along existing links");
                    if !self.dead_links[src][dir_index(d)] && dist[nb.index()] == dist[src] - 1 {
                        chosen = Some(xy);
                    }
                }
                if chosen.is_none() {
                    for d in DIRS {
                        let Some(nb) = self.mesh.neighbor(NodeId(src as u16), d) else {
                            continue;
                        };
                        if !self.dead_links[src][dir_index(d)] && dist[nb.index()] == dist[src] - 1
                        {
                            chosen = Some(Port::Dir(d));
                            break;
                        }
                    }
                }
                self.routes[src * n + dst] = chosen
                    .expect("a reachable node has a live next hop")
                    .index() as u8;
            }
        }
    }

    /// Rebuilds `fifo_out`, `req` and `demand` from the rings' fronts, which
    /// a new routing table may send elsewhere.
    fn rebuild_requests(&mut self) {
        self.req.fill(0);
        self.demand.fill(0);
        for f in 0..self.fifo_len.len() {
            if self.fifo_len[f] > 0 {
                let (node, port, vc) = self.ring_coords(f);
                self.post_front(f, node, port, vc, self.fifo[self.at(f, 0)].dst);
            }
        }
    }

    /// After a routing change, flushes packets the change would tear in
    /// half: any packet with a flit buffered at (or in flight toward) a node
    /// whose next hop for that destination changed, and partially streamed
    /// NIC packets at sources whose route changed.
    fn flush_rerouted(&mut self, old_routes: &[u8]) {
        let n = self.mesh.nodes();
        // (table slot, destination now unreachable?) per affected flit.
        let mut doomed: Vec<(u32, bool)> = Vec::new();
        // `Some(now unreachable?)` if the next hop at `at` toward `dst` changed.
        let rerouted = |at: usize, dst: NodeId| {
            let new = self.routes[at * n + dst.index()];
            (new != old_routes[at * n + dst.index()]).then_some(new == UNREACHABLE)
        };
        for f in 0..self.fifo_len.len() {
            // A flit in flight will route next where it lands: same node.
            for flit in self.ring_flits(f) {
                let lost = rerouted(f / (PORTS * VCS), flit.dst);
                doomed.extend(lost.map(|lost| (flit.slot, lost)));
            }
        }
        for (q, queue) in self.nic.iter().enumerate() {
            for e in queue {
                // A packet that has started streaming is split by a route
                // change. Unstarted packets survive any reroute except
                // losing their destination entirely.
                let lost = rerouted(q / VCS, e.dst).filter(|&lost| lost || e.next > 0);
                doomed.extend(lost.map(|lost| (e.slot, lost)));
            }
        }
        // Purged in packet-id order, each once, as unreachable if any of its
        // flits is.
        let id = |slot: u32| {
            self.packets
                .get(slot)
                .expect("flits name live packets")
                .id
                .0
        };
        doomed.sort_unstable_by_key(|&(slot, unreachable)| (id(slot), !unreachable));
        doomed.dedup_by_key(|&mut (slot, _)| slot);
        for (slot, unreachable) in doomed {
            self.purge_packet(slot);
            if unreachable {
                self.stats.dropped_unreachable += 1;
            } else {
                self.stats.dropped_flushed += 1;
            }
        }
    }

    /// Removes every trace of the packet in table slot `slot` from the
    /// network: landed and in-flight flits, their landing-schedule entries,
    /// wormhole locks it owns, its NIC entry and the table entry. Which
    /// `NocStats` drop counter it lands in is the caller's responsibility.
    fn purge_packet(&mut self, slot: u32) {
        let cap = self.cfg.vc_buffer;
        for f in 0..self.fifo_len.len() {
            if self.lock_in[f] != NO_LOCK && self.lock_owner[f] == slot {
                self.lock_in[f] = NO_LOCK;
                self.lock_owner[f] = 0;
            }
            // Compact the ring in place, front first: the landed region,
            // then the in-flight one (whose flits keep their landing slots).
            let (head, len) = (self.fifo_head[f] as usize, self.fifo_len[f] as usize);
            let held = len + self.fifo_fly[f] as usize;
            let ring = &mut self.fifo[f * cap..][..cap];
            let (mut kept, mut kept_landed) = (0, 0);
            for i in 0..held {
                let flit = ring[(head + i) % cap];
                if flit.slot != slot {
                    ring[(head + kept) % cap] = flit;
                    kept += 1;
                    kept_landed += usize::from(i < len);
                } else if i >= len {
                    let landings = &mut self.due[flit.due as usize];
                    let at = landings.iter().position(|l| l.f as usize == f);
                    landings.remove(at.expect("a flit in flight is on the schedule"));
                }
            }
            if kept == held {
                continue;
            }
            let (node, port, vc) = self.ring_coords(f);
            if len > 0 {
                self.withdraw_front(f, node, port, vc);
            }
            self.fifo_len[f] = kept_landed as u8;
            self.fifo_fly[f] = (kept - kept_landed) as u8;
            if port != Port::Local.index() {
                self.credit[f] += (held - kept) as u8;
            }
            if kept_landed > 0 {
                let dst = self.fifo[f * cap + head].dst;
                self.post_front(f, node, port, vc, dst);
            }
        }
        for (q, queue) in self.nic.iter_mut().enumerate() {
            let before = queue.len();
            queue.retain(|e| e.slot != slot);
            self.nic_occ[q / VCS] -= before - queue.len();
        }
        let freed = self.packets.remove(slot);
        debug_assert!(freed.is_some(), "purged packets are live");
        self.dropped_in_flight += 1;
        debug_assert_eq!(self.check_invariants(), Ok(()));
    }

    /// The no-progress valve: if packets are in flight but nothing has
    /// moved for [`DEADLOCK_WINDOW`] cycles, purge every packet in the
    /// table (a live packet always has its tail somewhere: unformed at the
    /// NIC, buffered or on a link). This converts a (detour-induced)
    /// routing deadlock into bounded, counted packet loss — an injected
    /// fault can never hang the NoC.
    pub(super) fn check_progress_valve(&mut self) {
        if self.pending() == 0 {
            self.last_progress = self.stats.cycles;
            return;
        }
        if self.stats.cycles - self.last_progress <= DEADLOCK_WINDOW {
            return;
        }
        let wedged: Vec<u32> = self.packets.iter().map(|(slot, _)| slot).collect();
        for slot in wedged {
            self.purge_packet(slot);
            self.stats.dropped_flushed += 1;
        }
        self.last_progress = self.stats.cycles;
    }

    pub(super) fn link_is_down(&self, node: usize, di: usize) -> bool {
        self.dead_links[node][di] || self.link_down_until[node][di] > self.now.as_u64()
    }
}
