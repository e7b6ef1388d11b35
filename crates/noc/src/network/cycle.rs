//! One cycle of the mesh: landings, the switch, injection and ejection.

use super::{Landing, Noc, NO_LOCK};
use crate::config::VCS;
use crate::fault::FaultPlane;
use crate::packet::{Delivered, Flit, PacketEntry};
use crate::topology::{Port, PORTS};
use apiary_sim::Cycle;

impl Noc {
    /// Advances the network by one cycle.
    ///
    /// Every router decides on the state the cycle started with, although
    /// the switch forwards each grant on the spot. Two laws make that so:
    ///
    /// - **Credits return at the end of the cycle.** A grant takes its
    ///   credit at once (only the granting output reads it, and it grants
    ///   once a cycle); a pop gives its credit back when all switching is
    ///   over, so a router visited later sees no slot freed this cycle.
    /// - **One pop per ring per cycle.** A pop may uncover a head bound for
    ///   an output its router has yet to arbitrate; the ring is masked out
    ///   of the rest of that router's cycle.
    ///
    /// Open flights are settled first (the state stepping leaves at `now` is
    /// written from their schedule), so stepping never uses the closed form.
    pub fn step(&mut self) {
        self.settle();
        self.cycle();
    }

    /// One cycle of the mesh, on state no flight is holding frozen.
    pub(super) fn cycle(&mut self) {
        self.now += 1;
        self.stats.cycles += 1;
        // Chaos first: this cycle's faults land before traffic moves.
        let mut plane = self.fault_plane.take();
        if let Some(p) = plane.as_mut() {
            for ev in p.step(self.now, &self.mesh) {
                self.apply_fault_event(ev);
            }
        }
        self.phase_arrivals();
        self.phase_switch(plane.as_deref_mut());
        self.phase_inject();
        self.fault_plane = plane;
        self.check_progress_valve();
    }

    /// Skips ahead to `target` without stepping, if the network is quiet
    /// ([`Noc::quiet_until`] is `Some`); returns the cycle reached: `target`,
    /// or `now` unchanged when the network must be stepped.
    ///
    /// Flights are carried in closed form: cycles before a landing move
    /// only the clock and cycle counter (the fliers' flit counts are added
    /// when read), and reaching a landing cycle writes what the packet
    /// leaves behind and ejects the message. Past the last, or with no
    /// packet in flight at all, every phase of [`Noc::step`] is a
    /// no-op and the clock and cycle counter jump in one go; an installed
    /// chaos plane is still stepped cycle by cycle (its RNG draws are part
    /// of the deterministic timeline) and its fault events land exactly
    /// when they would under dense ticking.
    pub fn skip_to(&mut self, target: Cycle) -> Cycle {
        self.fly_to(target);
        if self.pending() > 0 {
            return self.now;
        }
        match self.fault_plane.take() {
            None => {
                if target > self.now {
                    self.stats.cycles += target - self.now;
                    self.now = target;
                    self.last_progress = self.stats.cycles;
                }
            }
            Some(mut plane) => {
                while self.now < target {
                    self.now += 1;
                    self.stats.cycles += 1;
                    for ev in plane.step(self.now, &self.mesh) {
                        self.apply_fault_event(ev);
                    }
                    self.last_progress = self.stats.cycles;
                }
                self.fault_plane = Some(plane);
            }
        }
        self.now
    }

    /// Runs until no messages are in flight or `max_cycles` elapse; returns
    /// `true` on quiescence.
    pub fn run_until_quiescent(&mut self, max_cycles: u64) -> bool {
        for _ in 0..max_cycles {
            if self.pending() == 0 {
                return true;
            }
            self.step();
        }
        self.pending() == 0
    }

    /// Lands the flits due this cycle: each was written into its ring when
    /// it was granted, so landing only moves the ring's boundary between
    /// "in flight" and "landed" (and posts a request if the ring was empty).
    fn phase_arrivals(&mut self) {
        let slot = self.due_slot();
        let mut landings = std::mem::take(&mut self.due[slot]);
        for &Landing { f, node, port, vc } in &landings {
            self.last_progress = self.stats.cycles;
            let f = f as usize;
            let len = self.fifo_len[f];
            let landing = self.fifo[self.at(f, len as usize)];
            debug_assert_eq!(landing.due as usize, slot, "flits land in ring order");
            self.fifo_fly[f] -= 1;
            self.fifo_len[f] = len + 1;
            if len == 0 {
                self.post_front(f, node as usize, port as usize, vc as usize, landing.dst);
            }
        }
        landings.clear();
        self.due[slot] = landings;
    }

    /// The switch: per output port, strict priority across VCs (lower class
    /// first), round-robin across input ports, wormhole lock and credit
    /// checks; at most one flit per output port per cycle, forwarded on the
    /// spot. Walks the standing request sets (`demand`, `req`) in output
    /// port, then VC order, so grants happen, and the chaos plane's
    /// corruption rolls are drawn, in node, output port order.
    fn phase_switch(&mut self, mut plane: Option<&mut FaultPlane>) {
        let n = self.mesh.nodes();
        let cap = self.cfg.vc_buffer;
        let now = self.now.as_u64();
        // A flit granted now lands `due.len()` cycles on: the slot this
        // cycle's arrivals just emptied.
        let slot = self.due_slot();
        let mut landings = std::mem::take(&mut self.due[slot]);
        let mut returns = std::mem::take(&mut self.credit_returns);
        let mut next = 0;
        // A router with no request cannot grant, and visiting it would leave
        // `rr` and the locks untouched.
        while let Some(node) = next_busy(&self.demand, next) {
            next = node + 1;
            if self.stall_until[node] > now {
                continue;
            }
            let base = node * PORTS * VCS;
            // Rings popped at this router this cycle, bit `vc << 3 | port`.
            let mut popped = 0u64;
            let mut demand = self.demand[node];
            while demand != 0 {
                let bit = demand.trailing_zeros() as usize;
                demand &= demand - 1;
                let (out, vc) = (bit >> 3, bit & 7);
                let o = base + out * VCS + vc;
                // Credit check once per (out, vc), none for ejection. Routes
                // only ever point at existing links, so the ring exists.
                let link = out.checked_sub(1).map(|di| self.feeds[node * 4 + di]);
                if link.is_some_and(|link| self.credit[link.f as usize + vc] == 0) {
                    continue;
                }
                let asking = self.req[o] & !((popped >> (vc << 3)) as u8);
                let lock = self.lock_in[o];
                let in_port = if lock != NO_LOCK {
                    // Mid-packet: only the lock holder's next flit may pass.
                    if asking & (1 << lock) == 0 {
                        continue;
                    }
                    lock as usize
                } else {
                    // Free output: the first head flit in round-robin order.
                    let rr = self.rr[node * PORTS + out] as usize;
                    let in_rr_order = (1..=PORTS).map(|k| (rr + k) % PORTS);
                    let head = |p: &usize| self.fifo[self.at(base + p * VCS + vc, 0)].is_head;
                    match in_rr_order.filter(|p| asking & (1 << p) != 0).find(head) {
                        Some(p) => p,
                        None => continue,
                    }
                };
                // One grant per output port: skip its remaining VCs.
                demand &= !(0xFF << (out << 3));
                self.last_progress = self.stats.cycles;

                // Pop the input ring.
                let f = base + in_port * VCS + vc;
                debug_assert!(
                    popped & 1 << (vc << 3 | in_port) == 0,
                    "an input FIFO is popped at most once per cycle"
                );
                popped |= 1 << (vc << 3 | in_port);
                let mut flit = self.fifo[self.at(f, 0)];
                let head = self.fifo_head[f] + 1;
                self.fifo_head[f] = if head as usize == cap { 0 } else { head };
                self.fifo_len[f] -= 1;
                if in_port != 0 {
                    returns.push(f as u32);
                }
                // The ring's request follows its front. A body flit keeps
                // its head's output, so a streaming packet changes nothing.
                if self.fifo_len[f] == 0 {
                    self.withdraw_front(f, node, in_port, vc);
                } else {
                    let dst = self.fifo[self.at(f, 0)].dst;
                    if self.routes[node * n + dst.index()] as usize != out {
                        self.withdraw_front(f, node, in_port, vc);
                        self.post_front(f, node, in_port, vc, dst);
                    }
                }
                // Wormhole lock maintenance.
                if flit.is_tail {
                    self.lock_in[o] = NO_LOCK;
                    self.lock_owner[o] = 0;
                } else if flit.is_head {
                    self.lock_in[o] = in_port as u8;
                    self.lock_owner[o] = flit.slot;
                }
                self.rr[node * PORTS + out] = in_port as u8;

                let Some(link) = link else {
                    self.eject(node, flit);
                    continue;
                };
                let (di, down) = (out - 1, link.f as usize + vc);
                // One corruption roll per link traversal (fixed RNG
                // consumption), plus deterministic corruption on downed
                // links. `corrupt` is idempotent, so a doubly-faulted hop
                // is still detected.
                let rolled = plane.as_deref_mut().is_some_and(|p| p.corrupt_roll());
                if rolled || self.link_is_down(node, di) {
                    flit.corrupt();
                }
                // Write it behind everything the downstream ring already
                // holds; the credit just checked is that slot.
                flit.due = slot as u8;
                let behind = (self.fifo_len[down] + self.fifo_fly[down]) as usize;
                let at = self.at(down, behind);
                self.fifo[at] = flit;
                self.fifo_fly[down] += 1;
                self.credit[down] -= 1;
                landings.push(Landing {
                    f: down as u32,
                    vc: vc as u8,
                    ..link
                });
                self.link_flits[node][di] += 1;
                self.stats.flit_hops += 1;
            }
        }
        for f in returns.drain(..) {
            self.credit[f as usize] += 1;
        }
        self.credit_returns = returns;
        self.due[slot] = landings;
    }

    fn eject(&mut self, node: usize, flit: Flit) {
        self.stats.flits_ejected += 1;
        debug_assert_eq!(flit.dst.index(), node, "misrouted flit");
        // An intact body flit changes nothing its packet's entry records.
        if !(flit.is_head || flit.is_tail || flit.damaged) {
            return;
        }
        self.stats.corrupted_flits += u64::from(flit.damaged);
        let entry = self
            .packets
            .get_mut(flit.slot)
            .expect("a flit names a live packet");
        // A single damaged flit poisons the whole packet: nothing of it is
        // delivered, and the drop is accounted once the tail arrives.
        entry.poisoned |= flit.damaged;
        entry.head_ejected |= flit.is_head;
        if !flit.is_tail {
            return;
        }
        debug_assert!(entry.head_ejected, "head always precedes tail on a VC");
        let entry = self
            .packets
            .remove(flit.slot)
            .expect("checked live just above");
        if entry.poisoned {
            self.dropped_in_flight += 1;
            self.stats.dropped_corrupt += 1;
            return;
        }
        self.deliver(node, entry);
    }

    /// Hands a packet whose tail just ejected intact at `node` to the node's
    /// eject queue.
    pub(super) fn deliver(&mut self, node: usize, entry: PacketEntry) {
        let d = Delivered {
            msg: entry.msg,
            injected_at: entry.injected_at,
            delivered_at: self.now,
        };
        self.stats.latency.record(d.latency());
        self.stats.delivered += 1;
        self.rx_pending += 1;
        self.eject_q[node].push_back(d);
    }

    /// NIC: stream queued packets into the router's local input port, one
    /// flit per node per cycle, highest-priority class first. The local
    /// ring has no link in front of it, so a slot the switch freed this
    /// cycle can be refilled in the same cycle.
    fn phase_inject(&mut self) {
        let local = Port::Local.index();
        let cap = self.cfg.vc_buffer;
        let mut next = 0;
        while let Some(node) = next_busy(&self.nic_occ, next) {
            next = node + 1;
            for vc in 0..VCS {
                let f = (node * PORTS + local) * VCS + vc;
                let len = self.fifo_len[f] as usize;
                if len >= cap {
                    continue;
                }
                let queue = &mut self.nic[node * VCS + vc];
                let Some(e) = queue.front_mut() else {
                    continue;
                };
                let flit = Flit::form(e.slot, e.dst, vc as u8, e.next, e.nflits);
                e.next += 1;
                if e.next == e.nflits {
                    queue.pop_front();
                    self.nic_occ[node] -= 1;
                }
                let at = self.at(f, len);
                self.fifo[at] = flit;
                self.fifo_len[f] = len as u8 + 1;
                if len == 0 {
                    self.post_front(f, node, local, vc, flit.dst);
                }
                self.last_progress = self.stats.cycles;
                break; // One flit per node per cycle.
            }
        }
    }
}

/// The active-set scan: the first node at or after `from` whose entry in
/// `occ` (a request bitset or NIC occupancy) is non-zero. A node without
/// requests cannot grant and one with an empty NIC cannot inject, so skipping
/// it changes nothing, and a slice search costs it a fraction of a nanosecond.
#[inline]
fn next_busy<T: Default + PartialEq>(occ: &[T], from: usize) -> Option<usize> {
    let idle = T::default();
    let off = occ[from..].iter().position(|o| *o != idle)?;
    Some(from + off)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::NocConfig;
    use crate::packet::{Message, TrafficClass};
    use crate::topology::{Direction, NodeId};

    #[test]
    fn an_input_ring_is_popped_at_most_once_a_cycle() {
        // 3x1, node 1 in the middle, single-flit packets on one VC. Q0
        // (2 -> 0) crosses node 1 first, so the West output's round-robin
        // pointer rests on the East input and next prefers the local port.
        let mut noc = Noc::new(NocConfig::soft(3, 1));
        let send = |noc: &mut Noc, src, dst, tag| {
            let mut m = Message::new(
                NodeId(src),
                NodeId(dst),
                TrafficClass::Request,
                vec![0u8; 0],
            );
            m.tag = tag;
            noc.try_inject(NodeId(src), m).expect("space");
        };
        send(&mut noc, 2, 0, 10);
        assert!(noc.run_until_quiescent(100));
        assert_eq!(noc.drain_eject(NodeId(0)).len(), 1);
        // Hold node 1's switch while Q1 (2 -> 0) reaches its East input and
        // P1 (1 -> 2, leaves by East) and P2 (1 -> 0, leaves by West) queue
        // back to back in its local ring.
        noc.stall_router(NodeId(1), 8);
        send(&mut noc, 2, 0, 11);
        send(&mut noc, 1, 2, 20);
        send(&mut noc, 1, 0, 21);
        let vc = TrafficClass::Request.vc();
        let ring = |port: Port| (PORTS + port.index()) * VCS + vc;
        let (local, east_in) = (ring(Port::Local), ring(Port::Dir(Direction::East)));
        for _ in 0..7 {
            noc.step();
        }
        assert_eq!((noc.fifo_len[local], noc.fifo_len[east_in]), (2, 1));
        // The stall lifts. East is arbitrated before West: granting P1
        // uncovers P2, which asks for West in the cycle Q1 does. A switch
        // that lets P2 compete at once pops the local ring twice and makes
        // Q1 wait; the router it models reads its inputs once per cycle.
        let mut delivered = Vec::new();
        while noc.pending() > 0 {
            let before = noc.fifo_head[local] as usize;
            noc.step();
            assert_eq!(noc.check_invariants(), Ok(()));
            let cap = noc.cfg.vc_buffer;
            let pops = (noc.fifo_head[local] as usize + cap - before) % cap;
            assert!(pops <= 1, "local ring popped {pops} times in one cycle");
            for n in 0..3 {
                for d in noc.drain_eject(NodeId(n)) {
                    delivered.push((d.msg.tag, d.delivered_at.as_u64()));
                }
            }
        }
        // (tag, cycle) as the two-phase switch of the parent commit delivers.
        assert_eq!(delivered, [(11, 16), (20, 16), (21, 17)]);
    }
}
