//! The laws of the flat layout, checked in one pass linear in its size.

use super::{Noc, NO_LOCK, UNREACHABLE};
use crate::topology::{Port, PORTS};
use std::collections::VecDeque;

impl Noc {
    /// Checks the laws the flat representation must keep: credits, the
    /// in-flight region of every ring against the landing schedule, the
    /// switch's standing request sets, the NIC occupancy counters,
    /// packet-table liveness, message conservation and, while a packet
    /// flies alone, the laws of its closed form. Call it between steps.
    /// Debug builds run it after every purge and link kill; tests call it
    /// after every step.
    ///
    /// # Panics
    ///
    /// Panics on the first violated law.
    pub fn check_invariants(&self) {
        let vcs = self.cfg.vcs;
        let cap = self.cfg.vc_buffer;
        let slots = self.due.len();
        let live = |slot: u32| self.packets.get(slot).is_some();
        assert!(self.credit_returns.is_empty(), "credits still withheld");
        // The landing schedule first: an entry names its own ring, finds a
        // flit in flight there stamped with its slot, and is its link's only
        // entry in that slot (`seen[link]` is the last slot that listed it).
        // Stamps in a ring are distinct (below), so equal counts then mean
        // the schedule lists exactly the flits in flight, each once.
        let mut listed = vec![0u8; self.fifo_len.len()];
        let mut seen = vec![usize::MAX; self.mesh.nodes() * PORTS];
        for (slot, landings) in self.due.iter().enumerate() {
            for l in landings {
                let (f, link) = (l.f as usize, l.node as usize * PORTS + l.port as usize);
                assert_eq!(
                    f,
                    link * vcs + l.vc as usize,
                    "landing names a foreign ring"
                );
                assert_ne!(seen[link], slot, "two flits on one link in slot {slot}");
                seen[link] = slot;
                let mut in_flight = self.ring_flits(f).skip(self.fifo_len[f] as usize);
                assert!(
                    in_flight.any(|flit| flit.due as usize == slot),
                    "landing slot {slot} lists FIFO {f}, which has no flit due then"
                );
                listed[f] += 1;
            }
        }
        // What the rings' fronts imply the request sets to be.
        let mut req = vec![0u8; self.req.len()];
        let mut demand = vec![0u64; self.demand.len()];
        // Rings in index order with their coordinates, dividing nothing.
        let ports = (0..self.mesh.nodes() * PORTS).map(|np| (np / PORTS, np % PORTS));
        let rings = ports.flat_map(|(node, port)| (0..vcs).map(move |vc| (node, port, vc)));
        for (f, (node, port, vc)) in rings.enumerate() {
            let (len, fly) = (self.fifo_len[f] as usize, self.fifo_fly[f] as usize);
            if port == Port::Local.index() {
                assert!(len <= cap && fly == 0, "local FIFO {f} overran its ring");
            } else {
                let credit = self.credit[f] as usize;
                assert_eq!(credit + len + fly, cap, "credits of FIFO {f}");
            }
            assert_eq!(listed[f] as usize, fly, "landings scheduled for FIFO {f}");
            // Landing slots of the flits in flight, as distances from the first.
            let (mut first_due, mut last_lap) = (None, None);
            for (i, flit) in self.ring_flits(f).enumerate() {
                assert!(live(flit.slot), "FIFO {f} holds a dead flit");
                assert_eq!(flit.vc as usize, vc, "flit buffered on the wrong VC");
                if i >= len {
                    let due = flit.due as usize;
                    let lap = (due + slots - *first_due.get_or_insert(due)) % slots;
                    let in_order = due < slots && last_lap.replace(lap) < Some(lap);
                    assert!(in_order, "FIFO {f}: flits in flight out of landing order");
                }
            }
            if let Some(front) = self.ring_flits(f).next().filter(|_| len > 0) {
                let out = self.routes[node * self.mesh.nodes() + front.dst.index()];
                assert_eq!(self.fifo_out[f], out, "FIFO {f} requests the wrong output");
                if out != UNREACHABLE {
                    req[(node * PORTS + out as usize) * vcs + vc] |= 1 << port;
                    demand[node] |= 1 << ((out as usize) << 3 | vc);
                }
            }
            if self.lock_in[f] != NO_LOCK {
                assert!(
                    live(self.lock_owner[f]),
                    "lock {f} is held by a dead packet"
                );
            }
        }
        assert_eq!(self.req, req, "request sets disagree with the fronts");
        assert_eq!(self.demand, demand, "demand disagrees with the fronts");
        for node in 0..self.mesh.nodes() {
            let queues = &self.nic[node * vcs..][..vcs];
            let queued: usize = queues.iter().map(VecDeque::len).sum();
            assert_eq!(queued, self.nic_occ[node], "nic_occ[{node}]");
            for e in queues.iter().flatten() {
                assert!(live(e.slot), "NIC {node} queues a dead packet");
                assert!(e.next < e.nflits, "NIC {node} kept a fully streamed packet");
            }
        }
        assert_eq!(
            self.stats.injected,
            self.stats.delivered + self.dropped_in_flight + self.pending() as u64,
            "message conservation"
        );
        if let Some(l) = &self.lone {
            self.check_lone(l);
        }
    }
}
