//! The laws of the flat layout, checked in one pass linear in its size,
//! and the laws of open flights.

use super::flight::{path, Claim, Flier, Hop};
use super::{Noc, NocStats, NO_LOCK, UNREACHABLE};
use crate::config::VCS;
use crate::topology::{Port, PORTS};
use apiary_sim::{ensure, Cycle};
use std::collections::VecDeque;

impl Noc {
    /// Checks the laws the flat representation must keep: credits, the
    /// in-flight region of every ring against the landing schedule, the
    /// switch's standing request sets, the NIC occupancy counters,
    /// packet-table liveness, message conservation and, while packets fly,
    /// the laws of their closed form. Call it between steps. Debug builds
    /// run it after every purge and link kill, and `System`'s law runs it.
    ///
    /// # Errors
    ///
    /// The first violated law.
    pub fn check_invariants(&self) -> Result<(), String> {
        let cap = self.cfg.vc_buffer;
        let slots = self.due.len();
        let live = |slot: u32| self.packets.get(slot).is_some();
        ensure!(self.credit_returns.is_empty(), "credits still withheld");
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
                ensure!(
                    f == link * VCS + l.vc as usize,
                    "landing names a foreign ring"
                );
                ensure!(seen[link] != slot, "two flits on one link in slot {slot}");
                seen[link] = slot;
                let mut in_flight = self.ring_flits(f).skip(self.fifo_len[f] as usize);
                ensure!(
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
        let rings = ports.flat_map(|(node, port)| (0..VCS).map(move |vc| (node, port, vc)));
        for (f, (node, port, vc)) in rings.enumerate() {
            let (len, fly) = (self.fifo_len[f] as usize, self.fifo_fly[f] as usize);
            if port == Port::Local.index() {
                ensure!(len <= cap && fly == 0, "local FIFO {f} overran its ring");
            } else {
                let credit = self.credit[f] as usize;
                ensure!(credit + len + fly == cap, "credits of FIFO {f}");
            }
            ensure!(listed[f] as usize == fly, "landings scheduled for FIFO {f}");
            // Landing slots of the flits in flight, as distances from the first.
            let (mut first_due, mut last_lap) = (None, None);
            for (i, flit) in self.ring_flits(f).enumerate() {
                ensure!(live(flit.slot), "FIFO {f} holds a dead flit");
                ensure!(flit.vc as usize == vc, "flit buffered on the wrong VC");
                if i >= len {
                    let due = flit.due as usize;
                    let lap = (due + slots - *first_due.get_or_insert(due)) % slots;
                    let in_order = due < slots && last_lap.replace(lap) < Some(lap);
                    ensure!(in_order, "FIFO {f}: flits in flight out of landing order");
                }
            }
            // An empty ring requests nothing, and a free lock has no owner:
            // what a packet leaves behind is the same however it crossed.
            let out = match self.ring_flits(f).next().filter(|_| len > 0) {
                Some(front) => self.routes[node * self.mesh.nodes() + front.dst.index()],
                None => UNREACHABLE,
            };
            ensure!(
                self.fifo_out[f] == out,
                "FIFO {f} requests the wrong output"
            );
            if out != UNREACHABLE {
                req[(node * PORTS + out as usize) * VCS + vc] |= 1 << port;
                demand[node] |= 1 << ((out as usize) << 3 | vc);
            }
            if self.lock_in[f] != NO_LOCK {
                ensure!(
                    live(self.lock_owner[f]),
                    "lock {f} is held by a dead packet"
                );
            } else {
                ensure!(self.lock_owner[f] == 0, "free lock {f} keeps an owner");
            }
        }
        ensure!(self.req == req, "request sets disagree with the fronts");
        ensure!(self.demand == demand, "demand disagrees with the fronts");
        for node in 0..self.mesh.nodes() {
            let queues = &self.nic[node * VCS..][..VCS];
            let queued: usize = queues.iter().map(VecDeque::len).sum();
            ensure!(queued == self.nic_occ[node], "nic_occ[{node}]");
            for e in queues.iter().flatten() {
                ensure!(live(e.slot), "NIC {node} queues a dead packet");
                ensure!(e.next < e.nflits, "NIC {node} kept a fully streamed packet");
            }
        }
        ensure!(
            self.stats.injected
                == self.stats.delivered + self.dropped_in_flight + self.pending() as u64,
            "message conservation"
        );
        let stats = self.stats();
        let sent: u64 = self.link_counts().iter().flatten().sum();
        ensure!(
            sent == stats.flit_hops,
            "per-link counts do not sum to flit hops"
        );
        self.check_flights(&stats)
    }

    /// The laws of open flights: every live packet flies and the mesh holds
    /// nothing; each flier is unstarted in its NIC queue, in injection
    /// order, and still eligible; claims are a fresh count and no output is
    /// claimed by two sources; two routes of one source share outputs only
    /// along a common prefix; every posted landing cycle is a fresh
    /// evaluation's; and the counters as read (`stats`) are the stored ones
    /// plus exactly the fliers' granted share.
    fn check_flights(&self, stats: &NocStats) -> Result<(), String> {
        let fl = &self.flights;
        if fl.fliers.is_empty() {
            let free = fl.claims.iter().all(|c| *c == Claim::default());
            ensure!(free, "a claim outlived its flights");
            return Ok(());
        }
        let (now, lap) = (self.now.as_u64(), self.cfg.hop_latency + 1);
        ensure!(
            self.fault_plane.is_none() && self.cfg.vc_buffer as u64 > lap,
            "flights under a chaos plane or on shallow buffers"
        );
        ensure!(
            fl.fliers.len() == self.pending(),
            "a live packet flies in no flight"
        );
        let empty = self.fifo_len.iter().chain(&self.fifo_fly).all(|&n| n == 0)
            && self.lock_in.iter().all(|&lock| lock == NO_LOCK)
            && self.demand.iter().all(|&d| d == 0)
            && self.due.iter().all(Vec::is_empty);
        ensure!(
            empty,
            "rings, locks, requests or landings hold something while packets fly"
        );
        for (q, queue) in self.nic.iter().enumerate() {
            let mine = fl
                .fliers
                .iter()
                .filter(|p| p.src as usize * VCS + p.vc as usize == q);
            let mine: Vec<_> = mine.map(|p| (p.slot, p.dst, 0, p.flits)).collect();
            let queued = queue.iter().map(|e| (e.slot, e.dst.0, e.next, e.nflits));
            ensure!(
                queued.collect::<Vec<_>>() == mine,
                "NIC queue {q} does not hold exactly its fliers, unstarted, in order"
            );
        }
        let mut claims = vec![Claim::default(); fl.claims.len()];
        let (mut flit_hops, mut ejected) = (self.stats.flit_hops, self.stats.flits_ejected);
        for p in &fl.fliers {
            ensure!(p.lands > Cycle(now), "a flight open on or past its landing");
            ensure!(
                p.lands == self.fresh_lands(p),
                "stale landing cycle of slot {}",
                p.slot
            );
            let mut hops = 0;
            let route = path(&self.routes, &self.feeds, p.src as usize, p.dst as usize);
            for (j, (node, in_port, out)) in route.enumerate() {
                ensure!(
                    self.stall_until[node] <= now,
                    "a flight crosses stalled router {node}"
                );
                let granted = p.granted(now, 1 + j as u64 * lap) as u64;
                let o = node * PORTS + out;
                if let Some(di) = out.checked_sub(1) {
                    ensure!(
                        !self.link_is_down(node, di),
                        "a flight crosses a downed link"
                    );
                    hops += 1;
                    flit_hops += granted;
                } else {
                    ejected += granted;
                }
                let c = &mut claims[o];
                let same = c.n == 0 || (c.src, c.in_port as usize) == (p.src, in_port);
                ensure!(
                    same,
                    "two flights, or two prefixes, claim output {out} of node {node}"
                );
                (c.n, c.src, c.in_port) = (c.n + 1, p.src, in_port as u8);
            }
            ensure!(hops == p.hops, "slot {}'s route changed length", p.slot);
        }
        ensure!(fl.claims == claims, "claims are not a fresh count");
        ensure!(stats.flit_hops == flit_hops, "flit hops");
        ensure!(stats.flits_ejected == ejected, "flits ejected");
        let cycles = self.stats.cycles - fl.base.cycles;
        ensure!(
            cycles == self.now - fl.base.at,
            "cycles counted while flying"
        );
        let route = |p: &Flier| -> Vec<Hop> {
            path(&self.routes, &self.feeds, p.src as usize, p.dst as usize).collect()
        };
        for (i, p) in fl.fliers.iter().enumerate() {
            let a = route(p);
            for q in fl.fliers[i + 1..].iter().filter(|q| q.src == p.src) {
                let b = route(q);
                let common = a.iter().zip(&b).take_while(|(x, y)| x == y).count();
                let outs = |r: &[Hop]| {
                    r.iter()
                        .map(|&(node, _, out)| (node, out))
                        .collect::<Vec<_>>()
                };
                let (rest, theirs) = (outs(&a[common..]), outs(&b));
                ensure!(
                    rest.iter().all(|o| !theirs.contains(o)),
                    "two routes of source {} share an output off their common prefix",
                    p.src
                );
            }
        }
        let earliest = fl.fliers.iter().map(|p| p.lands).min();
        ensure!(earliest == Some(fl.next), "stale earliest landing");
        Ok(())
    }
}
