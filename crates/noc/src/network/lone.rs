//! The lone flight: a packet alone on a quiet mesh is carried in closed form.
//!
//! A packet queued while no other is live, with no chaos plane installed,
//! credits deep enough that one stream never waits for them
//! (`vc_buffer >= hop_latency + 2`: a link holds at most `hop_latency + 1`
//! of its flits between grant and onward grant) and no stalled router or
//! downed link on its route meets nothing that could delay it. With F
//! flits, H hops and L = `hop_latency`, flit k is formed at `t0 + 1 + k`,
//! granted by the j-th router of its path at `t0 + 2 + k + j(L + 1)`, and
//! the tail ejects at `D = t0 + 1 + F + H(L + 1)`. While the flight is open
//! the rings, locks and NIC stay as they were at `t0`:
//!
//! - skipping to a cycle before D moves only what `&self` observers read:
//!   `now`, `stats.cycles`, `flit_hops`, `flits_ejected`, the route's
//!   `link_flits`, and [`Noc::inject_space`] once the NIC has streamed the
//!   packet out;
//! - reaching D writes the state stepping leaves behind and delivers;
//! - anything else (a second injection, a fault lever, [`Noc::step`]) first
//!   *settles*: it rewinds those counters to `t0` and steps the frozen state
//!   for real up to now. So the dense reference never uses the closed form.

use super::{Landing, Noc, NO_LOCK, UNREACHABLE};
use crate::topology::{Port, PORTS};
use apiary_sim::Cycle;

/// An open lone flight: the packet at the front of NIC queue `(src, vc)`.
#[derive(Debug, Clone, Copy)]
pub(super) struct LoneFlight {
    /// The injection cycle, at which the frozen state stands.
    t0: Cycle,
    /// The delivery cycle D.
    lands: Cycle,
    /// `stats.flit_hops` and `stats.flits_ejected` at `t0`.
    flit_hops0: u64,
    ejected0: u64,
    src: u16,
    dst: u16,
    vc: u8,
    /// F and H.
    flits: u32,
    hops: u32,
}

impl LoneFlight {
    /// Whether the flight's NIC entry, queued at `(node, vc)`, is gone by
    /// `now` under stepping: it pops with the last flit, formed at `t0 + F`.
    pub(super) fn streamed(&self, node: usize, vc: usize, now: Cycle) -> bool {
        (node, vc) == (self.src as usize, self.vc as usize) && now >= self.t0 + self.flits as u64
    }

    /// Flits the j-th router of the route has granted `e` cycles after
    /// injection, links `lap = hop_latency + 1` cycles long: flit k goes at
    /// `2 + k + j * lap`.
    fn granted(&self, j: u64, e: u64, lap: u64) -> u64 {
        e.saturating_sub(1 + j * lap).min(self.flits as u64)
    }

    /// The routers the flight crosses ([`path`]). Takes the two tables it
    /// reads, not the network, so a caller may update the rest on the way.
    fn route<'a>(&self, routes: &'a [u8], feeds: &'a [Landing]) -> impl Iterator<Item = Hop> + 'a {
        path(routes, feeds, self.src as usize, self.dst as usize)
    }
}

/// One router of a route: its node, the input port the packet arrives on
/// and the output it takes.
type Hop = (usize, usize, usize);

/// The routers a packet from `src` to `dst` crosses, first to last; the
/// last one's output is the local port it ejects through. Reads the routing
/// table and the link map (`feeds`, four entries per node).
fn path<'a>(
    routes: &'a [u8],
    feeds: &'a [Landing],
    src: usize,
    dst: usize,
) -> impl Iterator<Item = Hop> + 'a {
    let nodes = feeds.len() / 4;
    let mut at = Some((src, Port::Local.index()));
    std::iter::from_fn(move || {
        let (node, in_port) = at?;
        let out = routes[node * nodes + dst];
        debug_assert_ne!(out, UNREACHABLE, "a lone flight's route is live");
        let out = out as usize;
        at = out.checked_sub(1).map(|di| {
            let link = feeds[node * 4 + di];
            (link.node as usize, link.port as usize)
        });
        Some((node, in_port, out))
    })
}

impl Noc {
    /// Until when the network can be crossed with [`Noc::skip_to`] instead
    /// of stepped: [`Cycle::MAX`] while no packet is in flight, the delivery
    /// cycle while one flies alone (skipping to it delivers), `None` while
    /// anything else moves.
    pub fn quiet_until(&self) -> Option<Cycle> {
        match &self.lone {
            Some(l) => {
                debug_assert_eq!(l.lands, self.fresh_lands(l), "stale delivery cycle");
                Some(l.lands)
            }
            None => (self.pending() == 0).then_some(Cycle::MAX),
        }
    }

    /// The flight of a packet of `flits` flits just queued at `(src, vc)`
    /// for `dst` into an otherwise empty network, if nothing can touch it.
    pub(super) fn lone_flight(
        &self,
        src: usize,
        vc: usize,
        dst: usize,
        flits: u32,
    ) -> Option<LoneFlight> {
        let lap = self.cfg.hop_latency + 1;
        if self.fault_plane.is_some() || (self.cfg.vc_buffer as u64) < lap + 1 {
            return None;
        }
        let now = self.now.as_u64();
        let mut hops = 0;
        for (node, _, out) in path(&self.routes, &self.feeds, src, dst) {
            if self.stall_until[node] > now {
                return None;
            }
            if let Some(di) = out.checked_sub(1) {
                if self.link_is_down(node, di) {
                    return None;
                }
                hops += 1;
            }
        }
        Some(LoneFlight {
            t0: self.now,
            lands: self.now + 1 + flits as u64 + hops * lap,
            flit_hops0: self.stats.flit_hops,
            ejected0: self.stats.flits_ejected,
            src: src as u16,
            dst: dst as u16,
            vc: vc as u8,
            flits,
            hops: hops as u32,
        })
    }

    /// Flight `l`'s delivery cycle from its NIC entry and a fresh walk of
    /// its route.
    fn fresh_lands(&self, l: &LoneFlight) -> Cycle {
        let queue = &self.nic[l.src as usize * self.cfg.vcs + l.vc as usize];
        let flits = queue.front().expect("a flight's NIC entry").nflits as u64;
        let routers = l.route(&self.routes, &self.feeds).count();
        l.t0 + 1 + flits + (routers as u64 - 1) * (self.cfg.hop_latency + 1)
    }

    /// Moves the clock and flight `l`'s counters from `from` cycles after
    /// its injection to `to` cycles after. `to < from` rewinds: the counts
    /// are unsigned and wrap back.
    fn lone_move(&mut self, l: &LoneFlight, from: u64, to: u64) {
        let lap = self.cfg.hop_latency + 1;
        for (j, (node, _, out)) in l.route(&self.routes, &self.feeds).enumerate() {
            let moved = l
                .granted(j as u64, to, lap)
                .wrapping_sub(l.granted(j as u64, from, lap));
            if let Some(di) = out.checked_sub(1) {
                self.link_flits[node][di] = self.link_flits[node][di].wrapping_add(moved);
                self.stats.flit_hops = self.stats.flit_hops.wrapping_add(moved);
            } else {
                self.stats.flits_ejected = self.stats.flits_ejected.wrapping_add(moved);
            }
        }
        self.stats.cycles = self.stats.cycles.wrapping_add(to.wrapping_sub(from));
        self.now = l.t0 + to;
    }

    /// Carries the lone flight toward `target`: its counters only, or up to
    /// its delivery cycle and the delivery.
    pub(super) fn fly_lone_to(&mut self, target: Cycle) {
        let Some(l) = self.lone else { return };
        let to = target.min(l.lands);
        if to > self.now {
            self.lone_move(&l, self.now - l.t0, to - l.t0);
        }
        if self.now == l.lands {
            self.land_lone(l);
        }
    }

    /// Delivers flight `l` on its delivery cycle and leaves what stepping
    /// would: each ring of the route F slots on and holding its last
    /// front's output, each router's round-robin pointer on the port the
    /// packet came in by, every lock released (owned last by the packet if
    /// it had a body), the NIC entry and table slot freed.
    fn land_lone(&mut self, l: LoneFlight) {
        self.lone = None;
        let (vcs, cap) = (self.cfg.vcs, self.cfg.vc_buffer);
        let (src, vc) = (l.src as usize, l.vc as usize);
        let entry = self.nic[src * vcs + vc]
            .pop_front()
            .expect("a flight's NIC entry");
        self.nic_occ[src] -= 1;
        let turn = l.flits as usize % cap;
        for (node, in_port, out) in l.route(&self.routes, &self.feeds) {
            let f = (node * PORTS + in_port) * vcs + vc;
            self.fifo_head[f] = ((self.fifo_head[f] as usize + turn) % cap) as u8;
            self.fifo_out[f] = out as u8;
            self.rr[node * PORTS + out] = in_port as u8;
            if l.flits > 1 {
                self.lock_owner[(node * PORTS + out) * vcs + vc] = entry.slot;
            }
        }
        let packet = self
            .packets
            .remove(entry.slot)
            .expect("a flight's packet is live");
        self.deliver(l.dst as usize, packet);
        self.last_progress = self.stats.cycles;
    }

    /// Closes the lone flight, if one is open, the slow way: its counters go
    /// back to the injection cycle and the frozen state is stepped for real
    /// up to now, so what comes next meets the state stepping would have left.
    #[inline]
    pub(super) fn settle(&mut self) {
        let Some(l) = self.lone.take() else { return };
        let now = self.now;
        self.lone_move(&l, now - l.t0, 0);
        while self.now < now {
            self.cycle();
        }
    }

    /// The laws of an open lone flight, part of [`Noc::check_invariants`]:
    /// the packet is alone and unstarted in its NIC, everything else is
    /// empty, it is still eligible, and the counters carry exactly the
    /// closed form's share of it.
    pub(super) fn check_lone(&self, l: &LoneFlight) {
        assert!(self.now < l.lands, "a flight open on or past its delivery");
        assert_eq!(self.pending(), 1, "a lone flight is alone");
        let queue = &self.nic[l.src as usize * self.cfg.vcs + l.vc as usize];
        let entry = queue.front().expect("a flight's NIC entry");
        assert_eq!(self.nic_occ.iter().sum::<usize>(), 1, "one NIC entry");
        assert_eq!(entry.next, 0, "a flight's NIC entry stays unstarted");
        assert_eq!((entry.dst.index(), entry.nflits), (l.dst as usize, l.flits));
        let empty = self.fifo_len.iter().chain(&self.fifo_fly).all(|&n| n == 0)
            && self.lock_in.iter().all(|&lock| lock == NO_LOCK)
            && self.demand.iter().all(|&d| d == 0)
            && self.due.iter().all(Vec::is_empty);
        assert!(empty, "rings, locks, requests or landings hold something");
        let fresh = self.lone_flight(l.src as usize, l.vc as usize, l.dst as usize, l.flits);
        assert_eq!(
            fresh.map(|f| f.hops),
            Some(l.hops),
            "a flight no longer eligible"
        );
        assert_eq!(l.lands, self.fresh_lands(l), "stale delivery cycle");
        let (e, lap, hops) = (self.now - l.t0, self.cfg.hop_latency + 1, l.hops as u64);
        let crossed: u64 = (0..hops).map(|j| l.granted(j, e, lap)).sum();
        assert_eq!(self.stats.flit_hops - crossed, l.flit_hops0, "flit hops");
        let ejected = l.granted(hops, e, lap);
        assert_eq!(
            self.stats.flits_ejected - ejected,
            l.ejected0,
            "flits ejected"
        );
    }
}
