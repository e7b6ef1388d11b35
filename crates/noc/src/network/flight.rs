//! Flights: packets on disjoint routes are carried in closed form.
//!
//! A *flight* is every live packet queued at one source NIC. The mesh is
//! not stepped while every live packet belongs to a flight and:
//!
//! - no chaos plane is installed, and credits are deep enough that one
//!   stream never waits for them (`vc_buffer >= hop_latency + 2`: a link
//!   holds at most `hop_latency + 1` of its flits between grant and onward
//!   grant);
//! - no router on a flight's routes is stalled and no link on them is down;
//! - no two flights claim the same output port of any router, ejection
//!   ports included, and two routes of one source share outputs only along
//!   a common prefix (always so under XY routing).
//!
//! Nothing can then delay a flit. The NIC forms one flit a cycle, the
//! lowest-index VC with a queued entry first (so a later packet on a lower
//! VC pre-empts one on a higher VC); with L = `hop_latency`, a flit formed
//! at cycle c is granted by the j-th router of its route at
//! `c + 1 + j(L + 1)`, and a packet of H hops lands at
//! `D = (its tail's formation cycle) + 1 + H(L + 1)`.
//!
//! While flights are open the rings, locks, requests, landing schedule and
//! NIC entries stay as they were when the mesh was last empty, and:
//!
//! - [`Noc::skip_to`] moves only `now` and `stats.cycles` and, on each
//!   landing cycle, writes what the packet leaves behind, adds its whole
//!   share to the stored counters and delivers it; the readers of the
//!   counters ([`Noc::stats`]), of per-link counts and of
//!   [`Noc::inject_space`] add what the flights have done so far;
//! - an injection into an empty mesh, or into a flying one without
//!   conflict, joins its source's flight;
//! - any other injection, [`Noc::step`] and every fault lever first
//!   *settle*: the stepped state at `now` is written from the schedule, and
//!   the mesh is then stepped until it is empty. So the dense reference
//!   never uses the closed form.

use super::{Landing, Noc};
use crate::config::VCS;
use crate::packet::Flit;
use crate::topology::{NodeId, Port, PORTS};
use apiary_sim::Cycle;

/// Every open flight: the packets and the output ports their routes claim.
#[derive(Debug)]
pub(super) struct Flights {
    /// Every live packet while the mesh flies, in injection order (so in
    /// NIC queue order within a source and VC); empty while it is stepped.
    pub(super) fliers: Vec<Flier>,
    /// Per output port `node * PORTS + out`, the source whose packets' routes
    /// take it.
    pub(super) claims: Vec<Claim>,
    /// The earliest landing, [`Cycle::MAX`] with no flier.
    pub(super) next: Cycle,
    /// The clock and cycle counter when the mesh last opened a flight.
    pub(super) base: Base,
}

/// One live packet in flight.
#[derive(Debug, Clone)]
pub(super) struct Flier {
    pub(super) slot: u32,
    pub(super) src: u16,
    pub(super) dst: u16,
    pub(super) vc: u8,
    pub(super) flits: u32,
    /// Links crossed: H.
    pub(super) hops: u32,
    /// When the NIC forms the flits, in flit order: runs of consecutive
    /// cycles (one, unless a lower VC pre-empted the packet).
    runs: Vec<Run>,
    /// The landing cycle D.
    pub(super) lands: Cycle,
}

/// `n` flits formed on consecutive cycles from `at` on.
#[derive(Debug, Clone, Copy)]
struct Run {
    at: u64,
    n: u32,
}

/// Who claims one output port.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(super) struct Claim {
    /// Live packets whose route takes this output; 0 when it is free.
    pub(super) n: u32,
    /// Their source.
    pub(super) src: u16,
    /// The input port every one of them arrives by.
    pub(super) in_port: u8,
}

/// `now` and `stats.cycles` when a flight opened: the law checks that a
/// skip counts every cycle it crosses.
#[derive(Debug, Clone, Copy, Default)]
pub(super) struct Base {
    pub(super) at: Cycle,
    pub(super) cycles: u64,
}

/// One router of a route: its node, the input port the packet arrives on
/// and the output it takes.
pub(super) type Hop = (usize, usize, usize);

/// The routers a packet from `src` to `dst` crosses, first to last; the
/// last one's output is the local port it ejects through. Takes the routing
/// table and the link map (`feeds`, four entries per node), not the
/// network, so a caller may update the rest on the way.
pub(super) fn path<'a>(
    routes: &'a [u8],
    feeds: &'a [Landing],
    src: usize,
    dst: usize,
) -> impl Iterator<Item = Hop> + 'a {
    let nodes = feeds.len() / 4;
    let mut at = Some((src, Port::Local.index()));
    std::iter::from_fn(move || {
        let (node, in_port) = at?;
        let out = routes[node * nodes + dst] as usize;
        at = out.checked_sub(1).map(|di| {
            let link = feeds[node * 4 + di];
            (link.node as usize, link.port as usize)
        });
        Some((node, in_port, out))
    })
}

impl Flights {
    pub(super) fn new(nodes: usize) -> Flights {
        Flights {
            fliers: Vec::new(),
            claims: vec![Claim::default(); nodes * PORTS],
            next: Cycle::MAX,
            base: Base::default(),
        }
    }

    /// The earliest landing, from the fliers' posted cycles.
    fn earliest(&self) -> Cycle {
        self.fliers
            .iter()
            .map(|p| p.lands)
            .min()
            .unwrap_or(Cycle::MAX)
    }
}

impl Flier {
    /// Flits formed by the end of cycle `x`.
    pub(super) fn formed(&self, x: u64) -> u32 {
        let mut k = 0;
        for r in self.runs.iter().take_while(|r| r.at <= x) {
            k += (x - r.at + 1).min(r.n as u64) as u32;
        }
        k
    }

    /// Flits granted by the end of cycle `t` at a router that grants each
    /// flit `shift` cycles after the NIC forms it (`1 + j(L + 1)` for the
    /// j-th router of the route).
    pub(super) fn granted(&self, t: u64, shift: u64) -> u32 {
        t.checked_sub(shift).map_or(0, |x| self.formed(x))
    }

    /// The cycle flit `k` is formed on.
    fn formed_at(&self, mut k: u32) -> u64 {
        for r in &self.runs {
            if k < r.n {
                return r.at + k as u64;
            }
            k -= r.n;
        }
        unreachable!("flit {k} past the packet's end")
    }

    /// The last cycle at or before `x` on which a flit was formed.
    pub(super) fn last_formed(&self, x: u64) -> Option<u64> {
        let runs = self.runs.iter().take_while(|r| r.at <= x);
        runs.map(|r| x.min(r.at + r.n as u64 - 1)).last()
    }

    /// Flit hops and ejections of this packet by the end of cycle `t`, on
    /// links `lap` cycles long: router j has granted `min(n, t - at - j lap)`
    /// flits of a run of `n` formed from `at` on.
    pub(super) fn crossed(&self, t: u64, lap: u64) -> (u64, u64) {
        let (mut hops, mut ejected) = (0, 0);
        for r in self.runs.iter().take_while(|r| r.at < t) {
            let (u, n) = (t - r.at, r.n as u64);
            for j in 0..=self.hops as u64 {
                let Some(x) = u.checked_sub(j * lap).filter(|&x| x > 0) else {
                    break;
                };
                if j < self.hops as u64 {
                    hops += x.min(n);
                } else {
                    ejected += x.min(n);
                }
            }
        }
        (hops, ejected)
    }

    /// The tail's formation cycle.
    pub(super) fn tail(&self) -> u64 {
        let r = self.runs.last().expect("a planned packet");
        r.at + r.n as u64 - 1
    }
}

impl Noc {
    /// Until when the network can be crossed with [`Noc::skip_to`] instead
    /// of stepped: [`Cycle::MAX`] while no packet is in flight, the earliest
    /// landing while every live packet flies (skipping to it delivers),
    /// `None` while the mesh must be stepped.
    pub fn quiet_until(&self) -> Option<Cycle> {
        if self.flying() {
            debug_assert_eq!(self.flights.next, self.fresh_next(), "stale landing cycle");
            return Some(self.flights.next);
        }
        (self.pending() == 0).then_some(Cycle::MAX)
    }

    /// Whether the live packets fly in closed form.
    #[inline]
    pub(super) fn flying(&self) -> bool {
        !self.flights.fliers.is_empty()
    }

    /// Entries of NIC queue `(node, vc)` that stepping would already have
    /// let go of: packets whose tail the NIC has formed.
    pub(super) fn streamed(&self, node: usize, vc: usize) -> usize {
        let now = self.now.as_u64();
        let gone = |p: &&Flier| (p.src as usize, p.vc as usize) == (node, vc) && p.tail() <= now;
        self.flights.fliers.iter().filter(gone).count()
    }

    /// The hop count of a packet from `src` to `dst` if it may fly with
    /// the open flights (or open one), `None` if it must be stepped.
    pub(super) fn admit(&self, src: usize, dst: usize) -> Option<u32> {
        let lap = self.cfg.hop_latency + 1;
        if self.fault_plane.is_some() || (self.cfg.vc_buffer as u64) < lap + 1 {
            return None;
        }
        let now = self.now.as_u64();
        // Whether every output so far is one `src`'s own routes take: they
        // all share the route up to here.
        let mut shared = true;
        let mut hops = 0;
        for (node, in_port, out) in path(&self.routes, &self.feeds, src, dst) {
            if self.stall_until[node] > now {
                return None;
            }
            if let Some(di) = out.checked_sub(1) {
                if self.link_is_down(node, di) {
                    return None;
                }
                hops += 1;
            }
            let c = self.flights.claims[node * PORTS + out];
            if c.n == 0 {
                shared = false;
            } else if c.src as usize != src || !shared || c.in_port as usize != in_port {
                return None;
            }
        }
        Some(hops)
    }

    /// Adds the packet in table slot `slot`, just queued at `(src, vc)`, to
    /// its source's flight, `admit` having returned `hops`.
    pub(super) fn join(
        &mut self,
        src: usize,
        vc: usize,
        slot: u32,
        dst: usize,
        flits: u32,
        hops: u32,
    ) {
        if !self.flying() {
            self.flights.base = Base {
                at: self.now,
                cycles: self.stats.cycles,
            };
        }
        for (node, in_port, out) in path(&self.routes, &self.feeds, src, dst) {
            let c = &mut self.flights.claims[node * PORTS + out];
            (c.n, c.src, c.in_port) = (c.n + 1, src as u16, in_port as u8);
        }
        self.flights.fliers.push(Flier {
            slot,
            src: src as u16,
            dst: dst as u16,
            vc: vc as u8,
            flits,
            hops,
            runs: Vec::new(),
            lands: Cycle::MAX,
        });
        self.replan(src as u16);
        self.flights.next = self.flights.earliest();
    }

    /// Plans `src`'s NIC from the next cycle on: what it formed stays, and
    /// what is left streams in VC order, then queue order, one flit a cycle.
    fn replan(&mut self, src: u16) {
        let now = self.now.as_u64();
        let lap = self.cfg.hop_latency + 1;
        let mut cursor = now + 1;
        for vc in 0..VCS as u8 {
            let mine = |p: &&mut Flier| p.src == src && p.vc == vc;
            for p in self.flights.fliers.iter_mut().filter(mine) {
                let left = p.flits - p.formed(now);
                p.runs.retain_mut(|r| {
                    r.n = (now + 1).saturating_sub(r.at).min(r.n as u64) as u32;
                    r.n > 0
                });
                if left > 0 {
                    match p.runs.last_mut() {
                        Some(r) if r.at + r.n as u64 == cursor => r.n += left,
                        _ => p.runs.push(Run {
                            at: cursor,
                            n: left,
                        }),
                    }
                    cursor += left as u64;
                }
                p.lands = Cycle(p.tail() + 1 + p.hops as u64 * lap);
            }
        }
    }

    /// The earliest landing by a fresh evaluation of every flier.
    fn fresh_next(&self) -> Cycle {
        let fresh = self.flights.fliers.iter().map(|p| self.fresh_lands(p));
        fresh.min().unwrap_or(Cycle::MAX)
    }

    /// Flier `p`'s landing cycle from its source's NIC queues and a fresh
    /// walk of its route: what the NIC still has to form streams from the
    /// next cycle on, lowest VC first, each queue in order.
    pub(super) fn fresh_lands(&self, p: &Flier) -> Cycle {
        let now = self.now.as_u64();
        let mut cursor = now;
        let mut tail = None;
        for e in (0..VCS).flat_map(|vc| &self.nic[p.src as usize * VCS + vc]) {
            let Some(q) = self.flights.fliers.iter().find(|q| q.slot == e.slot) else {
                continue;
            };
            let left = q.flits - q.formed(now);
            cursor += left as u64;
            if q.slot == p.slot {
                tail = if left > 0 {
                    Some(cursor)
                } else {
                    q.last_formed(now)
                };
            }
        }
        let routers = path(&self.routes, &self.feeds, p.src as usize, p.dst as usize).count();
        let tail = tail.expect("a flier's NIC entry");
        Cycle(tail + 1 + (routers as u64 - 1) * (self.cfg.hop_latency + 1))
    }

    /// Carries every flight toward `target`, landing each packet due on the
    /// way on its cycle: same-cycle landings in ascending node order, as
    /// the switch ejects them.
    pub(super) fn fly_to(&mut self, target: Cycle) {
        while self.flying() {
            let lands = self.flights.next;
            if target.min(lands) > self.now {
                self.carry(target.min(lands));
            }
            if self.now < lands {
                return;
            }
            let fliers = self.flights.fliers.iter().enumerate();
            let due = fliers.filter(|(_, p)| p.lands == lands);
            let (i, _) = due.min_by_key(|(_, p)| p.dst).expect("a flier lands now");
            self.land(i);
        }
    }

    /// Moves the clock to `to`. The grants in between are counted when
    /// read ([`Noc::flown`]), so no flier is touched.
    fn carry(&mut self, to: Cycle) {
        self.stats.cycles += to - self.now;
        self.now = to;
    }

    /// Flit hops and ejections of every open flier by the end of this
    /// cycle: the share [`Noc::stats`] adds to the stored counters.
    pub(super) fn flown(&self) -> (u64, u64) {
        let (now, lap) = (self.now.as_u64(), self.cfg.hop_latency + 1);
        let shares = self.flights.fliers.iter().map(|p| p.crossed(now, lap));
        shares.fold((0, 0), |(h, e), (hops, ejected)| (h + hops, e + ejected))
    }

    /// Flits sent per outgoing link, indexed `[node][dir]`, the flights'
    /// share included: `link_flits` takes a packet's when it lands or
    /// settles.
    pub(super) fn link_counts(&self) -> Vec<[u64; 4]> {
        let mut counts = self.link_flits.clone();
        let (now, lap) = (self.now.as_u64(), self.cfg.hop_latency + 1);
        for p in &self.flights.fliers {
            let route = path(&self.routes, &self.feeds, p.src as usize, p.dst as usize);
            for (j, (node, _, out)) in route.enumerate() {
                if let Some(di) = out.checked_sub(1) {
                    counts[node][di] += p.granted(now, 1 + j as u64 * lap) as u64;
                }
            }
        }
        counts
    }

    /// Delivers flier `i` on its landing cycle and leaves what stepping
    /// would: each ring of the route F slots on, each router's round-robin
    /// pointer on the port the packet came in by, the NIC entry and table
    /// slot freed. An emptied ring requests nothing and a released lock
    /// has no owner, so nothing else is left to write.
    fn land(&mut self, i: usize) {
        let p = self.flights.fliers.remove(i);
        let cap = self.cfg.vc_buffer;
        let (src, vc) = (p.src as usize, p.vc as usize);
        let queue = &mut self.nic[src * VCS + vc];
        let at = queue.iter().position(|e| e.slot == p.slot);
        queue.remove(at.expect("a flier's NIC entry"));
        self.nic_occ[src] -= 1;
        let turn = p.flits as usize % cap;
        for (node, in_port, out) in path(&self.routes, &self.feeds, src, p.dst as usize) {
            let f = (node * PORTS + in_port) * VCS + vc;
            self.fifo_head[f] = ((self.fifo_head[f] as usize + turn) % cap) as u8;
            self.rr[node * PORTS + out] = in_port as u8;
            if let Some(di) = out.checked_sub(1) {
                self.link_flits[node][di] += p.flits as u64;
            }
            let c = &mut self.flights.claims[node * PORTS + out];
            c.n -= 1;
            if c.n == 0 {
                *c = Claim::default();
            }
        }
        self.stats.flit_hops += p.flits as u64 * p.hops as u64;
        self.stats.flits_ejected += p.flits as u64;
        self.flights.next = self.flights.earliest();
        let packet = self.packets.remove(p.slot).expect("a flier is live");
        self.deliver(p.dst as usize, packet);
        self.last_progress = self.stats.cycles;
    }

    /// Closes every flight, if any is open, by writing the state stepping
    /// leaves at `now`: the fliers' share of the counters, NIC entries
    /// started or popped, ring heads on by the flits each router has
    /// granted and `link_flits` by those it sent, the flit formed this
    /// cycle in its local ring with its request posted, flits in flight in
    /// their rings and landing slots in grant order, locks held from head
    /// to tail, round-robin pointers, `head_ejected` and `last_progress`.
    #[inline]
    pub(super) fn settle(&mut self) {
        if self.flying() {
            self.write_stepped();
        }
    }

    fn write_stepped(&mut self) {
        let (hops, ejected) = self.flown();
        self.stats.flit_hops += hops;
        self.stats.flits_ejected += ejected;
        let fliers = std::mem::take(&mut self.flights.fliers);
        let (now, lap) = (self.now.as_u64(), self.cfg.hop_latency + 1);
        let local = Port::Local.index();
        // The last cycle a flit moved, the flits formed this cycle, and the
        // flits in flight as (grant cycle, granting output, link, flit).
        let mut moved = None;
        let mut forming = Vec::new();
        let mut crossing = Vec::new();
        for p in &fliers {
            let (src, dst, vc, slot) = (p.src as usize, p.dst as usize, p.vc as usize, p.slot);
            let formed = p.formed(now);
            let queue = &mut self.nic[src * VCS + vc];
            let at = queue.iter().position(|e| e.slot == slot);
            let at = at.expect("a flier's NIC entry");
            if formed == p.flits {
                queue.remove(at);
                self.nic_occ[src] -= 1;
            } else {
                queue[at].next = formed;
            }
            moved = moved.max(p.last_formed(now));
            for (j, (node, in_port, out)) in path(&self.routes, &self.feeds, src, dst).enumerate() {
                let shift = 1 + j as u64 * lap;
                let granted = p.granted(now, shift);
                if granted == 0 {
                    break;
                }
                moved = moved.max(
                    now.checked_sub(shift)
                        .and_then(|x| p.last_formed(x))
                        .map(|c| c + shift),
                );
                let f = (node * PORTS + in_port) * VCS + vc;
                let head = self.fifo_head[f] as usize + granted as usize;
                self.fifo_head[f] = (head % self.cfg.vc_buffer) as u8;
                self.rr[node * PORTS + out] = in_port as u8;
                if granted < p.flits {
                    let o = (node * PORTS + out) * VCS + vc;
                    self.lock_in[o] = in_port as u8;
                    self.lock_owner[o] = slot;
                }
                let Some(di) = out.checked_sub(1) else {
                    let entry = self.packets.get_mut(slot).expect("a flier is live");
                    entry.head_ejected = true;
                    continue;
                };
                self.link_flits[node][di] += granted as u64;
                let link = self.feeds[node * 4 + di];
                for k in p.granted(now, shift + lap)..granted {
                    let flit = Flit::form(slot, NodeId(p.dst), p.vc, k, p.flits);
                    crossing.push((p.formed_at(k) + shift, node * PORTS + out, link, flit));
                }
            }
            if formed > p.granted(now, 1) {
                let flit = Flit::form(slot, NodeId(p.dst), p.vc, formed - 1, p.flits);
                forming.push((src, flit));
            }
        }
        // Every ring's head has moved: write the flits in the rings. One
        // formed this cycle waits in its source's local ring.
        for (src, flit) in forming {
            let vc = flit.vc as usize;
            let f = (src * PORTS + local) * VCS + vc;
            let at = self.at(f, 0);
            self.fifo[at] = flit;
            self.fifo_len[f] = 1;
            self.post_front(f, src, local, vc, flit.dst);
        }
        crossing.sort_unstable_by_key(|&(granted_at, out, ..)| (granted_at, out));
        for (granted_at, _, link, mut flit) in crossing {
            let (slot, vc) = ((granted_at % lap) as usize, flit.vc);
            let f = link.f as usize + vc as usize;
            flit.due = slot as u8;
            let at = self.at(f, (self.fifo_len[f] + self.fifo_fly[f]) as usize);
            self.fifo[at] = flit;
            self.fifo_fly[f] += 1;
            self.credit[f] -= 1;
            self.due[slot].push(Landing {
                f: f as u32,
                vc,
                ..link
            });
        }
        if let Some(t) = moved {
            let since = self.stats.cycles - (now - t);
            self.last_progress = self.last_progress.max(since);
        }
        self.flights.claims.fill(Claim::default());
        self.flights.next = Cycle::MAX;
    }
}
