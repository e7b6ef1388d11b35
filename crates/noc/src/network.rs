//! The NoC engine. This module holds the state, its constructor and the
//! caller-facing queue API; the cycle itself is in `network/cycle.rs`, the
//! closed form of packets on disjoint routes in `network/flight.rs`, fault
//! handling in `network/faults.rs` and the laws of the layout in
//! `network/invariants.rs`.

mod cycle;
mod faults;
mod flight;
mod invariants;

use crate::config::{NocConfig, VCS};
use crate::fault::FaultPlane;
use crate::packet::{
    flits_for, Delivered, Flit, Message, PacketEntry, PacketId, PacketTable, TrafficClass,
};
use crate::topology::{Direction, Mesh, NodeId, PORTS};
use apiary_sim::{Cycle, Histogram};
use flight::Flights;
use std::collections::VecDeque;

/// Why an injection was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InjectError {
    /// The per-class injection queue at this node is full (backpressure).
    QueueFull,
    /// The destination is not a node of this mesh.
    BadDestination,
    /// The message's `src` field does not match the injecting node.
    SrcMismatch,
    /// Permanently dead links leave no live route to the destination.
    Unreachable,
}

impl core::fmt::Display for InjectError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            InjectError::QueueFull => write!(f, "injection queue full"),
            InjectError::BadDestination => write!(f, "destination outside mesh"),
            InjectError::SrcMismatch => write!(f, "message src does not match injecting node"),
            InjectError::Unreachable => write!(f, "no live route to destination"),
        }
    }
}

impl std::error::Error for InjectError {}

/// Aggregate network statistics.
#[derive(Debug, Clone, Default)]
pub struct NocStats {
    /// Messages accepted for injection.
    pub injected: u64,
    /// Messages delivered at their destination.
    pub delivered: u64,
    /// Injection attempts refused with [`InjectError::QueueFull`].
    pub rejected: u64,
    /// End-to-end message latency (inject call to tail ejection), cycles.
    pub latency: Histogram,
    /// Total flit-link traversals (a flit crossing one link counts once).
    pub flit_hops: u64,
    /// Flits ejected at local ports.
    pub flits_ejected: u64,
    /// Cycles simulated.
    pub cycles: u64,
    /// Flits that arrived damaged at the ejecting node.
    pub corrupted_flits: u64,
    /// Packets dropped because at least one of their flits arrived corrupt.
    pub dropped_corrupt: u64,
    /// Packets dropped or refused because no live route to the destination
    /// exists (after permanent link deaths).
    pub dropped_unreachable: u64,
    /// Packets flushed by fault handling: rerouted mid-stream after a link
    /// death, or purged by the no-progress valve.
    pub dropped_flushed: u64,
    /// Link fault events applied (transient and permanent).
    pub link_faults: u64,
    /// Router stall events applied.
    pub router_stalls: u64,
}

impl NocStats {
    /// Packets lost to faults, all causes.
    pub fn dropped(&self) -> u64 {
        self.dropped_corrupt + self.dropped_unreachable + self.dropped_flushed
    }
}

pub(crate) const DIRS: [Direction; 4] = [
    Direction::North,
    Direction::South,
    Direction::East,
    Direction::West,
];

fn dir_index(d: Direction) -> usize {
    match d {
        Direction::North => 0,
        Direction::South => 1,
        Direction::East => 2,
        Direction::West => 3,
    }
}

/// The cycle-level mesh NoC.
///
/// # Examples
///
/// ```
/// use apiary_noc::{Message, Noc, NocConfig, NodeId, TrafficClass};
///
/// let mut noc = Noc::new(NocConfig::soft(4, 4));
/// let msg = Message::new(NodeId(0), NodeId(15), TrafficClass::Request, vec![1, 2, 3]);
/// noc.try_inject(NodeId(0), msg).expect("queue space");
/// for _ in 0..100 {
///     noc.step();
/// }
/// let got = noc.poll_eject(NodeId(15)).expect("delivered");
/// assert_eq!(got.msg.payload, vec![1, 2, 3]);
/// ```
#[derive(Debug)]
pub struct Noc {
    cfg: NocConfig,
    mesh: Mesh,
    now: Cycle,
    // ------------------------------------------------------------------
    // Router state, flat. Input FIFO `f = (node * 5 + port) * VCS + vc`;
    // the same index over *output* ports addresses the wormhole locks and
    // the request sets.
    // ------------------------------------------------------------------
    /// Every input FIFO as a ring in one slab: FIFO `f` owns
    /// `fifo[f * vc_buffer..][..vc_buffer]`. From `fifo_head[f]` on it holds
    /// the `fifo_len[f]` flits its router can see, then the `fifo_fly[f]`
    /// still crossing the link that feeds it. A link is not a place: the
    /// upstream router writes a granted flit into the slot its credit reserved.
    fifo: Vec<Flit>,
    /// Ring position of FIFO `f`'s front flit.
    fifo_head: Vec<u8>,
    /// Flits in FIFO `f` that have landed.
    fifo_len: Vec<u8>,
    /// Flits in FIFO `f` still in flight, behind the landed ones. Always 0
    /// for a local port, which the NIC fills directly.
    fifo_fly: Vec<u8>,
    /// Slots of non-local FIFO `f` the upstream router may still fill:
    /// `vc_buffer - fifo_len[f] - fifo_fly[f]` between cycles. Within one, a
    /// grant takes a credit at once and a pop returns it late ([`Noc::step`]).
    credit: Vec<u8>,
    /// Output port FIFO `f`'s front flit routes to, looked up when the front
    /// changes; [`UNREACHABLE`] while `fifo_len[f] == 0` (or the front has no
    /// live route).
    fifo_out: Vec<u8>,
    /// Standing requests: the input ports whose front flit wants output
    /// `(node, out, vc)`, one bit each.
    req: Vec<u8>,
    /// Per-node bitset over `(out << 3) | vc` of non-empty `req` entries.
    demand: Vec<u64>,
    /// Wormhole lock on output `(port, vc)`: the input port whose packet
    /// holds it from head to tail, or `NO_LOCK`.
    lock_in: Vec<u8>,
    /// The table slot of the packet holding each lock, 0 while it is free:
    /// fault handling releases a purged packet's locks.
    lock_owner: Vec<u32>,
    /// Round-robin pointer (last input port granted), `[node * 5 + out_port]`.
    rr: Vec<u8>,
    /// Landing schedule, `hop_latency + 1` lists: a flit granted at cycle
    /// `t` lands at `t + due.len()`, is stamped `Flit::due = t % due.len()`
    /// and has its ring listed in that slot, at most one entry per link (a
    /// link carries one flit a cycle). Relies on [`Noc::step`] being the only
    /// way time advances while anything is in flight.
    due: Vec<Vec<Landing>>,
    /// Non-local FIFOs popped during this cycle's switching, whose credits
    /// go back when it ends. Empty between cycles.
    credit_returns: Vec<u32>,
    /// Injection queues, `nic[node * VCS + vc]`.
    nic: Vec<VecDeque<NicEntry>>,
    /// Every packet between `try_inject` and delivery, drop or purge; its
    /// live count is the number of messages in flight.
    packets: PacketTable,
    /// Accepted packets later dropped, all causes. Unlike
    /// [`NocStats::dropped`] this leaves out injections refused as
    /// `Unreachable`, which were never in flight; `check_invariants` needs
    /// it for message conservation.
    dropped_in_flight: u64,
    /// Delivered messages awaiting pickup, per node.
    eject_q: Vec<VecDeque<Delivered>>,
    /// Total messages across all eject queues — lets the event clock ask
    /// "does any tile have mail?" without scanning every node.
    rx_pending: usize,
    next_packet: u64,
    /// The counters but the open fliers' share of `flit_hops` and
    /// `flits_ejected`, which [`Noc::stats`] adds when read.
    stats: NocStats,
    /// Flits sent per outgoing link, indexed `[node][dir]` — the raw data
    /// behind [`Noc::link_utilization`], but for the flying packets' share
    /// (`Noc::link_counts` adds it).
    link_flits: Vec<[u64; 4]>,
    /// Routing table, flat with stride `nodes`: `routes[node * nodes + dst]`
    /// is the output port index, or [`UNREACHABLE`]. Starts as pure XY and
    /// is recomputed (BFS detours, XY preferred where still live) when a
    /// link dies permanently.
    routes: Vec<u8>,
    /// Permanently dead outgoing links, `[node][dir]`.
    dead_links: Vec<[bool; 4]>,
    /// Transient outages: the cycle (exclusive) until which the link
    /// `[node][dir]` corrupts crossing flits.
    link_down_until: Vec<[u64; 4]>,
    /// Router stalls: the cycle (exclusive) until which node `i` allocates
    /// no flits.
    stall_until: Vec<u64>,
    /// Optional chaos plane driving random fault injection. Boxed: every
    /// step takes it out and puts it back, which should move a pointer.
    fault_plane: Option<Box<FaultPlane>>,
    /// `stats.cycles` value at which a flit last moved anywhere; feeds the
    /// no-progress valve that guarantees injected faults never deadlock the
    /// network.
    last_progress: u64,
    /// Packets queued in each node's NIC (all VCs).
    nic_occ: Vec<usize>,
    /// Where each outgoing link leads, `feeds[node * 4 + dir]`: the VC-0
    /// ring of the neighbour's facing input port (node `u16::MAX`, and a ring
    /// past the slab, at mesh edges). Mesh geometry is static: never changes.
    feeds: Vec<Landing>,
    /// The packets carried in closed form while rings, locks and NIC stay
    /// as they were when the mesh was last empty (`network/flight.rs`).
    flights: Flights,
}

/// A packet queued at its source NIC. Flit `next` is formed when it enters
/// the router; the packet has started streaming once `next > 0`.
#[derive(Debug, Clone, Copy)]
struct NicEntry {
    slot: u32,
    dst: NodeId,
    next: u32,
    nflits: u32,
}

/// One entry of the landing schedule: the ring a flit in flight lands in,
/// with the ring's coordinates so that landing divides nothing.
#[derive(Debug, Clone, Copy)]
struct Landing {
    f: u32,
    node: u16,
    port: u8,
    vc: u8,
}

/// `lock_in` sentinel for "no lock held".
const NO_LOCK: u8 = u8::MAX;
/// Input-port index a flit arrives on after crossing a link in `DIRS[di]`:
/// `Port::Dir(DIRS[di].opposite()).index()`.
const OPP_PORT: [usize; 4] = [2, 1, 4, 3];

/// Marker in [`Noc::routes`] for "no live path".
const UNREACHABLE: u8 = u8::MAX;

impl Noc {
    /// Builds a NoC from a validated configuration.
    pub fn new(cfg: NocConfig) -> Noc {
        cfg.validate();
        let mesh = Mesh::new(cfg.width, cfg.height);
        let n = mesh.nodes();
        let routes = (0..n)
            .flat_map(|src| {
                (0..n).map(move |dst| {
                    mesh.route(NodeId(src as u16), NodeId(dst as u16)).index() as u8
                })
            })
            .collect();
        let feeds = (0..n * 4)
            .map(|l| {
                let node = mesh.neighbor(NodeId((l / 4) as u16), DIRS[l % 4]);
                let (node, port) = (node.map_or(u16::MAX, |nb| nb.0), OPP_PORT[l % 4]);
                let f = ((node as usize * PORTS + port) * VCS) as u32;
                let (port, vc) = (port as u8, 0);
                Landing { f, node, port, vc }
            })
            .collect();
        let fifos = n * PORTS * VCS;
        Noc {
            mesh,
            now: Cycle::ZERO,
            fifo: vec![Flit::default(); fifos * cfg.vc_buffer],
            fifo_head: vec![0; fifos],
            fifo_len: vec![0; fifos],
            fifo_fly: vec![0; fifos],
            credit: vec![cfg.vc_buffer as u8; fifos],
            fifo_out: vec![UNREACHABLE; fifos],
            req: vec![0; fifos],
            demand: vec![0; n],
            lock_in: vec![NO_LOCK; fifos],
            lock_owner: vec![0; fifos],
            rr: vec![0; n * PORTS],
            due: vec![Vec::new(); cfg.hop_latency as usize + 1],
            credit_returns: Vec::new(),
            nic: (0..n * VCS).map(|_| VecDeque::new()).collect(),
            packets: PacketTable::default(),
            dropped_in_flight: 0,
            eject_q: (0..n).map(|_| VecDeque::new()).collect(),
            rx_pending: 0,
            next_packet: 0,
            stats: NocStats::default(),
            link_flits: (0..n).map(|_| [0; 4]).collect(),
            routes,
            dead_links: vec![[false; 4]; n],
            link_down_until: vec![[0; 4]; n],
            stall_until: vec![0; n],
            fault_plane: None,
            last_progress: 0,
            nic_occ: vec![0; n],
            feeds,
            flights: Flights::new(n),
            cfg,
        }
    }

    /// The mesh geometry.
    pub fn mesh(&self) -> Mesh {
        self.mesh
    }

    /// The configuration.
    pub fn config(&self) -> &NocConfig {
        &self.cfg
    }

    /// Current simulated time.
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// Messages injected but not yet delivered.
    pub fn pending(&self) -> usize {
        self.packets.live()
    }

    /// Statistics so far: the stored counters, plus the flit hops and
    /// ejections of the packets flying in closed form, counted on read.
    pub fn stats(&self) -> NocStats {
        let (hops, ejected) = self.flown();
        let mut stats = self.stats.clone();
        stats.flit_hops += hops;
        stats.flits_ejected += ejected;
        stats
    }

    /// Free message slots in `node`'s injection queue for `class`.
    pub fn inject_space(&self, node: NodeId, class: TrafficClass) -> usize {
        let (node, vc) = (node.index(), class.vc());
        // Flying, the queue still holds what stepping has streamed out.
        self.cfg.inject_queue + self.streamed(node, vc) - self.nic[node * VCS + vc].len()
    }

    /// Offers a message for injection at `from`.
    ///
    /// On success the message is queued at the local network interface and
    /// will be streamed into the mesh one flit per cycle; the returned
    /// [`PacketId`] can be used to correlate trace events. A message that
    /// finds the network empty, or every live packet flying on routes its
    /// own does not cross, may fly in closed form ([`Noc::quiet_until`]);
    /// any other settles the flights first.
    ///
    /// # Errors
    ///
    /// [`InjectError`] when the queue is full, the destination invalid, or
    /// the source field forged.
    ///
    /// # Panics
    ///
    /// Panics if the message would occupy more than `u32::MAX` flits.
    pub fn try_inject(&mut self, from: NodeId, msg: Message) -> Result<PacketId, InjectError> {
        if !self.mesh.contains(msg.dst) {
            return Err(InjectError::BadDestination);
        }
        if msg.src != from || !self.mesh.contains(from) {
            return Err(InjectError::SrcMismatch);
        }
        if self.routes[from.index() * self.mesh.nodes() + msg.dst.index()] == UNREACHABLE {
            self.stats.dropped_unreachable += 1;
            return Err(InjectError::Unreachable);
        }
        let (src, dst, vc) = (from.index(), msg.dst.index(), msg.class.vc());
        let queue = src * VCS + vc;
        if self.nic[queue].len() - self.streamed(src, vc) >= self.cfg.inject_queue {
            self.stats.rejected += 1;
            return Err(InjectError::QueueFull);
        }
        let flies = if self.flying() || self.pending() == 0 {
            self.admit(src, dst)
        } else {
            None
        };
        if flies.is_none() {
            self.settle();
        }
        let nflits = u32::try_from(flits_for(&msg, self.cfg.flit_bytes, self.cfg.header_bytes))
            .expect("a packet holds at most u32::MAX flits");
        let pid = PacketId(self.next_packet);
        self.next_packet += 1;
        let slot = self.packets.insert(PacketEntry {
            id: pid,
            injected_at: self.now,
            msg,
            head_ejected: false,
            poisoned: false,
        });
        self.nic[queue].push_back(NicEntry {
            slot,
            dst: NodeId(dst as u16),
            next: 0,
            nflits,
        });
        self.nic_occ[src] += 1;
        self.stats.injected += 1;
        if let Some(hops) = flies {
            self.join(src, vc, slot, dst, nflits, hops);
        }
        Ok(pid)
    }

    /// Takes one delivered message at `node`, if any.
    pub fn poll_eject(&mut self, node: NodeId) -> Option<Delivered> {
        let d = self.eject_q[node.index()].pop_front();
        if d.is_some() {
            self.rx_pending -= 1;
        }
        d
    }

    /// Delivered messages waiting at `node`, without taking any.
    pub fn eject_pending(&self, node: NodeId) -> usize {
        self.eject_q[node.index()].len()
    }

    /// Takes all delivered messages currently waiting at `node`.
    pub fn drain_eject(&mut self, node: NodeId) -> Vec<Delivered> {
        let v: Vec<Delivered> = self.eject_q[node.index()].drain(..).collect();
        self.rx_pending -= v.len();
        v
    }

    /// Delivered-but-unfetched messages across *all* nodes. The event
    /// clock runs kernel phases whenever this is non-zero, so a delivery
    /// implicitly re-arms every `OnMessage` sleeper on the same cycle it
    /// would have been pumped in under dense ticking.
    pub fn rx_pending_total(&self) -> usize {
        self.rx_pending
    }

    /// Utilisation of every physical link as (source node, direction,
    /// flits sent / cycles elapsed), hottest first. A link at 1.0 is
    /// saturated (one flit per cycle).
    pub fn link_utilization(&self) -> Vec<(NodeId, Direction, f64)> {
        let cycles = self.stats.cycles.max(1) as f64;
        let mut out = Vec::new();
        for (node, dirs) in self.link_counts().iter().enumerate() {
            for (di, &flits) in dirs.iter().enumerate() {
                if self.mesh.neighbor(NodeId(node as u16), DIRS[di]).is_some() {
                    out.push((NodeId(node as u16), DIRS[di], flits as f64 / cycles));
                }
            }
        }
        out.sort_by(|a, b| b.2.partial_cmp(&a.2).expect("utilisations are finite"));
        out
    }

    /// Ring `f = (node, port, vc)` has a new front flit bound for `dst`:
    /// looks its output port up and posts the request.
    #[inline]
    fn post_front(&mut self, f: usize, node: usize, port: usize, vc: usize, dst: NodeId) {
        let out = self.routes[node * self.mesh.nodes() + dst.index()];
        self.fifo_out[f] = out;
        // An `UNREACHABLE` front asks for nothing and waits for the valve.
        if out != UNREACHABLE {
            let out = out as usize;
            self.req[(node * PORTS + out) * VCS + vc] |= 1 << port;
            self.demand[node] |= 1 << (out << 3 | vc);
        }
    }

    /// Withdraws the request of ring `f = (node, port, vc)`, whose front is
    /// gone.
    #[inline]
    fn withdraw_front(&mut self, f: usize, node: usize, port: usize, vc: usize) {
        let out = std::mem::replace(&mut self.fifo_out[f], UNREACHABLE);
        if out != UNREACHABLE {
            let out = out as usize;
            let req = &mut self.req[(node * PORTS + out) * VCS + vc];
            *req &= !(1 << port);
            if *req == 0 {
                self.demand[node] &= !(1 << (out << 3 | vc));
            }
        }
    }

    /// The `(node, port, vc)` of ring `f`. Divides: not for the cycle.
    fn ring_coords(&self, f: usize) -> (usize, usize, usize) {
        (f / (PORTS * VCS), f / VCS % PORTS, f % VCS)
    }

    /// Where in the slab ring `f` keeps its `i`-th flit, counted from the
    /// front (`i < vc_buffer`).
    #[inline]
    fn at(&self, f: usize, i: usize) -> usize {
        let cap = self.cfg.vc_buffer;
        let at = self.fifo_head[f] as usize + i;
        f * cap + if at >= cap { at - cap } else { at }
    }

    /// The flits of ring `f` in ring order: the `fifo_len[f]` landed ones,
    /// front first, then the `fifo_fly[f]` in flight.
    fn ring_flits(&self, f: usize) -> impl Iterator<Item = &Flit> {
        let held = (self.fifo_len[f] + self.fifo_fly[f]) as usize;
        (0..held).map(move |i| &self.fifo[self.at(f, i)])
    }

    /// The slot of the landing schedule that comes due this cycle; a flit
    /// granted this cycle is listed in the same slot, one lap on.
    #[inline]
    fn due_slot(&self) -> usize {
        (self.now.as_u64() % self.due.len() as u64) as usize
    }
}

#[cfg(test)]
mod fault_tests;
#[cfg(test)]
mod flight_tests;
#[cfg(test)]
mod link_stats_tests;
#[cfg(test)]
mod tests;
