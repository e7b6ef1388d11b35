//! The NoC engine: wiring, cycle advancement, switching, injection and
//! ejection.

use crate::config::NocConfig;
use crate::fault::{FaultEvent, FaultPlane};
use crate::packet::{
    flits_for, Delivered, Flit, Message, PacketEntry, PacketId, PacketTable, TrafficClass,
};
use crate::topology::{Direction, Mesh, NodeId, Port, PORTS};
use apiary_sim::{Cycle, Histogram};
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
    /// Flits whose checksum failed verification at the ejecting node.
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

/// One switch decision: move the head flit of `(node, in_port, vc)` to
/// `out_port`. Six bytes, so a cycle's move list stays in a few cache lines.
#[derive(Debug, Clone, Copy)]
struct Move {
    node: u16,
    in_port: u8,
    vc: u8,
    out_port: u8,
}

impl Move {
    fn new(node: usize, in_port: usize, vc: usize, out_port: usize) -> Move {
        Move {
            node: node as u16,
            in_port: in_port as u8,
            vc: vc as u8,
            out_port: out_port as u8,
        }
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
    // Router state, flat. Input FIFO `f = (node * 5 + port) * vcs + vc`;
    // the same index over *output* ports addresses the wormhole locks.
    // ------------------------------------------------------------------
    /// Every input FIFO as a ring in one slab: FIFO `f` owns
    /// `fifo[f * vc_buffer..][..vc_buffer]`. Credits keep `fifo_len[f]`
    /// at or below `vc_buffer`, so a ring never grows.
    fifo: Vec<Flit>,
    /// Ring position of FIFO `f`'s front flit.
    fifo_head: Vec<u8>,
    /// Flits in FIFO `f`; also the buffer half of the credit computation.
    fifo_len: Vec<u8>,
    /// Head-of-FIFO summary the allocator reads instead of the slab: packed
    /// presence/head-flit flags and destination (see `H_PRESENT`), kept by
    /// the ring's push and pop. The arrays are sized exactly (stride `vcs`,
    /// not a power of two) so the allocator's working set stays L1-resident.
    heads: Vec<u16>,
    /// Per-node bitset over `(port << 3) | vc` of non-empty input FIFOs.
    head_mask: Vec<u64>,
    /// Wormhole lock on output `(port, vc)`: the input port whose packet
    /// holds it from head to tail, or `NO_LOCK`.
    lock_in: Vec<u8>,
    /// The packet holding each lock (meaningful only while `lock_in` is
    /// set), so fault handling can release locks whose owner was purged.
    lock_pkt: Vec<PacketId>,
    /// Round-robin pointer (last input port granted), `[node * 5 + out_port]`.
    rr: Vec<u8>,
    /// Links as delay lines. The allocator grants one flit per output port
    /// per cycle and a flit stays `link_cap = hop_latency + 1` cycles, so
    /// link `l = node * 4 + dir` needs exactly `link_cap` slots: a flit due
    /// at cycle `t` sits in `link[l * link_cap + t % link_cap]` and no
    /// arrival time is stored. Relies on [`Noc::step`] being the only way
    /// time advances while anything is in flight.
    link: Vec<Option<Flit>>,
    link_cap: usize,
    /// In-flight flits per `(node, dir, vc)`, `[(node * 4 + dir) * vcs + vc]`
    /// — the link half of the credit computation.
    link_vc: Vec<u8>,
    /// Injection queues, `nic[node * vcs + vc]`.
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
    stats: NocStats,
    /// Flits sent per outgoing link, indexed `[node][dir]` — the raw data
    /// behind [`Noc::link_utilization`].
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
    /// Optional chaos plane driving random fault injection.
    fault_plane: Option<FaultPlane>,
    /// `stats.cycles` value at which a flit last moved anywhere; feeds the
    /// no-progress valve that guarantees injected faults never deadlock the
    /// network.
    last_progress: u64,
    /// Makes the per-cycle phases scan every node, for the tests that pin
    /// active-set scheduling to that reference (see
    /// [`Noc::scans_every_node`]).
    #[cfg(test)]
    dense_scan: bool,
    /// Flits in flight on each node's outgoing links (all four directions).
    link_occ: Vec<usize>,
    /// Packets queued in each node's NIC (all VCs).
    nic_occ: Vec<usize>,
    /// Per-node neighbour table, `nbr[node * 4 + dir]`, `u16::MAX` at mesh
    /// edges. Mesh geometry is static, so this never changes.
    nbr: Vec<u16>,
    /// Reused per-step move list (avoids a per-cycle allocation).
    moves_buf: Vec<Move>,
}

/// A packet queued at its source NIC. Flit `next` is formed when it enters
/// the router; the packet has started streaming once `next > 0`.
#[derive(Debug, Clone, Copy)]
struct NicEntry {
    pid: PacketId,
    slot: u32,
    dst: NodeId,
    next: u32,
    nflits: u32,
}

/// `heads` encoding: entry is valid (FIFO non-empty).
const H_PRESENT: u16 = 1 << 15;
/// `heads` encoding: the front flit is a head flit.
const H_HEADFLIT: u16 = 1 << 14;
/// `heads` encoding: destination node id (14 bits).
const H_DST: u16 = (1 << 14) - 1;
/// `lock_in` sentinel for "no lock held".
const NO_LOCK: u8 = u8::MAX;
/// Most VCs the `head_mask` bitset supports (`5 * 8 = 40` mask bits).
const MAX_VCS: usize = 8;
/// Input-port index a flit arrives on after crossing a link in `DIRS[di]`:
/// `Port::Dir(DIRS[di].opposite()).index()`.
const OPP_PORT: [usize; 4] = [2, 1, 4, 3];

/// Marker in [`Noc::routes`] for "no live path".
const UNREACHABLE: u8 = u8::MAX;

/// Cycles without any flit movement (while packets are in flight) after
/// which the no-progress valve purges the network. Detour routing after a
/// permanent link death is not provably deadlock-free, so this valve bounds
/// the damage: stuck packets are dropped and counted instead of hanging the
/// simulation. Fault-free XY routing never triggers it.
const DEADLOCK_WINDOW: u64 = 4096;

impl Noc {
    /// Builds a NoC from a validated configuration.
    pub fn new(cfg: NocConfig) -> Noc {
        cfg.validate();
        assert!(
            cfg.vcs <= MAX_VCS,
            "the head bitset supports at most {MAX_VCS} virtual channels"
        );
        let mesh = Mesh::new(cfg.width, cfg.height);
        let n = mesh.nodes();
        assert!(
            n <= H_DST as usize + 1,
            "node ids must fit the head encoding"
        );
        let routes = (0..n)
            .flat_map(|src| {
                (0..n).map(move |dst| {
                    mesh.route(NodeId(src as u16), NodeId(dst as u16)).index() as u8
                })
            })
            .collect();
        let nbr = (0..n)
            .flat_map(|node| {
                DIRS.map(|d| {
                    mesh.neighbor(NodeId(node as u16), d)
                        .map_or(u16::MAX, |nb| nb.0)
                })
            })
            .collect();
        let fifos = n * PORTS * cfg.vcs;
        let link_cap = cfg.hop_latency as usize + 1;
        Noc {
            mesh,
            now: Cycle::ZERO,
            fifo: vec![Flit::default(); fifos * cfg.vc_buffer],
            fifo_head: vec![0; fifos],
            fifo_len: vec![0; fifos],
            heads: vec![0; fifos],
            head_mask: vec![0; n],
            lock_in: vec![NO_LOCK; fifos],
            lock_pkt: vec![PacketId(0); fifos],
            rr: vec![0; n * PORTS],
            link: vec![None; n * 4 * link_cap],
            link_cap,
            link_vc: vec![0; n * 4 * cfg.vcs],
            nic: (0..n * cfg.vcs).map(|_| VecDeque::new()).collect(),
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
            #[cfg(test)]
            dense_scan: false,
            link_occ: vec![0; n],
            nic_occ: vec![0; n],
            nbr,
            moves_buf: Vec::new(),
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

    /// Statistics so far.
    pub fn stats(&self) -> &NocStats {
        &self.stats
    }

    /// Free message slots in `node`'s injection queue for `class`.
    pub fn inject_space(&self, node: NodeId, class: TrafficClass) -> usize {
        self.cfg.inject_queue - self.nic[node.index() * self.cfg.vcs + class.vc()].len()
    }

    /// Offers a message for injection at `from`.
    ///
    /// On success the message is queued at the local network interface and
    /// will be streamed into the mesh one flit per cycle; the returned
    /// [`PacketId`] can be used to correlate trace events.
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
        let queue = from.index() * self.cfg.vcs + msg.class.vc();
        if self.nic[queue].len() >= self.cfg.inject_queue {
            self.stats.rejected += 1;
            return Err(InjectError::QueueFull);
        }
        let nflits = u32::try_from(flits_for(&msg, self.cfg.flit_bytes, self.cfg.header_bytes))
            .expect("a packet holds at most u32::MAX flits");
        let pid = PacketId(self.next_packet);
        self.next_packet += 1;
        let dst = msg.dst;
        let slot = self.packets.insert(PacketEntry {
            id: pid,
            injected_at: self.now,
            msg,
            head_ejected: false,
            poisoned: false,
        });
        self.nic[queue].push_back(NicEntry {
            pid,
            slot,
            dst,
            next: 0,
            nflits,
        });
        self.nic_occ[from.index()] += 1;
        self.stats.injected += 1;
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

    /// Active-set scheduling: the per-cycle phases skip nodes with no
    /// buffered work (see [`next_busy`]). A node whose router FIFOs,
    /// incoming links and NIC are all empty cannot produce a move, an
    /// arrival or an injection, so skipping it is exactly
    /// behaviour-preserving. Only the equivalence tests scan every node.
    #[inline]
    fn scans_every_node(&self) -> bool {
        #[cfg(test)]
        return self.dense_scan;
        #[cfg(not(test))]
        false
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
        for (node, dirs) in self.link_flits.iter().enumerate() {
            for (di, &flits) in dirs.iter().enumerate() {
                if self.mesh.neighbor(NodeId(node as u16), DIRS[di]).is_some() {
                    out.push((NodeId(node as u16), DIRS[di], flits as f64 / cycles));
                }
            }
        }
        out.sort_by(|a, b| b.2.partial_cmp(&a.2).expect("utilisations are finite"));
        out
    }

    /// Renders a per-node congestion heat map: each cell shows the busiest
    /// outgoing link's utilisation in percent.
    pub fn render_congestion(&self) -> String {
        use core::fmt::Write;
        let cycles = self.stats.cycles.max(1) as f64;
        let mut out = String::new();
        for y in (0..self.mesh.height).rev() {
            for x in 0..self.mesh.width {
                let n = self.mesh.node(crate::topology::Coord::new(x, y));
                let hottest = self.link_flits[n.index()]
                    .iter()
                    .copied()
                    .max()
                    .unwrap_or(0) as f64
                    / cycles;
                let _ = write!(out, "{:>5.1}% ", hottest * 100.0);
            }
            let _ = writeln!(out);
        }
        out
    }

    /// Appends `flit` to input FIFO `(node, port, vc)`.
    #[inline]
    fn fifo_push(&mut self, node: usize, port: usize, vc: usize, flit: Flit) {
        let f = (node * PORTS + port) * self.cfg.vcs + vc;
        let cap = self.cfg.vc_buffer;
        let len = self.fifo_len[f] as usize;
        debug_assert!(len < cap, "credit accounting must guarantee buffer space");
        let mut at = self.fifo_head[f] as usize + len;
        if at >= cap {
            at -= cap;
        }
        self.fifo[f * cap + at] = flit;
        self.fifo_len[f] = len as u8 + 1;
        if len == 0 {
            self.heads[f] = head_summary(&flit);
            self.head_mask[node] |= 1 << (port << 3 | vc);
        }
    }

    /// Takes the front flit of input FIFO `(node, port, vc)`, which must not
    /// be empty.
    #[inline]
    fn fifo_pop(&mut self, node: usize, port: usize, vc: usize) -> Flit {
        let f = (node * PORTS + port) * self.cfg.vcs + vc;
        let cap = self.cfg.vc_buffer;
        debug_assert!(self.fifo_len[f] > 0, "move references a buffered flit");
        let head = self.fifo_head[f] as usize;
        let flit = self.fifo[f * cap + head];
        let next = if head + 1 == cap { 0 } else { head + 1 };
        self.fifo_head[f] = next as u8;
        self.fifo_len[f] -= 1;
        if self.fifo_len[f] == 0 {
            self.heads[f] = 0;
            self.head_mask[node] &= !(1 << (port << 3 | vc));
        } else {
            self.heads[f] = head_summary(&self.fifo[f * cap + next]);
        }
        flit
    }

    /// The flits buffered in input FIFO `f`, front first.
    fn fifo_flits(&self, f: usize) -> impl Iterator<Item = &Flit> {
        let cap = self.cfg.vc_buffer;
        let head = self.fifo_head[f] as usize;
        (0..self.fifo_len[f] as usize).map(move |i| &self.fifo[f * cap + (head + i) % cap])
    }

    /// The slot of every link's delay line that holds the flit due this cycle.
    #[inline]
    fn due_slot(&self) -> usize {
        (self.now.as_u64() % self.link_cap as u64) as usize
    }

    /// Corrupts every flit crossing outgoing link `l = node * 4 + dir`.
    fn corrupt_in_link(&mut self, l: usize) {
        for flit in self.link[l * self.link_cap..][..self.link_cap]
            .iter_mut()
            .flatten()
        {
            flit.corrupt();
        }
    }

    // ------------------------------------------------------------------
    // Fault injection (the chaos plane's levers, also usable directly).
    // ------------------------------------------------------------------

    /// Installs a chaos plane; its schedule and random draws are applied
    /// at the start of every [`Noc::step`].
    pub fn install_fault_plane(&mut self, plane: FaultPlane) {
        self.fault_plane = Some(plane);
    }

    /// The installed chaos plane, if any.
    pub fn fault_plane(&self) -> Option<&FaultPlane> {
        self.fault_plane.as_ref()
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
    /// in [`NocStats::dropped_flushed`] / `dropped_unreachable`). Returns
    /// `false` if no such link exists (mesh edge).
    pub fn kill_link(&mut self, node: NodeId, dir: Direction) -> bool {
        if self.mesh.neighbor(node, dir).is_none() {
            return false;
        }
        let di = dir_index(dir);
        if self.dead_links[node.index()][di] {
            return true;
        }
        self.dead_links[node.index()][di] = true;
        self.stats.link_faults += 1;
        self.corrupt_in_link(node.index() * 4 + di);
        let old = std::mem::take(&mut self.routes);
        self.recompute_routes();
        self.flush_rerouted(&old);
        #[cfg(debug_assertions)]
        self.check_invariants();
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
        let until = self.now.as_u64() + cycles;
        let slot = &mut self.stall_until[node.index()];
        *slot = (*slot).max(until);
        self.stats.router_stalls += 1;
    }

    fn apply_fault_event(&mut self, ev: FaultEvent) {
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

    /// After a routing change, flushes packets the change would tear in
    /// half: any packet with a flit buffered (or in flight toward) a node
    /// whose next hop for that destination changed, and partially streamed
    /// NIC packets at sources whose route changed.
    fn flush_rerouted(&mut self, old_routes: &[u8]) {
        let n = self.mesh.nodes();
        let vcs = self.cfg.vcs;
        // (packet, table slot, destination now unreachable?) per affected flit.
        let mut doomed: Vec<(PacketId, u32, bool)> = Vec::new();
        // `Some(now unreachable?)` if the next hop at `at` toward `dst` changed.
        let rerouted = |at: usize, dst: NodeId| {
            let new = self.routes[at * n + dst.index()];
            (new != old_routes[at * n + dst.index()]).then_some(new == UNREACHABLE)
        };
        for f in 0..self.fifo_len.len() {
            for flit in self.fifo_flits(f) {
                let lost = rerouted(f / (PORTS * vcs), flit.dst);
                doomed.extend(lost.map(|lost| (flit.packet, flit.slot, lost)));
            }
        }
        for (l, slots) in self.link.chunks(self.link_cap).enumerate() {
            for flit in slots.iter().flatten() {
                // The flit will route next at the receiving neighbour.
                let lost = rerouted(self.nbr[l] as usize, flit.dst);
                doomed.extend(lost.map(|lost| (flit.packet, flit.slot, lost)));
            }
        }
        for (q, queue) in self.nic.iter().enumerate() {
            for e in queue {
                // A packet that has started streaming is split by a route
                // change. Unstarted packets survive any reroute except
                // losing their destination entirely.
                let lost = rerouted(q / vcs, e.dst).filter(|&lost| lost || e.next > 0);
                doomed.extend(lost.map(|lost| (e.pid, e.slot, lost)));
            }
        }
        doomed.sort_unstable_by_key(|&(pid, _, unreachable)| (pid.0, !unreachable));
        doomed.dedup_by_key(|&mut (pid, _, _)| pid);
        for (pid, slot, unreachable) in doomed {
            self.purge_packet(pid, slot);
            if unreachable {
                self.stats.dropped_unreachable += 1;
            } else {
                self.stats.dropped_flushed += 1;
            }
        }
    }

    /// Removes every trace of packet `pid` (table slot `slot`) from the
    /// network: buffered flits, wormhole locks it owns, link slots, its NIC
    /// entry and the table entry. Which `NocStats` drop counter it lands in
    /// is the caller's responsibility.
    fn purge_packet(&mut self, pid: PacketId, slot: u32) {
        let vcs = self.cfg.vcs;
        let cap = self.cfg.vc_buffer;
        for f in 0..self.fifo_len.len() {
            // Compact the ring in place, front first.
            let (head, len) = (self.fifo_head[f] as usize, self.fifo_len[f] as usize);
            let ring = &mut self.fifo[f * cap..][..cap];
            let mut kept = 0;
            for i in 0..len {
                let flit = ring[(head + i) % cap];
                if flit.packet != pid {
                    ring[(head + kept) % cap] = flit;
                    kept += 1;
                }
            }
            if kept != len {
                self.fifo_len[f] = kept as u8;
                let (node, port, vc) = (f / (PORTS * vcs), f / vcs % PORTS, f % vcs);
                if kept == 0 {
                    self.heads[f] = 0;
                    self.head_mask[node] &= !(1 << (port << 3 | vc));
                } else {
                    self.heads[f] = head_summary(&ring[head]);
                }
            }
            if self.lock_in[f] != NO_LOCK && self.lock_pkt[f] == pid {
                self.lock_in[f] = NO_LOCK;
            }
        }
        for (i, cell) in self.link.iter_mut().enumerate() {
            if let Some(flit) = cell.filter(|flit| flit.packet == pid) {
                *cell = None;
                let l = i / self.link_cap;
                self.link_vc[l * vcs + flit.vc as usize] -= 1;
                self.link_occ[l / 4] -= 1;
            }
        }
        for (q, queue) in self.nic.iter_mut().enumerate() {
            let before = queue.len();
            queue.retain(|e| e.pid != pid);
            self.nic_occ[q / vcs] -= before - queue.len();
        }
        let freed = self.packets.remove(slot);
        debug_assert!(
            freed.is_some_and(|e| e.id == pid),
            "purged packets are live"
        );
        self.dropped_in_flight += 1;
        #[cfg(debug_assertions)]
        self.check_invariants();
    }

    /// Checks the laws the flat representation must keep: credits, the
    /// allocator's head summary, the occupancy counters, packet-table
    /// liveness and message conservation. Runs under `debug_assertions`
    /// after every purge and link kill; tests call it after every step.
    ///
    /// # Panics
    ///
    /// Panics on the first violated law.
    pub fn check_invariants(&self) {
        let vcs = self.cfg.vcs;
        let live = |pid: PacketId, slot: u32| self.packets.get(slot).is_some_and(|e| e.id == pid);
        for f in 0..self.fifo_len.len() {
            let (node, port, vc) = (f / (PORTS * vcs), f / vcs % PORTS, f % vcs);
            assert!(
                self.fifo_len[f] as usize <= self.cfg.vc_buffer,
                "FIFO {f} overran its ring"
            );
            let front = self.fifo_flits(f).next();
            assert_eq!(
                self.heads[f],
                front.map_or(0, head_summary),
                "head summary of FIFO {f} disagrees with its ring"
            );
            assert_eq!(
                self.head_mask[node] >> (port << 3 | vc) & 1 == 1,
                front.is_some(),
                "head mask of FIFO {f} disagrees with its ring"
            );
            for flit in self.fifo_flits(f) {
                assert!(live(flit.packet, flit.slot), "FIFO {f} holds a dead flit");
                assert_eq!(flit.vc as usize, vc, "flit buffered on the wrong VC");
            }
            if self.lock_in[f] != NO_LOCK {
                let owner = self.lock_pkt[f];
                assert!(
                    self.packets.iter().any(|(_, e)| e.id == owner),
                    "lock {f} is held by dead packet {owner:?}"
                );
            }
        }
        for node in 0..self.mesh.nodes() {
            let mut on_links = 0;
            for (di, &in_port) in OPP_PORT.iter().enumerate() {
                let l = node * 4 + di;
                let mut per_vc = [0u8; MAX_VCS];
                for flit in self.link[l * self.link_cap..][..self.link_cap]
                    .iter()
                    .flatten()
                {
                    assert!(live(flit.packet, flit.slot), "link {l} carries a dead flit");
                    per_vc[flit.vc as usize] += 1;
                    on_links += 1;
                }
                assert_eq!(
                    per_vc[..vcs],
                    self.link_vc[l * vcs..][..vcs],
                    "link_vc[{l}]"
                );
                let nb = self.nbr[l] as usize;
                if nb == u16::MAX as usize {
                    assert_eq!(per_vc, [0; MAX_VCS], "flit on a mesh-edge link");
                    continue;
                }
                for (vc, &in_link) in per_vc[..vcs].iter().enumerate() {
                    let buffered = self.fifo_len[(nb * PORTS + in_port) * vcs + vc];
                    assert!(
                        (buffered + in_link) as usize <= self.cfg.vc_buffer,
                        "credits of link {l} vc {vc} overrun the downstream buffer"
                    );
                }
            }
            assert_eq!(on_links, self.link_occ[node], "link_occ[{node}]");
            let queues = &self.nic[node * vcs..][..vcs];
            let queued: usize = queues.iter().map(VecDeque::len).sum();
            assert_eq!(queued, self.nic_occ[node], "nic_occ[{node}]");
            for e in queues.iter().flatten() {
                assert!(live(e.pid, e.slot), "NIC {node} queues a dead packet");
                assert!(e.next < e.nflits, "NIC {node} kept a fully streamed packet");
            }
        }
        assert_eq!(
            self.stats.injected,
            self.stats.delivered + self.dropped_in_flight + self.pending() as u64,
            "message conservation"
        );
    }

    /// The no-progress valve: if packets are in flight but nothing has
    /// moved for [`DEADLOCK_WINDOW`] cycles, purge every packet in the
    /// table (a live packet always has its tail somewhere: unformed at the
    /// NIC, buffered or on a link). This converts a (detour-induced)
    /// routing deadlock into bounded, counted packet loss — an injected
    /// fault can never hang the NoC.
    fn check_progress_valve(&mut self) {
        if self.pending() == 0 {
            self.last_progress = self.stats.cycles;
            return;
        }
        if self.stats.cycles - self.last_progress <= DEADLOCK_WINDOW {
            return;
        }
        let wedged: Vec<(PacketId, u32)> = self.packets.iter().map(|(s, e)| (e.id, s)).collect();
        for (pid, slot) in wedged {
            self.purge_packet(pid, slot);
            self.stats.dropped_flushed += 1;
        }
        self.last_progress = self.stats.cycles;
    }

    fn link_is_down(&self, node: usize, di: usize) -> bool {
        self.dead_links[node][di] || self.link_down_until[node][di] > self.now.as_u64()
    }

    /// Advances the network by one cycle.
    pub fn step(&mut self) {
        self.now += 1;
        self.stats.cycles += 1;
        // Chaos first: this cycle's faults land before traffic moves.
        let mut plane = self.fault_plane.take();
        if let Some(p) = plane.as_mut() {
            for ev in p.step(self.now, &self.mesh) {
                self.apply_fault_event(ev);
            }
        }
        self.phase_link_arrivals();
        self.phase_allocate();
        let moves = std::mem::take(&mut self.moves_buf);
        self.phase_apply(&moves, plane.as_mut());
        self.moves_buf = moves;
        self.phase_inject();
        self.fault_plane = plane;
        self.check_progress_valve();
    }

    /// Skips ahead through provably idle cycles, up to and including
    /// `target`. While no packet is in flight every phase of
    /// [`Noc::step`] is a no-op, so the clock and cycle counter can jump
    /// in one go; an installed chaos plane is still stepped cycle-by-cycle
    /// (its RNG draws are part of the deterministic timeline) and its fault
    /// events land exactly when they would under dense ticking. Returns
    /// the cycle actually reached — always `target` unless traffic appears
    /// (it cannot, mid-skip, but the guard keeps the contract obvious).
    pub fn skip_idle_to(&mut self, target: Cycle) -> Cycle {
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

    fn phase_link_arrivals(&mut self) {
        let due = self.due_slot();
        let mut next = 0;
        while let Some(node) = next_busy(&self.link_occ, next, self.scans_every_node()) {
            next = node + 1;
            for (di, &in_port) in OPP_PORT.iter().enumerate() {
                let l = node * 4 + di;
                let Some(flit) = self.link[l * self.link_cap + due].take() else {
                    continue;
                };
                let vc = flit.vc as usize;
                self.link_occ[node] -= 1;
                self.link_vc[l * self.cfg.vcs + vc] -= 1;
                self.fifo_push(self.nbr[l] as usize, in_port, vc, flit);
                self.last_progress = self.stats.cycles;
            }
        }
    }

    /// Switch allocation: per output port, strict priority across VCs
    /// (lower class first), round-robin across input ports, wormhole lock
    /// and credit checks. At most one flit per output port per cycle.
    ///
    /// Candidate-driven: instead of scanning every `(out, vc, in)` triple,
    /// iterate the non-empty FIFO heads (the `head_mask` bitset), bucket
    /// them by the output port their destination routes to, and arbitrate
    /// only the demanded `(out, vc)` pairs. An `(out, vc)` with no buffered
    /// head routed to it can never produce a move, and the dense scan's
    /// skipped checks (credit, lock) have no side effects — so this visits
    /// exactly the triples that matter, in the same deterministic order.
    /// Fills `self.moves_buf`.
    fn phase_allocate(&mut self) {
        let mut moves = std::mem::take(&mut self.moves_buf);
        moves.clear();
        let n = self.mesh.nodes();
        let vcs = self.cfg.vcs;
        let vc_buffer = self.cfg.vc_buffer as u32;
        let now = self.now.as_u64();
        // `cand` entries are only read for `(out, vc)` pairs whose `demand`
        // bit was set this node, and setting that bit overwrites the entry —
        // so stale values from earlier nodes are never observed and the
        // buckets need no per-node clear.
        let mut cand = [[0u8; MAX_VCS]; PORTS];
        // A router with no buffered flits cannot source a move: every move
        // pops an input-FIFO head. Skipping it leaves `rr` and locks
        // untouched, which is what a dense scan would do too.
        // (`head_mask == 0` iff every input FIFO is empty.)
        let mut next = 0;
        while let Some(node) = next_busy(&self.head_mask, next, false) {
            next = node + 1;
            let mask = self.head_mask[node];
            if self.stall_until[node] > now {
                continue;
            }
            let hbase = node * PORTS * vcs;
            let rbase = node * n;
            // Fast path: one buffered head means at most one candidate move,
            // so the arbitration below (bucket, vc priority, round-robin)
            // degenerates to a single eligibility check.
            if mask & (mask - 1) == 0 {
                let bit = mask.trailing_zeros() as usize;
                let (port, vc) = (bit >> 3, bit & 7);
                let head = self.heads[hbase + port * vcs + vc];
                let out = self.routes[rbase + (head & H_DST) as usize];
                if out == UNREACHABLE {
                    continue;
                }
                let out_port = out as usize;
                if out_port != 0 {
                    let di = out_port - 1;
                    let nb = self.nbr[node * 4 + di] as usize;
                    let occupied = self.fifo_len[(nb * PORTS + OPP_PORT[di]) * vcs + vc] as u32;
                    let inflight = self.link_vc[(node * 4 + di) * vcs + vc] as u32;
                    if occupied + inflight >= vc_buffer {
                        continue;
                    }
                }
                let lock = self.lock_in[hbase + out_port * vcs + vc];
                let eligible = if lock == NO_LOCK {
                    head & H_HEADFLIT != 0
                } else {
                    lock as usize == port
                };
                if eligible {
                    moves.push(Move::new(node, port, vc, out_port));
                }
                continue;
            }
            // Bucket buffered heads by demanded output port. Routes only
            // ever point at existing links (XY and the BFS rebuild both
            // route over live topology), so no edge-existence check is
            // needed; `UNREACHABLE` heads match no output, as in the dense
            // scan where no `out_port` equals 255.
            let mut demand = [0u8; PORTS];
            let mut m = mask;
            while m != 0 {
                let bit = m.trailing_zeros() as usize;
                m &= m - 1;
                let (port, vc) = (bit >> 3, bit & 7);
                let dst = (self.heads[hbase + port * vcs + vc] & H_DST) as usize;
                let out = self.routes[rbase + dst];
                if out == UNREACHABLE {
                    continue;
                }
                let out = out as usize;
                let vbit = 1u8 << vc;
                if demand[out] & vbit == 0 {
                    demand[out] |= vbit;
                    cand[out][vc] = 1 << port;
                } else {
                    cand[out][vc] |= 1 << port;
                }
            }
            for (out_port, &dvc) in demand.iter().enumerate() {
                if dvc == 0 {
                    continue;
                }
                let rr = self.rr[node * PORTS + out_port] as usize;
                #[allow(clippy::needless_range_loop)] // `vc` indexes heads/fifo_len/link_vc too
                'found: for vc in 0..vcs {
                    if dvc & (1 << vc) == 0 {
                        continue;
                    }
                    // Credit check once per (out, vc).
                    if out_port != 0 {
                        let di = out_port - 1;
                        let nb = self.nbr[node * 4 + di] as usize;
                        let occupied = self.fifo_len[(nb * PORTS + OPP_PORT[di]) * vcs + vc] as u32;
                        let inflight = self.link_vc[(node * 4 + di) * vcs + vc] as u32;
                        if occupied + inflight >= vc_buffer {
                            continue;
                        }
                    }
                    let lock = self.lock_in[hbase + out_port * vcs + vc];
                    let cbits = cand[out_port][vc];
                    for k in 1..=PORTS {
                        let in_port = (rr + k) % PORTS;
                        if cbits & (1 << in_port) == 0 {
                            continue;
                        }
                        let eligible = if lock == NO_LOCK {
                            self.heads[hbase + in_port * vcs + vc] & H_HEADFLIT != 0
                        } else {
                            lock as usize == in_port
                        };
                        if !eligible {
                            continue;
                        }
                        moves.push(Move::new(node, in_port, vc, out_port));
                        break 'found;
                    }
                }
            }
        }
        self.moves_buf = moves;
    }

    fn phase_apply(&mut self, moves: &[Move], mut plane: Option<&mut FaultPlane>) {
        if !moves.is_empty() {
            self.last_progress = self.stats.cycles;
        }
        // A flit granted now is due `link_cap` cycles on: the slot this
        // cycle's arrivals just emptied.
        let due = self.due_slot();
        for m in moves {
            let (node, in_port) = (m.node as usize, m.in_port as usize);
            let (vc, out_port) = (m.vc as usize, m.out_port as usize);
            let mut flit = self.fifo_pop(node, in_port, vc);
            // Wormhole lock maintenance.
            let lock = (node * PORTS + out_port) * self.cfg.vcs + vc;
            if flit.is_tail {
                self.lock_in[lock] = NO_LOCK;
            } else if flit.is_head {
                self.lock_in[lock] = in_port as u8;
                self.lock_pkt[lock] = flit.packet;
            }
            self.rr[node * PORTS + out_port] = in_port as u8;

            if out_port == Port::Local.index() {
                self.eject(node, flit);
            } else {
                let di = out_port - 1;
                // One corruption roll per link traversal (fixed RNG
                // consumption), plus deterministic corruption on downed
                // links. `corrupt` is idempotent, so a doubly-faulted hop
                // is still detected.
                let rolled = plane.as_deref_mut().is_some_and(|p| p.corrupt_roll());
                if rolled || self.link_is_down(node, di) {
                    flit.corrupt();
                }
                let l = node * 4 + di;
                let cell = &mut self.link[l * self.link_cap + due];
                debug_assert!(cell.is_none(), "one flit per link per cycle");
                *cell = Some(flit);
                self.link_vc[l * self.cfg.vcs + vc] += 1;
                self.link_occ[node] += 1;
                self.link_flits[node][di] += 1;
                self.stats.flit_hops += 1;
            }
        }
    }

    fn eject(&mut self, node: usize, flit: Flit) {
        self.stats.flits_ejected += 1;
        let intact = flit.checksum_ok();
        if !intact {
            self.stats.corrupted_flits += 1;
        }
        debug_assert_eq!(flit.dst.index(), node, "misrouted flit");
        let entry = self
            .packets
            .get_mut(flit.slot)
            .expect("a flit names a live packet");
        debug_assert_eq!(entry.id, flit.packet, "flit names another packet's slot");
        // A single damaged flit poisons the whole packet: nothing of it is
        // delivered, and the drop is accounted once the tail arrives.
        entry.poisoned |= !intact;
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
    /// flit per node per cycle, highest-priority class first.
    fn phase_inject(&mut self) {
        let local = Port::Local.index();
        let vcs = self.cfg.vcs;
        let mut next = 0;
        while let Some(node) = next_busy(&self.nic_occ, next, self.scans_every_node()) {
            next = node + 1;
            for vc in 0..vcs {
                if self.fifo_len[(node * PORTS + local) * vcs + vc] as usize >= self.cfg.vc_buffer {
                    continue;
                }
                let queue = &mut self.nic[node * vcs + vc];
                let Some(e) = queue.front_mut() else {
                    continue;
                };
                let flit = Flit::form(e.pid, e.slot, e.dst, vc as u8, e.next, e.nflits);
                e.next += 1;
                if e.next == e.nflits {
                    queue.pop_front();
                    self.nic_occ[node] -= 1;
                }
                self.fifo_push(node, local, vc, flit);
                self.last_progress = self.stats.cycles;
                break; // One flit per node per cycle.
            }
        }
    }
}

/// The active-set scan: the first node at or after `from` whose entry in
/// `occ` (an occupancy counter or head mask) is non-zero, or simply `from`
/// when `every_node` is set. A slice search compiles to a tight loop, so an
/// idle node costs a fraction of a nanosecond.
#[inline]
fn next_busy<T: Default + PartialEq>(occ: &[T], from: usize, every_node: bool) -> Option<usize> {
    let idle = T::default();
    let off = occ[from..].iter().position(|o| every_node || *o != idle)?;
    Some(from + off)
}

/// The `heads` entry of a FIFO whose front flit is `flit`.
#[inline]
fn head_summary(flit: &Flit) -> u16 {
    H_PRESENT | if flit.is_head { H_HEADFLIT } else { 0 } | flit.dst.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::TrafficClass;

    fn msg(src: u16, dst: u16, bytes: usize) -> Message {
        Message::new(
            NodeId(src),
            NodeId(dst),
            TrafficClass::Request,
            vec![0xAB; bytes],
        )
    }

    #[test]
    fn single_message_crosses_mesh() {
        let mut noc = Noc::new(NocConfig::soft(4, 4));
        noc.try_inject(NodeId(0), msg(0, 15, 32)).expect("space");
        assert!(noc.run_until_quiescent(10_000));
        let d = noc.poll_eject(NodeId(15)).expect("delivered");
        assert_eq!(d.msg.src, NodeId(0));
        assert_eq!(d.msg.payload.len(), 32);
        assert!(d.latency() > 0);
    }

    #[test]
    fn loopback_delivery() {
        let mut noc = Noc::new(NocConfig::soft(2, 2));
        noc.try_inject(NodeId(3), msg(3, 3, 8)).expect("space");
        assert!(noc.run_until_quiescent(1_000));
        assert!(noc.poll_eject(NodeId(3)).is_some());
    }

    #[test]
    fn src_forgery_rejected() {
        let mut noc = Noc::new(NocConfig::soft(2, 2));
        assert_eq!(
            noc.try_inject(NodeId(0), msg(1, 2, 8)),
            Err(InjectError::SrcMismatch)
        );
    }

    #[test]
    fn bad_destination_rejected() {
        let mut noc = Noc::new(NocConfig::soft(2, 2));
        assert_eq!(
            noc.try_inject(NodeId(0), msg(0, 99, 8)),
            Err(InjectError::BadDestination)
        );
    }

    #[test]
    fn queue_fills_and_backpressures() {
        let mut noc = Noc::new(NocConfig::soft(2, 2));
        let q = noc.config().inject_queue;
        for _ in 0..q {
            noc.try_inject(NodeId(0), msg(0, 3, 8)).expect("space");
        }
        assert_eq!(
            noc.try_inject(NodeId(0), msg(0, 3, 8)),
            Err(InjectError::QueueFull)
        );
        assert_eq!(noc.stats().rejected, 1);
    }

    #[test]
    fn latency_grows_with_distance() {
        let cfg = NocConfig::soft(8, 1);
        let mut near = Noc::new(cfg);
        near.try_inject(NodeId(0), msg(0, 1, 8)).expect("space");
        near.run_until_quiescent(1_000);
        let near_lat = near.poll_eject(NodeId(1)).expect("delivered").latency();

        let mut far = Noc::new(cfg);
        far.try_inject(NodeId(0), msg(0, 7, 8)).expect("space");
        far.run_until_quiescent(1_000);
        let far_lat = far.poll_eject(NodeId(7)).expect("delivered").latency();
        assert!(far_lat > near_lat, "{far_lat} !> {near_lat}");
    }

    #[test]
    fn large_message_latency_scales_with_flits() {
        let cfg = NocConfig::soft(4, 4);
        let mut a = Noc::new(cfg);
        a.try_inject(NodeId(0), msg(0, 15, 16)).expect("space");
        a.run_until_quiescent(10_000);
        let small = a.poll_eject(NodeId(15)).expect("delivered").latency();

        let mut b = Noc::new(cfg);
        b.try_inject(NodeId(0), msg(0, 15, 1024)).expect("space");
        b.run_until_quiescent(10_000);
        let big = b.poll_eject(NodeId(15)).expect("delivered").latency();
        // 1024 B at 16 B/flit is ~64 more flits of serialisation.
        assert!(big >= small + 60, "big={big} small={small}");
    }

    #[test]
    fn many_messages_all_deliver_exactly_once() {
        let mut noc = Noc::new(NocConfig::soft(4, 4));
        let n = noc.mesh().nodes() as u16;
        let mut sent = 0u64;
        // Every node sends to every other node, paced by queue capacity.
        for round in 0..4 {
            for s in 0..n {
                let d = (s + 1 + round) % n;
                if noc.try_inject(NodeId(s), msg(s, d, 40)).is_ok() {
                    sent += 1;
                }
            }
            for _ in 0..50 {
                noc.step();
                noc.check_invariants();
            }
        }
        assert!(noc.run_until_quiescent(100_000));
        noc.check_invariants();
        let total: u64 = (0..n)
            .map(|i| noc.drain_eject(NodeId(i)).len() as u64)
            .sum();
        assert_eq!(total, sent);
        assert_eq!(noc.stats().delivered, sent);
    }

    #[test]
    fn per_source_fifo_order_within_class() {
        let mut noc = Noc::new(NocConfig::soft(4, 1));
        // Tag messages with a sequence number in the payload.
        for i in 0..6u8 {
            let mut m = msg(0, 3, 24);
            m.payload.make_mut()[0] = i;
            m.tag = i as u64;
            noc.try_inject(NodeId(0), m).expect("space");
        }
        assert!(noc.run_until_quiescent(10_000));
        let got = noc.drain_eject(NodeId(3));
        let tags: Vec<u64> = got.iter().map(|d| d.msg.tag).collect();
        assert_eq!(tags, vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn control_class_beats_bulk_under_load() {
        let mut noc = Noc::new(NocConfig::soft(8, 1));
        // Saturate the path 0 -> 7 with bulk traffic.
        for _ in 0..8 {
            let mut m = msg(0, 7, 512);
            m.class = TrafficClass::Bulk;
            let _ = noc.try_inject(NodeId(0), m);
        }
        // Let bulk get going.
        for _ in 0..20 {
            noc.step();
        }
        // Now a control message on the same path.
        let mut c = msg(0, 7, 16);
        c.class = TrafficClass::Control;
        c.tag = 777;
        noc.try_inject(NodeId(0), c).expect("space");
        assert!(noc.run_until_quiescent(100_000));
        let got = noc.drain_eject(NodeId(7));
        let ctrl = got.iter().find(|d| d.msg.tag == 777).expect("delivered");
        let bulk_max = got
            .iter()
            .filter(|d| d.msg.class == TrafficClass::Bulk)
            .map(|d| d.delivered_at)
            .max()
            .expect("bulk delivered");
        // Control overtakes at least the tail of the bulk burst.
        assert!(ctrl.delivered_at < bulk_max);
    }

    #[test]
    fn hardened_noc_is_faster() {
        let mut soft = Noc::new(NocConfig::soft(8, 8));
        soft.try_inject(NodeId(0), msg(0, 63, 256)).expect("space");
        soft.run_until_quiescent(100_000);
        let s = soft.poll_eject(NodeId(63)).expect("delivered").latency();

        let mut hard = Noc::new(NocConfig::hardened(8, 8));
        hard.try_inject(NodeId(0), msg(0, 63, 256)).expect("space");
        hard.run_until_quiescent(100_000);
        let h = hard.poll_eject(NodeId(63)).expect("delivered").latency();
        assert!(h < s, "hardened {h} !< soft {s}");
    }

    #[test]
    fn stats_counters_consistent() {
        let mut noc = Noc::new(NocConfig::soft(3, 3));
        for s in 0..9u16 {
            let _ = noc.try_inject(NodeId(s), msg(s, (s + 4) % 9, 64));
        }
        assert!(noc.run_until_quiescent(50_000));
        let st = noc.stats();
        assert_eq!(st.injected, st.delivered);
        assert_eq!(st.latency.count(), st.delivered);
        assert!(st.flits_ejected >= st.delivered);
        assert_eq!(noc.pending(), 0);
    }
}

#[cfg(test)]
mod fault_tests {
    use super::*;
    use crate::fault::{FaultPlane, FaultPlaneConfig};
    use crate::packet::TrafficClass;

    fn msg(src: u16, dst: u16, bytes: usize) -> Message {
        Message::new(
            NodeId(src),
            NodeId(dst),
            TrafficClass::Request,
            vec![0xAB; bytes],
        )
    }

    #[test]
    fn transient_outage_drops_and_counts_instead_of_delivering() {
        let mut noc = Noc::new(NocConfig::soft(4, 1));
        // Take the 0->1 link down for longer than the whole transfer.
        noc.fail_link_for(NodeId(0), Direction::East, 10_000);
        noc.try_inject(NodeId(0), msg(0, 3, 64)).expect("space");
        assert!(noc.run_until_quiescent(100_000));
        assert!(noc.poll_eject(NodeId(3)).is_none(), "must not deliver");
        let st = noc.stats();
        assert_eq!(st.dropped_corrupt, 1);
        assert!(st.corrupted_flits > 0);
        assert_eq!(st.delivered, 0);
        assert_eq!(noc.pending(), 0);
    }

    #[test]
    fn outage_heals_and_traffic_resumes() {
        let mut noc = Noc::new(NocConfig::soft(4, 1));
        noc.fail_link_for(NodeId(0), Direction::East, 50);
        for _ in 0..60 {
            noc.step();
        }
        noc.try_inject(NodeId(0), msg(0, 3, 64)).expect("space");
        assert!(noc.run_until_quiescent(100_000));
        assert!(noc.poll_eject(NodeId(3)).is_some(), "healed link delivers");
        assert_eq!(noc.stats().dropped(), 0);
    }

    #[test]
    fn permanent_kill_detours_around_the_dead_link() {
        // 4x4 mesh: kill 0->East; XY route 0->3 would use it. A detour
        // through row 1 must deliver intact (checksum passes: the packet
        // never touches the dead link).
        let mut noc = Noc::new(NocConfig::soft(4, 4));
        assert!(noc.kill_link(NodeId(0), Direction::East));
        assert!(noc.reachable(NodeId(0), NodeId(3)));
        noc.try_inject(NodeId(0), msg(0, 3, 64)).expect("space");
        assert!(noc.run_until_quiescent(100_000));
        let d = noc.poll_eject(NodeId(3)).expect("detoured delivery");
        assert_eq!(d.msg.payload.len(), 64);
        assert_eq!(noc.stats().dropped(), 0);
    }

    #[test]
    fn cut_off_node_reports_unreachable() {
        // 2x1 mesh: killing both directions of the only link partitions it.
        let mut noc = Noc::new(NocConfig::soft(2, 1));
        assert!(noc.kill_link(NodeId(0), Direction::East));
        assert!(noc.kill_link(NodeId(1), Direction::West));
        assert!(!noc.reachable(NodeId(0), NodeId(1)));
        assert_eq!(
            noc.try_inject(NodeId(0), msg(0, 1, 8)),
            Err(InjectError::Unreachable)
        );
        // Loopback still works.
        assert!(noc.reachable(NodeId(0), NodeId(0)));
        noc.try_inject(NodeId(0), msg(0, 0, 8)).expect("loopback");
        assert!(noc.run_until_quiescent(1_000));
    }

    #[test]
    fn kill_mid_flight_never_hangs() {
        let mut noc = Noc::new(NocConfig::soft(4, 4));
        for s in 0..16u16 {
            let _ = noc.try_inject(NodeId(s), msg(s, (s + 7) % 16, 400));
        }
        for _ in 0..10 {
            noc.step();
        }
        // Sever several links while packets are streaming.
        noc.kill_link(NodeId(1), Direction::East);
        noc.kill_link(NodeId(2), Direction::West);
        noc.kill_link(NodeId(5), Direction::North);
        for _ in 0..1_000_000 {
            if noc.pending() == 0 {
                break;
            }
            noc.step();
            noc.check_invariants();
        }
        assert_eq!(noc.pending(), 0, "network must always drain");
        let st = noc.stats();
        assert_eq!(st.delivered + st.dropped(), st.injected);
    }

    #[test]
    #[should_panic(expected = "u32::MAX flits")]
    fn packet_longer_than_the_nic_entry_counts_rejected() {
        let mut noc = Noc::new(NocConfig {
            flit_bytes: 1,
            header_bytes: u32::MAX as usize + 1,
            ..NocConfig::soft(2, 2)
        });
        let _ = noc.try_inject(NodeId(0), msg(0, 3, 0));
    }

    /// Uniform random load on a 4x4: per node per cycle, one 5-flit message
    /// with probability `rate`.
    fn offer_uniform(noc: &mut Noc, rng: &mut apiary_sim::SimRng, rate: f64) {
        for src in 0..16u64 {
            if rng.gen_bool(rate) {
                let dst = (src + 1 + rng.gen_range(15)) % 16;
                let _ = noc.try_inject(NodeId(src as u16), msg(src as u16, dst as u16, 64));
            }
        }
    }

    /// Steps once, checks every law, and returns the tags delivered.
    fn step_checked(noc: &mut Noc) -> Vec<u64> {
        noc.step();
        noc.check_invariants();
        (0..noc.mesh().nodes() as u16)
            .flat_map(|n| noc.drain_eject(NodeId(n)))
            .map(|d| d.msg.tag)
            .collect()
    }

    #[test]
    fn link_kill_on_wrapped_rings_keeps_every_law() {
        let mut noc = Noc::new(NocConfig::soft(4, 4));
        let mut rng = apiary_sim::SimRng::new(3);
        let mut handed_out = 0u64;
        // Load until the rings have wrapped: a front that moved off slot 0
        // has been all the way round or is on its way.
        for _ in 0..2_000 {
            offer_uniform(&mut noc, &mut rng, 0.15);
            handed_out += step_checked(&mut noc).len() as u64;
        }
        let wrapped = noc.fifo_head.iter().filter(|&&h| h != 0).count();
        assert!(wrapped >= 40, "only {wrapped} rings sit off slot 0");
        // Stop on a cycle with a flit on the doomed link, a buffered flit
        // that will reroute, and a partially streamed packet in a NIC.
        let doomed = NodeId(5).index() * 4 + dir_index(Direction::East);
        let ready = |noc: &Noc| {
            noc.link[doomed * noc.link_cap..][..noc.link_cap]
                .iter()
                .any(Option::is_some)
                && noc.nic.iter().flatten().any(|e| e.next > 0)
        };
        while !ready(&noc) {
            offer_uniform(&mut noc, &mut rng, 0.15);
            handed_out += step_checked(&mut noc).len() as u64;
            assert!(noc.stats().cycles < 10_000, "load never reached the link");
        }
        let before = noc.stats().dropped();
        assert!(noc.kill_link(NodeId(5), Direction::East));
        noc.check_invariants();
        assert!(noc.stats().dropped() > before, "the kill flushes packets");
        // Traffic keeps flowing while the rest drains; then one message
        // whose XY route was the dead link must arrive over the detour.
        for _ in 0..500 {
            offer_uniform(&mut noc, &mut rng, 0.05);
            handed_out += step_checked(&mut noc).len() as u64;
        }
        let mut late = msg(5, 6, 64);
        late.tag = 4242;
        noc.try_inject(NodeId(5), late).expect("space");
        let mut late_arrivals = 0;
        while noc.pending() > 0 {
            let tags = step_checked(&mut noc);
            handed_out += tags.len() as u64;
            late_arrivals += tags.iter().filter(|&&t| t == 4242).count();
            assert!(noc.stats().cycles < 1_000_000, "network must always drain");
        }
        assert_eq!(
            late_arrivals, 1,
            "the detoured message arrives exactly once"
        );
        let st = noc.stats();
        assert_eq!(st.delivered, handed_out, "each delivery is handed out once");
        assert_eq!(st.delivered + st.dropped(), st.injected);
    }

    #[test]
    fn no_progress_valve_purges_a_wedged_mesh() {
        // Stall every router for longer than the valve's window: nothing
        // can move, so the valve must purge what is buffered, leave every
        // law intact, and let fresh traffic through once the stalls lift.
        let mut noc = Noc::new(NocConfig::soft(4, 4));
        let mut rng = apiary_sim::SimRng::new(5);
        for _ in 0..200 {
            offer_uniform(&mut noc, &mut rng, 0.15);
            step_checked(&mut noc);
        }
        assert!(noc.fifo_len.iter().any(|&l| l > 0) && noc.link_occ.iter().any(|&l| l > 0));
        for n in 0..16u16 {
            noc.stall_router(NodeId(n), 3 * DEADLOCK_WINDOW);
        }
        let wedged = noc.pending() as u64;
        assert!(wedged > 0);
        let before = noc.stats().clone();
        for _ in 0..DEADLOCK_WINDOW + 16 {
            step_checked(&mut noc);
        }
        let after = noc.stats().clone();
        assert_eq!(noc.pending(), 0, "the valve empties the network");
        // Flits already on a link still arrive and may eject; everything
        // else that was in flight is flushed and counted.
        let flushed = after.dropped_flushed - before.dropped_flushed;
        assert_eq!(flushed, wedged - (after.delivered - before.delivered));
        assert!(flushed > 0);
        assert!(noc.head_mask.iter().all(|&m| m == 0) && noc.fifo_len.iter().all(|&l| l == 0));
        assert!(noc.lock_in.iter().all(|&l| l == NO_LOCK));
        // Once the stalls lift the mesh carries traffic again.
        for _ in 0..3 * DEADLOCK_WINDOW {
            noc.step();
        }
        noc.try_inject(NodeId(0), msg(0, 15, 64)).expect("space");
        while noc.pending() > 0 {
            step_checked(&mut noc);
        }
        assert_eq!(noc.stats().delivered, after.delivered + 1);
    }

    #[test]
    fn golden_chaos_run_matches_the_parent_commit() {
        // Fixed-seed uniform load (the `noc_uniform` shape) on an 8x8 under
        // a busy chaos plane plus one scripted link death. Every expected
        // value was captured on the commit before the flat layout, so a
        // slip in ring, delay-line or packet-table indexing fails here.
        use crate::fault::FaultEvent;
        let run = |active: bool| {
            let mut plane = FaultPlane::new(FaultPlaneConfig::with_rate(2024, 0.01));
            plane.schedule(
                Cycle(5_000),
                FaultEvent::LinkDown {
                    node: NodeId(27),
                    dir: Direction::East,
                    heal_after: None,
                },
            );
            let mut noc = Noc::new(NocConfig::soft(8, 8));
            noc.dense_scan = !active;
            noc.install_fault_plane(plane);
            let mut rng = apiary_sim::SimRng::new(7);
            for _ in 0..20_000 {
                for src in 0..64u64 {
                    if rng.gen_bool(0.08) {
                        let dst = (src + 1 + rng.gen_range(63)) % 64;
                        let bytes = if rng.gen_bool(0.2) { 64 } else { 8 };
                        let _ =
                            noc.try_inject(NodeId(src as u16), msg(src as u16, dst as u16, bytes));
                    }
                }
                step_checked(&mut noc);
            }
            let st = noc.stats();
            assert_eq!(
                noc.fault_plane()
                    .expect("installed")
                    .stats()
                    .corrupted_flits,
                105
            );
            [
                st.injected,
                st.delivered,
                st.rejected,
                st.flit_hops,
                st.flits_ejected,
                st.cycles,
                st.corrupted_flits,
                st.dropped_corrupt,
                st.dropped_unreachable,
                st.dropped_flushed,
                st.link_faults,
                st.router_stalls,
                st.latency.count(),
                st.latency.p50(),
                st.latency.p99(),
                noc.pending() as u64,
            ]
        };
        let golden = [
            42_658, 38_558, 59_782, 553_820, 105_304, 20_000, 4_837, 1_935, 0, 1_443, 206, 102,
            38_558, 27, 768, 722,
        ];
        assert_eq!(run(true), golden, "active-set scan");
        assert_eq!(run(false), golden, "every-node scan");
    }

    #[test]
    fn router_stall_delays_but_delivers() {
        let mut base = Noc::new(NocConfig::soft(4, 1));
        base.try_inject(NodeId(0), msg(0, 3, 64)).expect("space");
        base.run_until_quiescent(10_000);
        let unstalled = base.poll_eject(NodeId(3)).expect("delivered").latency();

        let mut noc = Noc::new(NocConfig::soft(4, 1));
        noc.stall_router(NodeId(1), 300);
        noc.try_inject(NodeId(0), msg(0, 3, 64)).expect("space");
        assert!(noc.run_until_quiescent(100_000));
        let stalled = noc.poll_eject(NodeId(3)).expect("delivered").latency();
        assert!(
            stalled >= unstalled + 250,
            "stalled={stalled} unstalled={unstalled}"
        );
        assert_eq!(noc.stats().dropped(), 0);
    }

    #[test]
    fn chaos_plane_runs_are_deterministic() {
        let run = |seed: u64| {
            let mut noc = Noc::new(NocConfig::soft(4, 4));
            noc.install_fault_plane(FaultPlane::new(FaultPlaneConfig::with_rate(seed, 0.02)));
            let mut delivered_tags = Vec::new();
            for round in 0..400u64 {
                for s in 0..16u16 {
                    let mut m = msg(s, ((s as u64 + round) % 16) as u16, 48);
                    m.tag = round << 16 | s as u64;
                    let _ = noc.try_inject(NodeId(s), m);
                }
                for _ in 0..8 {
                    noc.step();
                }
                for n in 0..16u16 {
                    for d in noc.drain_eject(NodeId(n)) {
                        delivered_tags.push(d.msg.tag);
                    }
                }
            }
            assert!(noc.run_until_quiescent(2_000_000), "chaos must not hang");
            for n in 0..16u16 {
                for d in noc.drain_eject(NodeId(n)) {
                    delivered_tags.push(d.msg.tag);
                }
            }
            let st = noc.stats().clone();
            assert_eq!(st.delivered + st.dropped(), st.injected);
            (
                delivered_tags,
                st.delivered,
                st.dropped(),
                st.corrupted_flits,
            )
        };
        let a = run(11);
        let b = run(11);
        assert_eq!(a, b, "same seed, same chaos run");
        let c = run(12);
        assert_ne!(a.0, c.0, "different seed, different run");
        assert!(a.2 > 0, "a 2% plane must actually drop something");
        assert!(a.1 > 0, "most traffic still gets through");
    }

    #[test]
    fn active_set_is_bit_identical_to_dense_scan() {
        // Same chaotic workload with the active-set optimisation on and
        // off: the delivered tag stream, delivery timestamps and every
        // counter must agree exactly (the skipped nodes had no work).
        let run = |active: bool| {
            let mut noc = Noc::new(NocConfig::soft(4, 4));
            noc.dense_scan = !active;
            noc.install_fault_plane(FaultPlane::new(FaultPlaneConfig::with_rate(77, 0.02)));
            let mut delivered = Vec::new();
            for round in 0..300u64 {
                for s in 0..16u16 {
                    // Leave most nodes idle most rounds so skipping matters.
                    if (round + s as u64).is_multiple_of(5) {
                        let mut m = msg(s, ((s as u64 + round) % 16) as u16, 48);
                        m.tag = round << 16 | s as u64;
                        let _ = noc.try_inject(NodeId(s), m);
                    }
                }
                for _ in 0..8 {
                    noc.step();
                }
                for n in 0..16u16 {
                    for d in noc.drain_eject(NodeId(n)) {
                        delivered.push((d.msg.tag, d.delivered_at.as_u64()));
                    }
                }
            }
            assert!(noc.run_until_quiescent(2_000_000));
            for n in 0..16u16 {
                for d in noc.drain_eject(NodeId(n)) {
                    delivered.push((d.msg.tag, d.delivered_at.as_u64()));
                }
            }
            let st = noc.stats().clone();
            (
                delivered,
                st.delivered,
                st.dropped(),
                st.corrupted_flits,
                st.flit_hops,
                st.latency.p50(),
                st.latency.p99(),
            )
        };
        let on = run(true);
        let off = run(false);
        assert_eq!(on, off, "active-set scheduling must not change behaviour");
    }

    #[test]
    fn active_set_survives_purges_and_reroutes() {
        // purge_packet rebuilds the occupancy counters; a kill mid-flight
        // exercises that path. The run must still drain and stay accounted.
        let run = |active: bool| {
            let mut noc = Noc::new(NocConfig::soft(4, 4));
            noc.dense_scan = !active;
            for s in 0..16u16 {
                let _ = noc.try_inject(NodeId(s), msg(s, (s + 7) % 16, 400));
            }
            for _ in 0..10 {
                noc.step();
            }
            noc.kill_link(NodeId(1), Direction::East);
            noc.kill_link(NodeId(5), Direction::North);
            assert!(noc.run_until_quiescent(1_000_000));
            let st = noc.stats().clone();
            assert_eq!(st.delivered + st.dropped(), st.injected);
            let tags: Vec<u64> = (0..16u16)
                .flat_map(|n| noc.drain_eject(NodeId(n)))
                .map(|d| d.msg.tag)
                .collect();
            (tags, st.delivered, st.dropped(), st.flit_hops)
        };
        assert_eq!(run(true), run(false));
    }
}

#[cfg(test)]
mod link_stats_tests {
    use super::*;
    use crate::packet::TrafficClass;

    #[test]
    fn link_utilization_sums_to_flit_hops() {
        let mut noc = Noc::new(NocConfig::soft(4, 4));
        for s in 0..16u16 {
            let d = (s + 5) % 16;
            if s == d {
                continue;
            }
            let _ = noc.try_inject(
                NodeId(s),
                Message::new(NodeId(s), NodeId(d), TrafficClass::Request, vec![0; 100]),
            );
        }
        assert!(noc.run_until_quiescent(100_000));
        let cycles = noc.stats().cycles as f64;
        let total: f64 = noc
            .link_utilization()
            .iter()
            .map(|(_, _, u)| u * cycles)
            .sum();
        assert_eq!(total.round() as u64, noc.stats().flit_hops);
    }

    #[test]
    fn hot_path_shows_up_in_utilization() {
        let mut noc = Noc::new(NocConfig::soft(4, 1));
        // Stream 0 -> 3 along the row.
        for _ in 0..8 {
            let _ = noc.try_inject(
                NodeId(0),
                Message::new(NodeId(0), NodeId(3), TrafficClass::Bulk, vec![0; 512]),
            );
        }
        assert!(noc.run_until_quiescent(100_000));
        let hot = noc.link_utilization();
        // The hottest links are the eastward hops of the stream.
        let (node, dir, util) = hot[0];
        assert_eq!(dir, Direction::East);
        assert!(node == NodeId(0) || node == NodeId(1) || node == NodeId(2));
        assert!(util > 0.1, "{util}");
        // Edge links (mesh boundary) never appear.
        assert!(hot
            .iter()
            .all(|(n, d, _)| noc.mesh().neighbor(*n, *d).is_some()));
    }

    #[test]
    fn congestion_render_has_grid_shape() {
        let mut noc = Noc::new(NocConfig::soft(3, 2));
        let _ = noc.try_inject(
            NodeId(0),
            Message::new(NodeId(0), NodeId(5), TrafficClass::Request, vec![0; 64]),
        );
        noc.run_until_quiescent(10_000);
        let s = noc.render_congestion();
        assert_eq!(s.lines().count(), 2);
        assert!(s.contains('%'));
    }
}
