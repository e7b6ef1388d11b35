//! The NoC engine: wiring, cycle advancement, switching, injection and
//! ejection.

use crate::config::NocConfig;
use crate::fault::{FaultEvent, FaultPlane};
use crate::packet::{packetize, Delivered, Flit, FlitKind, Message, PacketId};
use crate::router::{LockOwner, Router, PORTS};
use crate::topology::{Direction, Mesh, NodeId, Port};
use apiary_sim::{Cycle, FxHashMap, FxHashSet, Histogram};
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
    /// Mean delivered throughput in flits per cycle (ejection side).
    pub fn throughput_flits_per_cycle(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.flits_ejected as f64 / self.cycles as f64
        }
    }

    /// Packets lost to faults, all causes.
    pub fn dropped(&self) -> u64 {
        self.dropped_corrupt + self.dropped_unreachable + self.dropped_flushed
    }
}

/// One switch decision: move the head flit of `(node, in_port, vc)` to
/// `out_port`.
#[derive(Debug, Clone, Copy)]
struct Move {
    node: usize,
    in_port: usize,
    vc: usize,
    out_port: usize,
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
    routers: Vec<Router>,
    /// `links[node][dir]`: flits in flight toward `neighbor(node, dir)`,
    /// as (arrival cycle, flit) in FIFO order.
    links: Vec<[VecDeque<(Cycle, Flit)>; 4]>,
    /// Injection queues: `nic[node][vc]` holds packetised messages.
    nic: Vec<Vec<VecDeque<VecDeque<Flit>>>>,
    /// Inject timestamp per in-flight packet.
    inject_time: FxHashMap<u64, Cycle>,
    /// Head-flit messages awaiting their tail at the destination.
    reassembly: FxHashMap<u64, Box<Message>>,
    /// Delivered messages awaiting pickup, per node.
    eject_q: Vec<VecDeque<Delivered>>,
    /// Total messages across all eject queues — lets the event clock ask
    /// "does any tile have mail?" without scanning every node.
    rx_pending: usize,
    next_packet: u64,
    in_flight: usize,
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
    /// Packets detected corrupt at the destination, awaiting their tail so
    /// the whole packet can be dropped.
    rx_poisoned: FxHashSet<u64>,
    /// Optional chaos plane driving random fault injection.
    fault_plane: Option<FaultPlane>,
    /// `stats.cycles` value at which a flit last moved anywhere; feeds the
    /// no-progress valve that guarantees injected faults never deadlock the
    /// network.
    last_progress: u64,
    /// Makes the per-cycle phases scan every node, for the tests that pin
    /// active-set scheduling to that reference (see
    /// [`Noc::skips_idle_nodes`]).
    #[cfg(test)]
    dense_scan: bool,
    /// Flits buffered in each node's router input FIFOs (all ports, VCs).
    router_occ: Vec<usize>,
    /// Flits in flight on each node's outgoing links (all four directions).
    link_occ: Vec<usize>,
    /// Packets queued in each node's NIC (all VCs).
    nic_occ: Vec<usize>,
    // ------------------------------------------------------------------
    // Flat shadow state for the switch-allocation fast path. The router
    // FIFOs above stay the source of truth; these mirrors are maintained
    // at every push/pop so the per-cycle allocator reads only small,
    // cache-resident arrays instead of chasing VecDeque heads. Profiling
    // put `phase_allocate` at ~73% of NoC time before this.
    // ------------------------------------------------------------------
    /// Per-node neighbour table, `nbr[node * 4 + dir]`, `u16::MAX` at mesh
    /// edges. Mesh geometry is static, so this never changes.
    nbr: Vec<u16>,
    /// Head-of-FIFO summary, `heads[(node * 5 + port) * vcs + vc]`: packed
    /// presence/head-flit flags and destination (see `H_PRESENT`). The
    /// arrays are sized exactly (stride `vcs`, not a power of two) so the
    /// whole shadow state stays L1-resident.
    heads: Vec<u16>,
    /// Per-node bitset over `(port << 3) | vc` of non-empty input FIFOs.
    head_mask: Vec<u64>,
    /// Input FIFO depths, same indexing as `heads` — O(1) credit checks.
    fifo_len: Vec<u8>,
    /// In-flight flits per `(node, dir, vc)`, `[(node * 4 + dir) * vcs + vc]`
    /// — the link half of the credit computation.
    link_vc: Vec<u8>,
    /// Wormhole lock shadow, same indexing as `heads` over *output* ports:
    /// the owning input port, or `NO_LOCK`.
    lock_shadow: Vec<u8>,
    /// Round-robin pointer shadow, `[node * 5 + out_port]`.
    rr_shadow: Vec<u8>,
    /// Reused per-step move list (avoids a per-cycle allocation).
    moves_buf: Vec<Move>,
}

/// `heads` encoding: entry is valid (FIFO non-empty).
const H_PRESENT: u16 = 1 << 15;
/// `heads` encoding: the front flit is a head flit.
const H_HEADFLIT: u16 = 1 << 14;
/// `heads` encoding: destination node id (14 bits).
const H_DST: u16 = (1 << 14) - 1;
/// `lock_shadow` sentinel for "no lock held".
const NO_LOCK: u8 = u8::MAX;
/// Most VCs the shadow bitsets support (`5 * 8 = 40` mask bits).
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
            "shadow arrays support at most {MAX_VCS} virtual channels"
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
        Noc {
            mesh,
            now: Cycle::ZERO,
            routers: (0..n).map(|_| Router::new(cfg.vcs)).collect(),
            links: (0..n)
                .map(|_| std::array::from_fn(|_| VecDeque::new()))
                .collect(),
            nic: (0..n)
                .map(|_| (0..cfg.vcs).map(|_| VecDeque::new()).collect())
                .collect(),
            inject_time: FxHashMap::default(),
            reassembly: FxHashMap::default(),
            eject_q: (0..n).map(|_| VecDeque::new()).collect(),
            rx_pending: 0,
            next_packet: 0,
            in_flight: 0,
            stats: NocStats::default(),
            link_flits: (0..n).map(|_| [0; 4]).collect(),
            routes,
            dead_links: vec![[false; 4]; n],
            link_down_until: vec![[0; 4]; n],
            stall_until: vec![0; n],
            rx_poisoned: FxHashSet::default(),
            fault_plane: None,
            last_progress: 0,
            #[cfg(test)]
            dense_scan: false,
            router_occ: vec![0; n],
            link_occ: vec![0; n],
            nic_occ: vec![0; n],
            nbr,
            heads: vec![0; n * PORTS * cfg.vcs],
            head_mask: vec![0; n],
            fifo_len: vec![0; n * PORTS * cfg.vcs],
            link_vc: vec![0; n * 4 * cfg.vcs],
            lock_shadow: vec![NO_LOCK; n * PORTS * cfg.vcs],
            rr_shadow: vec![0; n * PORTS],
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
        self.in_flight
    }

    /// Statistics so far.
    pub fn stats(&self) -> &NocStats {
        &self.stats
    }

    /// Free message slots in `node`'s injection queue for `class`.
    pub fn inject_space(&self, node: NodeId, class: crate::packet::TrafficClass) -> usize {
        self.cfg.inject_queue - self.nic[node.index()][class.vc()].len()
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
        let vc = msg.class.vc();
        if self.nic[from.index()][vc].len() >= self.cfg.inject_queue {
            self.stats.rejected += 1;
            return Err(InjectError::QueueFull);
        }
        let pid = PacketId(self.next_packet);
        self.next_packet += 1;
        let flits = packetize(msg, pid, self.cfg.flit_bytes, self.cfg.header_bytes);
        self.nic[from.index()][vc].push_back(flits.into());
        self.nic_occ[from.index()] += 1;
        self.inject_time.insert(pid.0, self.now);
        self.in_flight += 1;
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
    /// buffered work. A node whose router FIFOs, incoming links and NIC are
    /// all empty cannot produce a move, an arrival or an injection, so
    /// skipping it is exactly behaviour-preserving.
    #[inline]
    fn skips_idle_nodes(&self) -> bool {
        #[cfg(test)]
        return !self.dense_scan;
        #[cfg(not(test))]
        true
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

    /// Refreshes the head summary for input `(node, port, vc)` after a
    /// FIFO mutation.
    #[inline]
    fn refresh_head(&mut self, node: usize, port: usize, vc: usize) {
        let vcs = self.cfg.vcs;
        let idx = (node * PORTS + port) * vcs + vc;
        let entry = match self.routers[node].inputs[port].fifos[vc].front() {
            Some(f) => {
                H_PRESENT
                    | if matches!(f.kind, FlitKind::Head(_)) {
                        H_HEADFLIT
                    } else {
                        0
                    }
                    | f.dst.0
            }
            None => 0,
        };
        self.heads[idx] = entry;
        let bit = 1u64 << (port << 3 | vc);
        if entry == 0 {
            self.head_mask[node] &= !bit;
        } else {
            self.head_mask[node] |= bit;
        }
    }

    // ------------------------------------------------------------------
    // Fault injection (the chaos plane's levers, also usable directly).
    // ------------------------------------------------------------------

    /// Installs a chaos plane; its schedule and random draws are applied
    /// at the start of every [`Noc::tick`].
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
        for (_, flit) in self.links[node.index()][di].iter_mut() {
            flit.corrupt();
        }
        let old = std::mem::take(&mut self.routes);
        self.recompute_routes();
        self.flush_rerouted(&old);
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
        for (_, flit) in self.links[node.index()][di].iter_mut() {
            flit.corrupt();
        }
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
        // (packet, destination now unreachable?) for every affected flit.
        let mut doomed: Vec<(u64, bool)> = Vec::new();
        let note = |routes: &[u8], at: usize, flit: &Flit, doomed: &mut Vec<(u64, bool)>| {
            let new = routes[at * n + flit.dst.index()];
            if new != old_routes[at * n + flit.dst.index()] {
                doomed.push((flit.packet.0, new == UNREACHABLE));
            }
        };
        for (node, router) in self.routers.iter().enumerate() {
            for port in &router.inputs {
                for fifo in &port.fifos {
                    for flit in fifo {
                        note(&self.routes, node, flit, &mut doomed);
                    }
                }
            }
        }
        for (node, dirs) in self.links.iter().enumerate() {
            for (di, link) in dirs.iter().enumerate() {
                let Some(nb) = self.mesh.neighbor(NodeId(node as u16), DIRS[di]) else {
                    continue;
                };
                for (_, flit) in link {
                    // The flit will route next at the receiving neighbour.
                    note(&self.routes, nb.index(), flit, &mut doomed);
                }
            }
        }
        for (node, vcs) in self.nic.iter().enumerate() {
            for q in vcs {
                for pkt in q {
                    let Some(first) = pkt.front() else { continue };
                    // A sub-queue whose first flit is no longer the head has
                    // already started streaming; a route change splits it.
                    // Unstarted packets survive any reroute except losing
                    // their destination entirely.
                    let started = !matches!(first.kind, FlitKind::Head(_));
                    if started {
                        note(&self.routes, node, first, &mut doomed);
                    } else if self.routes[node * n + first.dst.index()] == UNREACHABLE {
                        doomed.push((first.packet.0, true));
                    }
                }
            }
        }
        doomed.sort_unstable_by_key(|&(pid, unreachable)| (pid, !unreachable));
        doomed.dedup_by_key(|&mut (pid, _)| pid);
        for (pid, unreachable) in doomed {
            self.purge_packet(pid);
            if unreachable {
                self.stats.dropped_unreachable += 1;
            } else {
                self.stats.dropped_flushed += 1;
            }
        }
    }

    /// Removes every trace of packet `pid` from the network: buffered
    /// flits, wormhole locks it owns, NIC sub-queues, reassembly state and
    /// the in-flight count. Counters are the caller's responsibility.
    fn purge_packet(&mut self, pid: u64) {
        for router in &mut self.routers {
            for port in &mut router.inputs {
                for fifo in &mut port.fifos {
                    fifo.retain(|f| f.packet.0 != pid);
                }
            }
            for port in &mut router.out_lock {
                for lock in port.iter_mut() {
                    if lock.is_some_and(|o| o.packet.0 == pid) {
                        *lock = None;
                    }
                }
            }
        }
        for dirs in &mut self.links {
            for link in dirs.iter_mut() {
                link.retain(|(_, f)| f.packet.0 != pid);
            }
        }
        for vcs in &mut self.nic {
            for q in vcs.iter_mut() {
                q.retain(|pkt| pkt.front().is_some_and(|f| f.packet.0 != pid));
            }
        }
        self.reassembly.remove(&pid);
        self.rx_poisoned.remove(&pid);
        if self.inject_time.remove(&pid).is_some() {
            self.in_flight -= 1;
        }
        self.recount_occupancy();
    }

    /// Rebuilds the active-set occupancy counters and the allocator's flat
    /// shadow state from scratch. Only needed after bulk removals
    /// ([`Noc::purge_packet`]'s retains); the per-flit paths maintain
    /// everything incrementally.
    fn recount_occupancy(&mut self) {
        for n in 0..self.mesh.nodes() {
            self.router_occ[n] = self.routers[n].buffered();
            self.link_occ[n] = self.links[n].iter().map(|l| l.len()).sum();
            self.nic_occ[n] = self.nic[n].iter().map(|q| q.len()).sum();
            self.head_mask[n] = 0;
            for port in 0..PORTS {
                for vc in 0..self.cfg.vcs {
                    let idx = (n * PORTS + port) * self.cfg.vcs + vc;
                    self.fifo_len[idx] = self.routers[n].inputs[port].fifos[vc].len() as u8;
                    self.refresh_head(n, port, vc);
                    self.lock_shadow[idx] =
                        self.routers[n].out_lock[port][vc].map_or(NO_LOCK, |o| o.in_port as u8);
                }
                self.rr_shadow[n * PORTS + port] = self.routers[n].rr[port] as u8;
            }
            for di in 0..4 {
                for vc in 0..self.cfg.vcs {
                    self.link_vc[(n * 4 + di) * self.cfg.vcs + vc] =
                        self.links[n][di].iter().filter(|(_, f)| f.vc == vc).count() as u8;
                }
            }
        }
    }

    /// All packets currently anywhere in the network, deduplicated and
    /// sorted (deterministic).
    fn buffered_packets(&self) -> Vec<u64> {
        let mut pids: Vec<u64> = self
            .routers
            .iter()
            .flat_map(|r| r.inputs.iter())
            .flat_map(|p| p.fifos.iter())
            .flatten()
            .map(|f| f.packet.0)
            .chain(
                self.links
                    .iter()
                    .flatten()
                    .flatten()
                    .map(|(_, f)| f.packet.0),
            )
            .chain(
                self.nic
                    .iter()
                    .flatten()
                    .flatten()
                    .filter_map(|pkt| pkt.front())
                    .map(|f| f.packet.0),
            )
            .collect();
        pids.sort_unstable();
        pids.dedup();
        pids
    }

    /// The no-progress valve: if packets are in flight but nothing has
    /// moved for [`DEADLOCK_WINDOW`] cycles, purge everything buffered.
    /// This converts a (detour-induced) routing deadlock into bounded,
    /// counted packet loss — an injected fault can never hang the NoC.
    fn check_progress_valve(&mut self) {
        if self.in_flight == 0 {
            self.last_progress = self.stats.cycles;
            return;
        }
        if self.stats.cycles - self.last_progress <= DEADLOCK_WINDOW {
            return;
        }
        for pid in self.buffered_packets() {
            self.purge_packet(pid);
            self.stats.dropped_flushed += 1;
        }
        // Anything still "in flight" now has no flits anywhere (should not
        // happen, but the valve must leave the network consistent).
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
        if self.in_flight > 0 {
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
            if self.in_flight == 0 {
                return true;
            }
            self.step();
        }
        self.in_flight == 0
    }

    fn phase_link_arrivals(&mut self) {
        for node in 0..self.mesh.nodes() {
            if self.skips_idle_nodes() && self.link_occ[node] == 0 {
                continue;
            }
            for (di, &in_port) in OPP_PORT.iter().enumerate() {
                let nb = self.nbr[node * 4 + di] as usize;
                if nb == u16::MAX as usize {
                    continue;
                }
                while let Some(&(at, _)) = self.links[node][di].front() {
                    if at > self.now {
                        break;
                    }
                    let (_, flit) = self.links[node][di].pop_front().expect("peeked");
                    self.link_occ[node] -= 1;
                    let vc = flit.vc;
                    self.link_vc[(node * 4 + di) * self.cfg.vcs + vc] -= 1;
                    let fifo = &mut self.routers[nb].inputs[in_port].fifos[vc];
                    debug_assert!(
                        fifo.len() < self.cfg.vc_buffer,
                        "credit accounting must guarantee buffer space"
                    );
                    let was_empty = fifo.is_empty();
                    fifo.push_back(flit);
                    self.fifo_len[(nb * PORTS + in_port) * self.cfg.vcs + vc] += 1;
                    if was_empty {
                        self.refresh_head(nb, in_port, vc);
                    }
                    self.router_occ[nb] += 1;
                    self.last_progress = self.stats.cycles;
                }
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
        for node in 0..n {
            // A router with no buffered flits cannot source a move: every
            // move pops an input-FIFO head. Skipping it leaves `rr` and
            // locks untouched, which is what the dense scan does too.
            // (`head_mask == 0` iff every input FIFO is empty.)
            let mask = self.head_mask[node];
            if mask == 0 {
                continue;
            }
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
                let lock = self.lock_shadow[hbase + out_port * vcs + vc];
                let eligible = if lock == NO_LOCK {
                    head & H_HEADFLIT != 0
                } else {
                    lock as usize == port
                };
                if eligible {
                    moves.push(Move {
                        node,
                        in_port: port,
                        vc,
                        out_port,
                    });
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
                let rr = self.rr_shadow[node * PORTS + out_port] as usize;
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
                    let lock = self.lock_shadow[hbase + out_port * vcs + vc];
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
                        moves.push(Move {
                            node,
                            in_port,
                            vc,
                            out_port,
                        });
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
        for m in moves {
            let mut flit = self.routers[m.node].inputs[m.in_port].fifos[m.vc]
                .pop_front()
                .expect("move references a buffered flit");
            self.router_occ[m.node] -= 1;
            self.fifo_len[(m.node * PORTS + m.in_port) * self.cfg.vcs + m.vc] -= 1;
            self.refresh_head(m.node, m.in_port, m.vc);
            // Wormhole lock maintenance.
            let lock = &mut self.routers[m.node].out_lock[m.out_port][m.vc];
            let shadow = &mut self.lock_shadow[(m.node * PORTS + m.out_port) * self.cfg.vcs + m.vc];
            if flit.is_tail {
                *lock = None;
                *shadow = NO_LOCK;
            } else if matches!(flit.kind, FlitKind::Head(_)) {
                *lock = Some(LockOwner {
                    in_port: m.in_port,
                    packet: flit.packet,
                });
                *shadow = m.in_port as u8;
            }
            self.routers[m.node].rr[m.out_port] = m.in_port;
            self.rr_shadow[m.node * PORTS + m.out_port] = m.in_port as u8;

            if m.out_port == Port::Local.index() {
                self.eject(m.node, flit);
            } else {
                let di = m.out_port - 1;
                // One corruption roll per link traversal (fixed RNG
                // consumption), plus deterministic corruption on downed
                // links. `corrupt` is idempotent, so a doubly-faulted hop
                // is still detected.
                let rolled = plane.as_deref_mut().is_some_and(|p| p.corrupt_roll());
                if rolled || self.link_is_down(m.node, di) {
                    flit.corrupt();
                }
                let arrive = self.now + 1 + self.cfg.hop_latency;
                self.link_vc[(m.node * 4 + di) * self.cfg.vcs + m.vc] += 1;
                self.links[m.node][di].push_back((arrive, flit));
                self.link_occ[m.node] += 1;
                self.link_flits[m.node][di] += 1;
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
        let is_tail = flit.is_tail;
        let pid = flit.packet;
        // A single damaged flit poisons the whole packet: nothing of it is
        // delivered, and the drop is accounted once the tail arrives.
        let poisoned = !intact || self.rx_poisoned.contains(&pid.0);
        match flit.kind {
            FlitKind::Head(msg) => {
                debug_assert_eq!(msg.dst.index(), node, "misrouted flit");
                match (is_tail, poisoned) {
                    (true, false) => self.deliver(node, pid, *msg),
                    (true, true) => self.drop_at_rx(pid),
                    (false, false) => {
                        self.reassembly.insert(pid.0, msg);
                    }
                    (false, true) => {
                        self.rx_poisoned.insert(pid.0);
                    }
                }
            }
            FlitKind::Body => {
                if poisoned {
                    self.reassembly.remove(&pid.0);
                    if is_tail {
                        self.rx_poisoned.remove(&pid.0);
                        self.drop_at_rx(pid);
                    } else {
                        self.rx_poisoned.insert(pid.0);
                    }
                } else if is_tail {
                    let msg = self
                        .reassembly
                        .remove(&pid.0)
                        .expect("head always precedes tail on a VC");
                    self.deliver(node, pid, *msg);
                }
            }
        }
    }

    /// Accounts a packet dropped at the destination for corruption.
    fn drop_at_rx(&mut self, pid: PacketId) {
        self.inject_time
            .remove(&pid.0)
            .expect("every packet has an inject timestamp");
        self.in_flight -= 1;
        self.stats.dropped_corrupt += 1;
    }

    fn deliver(&mut self, node: usize, pid: PacketId, msg: Message) {
        let injected_at = self
            .inject_time
            .remove(&pid.0)
            .expect("every packet has an inject timestamp");
        let d = Delivered {
            msg,
            injected_at,
            delivered_at: self.now,
        };
        self.stats.latency.record(d.latency());
        self.stats.delivered += 1;
        self.in_flight -= 1;
        self.rx_pending += 1;
        self.eject_q[node].push_back(d);
    }

    /// NIC: stream queued flits into the router's local input port, one flit
    /// per node per cycle, highest-priority class first.
    fn phase_inject(&mut self) {
        let local = Port::Local.index();
        for node in 0..self.mesh.nodes() {
            if self.skips_idle_nodes() && self.nic_occ[node] == 0 {
                continue;
            }
            for vc in 0..self.cfg.vcs {
                let len_idx = (node * PORTS + local) * self.cfg.vcs + vc;
                if self.fifo_len[len_idx] as usize >= self.cfg.vc_buffer {
                    continue;
                }
                let Some(pkt) = self.nic[node][vc].front_mut() else {
                    continue;
                };
                let flit = pkt.pop_front().expect("queued packets are never empty");
                if pkt.is_empty() {
                    self.nic[node][vc].pop_front();
                    self.nic_occ[node] -= 1;
                }
                let fifo = &mut self.routers[node].inputs[local].fifos[vc];
                let was_empty = fifo.is_empty();
                fifo.push_back(flit);
                self.fifo_len[len_idx] += 1;
                if was_empty {
                    self.refresh_head(node, local, vc);
                }
                self.router_occ[node] += 1;
                self.last_progress = self.stats.cycles;
                break; // One flit per node per cycle.
            }
        }
    }
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
            }
        }
        assert!(noc.run_until_quiescent(100_000));
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
        assert!(
            noc.run_until_quiescent(1_000_000),
            "network must always drain"
        );
        let st = noc.stats();
        assert_eq!(st.delivered + st.dropped(), st.injected);
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
