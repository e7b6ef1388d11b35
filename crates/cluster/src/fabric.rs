//! The inter-board fabric.
//!
//! Boards are joined by the same primitives the single-board network
//! service already trusts: [`Wire`] models each link's serialisation
//! bandwidth and propagation delay (plus optional seeded loss), and the
//! go-back-N ARQ from [`apiary_net::arq`] makes every link reliable — the
//! fabric may delay or reorder *across* links but never loses or reorders
//! *within* one. Two topologies:
//!
//! - **star**: every board has one uplink/downlink pair to a top-of-rack
//!   switch that store-and-forwards on the destination header — one hop up,
//!   one hop down, contention at the switch ports;
//! - **full mesh**: a dedicated link pair per board pair — no switch, no
//!   cross-traffic interference, more links.
//!
//! Chaos hooks ([`Fabric::set_link`]) cut or restore links; a cut link
//! drops frames in both directions and the ARQ retransmits once it heals,
//! so a *transient* cut costs latency while a *permanent* one strands
//! traffic until lease expiry fails the directory over.
//!
//! Links are visited in `(from, to)` key order and only when they have work
//! ([`Fabric::step`]), so a fabric built from the same config and seed
//! replays byte-identically and a quiet link costs one comparison.

use crate::directory::DirEntry;
use apiary_cap::ServiceId;
use apiary_net::arq::{Ack, GoBackNReceiver, GoBackNSender, Packet};
use apiary_net::{Frame, Wire};
use apiary_noc::NodeId;
use apiary_sim::{ensure, Cycle, Payload, Reader};
use std::collections::VecDeque;

/// Endpoint id of the top-of-rack switch (star topology only).
const TOR: u16 = u16::MAX;

/// Fabric shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Topology {
    /// All boards hang off one top-of-rack switch.
    Star,
    /// A direct link pair between every board pair.
    FullMesh,
}

/// Per-link parameters (all links share them; asymmetric fabrics are not
/// modelled).
#[derive(Debug, Clone, Copy)]
pub struct LinkConfig {
    /// Propagation delay, cycles.
    pub latency: u64,
    /// Serialisation bandwidth, bytes per cycle.
    pub bytes_per_cycle: u64,
    /// Per-frame loss probability (seeded per link from the fabric seed).
    pub loss: f64,
    /// Go-back-N window, packets.
    pub arq_window: usize,
    /// Go-back-N retransmission timeout, cycles.
    pub arq_timeout: u64,
}

impl Default for LinkConfig {
    fn default() -> Self {
        LinkConfig {
            latency: 200,
            bytes_per_cycle: 16,
            loss: 0.0,
            arq_window: 64,
            arq_timeout: 2_000,
        }
    }
}

/// Fabric configuration.
#[derive(Debug, Clone, Copy)]
pub struct FabricConfig {
    /// Shape.
    pub topology: Topology,
    /// Link parameters.
    pub link: LinkConfig,
    /// Seed for link loss models.
    pub seed: u64,
}

impl Default for FabricConfig {
    fn default() -> Self {
        FabricConfig {
            topology: Topology::Star,
            link: LinkConfig::default(),
            seed: 0xFAB,
        }
    }
}

/// A message between boards.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterMsg {
    /// Originating board.
    pub src: u16,
    /// Destination board.
    pub dst: u16,
    /// What it carries.
    pub body: Body,
}

/// Fabric message bodies.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Body {
    /// Remote capability invocation: run `service` on the destination
    /// board, reply with the end-to-end `tag`.
    Invoke {
        /// Target service id on the destination board.
        service: u32,
        /// End-to-end correlation tag.
        tag: u64,
        /// Request payload.
        payload: Vec<u8>,
    },
    /// Response to an [`Body::Invoke`].
    Reply {
        /// End-to-end correlation tag.
        tag: u64,
        /// The invocation failed (service missing, tile fail-stopped, …).
        is_error: bool,
        /// Response payload.
        payload: Vec<u8>,
    },
    /// Anti-entropy directory exchange.
    Gossip {
        /// Full snapshot of the sender's directory.
        entries: Vec<DirEntry>,
    },
    /// Live-migration state transfer: the source board ships `name`'s
    /// quiesced snapshot to the destination. Transfer time is whatever the
    /// link's bandwidth/latency model charges these bytes — blackout
    /// scales with state size by construction.
    Migrate {
        /// Service id the destination should adopt.
        service: u32,
        /// Directory name of the replica being moved.
        name: String,
        /// The service's raw architectural state, as
        /// [`apiary_accel::Accelerator::save_state`] returned it.
        snapshot: Vec<u8>,
    },
}

impl ClusterMsg {
    /// Serialises for the wire. The switch routes on the 4-byte
    /// `src`/`dst` header, which rides in-band like any real switch expects.
    pub fn encode(&self) -> Vec<u8> {
        // Sized once: the bulk plus the largest fixed part (4 + an invoke's 17).
        let bulk = match &self.body {
            Body::Invoke { payload, .. } | Body::Reply { payload, .. } => payload.len(),
            Body::Gossip { entries } => entries.iter().map(|e| 27 + e.name.len()).sum(),
            Body::Migrate { name, snapshot, .. } => name.len() + snapshot.len(),
        };
        let mut out = Vec::with_capacity(21 + bulk);
        out.extend_from_slice(&self.src.to_le_bytes());
        out.extend_from_slice(&self.dst.to_le_bytes());
        match &self.body {
            Body::Invoke {
                service,
                tag,
                payload,
            } => {
                out.push(0);
                out.extend_from_slice(&service.to_le_bytes());
                out.extend_from_slice(&tag.to_le_bytes());
                out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
                out.extend_from_slice(payload);
            }
            Body::Reply {
                tag,
                is_error,
                payload,
            } => {
                out.push(1);
                out.push(u8::from(*is_error));
                out.extend_from_slice(&tag.to_le_bytes());
                out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
                out.extend_from_slice(payload);
            }
            Body::Gossip { entries } => {
                out.push(2);
                out.extend_from_slice(&(entries.len() as u16).to_le_bytes());
                for e in entries {
                    out.extend_from_slice(&e.home.to_le_bytes());
                    out.extend_from_slice(&e.node.0.to_le_bytes());
                    out.extend_from_slice(&e.service.0.to_le_bytes());
                    out.extend_from_slice(&e.version.to_le_bytes());
                    out.extend_from_slice(&e.expires_at.0.to_le_bytes());
                    out.push(u8::from(e.withdrawn));
                    let name = e.name.as_bytes();
                    out.extend_from_slice(&(name.len() as u16).to_le_bytes());
                    out.extend_from_slice(name);
                }
            }
            Body::Migrate {
                service,
                name,
                snapshot,
            } => {
                out.push(3);
                out.extend_from_slice(&service.to_le_bytes());
                let nb = name.as_bytes();
                out.extend_from_slice(&(nb.len() as u16).to_le_bytes());
                out.extend_from_slice(nb);
                out.extend_from_slice(&(snapshot.len() as u32).to_le_bytes());
                out.extend_from_slice(snapshot);
            }
        }
        out
    }

    /// Parses a wire payload; `None` for malformed bytes.
    pub fn decode(buf: &[u8]) -> Option<ClusterMsg> {
        let mut r = Reader::new(buf);
        let src = r.u16()?;
        let dst = r.u16()?;
        let body = match r.u8()? {
            0 => {
                let service = r.u32()?;
                let tag = r.u64()?;
                let len = r.u32()? as usize;
                Body::Invoke {
                    service,
                    tag,
                    payload: r.bytes(len)?.to_vec(),
                }
            }
            1 => {
                let is_error = r.u8()? != 0;
                let tag = r.u64()?;
                let len = r.u32()? as usize;
                Body::Reply {
                    tag,
                    is_error,
                    payload: r.bytes(len)?.to_vec(),
                }
            }
            2 => {
                let count = r.u16()? as usize;
                // An entry takes at least 27 bytes: a damaged count
                // reserves no more than the frame could hold.
                let mut entries = Vec::with_capacity(count.min(buf.len() / 27));
                for _ in 0..count {
                    let home = r.u16()?;
                    let node = NodeId(r.u16()?);
                    let service = ServiceId(r.u32()?);
                    let version = r.u64()?;
                    let expires_at = Cycle(r.u64()?);
                    let withdrawn = r.u8()? != 0;
                    let name_len = r.u16()? as usize;
                    let name = String::from_utf8(r.bytes(name_len)?.to_vec()).ok()?;
                    entries.push(DirEntry {
                        name,
                        home,
                        node,
                        service,
                        version,
                        expires_at,
                        withdrawn,
                    });
                }
                Body::Gossip { entries }
            }
            3 => {
                let service = r.u32()?;
                let name_len = r.u16()? as usize;
                let name = String::from_utf8(r.bytes(name_len)?.to_vec()).ok()?;
                let len = r.u32()? as usize;
                Body::Migrate {
                    service,
                    name,
                    snapshot: r.bytes(len)?.to_vec(),
                }
            }
            _ => return None,
        };
        r.is_empty().then_some(ClusterMsg { src, dst, body })
    }
}

/// One reliable directed link: wire + ARQ + an unbounded egress backlog
/// (the egress proxy's queue — the ARQ window is the real admission gate).
#[derive(Debug)]
struct Link {
    /// `(from, to)` endpoints; [`TOR`] is the switch.
    key: (u16, u16),
    data: Wire,
    acks: Wire,
    tx: GoBackNSender,
    rx: GoBackNReceiver,
    backlog: VecDeque<Payload>,
    up: bool,
    cut_drops: u64,
    acks_coalesced: u64,
}

impl Link {
    fn new(key: (u16, u16), cfg: &LinkConfig, seed: u64) -> Link {
        let data = if cfg.loss > 0.0 {
            Wire::with_loss(cfg.latency, cfg.bytes_per_cycle, cfg.loss, seed)
        } else {
            Wire::new(cfg.latency, cfg.bytes_per_cycle)
        };
        Link {
            key,
            data,
            // Acks are tiny and travel the reverse direction; loss on them
            // only delays (cumulative acks), so they share the loss model
            // through the data wire's retransmissions instead.
            acks: Wire::new(cfg.latency, cfg.bytes_per_cycle),
            // Size-aware ARQ timeouts: a bulk frame (e.g. a migration
            // snapshot) can take longer to serialize than the flat timeout;
            // scaling the deadline with the outstanding bytes prevents a
            // retransmission storm while the first copy is still on the wire.
            tx: GoBackNSender::new(cfg.arq_window, cfg.arq_timeout)
                .with_serialization_rate(cfg.bytes_per_cycle),
            rx: GoBackNReceiver::new(),
            backlog: VecDeque::new(),
            up: true,
            cut_drops: 0,
            acks_coalesced: 0,
        }
    }

    /// One cycle: admit backlog into the ARQ window, transmit, receive,
    /// ack. Appends delivered payloads to `out` and returns how many
    /// packets were retransmitted this cycle.
    fn pump(&mut self, now: Cycle, out: &mut Vec<Payload>) -> u64 {
        let retx_before = self.tx.retransmissions;
        while let Some(m) = self.backlog.front() {
            // Admission is a refcount bump: the ARQ window and the backlog
            // share the same buffer.
            if self.tx.offer(m.clone(), now) {
                self.backlog.pop_front();
            } else {
                break;
            }
        }
        for pkt in self.tx.transmit(now) {
            if self.up {
                self.data.push(
                    now,
                    Frame {
                        client: 0,
                        port: 0,
                        tag: pkt.seq,
                        payload: pkt.payload,
                    },
                );
            } else {
                self.cut_drops += 1;
            }
        }
        // Acks are cumulative and the receiver's expected-seq only grows,
        // so a burst of in-order arrivals needs exactly one ack frame: the
        // last one of the burst dominates every earlier one. Coalescing
        // frees the reverse wire of (burst - 1) minimum-size frames.
        let mut burst_ack: Option<Ack> = None;
        let mut burst_len = 0u64;
        while let Some(f) = self.data.pop_due(now) {
            if !self.up {
                self.cut_drops += 1;
                continue;
            }
            let (delivered, ack) = self.rx.on_packet(Packet {
                seq: f.tag,
                payload: f.payload,
            });
            if let Some(d) = delivered {
                out.push(d);
            }
            burst_ack = Some(ack);
            burst_len += 1;
        }
        if let Some(ack) = burst_ack {
            self.acks_coalesced += burst_len - 1;
            self.acks.push(
                now,
                Frame {
                    client: 0,
                    port: 0,
                    tag: ack.next,
                    payload: Payload::empty(),
                },
            );
        }
        while let Some(a) = self.acks.pop_due(now) {
            if self.up {
                self.tx.on_ack(Ack { next: a.tag }, now);
            } else {
                self.cut_drops += 1;
            }
        }
        self.tx.retransmissions - retx_before
    }

    fn idle(&self) -> bool {
        self.backlog.is_empty() && self.tx.idle() && self.data.in_flight() == 0
    }

    /// The earliest cycle at which a pump can do anything: transmit queued
    /// or backlogged packets ([`Cycle::ZERO`], ready now), hit the ARQ
    /// retransmission timer, or receive a frame on either wire.
    /// [`Cycle::MAX`] when the link is completely quiet. Pumping earlier is
    /// a harmless no-op; pumping later than this would change ARQ timing.
    fn next_activity(&self) -> Cycle {
        if self.tx.queued() > 0 || (!self.backlog.is_empty() && self.tx.window_free()) {
            return Cycle::ZERO;
        }
        let arrival = |w: &Wire| w.next_due().unwrap_or(Cycle::MAX);
        let timeout = self.tx.next_timeout().unwrap_or(Cycle::MAX);
        timeout.min(arrival(&self.data)).min(arrival(&self.acks))
    }
}

/// Aggregate fabric counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FabricStats {
    /// Messages delivered to their destination board.
    pub delivered: u64,
    /// ARQ retransmissions across all links.
    pub retransmissions: u64,
    /// Frames dropped because a link was cut.
    pub cut_drops: u64,
    /// Frames dropped by the links' loss models.
    pub loss_drops: u64,
    /// Redundant cumulative acks suppressed by per-burst coalescing.
    pub acks_coalesced: u64,
}

/// The inter-board network.
#[derive(Debug)]
pub struct Fabric {
    cfg: FabricConfig,
    boards: u16,
    /// Every directed link, sorted by `(from, to)`: star uplinks `(b, TOR)`
    /// sort before the ToR downlinks `(TOR, b)`. [`Fabric::link_index`]
    /// finds a link by arithmetic on that order.
    links: Vec<Link>,
    /// `due[i] == links[i].next_activity()` between calls: whoever changes
    /// a link's queues posts its new deadline, and a cycle reads the array.
    due: Vec<Cycle>,
    delivered: u64,
    /// Per-pump delivery buffer, kept to reuse its allocation.
    pumped: Vec<Payload>,
}

impl Fabric {
    /// Builds the fabric for `boards` boards.
    pub fn new(boards: u16, cfg: FabricConfig) -> Fabric {
        let mut links = Vec::new();
        let mut link_seed = cfg.seed;
        let mut mk = |a: u16, b: u16| {
            link_seed = link_seed
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(1);
            links.push(Link::new((a, b), &cfg.link, link_seed));
        };
        match cfg.topology {
            Topology::Star => {
                for b in 0..boards {
                    mk(b, TOR);
                    mk(TOR, b);
                }
            }
            Topology::FullMesh => {
                for a in 0..boards {
                    for b in 0..boards {
                        if a != b {
                            mk(a, b);
                        }
                    }
                }
            }
        }
        // Loss seeds follow creation order; stepping follows key order.
        links.sort_by_key(|l| l.key);
        Fabric {
            cfg,
            boards,
            due: vec![Cycle::MAX; links.len()],
            links,
            delivered: 0,
            pumped: Vec::new(),
        }
    }

    /// Number of boards the fabric joins.
    pub fn boards(&self) -> u16 {
        self.boards
    }

    /// Position of the `from → to` link in `links`, if the topology has it.
    fn link_index(&self, from: u16, to: u16) -> Option<usize> {
        let n = self.boards as usize;
        let (a, b) = (from as usize, to as usize);
        match self.cfg.topology {
            Topology::Star if to == TOR && a < n => Some(a),
            Topology::Star if from == TOR && b < n => Some(n + b),
            Topology::FullMesh if a < n && b < n && a != b => {
                Some(a * (n - 1) + b - usize::from(b > a))
            }
            _ => None,
        }
    }

    /// Queues a frame on link `i`'s egress and posts the link's new deadline.
    fn enqueue(&mut self, i: usize, frame: Payload) {
        self.links[i].backlog.push_back(frame);
        self.due[i] = self.links[i].next_activity();
    }

    /// Queues a message at its source board's egress.
    pub fn send(&mut self, msg: &ClusterMsg) {
        let first_hop = match self.cfg.topology {
            Topology::Star => self.link_index(msg.src, TOR),
            Topology::FullMesh => self.link_index(msg.src, msg.dst),
        };
        if let Some(i) = first_hop {
            // Encode once; every later hop and retransmission shares the
            // buffer.
            self.enqueue(i, msg.encode().into());
        }
    }

    /// Cuts (`up = false`) or restores a link. `b = None` cuts the board's
    /// uplink/downlink pair in a star, or *all* of its links in a mesh;
    /// `b = Some(peer)` cuts the pair to one peer (mesh) or degrades to the
    /// board's uplink (star — there is no per-peer link to cut).
    pub fn set_link(&mut self, a: u16, b: Option<u16>, up: bool) {
        let topology = self.cfg.topology;
        for l in &mut self.links {
            let (x, y) = l.key;
            let hit = match (topology, b) {
                (Topology::Star, _) | (Topology::FullMesh, None) => x == a || y == a,
                (Topology::FullMesh, Some(p)) => (x, y) == (a, p) || (x, y) == (p, a),
            };
            if hit {
                l.up = up;
            }
        }
    }

    /// One cycle for every link that has work at `now`, in deterministic
    /// key order. A link whose posted deadline lies in the future is not
    /// pumped: pumping it would be a no-op, so a quiet link costs one
    /// comparison. The switch posts a downlink's deadline as it forwards
    /// onto it, and star uplinks sort before ToR downlinks, so a frame
    /// forwarded onto an otherwise idle downlink still leaves on the same
    /// cycle it reached the ToR. Returns decoded deliveries plus
    /// per-source-board retransmission counts for the tracer.
    pub fn step(&mut self, now: Cycle) -> (Vec<ClusterMsg>, Vec<(u16, u64)>) {
        self.step_links(now, false)
    }

    /// The dense reference for [`Fabric::step`]: pumps every link whether
    /// it is due or not. Same deliveries, same counters, more work.
    pub fn step_dense(&mut self, now: Cycle) -> (Vec<ClusterMsg>, Vec<(u16, u64)>) {
        self.step_links(now, true)
    }

    fn step_links(&mut self, now: Cycle, all: bool) -> (Vec<ClusterMsg>, Vec<(u16, u64)>) {
        let mut out = Vec::new();
        let mut retx = Vec::new();
        let mut pumped = std::mem::take(&mut self.pumped);
        let mut skipped = Vec::new();
        for i in 0..self.links.len() {
            let link = &mut self.links[i];
            debug_assert_eq!(self.due[i], link.next_activity(), "stale {:?}", link.key);
            if !all && self.due[i] > now {
                if cfg!(debug_assertions) {
                    skipped.push(i);
                }
                continue;
            }
            let key = link.key;
            let r = link.pump(now, &mut pumped);
            self.due[i] = link.next_activity();
            if r > 0 && key.0 != TOR {
                retx.push((key.0, r));
            }
            for p in pumped.drain(..) {
                if key.1 == TOR {
                    // Store-and-forward at the switch on the `dst` header
                    // alone; a frame with none, or for no board, dies here.
                    let dst = p.get(2..4).map(|d| u16::from_le_bytes([d[0], d[1]]));
                    if let Some(down) = dst.and_then(|d| self.link_index(TOR, d)) {
                        debug_assert!(down > i, "downlinks are pumped after uplinks");
                        self.enqueue(down, p);
                    }
                } else if let Some(msg) = ClusterMsg::decode(&p) {
                    self.delivered += 1;
                    out.push(msg);
                }
            }
        }
        self.pumped = pumped;
        // Nothing later in the cycle may make a link that was passed over
        // due: skipping it must have been a no-op.
        let late = skipped.into_iter().find(|&i| self.due[i] <= now);
        debug_assert_eq!(late, None, "a skipped link became due at {now:?}");
        (out, retx)
    }

    /// The earliest cycle at or after `from` at which any link has work:
    /// a queued transmission, an ARQ retransmission deadline, or a frame
    /// arriving. [`Cycle::MAX`] when the whole fabric is quiet. Event-clock
    /// drivers may skip every cycle strictly before this without changing
    /// a single delivery or retransmission.
    pub fn next_activity(&self, from: Cycle) -> Cycle {
        let due = self.due.iter().min().copied().unwrap_or(Cycle::MAX);
        due.max(from)
    }

    /// Nothing queued, unacked, or in flight anywhere.
    pub fn idle(&self) -> bool {
        self.links.iter().all(Link::idle)
    }

    /// `Err` unless every posted deadline is what its link reports, every
    /// link's ARQ window holds its laws (acknowledged never exceeds sent,
    /// outstanding never exceeds the window), and its receiver stands
    /// inside that window: it has accepted everything the sender saw
    /// acknowledged and nothing the sender never sent.
    pub fn check_invariants(&self) -> Result<(), String> {
        for (l, &due) in self.links.iter().zip(&self.due) {
            ensure!(due == l.next_activity(), "stale deadline on {:?}", l.key);
            l.tx.check_invariants()?;
            let (unacked, expected) = (l.tx.unacked(), l.rx.expected());
            ensure!(
                unacked.start <= expected && expected <= unacked.end,
                "receiver on {:?} expects {expected}, outside the sender's unacked {unacked:?}",
                l.key
            );
        }
        Ok(())
    }

    /// Aggregate counters.
    pub fn stats(&self) -> FabricStats {
        let mut s = FabricStats {
            delivered: self.delivered,
            ..FabricStats::default()
        };
        for l in &self.links {
            s.retransmissions += l.tx.retransmissions;
            s.cut_drops += l.cut_drops;
            s.loss_drops += l.data.dropped;
            s.acks_coalesced += l.acks_coalesced;
        }
        s
    }
}

#[cfg(test)]
mod tests;
