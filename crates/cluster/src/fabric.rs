//! The inter-board fabric.
//!
//! Boards are joined by the same primitives the single-board network
//! service already trusts: [`Wire`](apiary_net::Wire) models each link's
//! serialisation bandwidth and propagation delay (plus optional seeded
//! loss), and the go-back-N ARQ from [`apiary_net::arq`] makes every link
//! reliable — the fabric may delay or reorder *across* links but never
//! loses or reorders *within* one. Two topologies:
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
//! **External and internal events.** The only event a board can see is a
//! frame reaching it. Everything else — an ack arriving, a frame reaching
//! the switch and its forward onto a downlink, a backlog transmission, a
//! retransmission timer — is internal, and the fabric runs it itself: each
//! link posts the next cycle a pump can change it, and [`Fabric::step`]
//! first replays every internal cycle its caller skipped, by cycle, then
//! link key, then the pump's admit → transmit → receive → ack order,
//! before it runs the cycle asked for. An ack is not even an event of the
//! fabric's own unless backlog waits on it or the retransmission timer
//! could fire before it: it is applied, on the cycle it arrived, when its
//! link is next pumped or changed. [`Fabric::next_activity`] is therefore
//! only a lower bound on the next delivery, and the driver need not wake
//! for anything else. A fabric built from the same config and seed
//! replays byte-identically however sparsely it is stepped.

mod clock;
mod link;
pub(crate) mod msg;

pub use msg::{Body, BodyView, ClusterMsg, EntryRef, Gossip, MsgView};

use apiary_sim::{ensure, Cycle};
use link::Link;

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
    /// `due[i] == links[i].next_activity(next)` between calls: whoever
    /// changes a link's queues posts its new deadline.
    due: Vec<Cycle>,
    /// Per link, a lower bound on the first cycle anything it holds
    /// reaches a board (the clock module's `reach`), posted with `due`.
    reach: Vec<Cycle>,
    /// Cycles a minimum-size frame takes over one link.
    hop: u64,
    /// No later than the earliest posted deadline, so that a call with
    /// nothing due touches no link. Posting only ever lowers it; a pass
    /// over the deadlines makes it exact again.
    earliest: Cycle,
    /// The first cycle not yet run: a frame sent now is admitted then.
    next: Cycle,
    /// The cycle the current step delivers on ([`Cycle::MAX`] while
    /// catching up): a frame that reaches a board on any other breaks the
    /// delivery-bound law.
    delivering: Cycle,
    delivered: u64,
    /// The current step's deliveries.
    arrived: Vec<MsgView>,
    /// The first frame that reached a board on a cycle no step ran:
    /// `(board, cycle)`.
    early: Option<(u16, Cycle)>,
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
        let n = links.len();
        let least = links.first().map_or(0, |l| l.data.serialisation(0));
        Fabric {
            cfg,
            boards,
            links,
            due: vec![Cycle::MAX; n],
            reach: vec![Cycle::MAX; n],
            hop: least + cfg.link.latency,
            earliest: Cycle::MAX,
            next: Cycle::ZERO,
            delivering: Cycle::MAX,
            delivered: 0,
            arrived: Vec::new(),
            early: None,
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

    /// Queues a message at its source board's egress. It is admitted on
    /// the first cycle not yet run: sent between [`Fabric::step`]`(t)` and
    /// the next step, it leaves on cycle `t + 1`.
    pub fn send(&mut self, msg: &ClusterMsg) {
        self.send_frame(msg.encode());
    }

    /// [`Fabric::send`] for a message already written as a frame, routed
    /// on its header. Every later hop and retransmission shares the
    /// buffer, and the board it reaches reads it there.
    pub(crate) fn send_frame(&mut self, frame: Vec<u8>) {
        let Some((src, dst)) = msg::route(&frame) else {
            return;
        };
        let first_hop = match self.cfg.topology {
            Topology::Star => self.link_index(src, TOR),
            Topology::FullMesh => self.link_index(src, dst),
        };
        if let Some(i) = first_hop {
            let link = &mut self.links[i];
            link.settle(self.next);
            link.backlog.push_back(frame.into());
            self.post(i, self.next);
        }
    }

    /// Cuts (`up = false`) or restores a link. `b = None` cuts the board's
    /// uplink/downlink pair in a star, or *all* of its links in a mesh;
    /// `b = Some(peer)` cuts the pair to one peer (mesh) or degrades to the
    /// board's uplink (star — there is no per-peer link to cut). It takes
    /// effect from the first cycle not yet run.
    pub fn set_link(&mut self, a: u16, b: Option<u16>, up: bool) {
        let topology = self.cfg.topology;
        for i in 0..self.links.len() {
            let (x, y) = self.links[i].key;
            let hit = match (topology, b) {
                (Topology::Star, _) | (Topology::FullMesh, None) => x == a || y == a,
                (Topology::FullMesh, Some(p)) => (x, y) == (a, p) || (x, y) == (p, a),
            };
            if hit {
                // Acks that arrived while the link was as it was are
                // taken (or dropped) as it was.
                self.links[i].settle(self.next);
                self.links[i].up = up;
                self.post(i, self.next);
            }
        }
    }

    /// Runs every cycle up to and including `now`: first the internal
    /// events of the cycles skipped since the last call, in the order a
    /// per-cycle pump would have run them, then the links with work at
    /// `now`, in key order. A link whose deadline lies ahead is not
    /// touched. Returns the messages that reach a board at `now`, each a
    /// view of the frame it arrived in.
    ///
    /// The caller steps at or before [`Fabric::next_activity`], so no
    /// frame reaches a board on a skipped cycle (`check_invariants` holds
    /// it to that). Afterwards no internal deadline at or before `now` is
    /// left, and a frame sent before the next call leaves on `now + 1`.
    ///
    /// The empty second slot carries nothing: `benchmark/` reads the
    /// deliveries as `fabric.step(now).0`, so the pair shape stays until it
    /// may change.
    pub fn step(&mut self, now: Cycle) -> (Vec<MsgView>, ()) {
        (self.advance(now, false), ())
    }

    /// The dense reference for [`Fabric::step`]: pumps every link at `now`
    /// whether it is due or not. Same deliveries, same counters, more work.
    pub fn step_dense(&mut self, now: Cycle) -> Vec<MsgView> {
        self.advance(now, true)
    }

    /// Runs the internal events of every cycle up to and including
    /// `through`, so that a frame sent next leaves on `through + 1`. A
    /// driver calls it before a phase that sends on a cycle it has not
    /// stepped yet. Nothing can reach a board on these cycles while
    /// `through` lies before [`Fabric::next_activity`].
    pub fn catch_up(&mut self, through: Cycle) {
        if through >= self.next {
            self.run_through(through);
            self.next = through + 1;
        }
    }

    fn advance(&mut self, now: Cycle, dense: bool) -> Vec<MsgView> {
        debug_assert!(
            now >= self.next,
            "step at {now:?} after {:?} ran",
            self.next
        );
        if now > self.next {
            self.run_through(Cycle(now.0 - 1));
        }
        self.delivering = now;
        if dense {
            for i in 0..self.links.len() {
                self.pump(i, now);
                self.post(i, now + 1);
            }
        }
        // After a dense pass this pumps nothing and only finds the earliest
        // deadline again.
        self.run_through(now);
        self.delivering = Cycle::MAX;
        self.next = now + 1;
        std::mem::take(&mut self.arrived)
    }

    /// A lower bound on the first cycle at or after `from` at which a
    /// frame reaches a board, given everything sent so far; [`Cycle::MAX`]
    /// when nothing the fabric holds can. Exact for a frame on a board's
    /// incoming wire, and for a frame on an uplink while its downlink stays
    /// free. A driver may skip every cycle before it and step on it; a step
    /// that finds nothing to deliver (the bound was early) is harmless.
    pub fn next_activity(&self, from: Cycle) -> Cycle {
        debug_assert!(
            (0..self.links.len()).all(|i| self.reach[i] <= self.reach(i)),
            "a posted delivery bound is later than a fresh one"
        );
        let reach = self.reach.iter().fold(u64::MAX, |m, r| m.min(r.0));
        Cycle(reach).max(from)
    }

    /// Nothing queued, unacked, or in flight anywhere.
    pub fn idle(&self) -> bool {
        self.links.iter().all(|l| l.idle(self.next))
    }

    /// `Err` unless the fabric's laws hold:
    ///
    /// - every posted deadline is what its link reports, no deadline at or
    ///   before the last cycle run is left, and none is earlier than the
    ///   posted earliest;
    /// - every posted delivery bound is no later than a fresh evaluation,
    ///   and no frame has reached a board on a cycle no step ran;
    /// - every link's ARQ window holds its laws (acknowledged never exceeds
    ///   sent, outstanding never exceeds the window), and its receiver
    ///   stands inside that window: it has accepted everything the sender
    ///   saw acknowledged and nothing the sender never sent.
    pub fn check_invariants(&self) -> Result<(), String> {
        let earliest = self.due.iter().min().copied().unwrap_or(Cycle::MAX);
        ensure!(
            self.earliest <= earliest,
            "earliest deadline posted as {:?}, is {earliest:?}",
            self.earliest
        );
        ensure!(
            self.early.is_none(),
            "a frame reached a board before the step that delivers it: (board, cycle) {:?}",
            self.early
        );
        for (i, l) in self.links.iter().enumerate() {
            let due = self.due[i];
            ensure!(
                due == l.next_activity(self.next),
                "stale deadline on {:?}",
                l.key
            );
            ensure!(
                due >= self.next,
                "{:?} is due at {due:?}, but every cycle before {:?} has run",
                l.key,
                self.next
            );
            ensure!(
                self.reach[i] <= self.reach(i),
                "posted delivery bound {:?} on {:?} is later than a fresh {:?}",
                self.reach[i],
                l.key,
                self.reach(i)
            );
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
            s.cut_drops += l.cut_drops + l.pending_cut_drops(self.next);
            s.loss_drops += l.data.dropped;
            s.acks_coalesced += l.acks_coalesced;
        }
        s
    }
}

#[cfg(test)]
mod tests;
