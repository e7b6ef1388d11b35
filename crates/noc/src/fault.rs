//! The chaos plane: seeded fault injection for the NoC.
//!
//! A [`FaultPlane`] is installed on a [`crate::Noc`] and, each cycle,
//! produces [`FaultEvent`]s from two sources:
//!
//! - an explicit **schedule** (`schedule()`), replayed at exact cycles, and
//! - **rate-based random draws** from a [`apiary_sim::SimRng`] seeded at
//!   construction, so a given `(seed, rate)` pair always injects the same
//!   fault sequence — chaos runs are exactly reproducible.
//!
//! Three fault classes model what fails underneath an FPGA OS:
//!
//! | Fault              | Effect in the NoC model                          |
//! |--------------------|--------------------------------------------------|
//! | transient link down| flits crossing the link are corrupted until it heals |
//! | permanent link down| as transient, forever; routing detours around it |
//! | router stall       | the router allocates no flits for N cycles       |
//! | flit corruption    | one link traversal marks the flit damaged        |
//!
//! Corruption is *detected* at the ejecting node, which reads the flit's
//! damage bit, and the packet is dropped and counted — never silently
//! delivered — modelling CRC-protected links with drop-on-error semantics.

use crate::topology::{Direction, Mesh, NodeId};
use apiary_sim::{Cycle, SimRng};

/// One concrete fault, applied by the NoC when its cycle comes up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultEvent {
    /// The outgoing link `node -> dir` fails. `heal_after: Some(n)` is a
    /// transient outage of `n` cycles; `None` is permanent (routing will
    /// detour around it).
    LinkDown {
        node: NodeId,
        dir: Direction,
        heal_after: Option<u64>,
    },
    /// The router at `node` freezes its switch allocator for `cycles`.
    RouterStall { node: NodeId, cycles: u64 },
}

/// Rates and magnitudes for random fault generation, scaled from one
/// `rate`. All rates are per-cycle probabilities of one event being drawn
/// somewhere in the mesh.
#[derive(Debug, Clone, Copy)]
struct Rates {
    /// Probability that any given flit is corrupted while crossing a link.
    corrupt_per_hop: f64,
    /// Per-cycle probability that some link starts a transient outage.
    transient_link_rate: f64,
    /// Length of a transient outage, cycles.
    transient_cycles: u64,
    /// Per-cycle probability that some router stalls.
    stall_rate: f64,
    /// Length of a router stall, cycles.
    stall_cycles: u64,
    /// Per-cycle probability that some link dies permanently.
    permanent_link_rate: f64,
    /// Upper bound on permanently killed links (so a long run cannot
    /// partition the whole mesh).
    max_permanent_links: usize,
}

impl Rates {
    fn scaled(rate: f64) -> Rates {
        Rates {
            corrupt_per_hop: rate / 50.0,
            transient_link_rate: rate,
            transient_cycles: 200,
            stall_rate: rate / 2.0,
            stall_cycles: 100,
            permanent_link_rate: rate / 100.0,
            max_permanent_links: 3,
        }
    }
}

/// Counters for what the plane injected (as opposed to what the NoC
/// *detected*, which lands in [`crate::NocStats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultPlaneStats {
    /// Transient link outages started.
    pub transient_links: u64,
    /// Links permanently killed.
    pub permanent_links: u64,
    /// Router stalls started.
    pub router_stalls: u64,
    /// Flits corrupted by the random corruption roll.
    pub corrupted_flits: u64,
    /// Scheduled events replayed.
    pub scheduled_replayed: u64,
}

/// Deterministic fault injector. See the module docs.
#[derive(Debug, Clone)]
pub struct FaultPlane {
    rates: Rates,
    rng: SimRng,
    /// Explicit schedule, kept sorted by cycle (stable for equal cycles).
    scheduled: Vec<(Cycle, FaultEvent)>,
    /// Cursor into `scheduled`.
    next_scheduled: usize,
    permanent_killed: usize,
    stats: FaultPlaneStats,
}

impl FaultPlane {
    /// Builds a plane whose aggression scales with `rate`, roughly the
    /// per-cycle probability of *some* disruptive event (the E16 sweep);
    /// random draws come from `seed`. At rate 0 the plane only replays its
    /// explicit schedule.
    pub fn new(seed: u64, rate: f64) -> FaultPlane {
        FaultPlane {
            rates: Rates::scaled(rate),
            rng: SimRng::new(seed),
            scheduled: Vec::new(),
            next_scheduled: 0,
            permanent_killed: 0,
            stats: FaultPlaneStats::default(),
        }
    }

    /// Adds an event to the explicit schedule. Events may be added in any
    /// order but only before the plane reaches their cycle.
    pub fn schedule(&mut self, at: Cycle, event: FaultEvent) {
        let pos = self.scheduled.partition_point(|(c, _)| *c <= at);
        assert!(
            pos >= self.next_scheduled,
            "cannot schedule a fault in the past"
        );
        self.scheduled.insert(pos, (at, event));
    }

    /// Injection counters.
    pub fn stats(&self) -> &FaultPlaneStats {
        &self.stats
    }

    /// Draws a random existing link `(node, dir)` of `mesh`, if the draw
    /// lands on one (mesh-edge draws yield `None`, keeping the number of
    /// RNG consumptions per call fixed).
    fn draw_link(&mut self, mesh: &Mesh) -> Option<(NodeId, Direction)> {
        let raw = self.rng.gen_range(mesh.nodes() as u64 * 4);
        let node = NodeId((raw / 4) as u16);
        let dir = crate::network::DIRS[(raw % 4) as usize];
        mesh.neighbor(node, dir).map(|_| (node, dir))
    }

    /// Produces this cycle's events: due scheduled events plus random
    /// draws. Called exactly once per cycle, by `Noc::step` or, across an
    /// empty network, by `Noc::skip_to` (no flight opens under an installed
    /// plane, so no cycle is carried in closed form past it).
    pub(crate) fn step(&mut self, now: Cycle, mesh: &Mesh) -> Vec<FaultEvent> {
        let mut events = Vec::new();
        while let Some((at, ev)) = self.scheduled.get(self.next_scheduled) {
            if *at > now {
                break;
            }
            events.push(*ev);
            self.next_scheduled += 1;
            self.stats.scheduled_replayed += 1;
        }
        // Random draws, in a fixed order so the stream is reproducible.
        if self.rates.transient_link_rate > 0.0 && self.rng.gen_bool(self.rates.transient_link_rate)
        {
            if let Some((node, dir)) = self.draw_link(mesh) {
                events.push(FaultEvent::LinkDown {
                    node,
                    dir,
                    heal_after: Some(self.rates.transient_cycles),
                });
            }
        }
        if self.rates.stall_rate > 0.0 && self.rng.gen_bool(self.rates.stall_rate) {
            let node = NodeId(self.rng.gen_range(mesh.nodes() as u64) as u16);
            events.push(FaultEvent::RouterStall {
                node,
                cycles: self.rates.stall_cycles,
            });
        }
        if self.rates.permanent_link_rate > 0.0
            && self.permanent_killed < self.rates.max_permanent_links
            && self.rng.gen_bool(self.rates.permanent_link_rate)
        {
            if let Some((node, dir)) = self.draw_link(mesh) {
                events.push(FaultEvent::LinkDown {
                    node,
                    dir,
                    heal_after: None,
                });
            }
        }
        for ev in &events {
            match ev {
                FaultEvent::LinkDown {
                    heal_after: Some(_),
                    ..
                } => self.stats.transient_links += 1,
                FaultEvent::LinkDown {
                    heal_after: None, ..
                } => {
                    self.stats.permanent_links += 1;
                    self.permanent_killed += 1;
                }
                FaultEvent::RouterStall { .. } => self.stats.router_stalls += 1,
            }
        }
        events
    }

    /// One corruption roll for a flit entering a link.
    pub(crate) fn corrupt_roll(&mut self) -> bool {
        if self.rates.corrupt_per_hop <= 0.0 {
            return false;
        }
        let hit = self.rng.gen_bool(self.rates.corrupt_per_hop);
        if hit {
            self.stats.corrupted_flits += 1;
        }
        hit
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mesh() -> Mesh {
        Mesh::new(4, 4)
    }

    #[test]
    fn scripted_plane_replays_in_order() {
        let mut p = FaultPlane::new(1, 0.0);
        let stall = FaultEvent::RouterStall {
            node: NodeId(3),
            cycles: 10,
        };
        let kill = FaultEvent::LinkDown {
            node: NodeId(5),
            dir: Direction::East,
            heal_after: None,
        };
        p.schedule(Cycle(20), kill);
        p.schedule(Cycle(10), stall);
        assert!(p.step(Cycle(5), &mesh()).is_empty());
        assert_eq!(p.step(Cycle(10), &mesh()), vec![stall]);
        assert!(p.step(Cycle(15), &mesh()).is_empty());
        assert_eq!(p.step(Cycle(20), &mesh()), vec![kill]);
        assert_eq!(p.stats().scheduled_replayed, 2);
    }

    #[test]
    fn same_seed_same_fault_sequence() {
        let run = || {
            let mut p = FaultPlane::new(42, 0.05);
            let mut all = Vec::new();
            for c in 0..5_000u64 {
                all.extend(p.step(Cycle(c), &mesh()));
            }
            (all, *p.stats())
        };
        let (a, sa) = run();
        let (b, sb) = run();
        assert_eq!(a, b);
        assert_eq!(sa, sb);
        assert!(!a.is_empty(), "a 5%/cycle plane must fire within 5k cycles");
    }

    #[test]
    fn permanent_kills_respect_the_cap() {
        let mut p = FaultPlane::new(7, 0.5);
        p.rates.max_permanent_links = 2;
        for c in 0..20_000u64 {
            p.step(Cycle(c), &mesh());
        }
        assert_eq!(p.stats().permanent_links, 2);
    }

    #[test]
    fn corruption_rolls_follow_the_configured_rate() {
        let mut p = FaultPlane::new(3, 0.0);
        p.rates.corrupt_per_hop = 0.25;
        let hits = (0..10_000).filter(|_| p.corrupt_roll()).count();
        assert!((1_500..3_500).contains(&hits), "hits={hits}");
    }
}
