//! The chaos plane: seeded fault injection for the NoC.
//!
//! A [`FaultPlane`] is installed on a [`crate::Noc`] and, each cycle,
//! produces [`FaultEvent`]s from two sources:
//!
//! - an explicit **schedule** (`schedule()`), replayed at exact cycles, and
//! - **rate-based random draws** from a [`apiary_sim::SimRng`] seeded at
//!   construction, so a given `(seed, config)` pair always injects the same
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

/// Rates and magnitudes for random fault generation. All rates are
/// per-cycle probabilities of one event being drawn somewhere in the mesh.
#[derive(Debug, Clone, Copy)]
pub struct FaultPlaneConfig {
    /// RNG seed; same seed, same fault sequence.
    pub seed: u64,
    /// Probability that any given flit is corrupted while crossing a link.
    pub corrupt_per_hop: f64,
    /// Per-cycle probability that some link starts a transient outage.
    pub transient_link_rate: f64,
    /// Length of a transient outage, cycles.
    pub transient_cycles: u64,
    /// Per-cycle probability that some router stalls.
    pub stall_rate: f64,
    /// Length of a router stall, cycles.
    pub stall_cycles: u64,
    /// Per-cycle probability that some link dies permanently.
    pub permanent_link_rate: f64,
    /// Upper bound on permanently killed links (so a long run cannot
    /// partition the whole mesh).
    pub max_permanent_links: usize,
}

impl FaultPlaneConfig {
    /// A plane that only replays its explicit schedule.
    pub fn scripted(seed: u64) -> FaultPlaneConfig {
        FaultPlaneConfig {
            seed,
            corrupt_per_hop: 0.0,
            transient_link_rate: 0.0,
            transient_cycles: 0,
            stall_rate: 0.0,
            stall_cycles: 0,
            permanent_link_rate: 0.0,
            max_permanent_links: 0,
        }
    }

    /// A preset whose aggression scales with a single knob `rate`
    /// (used by the E16 sweep). `rate` is roughly the per-cycle
    /// probability of *some* disruptive event.
    pub fn with_rate(seed: u64, rate: f64) -> FaultPlaneConfig {
        FaultPlaneConfig {
            seed,
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
    cfg: FaultPlaneConfig,
    rng: SimRng,
    /// Explicit schedule, kept sorted by cycle (stable for equal cycles).
    scheduled: Vec<(Cycle, FaultEvent)>,
    /// Cursor into `scheduled`.
    next_scheduled: usize,
    permanent_killed: usize,
    stats: FaultPlaneStats,
}

impl FaultPlane {
    /// Builds a plane; random draws come from `cfg.seed`.
    pub fn new(cfg: FaultPlaneConfig) -> FaultPlane {
        FaultPlane {
            rng: SimRng::new(cfg.seed),
            cfg,
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

    /// The configuration.
    pub fn config(&self) -> &FaultPlaneConfig {
        &self.cfg
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
        if self.cfg.transient_link_rate > 0.0 && self.rng.gen_bool(self.cfg.transient_link_rate) {
            if let Some((node, dir)) = self.draw_link(mesh) {
                events.push(FaultEvent::LinkDown {
                    node,
                    dir,
                    heal_after: Some(self.cfg.transient_cycles),
                });
            }
        }
        if self.cfg.stall_rate > 0.0 && self.rng.gen_bool(self.cfg.stall_rate) {
            let node = NodeId(self.rng.gen_range(mesh.nodes() as u64) as u16);
            events.push(FaultEvent::RouterStall {
                node,
                cycles: self.cfg.stall_cycles,
            });
        }
        if self.cfg.permanent_link_rate > 0.0
            && self.permanent_killed < self.cfg.max_permanent_links
            && self.rng.gen_bool(self.cfg.permanent_link_rate)
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
        if self.cfg.corrupt_per_hop <= 0.0 {
            return false;
        }
        let hit = self.rng.gen_bool(self.cfg.corrupt_per_hop);
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
        let mut p = FaultPlane::new(FaultPlaneConfig::scripted(1));
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
            let mut p = FaultPlane::new(FaultPlaneConfig::with_rate(42, 0.05));
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
        let mut cfg = FaultPlaneConfig::with_rate(7, 0.5);
        cfg.max_permanent_links = 2;
        let mut p = FaultPlane::new(cfg);
        for c in 0..20_000u64 {
            p.step(Cycle(c), &mesh());
        }
        assert_eq!(p.stats().permanent_links, 2);
    }

    #[test]
    fn corruption_rolls_follow_the_configured_rate() {
        let mut p = FaultPlane::new(FaultPlaneConfig {
            corrupt_per_hop: 0.25,
            ..FaultPlaneConfig::scripted(3)
        });
        let hits = (0..10_000).filter(|_| p.corrupt_roll()).count();
        assert!((1_500..3_500).contains(&hits), "hits={hits}");
    }
}
