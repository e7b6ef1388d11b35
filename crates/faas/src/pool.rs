//! The replica state machine, `Fetching → Loading → Live → reclaimed`, and
//! the pools it runs in.
//!
//! [`Pools`] holds every function's replicas and queue behind five
//! transitions (`push_replica`, `restate`, `remove_replica`, `push_queue`,
//! `pop_queue`), the only code that adds, removes or re-states either. Each
//! re-posts what [`FaasSystem::pump`] and [`FaasSystem::next_wakeup`] ask on
//! every step, so both read an answer in place of walking every pool. The
//! law, between any two public calls, is **posted = a fresh walk**
//! ([`Pools::check`]) of: `bringing`, the functions with a replica not yet
//! `Live`; `waiting`, the functions with a queued invocation; `fetch_due`,
//! the earliest `ready_at` of a `Fetching` replica; `queue_due`, the
//! earliest queue-front deadline.
//!
//! The second `impl FaasSystem` below is the steps that move a replica
//! along the machine; they go through the transitions like everyone else.

use crate::orchestrator::FaasSystem;
use apiary_core::FaultPolicy;
use apiary_noc::NodeId;
use apiary_sim::{Cycle, Payload};
use std::collections::{BTreeSet, VecDeque};

/// Lifecycle of one replica slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplicaState {
    /// Cache miss: the bitstream is streaming from the store; the tile and
    /// area are already reserved.
    Fetching {
        /// Cycle the fetch completes and the ICAP load can start.
        ready_at: Cycle,
    },
    /// Bitstream loading through the ICAP; directory entry not yet
    /// republished.
    Loading,
    /// Published and serving (the gateway holds its client cap).
    Live,
}

#[derive(Debug, Clone)]
pub(crate) struct Replica {
    pub(crate) board: u16,
    pub(crate) node: NodeId,
    pub(crate) state: ReplicaState,
}

pub(crate) struct Queued {
    pub(crate) tag: u64,
    pub(crate) origin: u16,
    pub(crate) payload: Payload,
    pub(crate) deadline: Cycle,
}

/// What the control loop asks of the pools on every step.
#[derive(Debug, PartialEq, Eq)]
struct Posted {
    bringing: BTreeSet<usize>,
    waiting: BTreeSet<usize>,
    fetch_due: Cycle,
    queue_due: Cycle,
}

/// Every function's pool, indexed like `FaasSystem::functions`.
#[derive(Default)]
pub(crate) struct Pools {
    replicas: Vec<Vec<Replica>>,
    queues: Vec<VecDeque<Queued>>,
    posted: Posted,
}

impl Pools {
    pub(crate) fn register(&mut self) {
        self.replicas.push(Vec::new());
        self.queues.push(VecDeque::new());
    }

    pub(crate) fn push_replica(&mut self, f: usize, r: Replica) {
        self.replicas[f].push(r);
        self.repost(f);
    }

    pub(crate) fn restate(&mut self, f: usize, ri: usize, state: ReplicaState) {
        self.replicas[f][ri].state = state;
        self.repost(f);
    }

    pub(crate) fn remove_replica(&mut self, f: usize, ri: usize) -> Replica {
        let r = self.replicas[f].remove(ri);
        self.repost(f);
        r
    }

    pub(crate) fn push_queue(&mut self, f: usize, q: Queued) {
        self.queues[f].push_back(q);
        self.repost(f);
    }

    pub(crate) fn pop_queue(&mut self, f: usize) -> Option<Queued> {
        let q = self.queues[f].pop_front();
        self.repost(f);
        q
    }

    /// Re-posts after a transition of `f`: its two memberships, and both
    /// deadlines from the few functions that can hold one.
    fn repost(&mut self, f: usize) {
        let posted = &mut self.posted;
        posted.bringing.remove(&f);
        if self.replicas[f].iter().any(coming) {
            posted.bringing.insert(f);
        }
        posted.waiting.remove(&f);
        if !self.queues[f].is_empty() {
            posted.waiting.insert(f);
        }
        posted.fetch_due = fetch_due(posted.bringing.iter().map(|&f| &self.replicas[f]));
        posted.queue_due = queue_due(posted.waiting.iter().map(|&f| &self.queues[f]));
    }

    pub(crate) fn replicas(&self, f: usize) -> &[Replica] {
        &self.replicas[f]
    }

    pub(crate) fn queue(&self, f: usize) -> &VecDeque<Queued> {
        &self.queues[f]
    }

    pub(crate) fn live(&self, f: usize) -> usize {
        self.replicas[f].iter().filter(|r| !coming(r)).count()
    }

    /// The first function at or after `from` with a replica coming up.
    /// Walking with this is in function order and survives transitions
    /// made on the way.
    pub(crate) fn bringing_from(&self, from: usize) -> Option<usize> {
        self.posted.bringing.range(from..).next().copied()
    }

    /// Likewise, with a queued invocation.
    pub(crate) fn waiting_from(&self, from: usize) -> Option<usize> {
        self.posted.waiting.range(from..).next().copied()
    }

    /// The earliest fetch completion or queue expiry, `Cycle::MAX` if none.
    pub(crate) fn timer_due(&self) -> Cycle {
        self.posted.fetch_due.min(self.posted.queue_due)
    }

    /// The law: everything posted equals a fresh walk of every pool.
    pub(crate) fn check(&self) -> Result<(), String> {
        let fresh = Posted::walk(&self.replicas, &self.queues);
        if self.posted == fresh {
            return Ok(());
        }
        Err(format!("posted {:?}, a walk finds {fresh:?}", self.posted))
    }
}

impl Default for Posted {
    fn default() -> Posted {
        Posted::walk(&[], &[])
    }
}

impl Posted {
    /// What `pump` and `next_wakeup` used to find on every step.
    fn walk(replicas: &[Vec<Replica>], queues: &[VecDeque<Queued>]) -> Posted {
        let functions = 0..replicas.len();
        let coming_up = |f: &usize| replicas[*f].iter().any(coming);
        Posted {
            bringing: functions.clone().filter(coming_up).collect(),
            waiting: functions.filter(|&f| !queues[f].is_empty()).collect(),
            fetch_due: fetch_due(replicas.iter()),
            queue_due: queue_due(queues.iter()),
        }
    }
}

fn coming(r: &Replica) -> bool {
    r.state != ReplicaState::Live
}

fn fetch_due<'a>(pools: impl Iterator<Item = &'a Vec<Replica>>) -> Cycle {
    let ready = pools.flatten().filter_map(|r| match r.state {
        ReplicaState::Fetching { ready_at } => Some(ready_at),
        _ => None,
    });
    ready.min().unwrap_or(Cycle::MAX)
}

/// FIFO queues with one timeout have monotone deadlines, so a queue's front
/// is its earliest.
fn queue_due<'a>(queues: impl Iterator<Item = &'a VecDeque<Queued>>) -> Cycle {
    let fronts = queues.filter_map(|q| q.front().map(|q| q.deadline));
    fronts.min().unwrap_or(Cycle::MAX)
}

impl FaasSystem {
    /// Starts one replica deploy for `fn_idx`: power-of-two-choices over
    /// boards with a free tile and area headroom, then cache lookup →
    /// fetch (miss) or straight to the ICAP (hit). Returns whether a
    /// deploy started.
    pub(crate) fn start_deploy(&mut self, fn_idx: usize) -> bool {
        let now = self.cluster.now();
        let footprint = self.functions[fn_idx].spec.footprint;
        let candidates: Vec<u16> = (0..self.cfg.cluster.boards)
            .filter(|&b| {
                let l = &self.boards[b as usize];
                self.cluster.alive(b)
                    && !l.free_nodes.is_empty()
                    && (l.used + footprint).fits_in(&l.budget)
                    && !self.pools.replicas(fn_idx).iter().any(|r| r.board == b)
            })
            .collect();
        let board = match candidates.len() {
            0 => {
                self.scale_up_denied += 1;
                return false;
            }
            1 => candidates[0],
            n => {
                // Power of two choices on area utilisation; lower board id
                // breaks ties so the draw order alone decides nothing.
                let a = candidates[self.rng.gen_range(n as u64) as usize];
                let b = candidates[self.rng.gen_range(n as u64) as usize];
                let util = |x: u16| {
                    let l = &self.boards[x as usize];
                    l.used.utilisation_of(&l.budget)
                };
                let (ua, ub) = (util(a), util(b));
                if ua < ub || (ua == ub && a <= b) {
                    a
                } else {
                    b
                }
            }
        };
        let ledger = &mut self.boards[board as usize];
        let node = *ledger.free_nodes.iter().next().expect("candidate has one");
        ledger.free_nodes.remove(&node);
        ledger.used += footprint;
        let spec = &self.functions[fn_idx].spec;
        let bytes = spec.bitstream_bytes;
        let hit = ledger.cache.lookup(&spec.name);
        if !hit {
            ledger.cache.insert(&spec.name, bytes);
        }
        let state = if !hit {
            ReplicaState::Fetching {
                ready_at: now + bytes.div_ceil(self.cfg.fetch_bytes_per_cycle.max(1)),
            }
        } else if self.icap_load(fn_idx, board, node) {
            ReplicaState::Loading
        } else {
            self.release(fn_idx, board, node);
            self.scale_up_denied += 1;
            return false;
        };
        self.functions[fn_idx].deploys += 1;
        self.pools
            .push_replica(fn_idx, Replica { board, node, state });
        true
    }

    /// Pushes a fetched bitstream into the ICAP via the cluster's pool
    /// hook. The directory entry appears when the republish pass fires.
    fn icap_load(&mut self, fn_idx: usize, board: u16, node: NodeId) -> bool {
        let f = &self.functions[fn_idx];
        let factory = f.spec.factory.clone();
        self.cluster
            .pool_deploy(
                board,
                &f.spec.name,
                f.service,
                node,
                f.spec.app,
                FaultPolicy::FailStop,
                f.spec.bitstream_bytes,
                Box::new(move || factory()),
            )
            .is_ok()
    }

    /// Returns a replica's tile and footprint to its board's ledger.
    fn release(&mut self, fn_idx: usize, board: u16, node: NodeId) {
        let ledger = &mut self.boards[board as usize];
        ledger.free_nodes.insert(node);
        ledger.used = ledger
            .used
            .saturating_sub(&self.functions[fn_idx].spec.footprint);
    }

    /// Fetches that finished start their ICAP load, in function-then-replica
    /// order: the ICAP serialises same-cycle loads, so the order is
    /// simulated behaviour.
    pub(crate) fn finish_fetches(&mut self, now: Cycle) {
        let mut from = 0;
        while let Some(fn_idx) = self.pools.bringing_from(from) {
            from = fn_idx + 1;
            for ri in 0..self.pools.replicas(fn_idx).len() {
                let r = self.pools.replicas(fn_idx)[ri].clone();
                if !matches!(r.state, ReplicaState::Fetching { ready_at } if ready_at <= now) {
                    continue;
                }
                if self.icap_load(fn_idx, r.board, r.node) {
                    self.pools.restate(fn_idx, ri, ReplicaState::Loading);
                } else {
                    // Tile unusable (should not happen on a live board):
                    // release the reservation; the function's later
                    // fetches wait for the next pump.
                    self.pools.remove_replica(fn_idx, ri);
                    self.release(fn_idx, r.board, r.node);
                    self.scale_up_denied += 1;
                    break;
                }
            }
        }
    }

    /// Loading → Live once the republish pass wired the gateway.
    pub(crate) fn promote_loaded(&mut self) {
        let mut from = 0;
        while let Some(fn_idx) = self.pools.bringing_from(from) {
            from = fn_idx + 1;
            let service = self.functions[fn_idx].service;
            for ri in 0..self.pools.replicas(fn_idx).len() {
                let r = &self.pools.replicas(fn_idx)[ri];
                if r.state == ReplicaState::Loading && self.cluster.has_local_cap(r.board, service)
                {
                    self.pools.restate(fn_idx, ri, ReplicaState::Live);
                }
            }
        }
    }

    /// Reclaims one replica of an idle function: a still-fetching slot is
    /// cancelled outright (nothing touched the cluster yet); otherwise the
    /// highest-board live replica is torn down through the tombstoning
    /// pool hook. Loading replicas are skipped — the ICAP completion would
    /// resurrect a decommissioned tile.
    pub(crate) fn reclaim_one(&mut self, fn_idx: usize) {
        let replicas = self.pools.replicas(fn_idx);
        let fetching = |r: &Replica| matches!(r.state, ReplicaState::Fetching { .. });
        let (ri, node) = if let Some(ri) = replicas.iter().position(fetching) {
            (ri, replicas[ri].node)
        } else if let Some(ri) = replicas.iter().rposition(|r| r.state == ReplicaState::Live) {
            let name = &self.functions[fn_idx].spec.name;
            // Refused mid-reconfiguration (racing a deploy): try again at
            // the next boundary.
            let Ok(node) = self.cluster.pool_teardown(replicas[ri].board, name) else {
                return;
            };
            (ri, node)
        } else {
            return;
        };
        let board = self.pools.remove_replica(fn_idx, ri).board;
        self.release(fn_idx, board, node);
        self.functions[fn_idx].reclaims += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::orchestrator::{FaasConfig, FunctionSpec};
    use apiary_accel::apps::echo::echo;
    use apiary_cluster::ClusterConfig;
    use apiary_core::AppId;
    use apiary_resources::Area;
    use apiary_sim::{ClockMode, Machine};
    use std::rc::Rc;

    const AUTOSCALE: u64 = 2_000;

    /// A fleet with one function per bitstream size, shrinking a pool after
    /// `idle_intervals_to_zero` idle intervals.
    fn fleet(
        boards: u16,
        clock: ClockMode,
        idle_intervals_to_zero: u64,
        bitstreams: &[u64],
    ) -> FaasSystem {
        let mut cluster = ClusterConfig {
            boards,
            ..ClusterConfig::default()
        };
        cluster.system.clock = clock;
        let mut s = FaasSystem::new(FaasConfig {
            cluster,
            autoscale_interval: AUTOSCALE,
            idle_intervals_to_zero,
            ..FaasConfig::default()
        });
        for (i, &bitstream_bytes) in bitstreams.iter().enumerate() {
            s.register(FunctionSpec {
                name: format!("fn{i}"),
                footprint: Area::logic(50_000, 50_000),
                bitstream_bytes,
                app: AppId(1),
                factory: Rc::new(|| Box::new(echo(40))),
            });
        }
        s
    }

    /// Runs `run` under both clocks; they must tell the same story.
    fn under_both_clocks<T: PartialEq + std::fmt::Debug>(run: impl Fn(ClockMode) -> T) -> T {
        let event = run(ClockMode::Event);
        assert_eq!(event, run(ClockMode::Dense), "event against dense");
        event
    }

    /// The one replica of `f`.
    fn state(s: &FaasSystem, f: usize) -> ReplicaState {
        s.pools.replicas(f)[0].state
    }

    #[test]
    fn same_cycle_fetches_reach_the_icap_in_function_order() {
        let changes = under_both_clocks(|clock| {
            let mut s = fleet(1, clock, u64::MAX, &[4_096, 4_096]);
            // The higher index first: posting order must not decide.
            s.invoke(1, 1, 0, vec![0; 16]);
            s.invoke(0, 1, 0, vec![0; 16]);
            let mut seen = [state(&s, 0), state(&s, 1)];
            assert_eq!(seen[0], seen[1], "equal bitstreams fetch for as long");
            let mut changes = Vec::new();
            while seen != [ReplicaState::Live; 2] {
                assert!(s.now() < Cycle(60_000), "both go live: {changes:?}");
                s.advance_toward(Cycle(60_000));
                for (f, seen) in seen.iter_mut().enumerate() {
                    if state(&s, f) != *seen {
                        *seen = state(&s, f);
                        changes.push((s.now(), f, *seen));
                    }
                }
            }
            changes
        });
        // Both fetches end on one cycle; the ICAP then serialises the loads
        // in the order `finish_fetches` offered them.
        let fetched = Cycle(4_096 / 2);
        assert_eq!(changes[0], (fetched, 0, ReplicaState::Loading));
        assert_eq!(changes[1], (fetched, 1, ReplicaState::Loading));
        let (live0, live1) = (changes[2], changes[3]);
        assert_eq!((live0.1, live1.1), (0, 1), "lower index live first");
        assert!(live1.0 >= live0.0 + 4_096 / 4, "one ICAP: {changes:?}");
    }

    #[test]
    fn a_cancelled_fetch_takes_its_deadline_with_it() {
        under_both_clocks(|clock| {
            // A 50k-cycle fetch: the caller gives up at 10k, and two idle
            // intervals later the autoscaler cancels the slot mid-fetch.
            let mut s = fleet(2, clock, 2, &[100_000]);
            s.invoke(0, 1, 0, vec![0; 16]);
            assert!(matches!(state(&s, 0), ReplicaState::Fetching { .. }));
            assert!(s.run_until(30_000, |s| s.stats(0).reclaims == 1));
            assert_eq!((s.stats(0).pending, s.stats(0).expired), (0, 1));
            s.check_invariants().unwrap();
            assert!(s.quiescent());
            s.now()
        });
    }

    #[test]
    fn a_loading_replica_keeps_nobody_awake() {
        // Function 1's bitstream takes 20k cycles to fetch (its caller
        // gives up at 10k) and 10k to load, while function 0 serves.
        let (loading_from, live_at, _) = under_both_clocks(|clock| {
            let mut s = fleet(2, clock, u64::MAX, &[4_096, 40_000]);
            s.invoke(0, 1, 0, vec![0; 16]);
            assert!(s.run_until(60_000, |s| s.stats(0).completed_ok == 1));
            s.invoke(1, 1, 0, vec![0; 16]);
            let (board, service) = (s.pools.replicas(1)[0].board, s.functions[1].service);
            let mut loading_from = None;
            let mut next_call = s.now();
            while state(&s, 1) != ReplicaState::Live {
                assert!(s.now() < Cycle(120_000), "function 1 goes live");
                if s.now() >= next_call {
                    s.invoke(0, 1, 0, vec![0; 16]);
                    next_call = s.now() + 300;
                }
                s.advance_toward(next_call);
                let cap = s.cluster.has_local_cap(board, service);
                assert_eq!(cap, state(&s, 1) == ReplicaState::Live, "at {}", s.now());
                if state(&s, 1) == ReplicaState::Loading {
                    let boundary = (s.now().as_u64() / AUTOSCALE + 1) * AUTOSCALE;
                    assert_eq!(s.next_wakeup(Cycle::MAX), Cycle(boundary));
                    loading_from = loading_from.or(Some(s.now()));
                }
            }
            s.check_invariants().unwrap();
            assert!(s.stats(0).completed_ok > 50, "warm traffic flowed");
            (loading_from, s.now(), [s.stats(0), s.stats(1)])
        });
        let span = live_at - loading_from.expect("it loaded");
        assert!(span > 5_000, "loading for thousands of cycles: {span}");
    }
}
