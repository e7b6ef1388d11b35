//! The function orchestrator: register → deploy → invoke → autoscale →
//! scale-to-zero.
//!
//! An [`FpgaFunction`](FunctionSpec) is a bitstream with an area footprint.
//! The orchestrator owns a fleet of boards (a [`ClusterSystem`]) and, per
//! board, an **elastic area ledger**: the floor-planner's per-tile dynamic
//! slot times the number of usable tiles, treated as one FOS-style shared
//! budget that every resident function's footprint must pack into. A
//! replica therefore consumes two resources — one mesh node (the tile that
//! hosts it) and its footprint out of the board's area budget — and both
//! are checked before placement.
//!
//! **Cold-start cost model.** A cold start pays, in order: bitstream fetch
//! from the store on a cache miss (`bitstream_bytes / fetch_bytes_per_cycle`
//! cycles), the ICAP partial-reconfiguration load (priced by the board's
//! `icap_bytes_per_cycle` through [`ClusterSystem::pool_deploy`]), gateway
//! re-wiring and directory publication (the republish pass), plus gossip
//! propagation if the invocation entered at another board. Warm
//! invocations skip all of it and go straight through the directory to a
//! live replica.
//!
//! **Autoscaler.** At fixed interval boundaries each function's queue
//! depth is compared against `TARGET_QUEUE_PER_REPLICA x (live + pending)`
//! replicas; excess demand grows the pool by one replica, placed by
//! power-of-two-choices over the boards' area utilisation. A function idle
//! for `idle_intervals_to_zero` consecutive intervals shrinks by one
//! replica per boundary — down to zero, at which point its directory
//! entries are tombstoned ([`ClusterSystem::pool_teardown`]), its tiles
//! and area returned, and the next invocation pays a measured cold start.
//!
//! **Determinism rules.** Every timer is an absolute cycle surfaced by
//! [`FaasSystem::next_wakeup`]; [`FaasSystem::pump`] runs after every
//! executed cycle and is a provable no-op on cycles the event clock skips
//! (its remaining triggers — completions, republishes, gossip merges — are
//! all board- or fabric-eventful). The only randomness is the seeded
//! placement RNG, drawn in a fixed order. What `pump` visits and when
//! `next_wakeup` is due are read from what the pools post (`pool.rs`).
//! The ledger laws are in `orchestrator/invariants.rs`.

mod invariants;

use crate::admission::{AdmissionConfig, TenantAdmission};
use crate::cache::BitstreamCache;
pub use crate::pool::ReplicaState;
use crate::pool::{Pools, Queued};
use apiary_accel::Accelerator;
use apiary_cap::ServiceId;
use apiary_cluster::{ClusterConfig, ClusterSystem, SubmitError, GATEWAY};
use apiary_core::AppId;
use apiary_noc::NodeId;
use apiary_resources::{Area, FloorPlanner, Part};
use apiary_sim::{ClockMode, Cycle, Machine, Payload, SimRng};
use apiary_trace::LatencyTracker;
use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;

/// Service ids for functions start here, clear of the hand-assigned ids
/// experiments use for statically deployed services.
const FN_SERVICE_BASE: u32 = 0x4600; // "F"

/// Part number every board is built from (resolved in the catalog).
const PART: &str = "VU9P";

/// Queue depth one replica is expected to absorb; deeper queues grow the
/// pool.
const TARGET_QUEUE_PER_REPLICA: u64 = 4;

/// Serverless-plane configuration. Every board is a VU9P floor-planned
/// with [`FaasConfig::DEFAULT_MONITOR`] per tile.
pub struct FaasConfig {
    /// The board fleet underneath.
    pub cluster: ClusterConfig,
    /// Per-board bitstream cache capacity, bytes.
    pub cache_bytes: u64,
    /// Bitstream-store fetch bandwidth on a cache miss, bytes/cycle
    /// (host DRAM or network — much slower than the ICAP).
    pub fetch_bytes_per_cycle: u64,
    /// Cycles between autoscaler boundaries.
    pub autoscale_interval: u64,
    /// Consecutive idle autoscale intervals before a function starts
    /// shrinking toward zero.
    pub idle_intervals_to_zero: u64,
    /// Cycles a queued invocation may wait for a replica before it is
    /// completed as an error (the cluster's `request_timeout` only covers
    /// submitted work).
    pub queue_timeout: u64,
    /// Per-tenant ingress policy.
    pub admission: AdmissionConfig,
    /// Placement RNG seed (power-of-two-choices draws).
    pub seed: u64,
}

impl FaasConfig {
    /// The per-tile monitor area every board is floor-planned with — the
    /// representative implementation the resource experiments use
    /// (CAM-assisted cap table in BRAM, wire checks in LUTs).
    pub const DEFAULT_MONITOR: Area = Area {
        luts: 2_000,
        ffs: 2_500,
        bram36: 4,
        dsps: 0,
    };
}

impl Default for FaasConfig {
    fn default() -> Self {
        FaasConfig {
            cluster: ClusterConfig::default(),
            cache_bytes: 24 << 10,
            fetch_bytes_per_cycle: 2,
            autoscale_interval: 2_000,
            idle_intervals_to_zero: 3,
            queue_timeout: 10_000,
            admission: AdmissionConfig::default(),
            seed: 0xFAA5_0001,
        }
    }
}

/// A registered FPGA function: the deployable unit of the serverless
/// plane.
#[derive(Clone)]
pub struct FunctionSpec {
    /// Directory name replicas publish under.
    pub name: String,
    /// Area footprint, packed into a board's elastic budget per replica.
    pub footprint: Area,
    /// Partial bitstream size — prices both the store fetch and the ICAP
    /// load.
    pub bitstream_bytes: u64,
    /// Owning application (capability isolation domain).
    pub app: AppId,
    /// Builds a fresh accelerator instance per deploy.
    pub factory: Rc<dyn Fn() -> Box<dyn Accelerator>>,
}

/// A registered function's identity and counters; its replicas and queue
/// are its pool's ([`Pools`]).
pub(crate) struct Function {
    pub(crate) spec: FunctionSpec,
    pub(crate) service: ServiceId,
    invoked_this_interval: bool,
    idle_intervals: u64,
    invocations: u64,
    cold_invocations: u64,
    completed_ok: u64,
    completed_err: u64,
    expired: u64,
    pub(crate) deploys: u64,
    pub(crate) reclaims: u64,
}

/// One board's elastic resource ledger.
pub(crate) struct BoardLedger {
    /// Shared dynamic-region budget: tile slot x usable tiles.
    pub(crate) budget: Area,
    /// Footprints of resident (and reserving) replicas.
    pub(crate) used: Area,
    /// Usable mesh nodes not hosting a replica.
    pub(crate) free_nodes: BTreeSet<NodeId>,
    pub(crate) cache: BitstreamCache,
}

struct Inflight {
    fn_idx: usize,
    tenant: u32,
    cold: bool,
    arrival: Cycle,
}

/// What happened to an invocation at the front door.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InvokeOutcome {
    /// Shed by per-tenant admission; never entered the system.
    Throttled,
    /// Submitted straight to a live replica (warm path).
    Submitted,
    /// Queued awaiting a replica; `cold` if no replica was live, so this
    /// invocation's latency includes a cold start.
    Queued {
        /// Whether the function had zero live replicas at arrival.
        cold: bool,
    },
    /// Completed as an error immediately (origin board dead).
    Failed,
}

/// A completed (or expired) invocation, for the experiment driver.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Finished {
    /// Function index from [`FaasSystem::register`].
    pub fn_idx: usize,
    /// Tenant that issued it.
    pub tenant: u32,
    /// Whether it arrived cold (no live replica).
    pub cold: bool,
    /// Successful reply (vs error, timeout, or queue expiry).
    pub ok: bool,
    /// Arrival cycle at the orchestrator.
    pub arrival: Cycle,
    /// Completion cycle.
    pub finished_at: Cycle,
}

/// A point-in-time summary of one function's pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaasStats {
    /// Invocations admitted for this function.
    pub invocations: u64,
    /// Of those, arrivals with zero live replicas.
    pub cold_invocations: u64,
    /// Successful completions.
    pub completed_ok: u64,
    /// Error completions (timeouts, refusals, dead tiles).
    pub completed_err: u64,
    /// Queued invocations expired waiting for a replica.
    pub expired: u64,
    /// Replica deploys started (cache hit or miss).
    pub deploys: u64,
    /// Replicas reclaimed by scale-down.
    pub reclaims: u64,
    /// Replicas currently live.
    pub live: usize,
    /// Replicas currently fetching or loading.
    pub pending: usize,
    /// Invocations currently queued.
    pub queue_depth: usize,
}

/// The serverless plane over a board fleet.
pub struct FaasSystem {
    pub(crate) cfg: FaasConfig,
    pub(crate) cluster: ClusterSystem,
    pub(crate) boards: Vec<BoardLedger>,
    pub(crate) functions: Vec<Function>,
    pub(crate) pools: Pools,
    inflight: BTreeMap<u64, Inflight>,
    admission: TenantAdmission,
    pub(crate) rng: SimRng,
    next_tag: u64,
    next_autoscale: Cycle,
    finished: Vec<Finished>,
    /// Latency of invocations that arrived cold (includes fetch, ICAP
    /// load, publication, and queueing).
    pub cold_latency: LatencyTracker,
    /// Latency of invocations that arrived with a live replica.
    pub warm_latency: LatencyTracker,
    /// Scale-ups denied because no board had both a free tile and area.
    pub scale_up_denied: u64,
    /// Queue flushes deferred by gateway backpressure.
    pub refusals: u64,
}

impl FaasSystem {
    /// Builds the fleet and floor-plans every board's elastic budget.
    ///
    /// # Panics
    ///
    /// Panics if the Apiary framework does not fit the part — a
    /// configuration error.
    pub fn new(cfg: FaasConfig) -> FaasSystem {
        let part = Part::by_number(PART).expect("part in catalog");
        let nodes = cfg.cluster.system.noc.nodes() as u16;
        let mem_node = cfg.cluster.system.memory_node();
        let usable: BTreeSet<NodeId> = (0..nodes)
            .map(NodeId)
            .filter(|&n| n != GATEWAY && n != mem_node)
            .collect();
        let plan = FloorPlanner {
            tiles: nodes as u64,
            monitor: FaasConfig::DEFAULT_MONITOR,
            router: FloorPlanner::SOFT_ROUTER,
            io_shell: FloorPlanner::IO_SHELL,
        }
        .plan(part)
        .expect("Apiary framework fits the part");
        let budget = plan.tile_slot * usable.len() as u64;
        let cluster = ClusterSystem::new(cfg.cluster.clone());
        let boards = (0..cfg.cluster.boards)
            .map(|_| BoardLedger {
                budget,
                used: Area::ZERO,
                free_nodes: usable.clone(),
                cache: BitstreamCache::new(cfg.cache_bytes),
            })
            .collect();
        let admission = TenantAdmission::new(cfg.admission);
        let rng = SimRng::new(cfg.seed);
        let next_autoscale = Cycle(cfg.autoscale_interval);
        FaasSystem {
            cfg,
            cluster,
            boards,
            functions: Vec::new(),
            pools: Pools::default(),
            inflight: BTreeMap::new(),
            admission,
            rng,
            next_tag: 1,
            next_autoscale,
            finished: Vec::new(),
            cold_latency: LatencyTracker::default(),
            warm_latency: LatencyTracker::default(),
            scale_up_denied: 0,
            refusals: 0,
        }
    }

    /// Registers a function; returns its index for [`FaasSystem::invoke`].
    /// Registration deploys nothing — the first invocation (or the
    /// autoscaler) does.
    ///
    /// # Panics
    ///
    /// Panics if the footprint cannot fit even an empty board.
    pub fn register(&mut self, spec: FunctionSpec) -> usize {
        assert!(
            spec.footprint.fits_in(&self.boards[0].budget),
            "function `{}` exceeds a whole board's elastic budget",
            spec.name
        );
        let service = ServiceId(FN_SERVICE_BASE + self.functions.len() as u32);
        self.functions.push(Function {
            spec,
            service,
            invoked_this_interval: false,
            idle_intervals: 0,
            invocations: 0,
            cold_invocations: 0,
            completed_ok: 0,
            completed_err: 0,
            expired: 0,
            deploys: 0,
            reclaims: 0,
        });
        self.pools.register();
        self.functions.len() - 1
    }

    /// Invokes a function on behalf of `tenant`, entering at `origin`'s
    /// gateway. Warm path: straight through the directory to a live
    /// replica. Cold path: queued, with a deploy started if none is in
    /// flight. The payload is made a [`Payload`] once: the submit and the
    /// queue share its buffer.
    pub fn invoke(
        &mut self,
        fn_idx: usize,
        tenant: u32,
        origin: u16,
        payload: impl Into<Payload>,
    ) -> InvokeOutcome {
        let now = self.cluster.now();
        if !self.admission.admit(tenant, now) {
            return InvokeOutcome::Throttled;
        }
        let payload: Payload = payload.into();
        let tag = self.next_tag;
        self.next_tag += 1;
        let cold = self.pools.live(fn_idx) == 0;
        {
            let f = &mut self.functions[fn_idx];
            f.invocations += 1;
            f.invoked_this_interval = true;
            f.idle_intervals = 0;
            if cold {
                f.cold_invocations += 1;
            }
        }
        self.inflight.insert(
            tag,
            Inflight {
                fn_idx,
                tenant,
                cold,
                arrival: now,
            },
        );
        if !cold {
            let name = &self.functions[fn_idx].spec.name;
            match self.cluster.submit(origin, name, tag, payload.clone()) {
                Ok(_) => return InvokeOutcome::Submitted,
                Err(SubmitError::OriginDead) => {
                    self.complete(tag, false, now);
                    return InvokeOutcome::Failed;
                }
                // Directory lag or gateway backpressure: fall through to
                // the queue and retry from pump().
                Err(SubmitError::NoReplica) | Err(SubmitError::Refused) => {}
            }
        }
        let deadline = now + self.cfg.queue_timeout;
        let queued = Queued {
            tag,
            origin,
            payload,
            deadline,
        };
        self.pools.push_queue(fn_idx, queued);
        if cold && self.pending_replicas(fn_idx) == 0 {
            self.start_deploy(fn_idx);
        }
        InvokeOutcome::Queued { cold }
    }

    /// Completes `tag` toward trackers, counters and the finished log.
    fn complete(&mut self, tag: u64, ok: bool, now: Cycle) {
        let Some(inf) = self.inflight.remove(&tag) else {
            return;
        };
        if ok {
            let tracker = if inf.cold {
                &mut self.cold_latency
            } else {
                &mut self.warm_latency
            };
            tracker.record(inf.arrival, now);
            self.functions[inf.fn_idx].completed_ok += 1;
        } else {
            self.functions[inf.fn_idx].completed_err += 1;
        }
        self.finished.push(Finished {
            fn_idx: inf.fn_idx,
            tenant: inf.tenant,
            cold: inf.cold,
            ok,
            arrival: inf.arrival,
            finished_at: now,
        });
    }

    /// The orchestrator control loop: call once after every executed
    /// cluster cycle (both clocks). Order matters and is fixed: fetches →
    /// liveness promotion → queue flush → completions → queue expiry →
    /// autoscale boundaries.
    pub fn pump(&mut self) {
        let now = self.cluster.now();

        // 1, 2. Replicas coming up (`pool.rs`).
        self.assert_posted();
        self.finish_fetches(now);
        self.promote_loaded();

        // 3. Flush the waiting queues in function order, FIFO within each;
        //    stop at the first submit the directory or gateway cannot take
        //    yet.
        let mut from = 0;
        while let Some(fn_idx) = self.pools.waiting_from(from) {
            from = fn_idx + 1;
            while let Some(q) = self.pools.queue(fn_idx).front() {
                if q.deadline <= now {
                    let q = self.pools.pop_queue(fn_idx).expect("front");
                    self.functions[fn_idx].expired += 1;
                    self.complete(q.tag, false, now);
                    continue;
                }
                if self.pools.live(fn_idx) == 0 {
                    break;
                }
                let (tag, origin, payload) = (q.tag, q.origin, q.payload.clone());
                let name = &self.functions[fn_idx].spec.name;
                match self.cluster.submit(origin, name, tag, payload) {
                    Ok(_) => {
                        self.pools.pop_queue(fn_idx);
                    }
                    Err(SubmitError::NoReplica) => break, // gossip lag
                    Err(SubmitError::Refused) => {
                        self.refusals += 1;
                        break; // backpressure: retry next pump
                    }
                    Err(SubmitError::OriginDead) => {
                        self.pools.pop_queue(fn_idx);
                        self.complete(tag, false, now);
                    }
                }
            }
        }

        // 4. Cluster completions (successes, errors, timeouts).
        for c in self.cluster.take_completions() {
            self.complete(c.tag, !c.is_error, now);
        }

        // 5. Autoscale boundaries (absolute cycles, so both clocks land on
        //    exactly the same boundary cycles).
        while now >= self.next_autoscale {
            self.next_autoscale += self.cfg.autoscale_interval;
            self.autoscale();
        }
    }

    /// One autoscaler boundary: grow pools whose queues outrun their
    /// replicas, shrink pools idle long enough — one replica either way
    /// per function per boundary.
    fn autoscale(&mut self) {
        for fn_idx in 0..self.functions.len() {
            let replicas = self.pools.replicas(fn_idx).len();
            let depth = self.pools.queue(fn_idx).len() as u64;
            let busy = self.functions[fn_idx].invoked_this_interval
                || depth > 0
                || self.inflight.values().any(|i| i.fn_idx == fn_idx);
            self.functions[fn_idx].invoked_this_interval = false;
            if depth > replicas as u64 * TARGET_QUEUE_PER_REPLICA && replicas < self.boards.len() {
                self.start_deploy(fn_idx);
            }
            if busy {
                self.functions[fn_idx].idle_intervals = 0;
                continue;
            }
            self.functions[fn_idx].idle_intervals += 1;
            if self.functions[fn_idx].idle_intervals >= self.cfg.idle_intervals_to_zero {
                self.reclaim_one(fn_idx);
            }
        }
    }

    /// The next cycle, no later than `horizon`, at which the orchestrator
    /// itself has timed work: a bitstream fetch completes, a queued
    /// invocation expires, or an autoscale boundary fires. Cluster-side
    /// events are the cluster's own business
    /// ([`ClusterSystem::advance_toward`] caps at them already).
    pub fn next_wakeup(&self, horizon: Cycle) -> Cycle {
        self.assert_posted();
        let due = horizon.min(self.next_autoscale).min(self.pools.timer_due());
        due.max(self.cluster.now().saturating_add(1))
    }

    /// Holds the pools' law where posted state is about to be read: always
    /// under the dense reference clock, in debug builds under the event one.
    fn assert_posted(&self) {
        if self.cfg.cluster.system.clock == ClockMode::Dense || cfg!(debug_assertions) {
            let law = self.pools.check();
            law.expect("pool state is posted where it changes");
        }
    }

    /// [`Machine::advance_toward`], under the name `benchmark/` calls.
    #[inline]
    pub fn step_toward(&mut self, horizon: Cycle) {
        Machine::advance_toward(self, horizon);
    }

    /// [`Machine::now`], under the name `benchmark/` calls.
    #[inline]
    pub fn now(&self) -> Cycle {
        Machine::now(self)
    }

    /// [`Machine::check_invariants`], under the name `benchmark/` calls.
    pub fn check_invariants(&self) -> Result<(), String> {
        Machine::check_invariants(self)
    }

    /// The fleet underneath (latency trackers, fabric stats, directories).
    pub fn cluster(&self) -> &ClusterSystem {
        &self.cluster
    }

    /// The admission stage (admitted/shed counters).
    pub fn admission(&self) -> &TenantAdmission {
        &self.admission
    }

    /// One board's bitstream cache.
    pub fn cache(&self, board: u16) -> &BitstreamCache {
        &self.boards[board as usize].cache
    }

    /// One board's elastic-area utilisation (binding resource), `[0, 1]`.
    pub fn board_utilisation(&self, board: u16) -> f64 {
        let l = &self.boards[board as usize];
        l.used.utilisation_of(&l.budget)
    }

    /// Registered function count.
    pub fn function_count(&self) -> usize {
        self.functions.len()
    }

    /// Live replica count for one function.
    pub fn live_replicas(&self, fn_idx: usize) -> usize {
        self.pools.live(fn_idx)
    }

    /// Fetching or loading replica count for one function.
    pub fn pending_replicas(&self, fn_idx: usize) -> usize {
        self.pools.replicas(fn_idx).len() - self.pools.live(fn_idx)
    }

    /// Point-in-time stats for one function.
    pub fn stats(&self, fn_idx: usize) -> FaasStats {
        let f = &self.functions[fn_idx];
        FaasStats {
            invocations: f.invocations,
            cold_invocations: f.cold_invocations,
            completed_ok: f.completed_ok,
            completed_err: f.completed_err,
            expired: f.expired,
            deploys: f.deploys,
            reclaims: f.reclaims,
            live: self.pools.live(fn_idx),
            pending: self.pending_replicas(fn_idx),
            queue_depth: self.pools.queue(fn_idx).len(),
        }
    }

    /// Completed invocations since the last call, in completion order.
    pub fn take_finished(&mut self) -> Vec<Finished> {
        std::mem::take(&mut self.finished)
    }
}

impl Machine for FaasSystem {
    fn now(&self) -> Cycle {
        self.cluster.now()
    }

    /// Advances the fleet by one scheduling step (never beyond `horizon`)
    /// and runs the control loop. Drivers interleave their own arrival
    /// schedule by capping `horizon` at it, exactly like
    /// [`Machine::drive`] does with a load's next wakeup.
    fn advance_toward(&mut self, horizon: Cycle) {
        if self.cluster.now() >= horizon {
            return;
        }
        let due = self.next_wakeup(horizon);
        self.cluster.advance_toward(due);
        self.pump();
    }

    /// No queued, in-flight, or half-deployed work anywhere: every replica
    /// is live and the cluster itself has drained.
    fn quiescent(&self) -> bool {
        self.assert_posted();
        self.inflight.is_empty()
            && self.pools.waiting_from(0).is_none()
            && self.pools.bringing_from(0).is_none()
            && self.cluster.quiescent()
    }

    /// The cluster's laws, then the ledgers' (`orchestrator/invariants.rs`).
    fn check_invariants(&self) -> Result<(), String> {
        self.cluster.check_invariants()?;
        self.check_ledgers()
    }
}

#[cfg(test)]
mod tests;
