//! [`ClusterSystem`]: N boards, one fabric, one global directory.
//!
//! Each board is a full [`System`] with a **gateway tile** — an idle
//! accelerator slot whose monitor the cluster kernel drives directly, the
//! same pattern the bench harness uses for external clients. The gateway
//! is both the board's ingress (remote invocations arrive here and are
//! forwarded to the local replica over a normal capability send) and its
//! egress proxy (local clients' remote invocations leave here).
//!
//! **Remote capability invocation.** When the directory steers a request
//! to another board, the kernel mints a [`CapKind::Remote`] capability at
//! the origin gateway — board id plus service id. A monitor cannot route
//! it (there is no local node to resolve), which is the point: the *only*
//! path for a remote cap is the egress proxy, which checks SEND rights on
//! the cap table like any other send, then frames the invocation onto the
//! fabric. Lease expiry revokes the cap, so authority over a vanished
//! board's services does not outlive the directory's knowledge of them.
//! The client keeps the retry/backoff and circuit breaker it already had
//! ([`apiary_net::RequestGen`]): a remote invocation that times out is
//! completed as an error, retried with backoff, and re-balanced — usually
//! onto a different replica.
//!
//! **Determinism.** Boards advance in index order, the fabric in link-key
//! order, directories and balancer state live in `BTreeMap`s, and every
//! random draw comes from seeded [`apiary_sim::SimRng`] streams. The same
//! config and seed replay byte-identically at any host parallelism — E17's
//! CI check.
//!
//! **Event-sparse lockstep.** All live boards share one cycle counter, but
//! a cluster cycle only touches what is due on it: boards whose cached
//! next-event deadline has come (the private `board` module), the fabric,
//! and the front of the timeout queue. The fabric runs its own acks,
//! switch hops, sends and timers, so it wakes the cluster only to deliver
//! a frame. [`ClusterSystem::tick`] is the dense reference that visits
//! everything; the two must be indistinguishable.
//!
//! [`CapKind::Remote`]: apiary_cap::CapKind::Remote

mod clients;
mod cycle;
mod migration;
mod replicas;
mod requests;

pub use clients::ClusterClient;
pub use migration::MigrationOutcome;
pub use requests::{Completion, SubmitError};

use crate::balancer::{Balancer, Replica};
use crate::board::Board;
use crate::directory::Directory;
use crate::fabric::{Fabric, FabricConfig};
use apiary_accel::apps::idle::idle;
use apiary_cap::ServiceId;
use apiary_core::process::OS_APP;
use apiary_core::{FaultPolicy, System, SystemConfig, SystemError};
use apiary_noc::NodeId;
use apiary_sim::{ensure, ClockMode, Cycle, Machine};
use apiary_trace::LatencyTracker;
use migration::Migration;
use requests::Requests;
use std::collections::BTreeMap;

/// What a name-keyed entry fails with when this board serves no replica by
/// that name, or cannot act on it: a name has no service id to report.
const NO_REPLICA: SystemError = SystemError::UnknownService(ServiceId(u32::MAX));

/// Cluster configuration.
#[derive(Clone)]
pub struct ClusterConfig {
    /// Number of boards.
    pub boards: u16,
    /// Per-board system configuration (every board is identical).
    pub system: SystemConfig,
    /// Inter-board network.
    pub fabric: FabricConfig,
    /// Which node on each board is the gateway tile.
    pub gateway: NodeId,
    /// Cycles between gossip rounds.
    pub gossip_interval: u64,
    /// Directory lease, cycles. Must comfortably exceed
    /// `gossip_interval × boards` or healthy entries flap.
    pub lease: u64,
    /// Cluster-level request timeout: a request with no reply after this
    /// many cycles is completed as an error (feeding the client's retry
    /// policy and breaker).
    pub request_timeout: u64,
    /// Seed for the balancer's RNG.
    pub seed: u64,
    /// Cycles a live migration quiesces at the source before the state
    /// snapshot is taken. The withdrawn directory entry steers new work
    /// away as the tombstone gossips; the window lets in-flight
    /// invocations drain while the replica is still serving.
    pub migration_quiesce: u64,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            boards: 2,
            system: SystemConfig::default(),
            fabric: FabricConfig::default(),
            gateway: NodeId(0),
            gossip_interval: 500,
            lease: 6_000,
            request_timeout: 4_000,
            seed: 0xC105_7E12,
            migration_quiesce: 600,
        }
    }
}

impl ClusterConfig {
    /// Validates internal consistency.
    ///
    /// # Panics
    ///
    /// Panics on zero boards, a zero gossip interval, a lease no longer
    /// than `gossip_interval × boards`, or a gateway tile that lies outside
    /// the board's mesh or on its memory-service node.
    pub fn validate(&self) {
        assert!(self.boards > 0, "a cluster needs at least one board");
        assert!(
            self.gossip_interval > 0,
            "gossip_interval must be at least one cycle"
        );
        let round_trip = self.gossip_interval.saturating_mul(self.boards as u64);
        assert!(
            self.lease > round_trip,
            "lease {} must exceed gossip_interval × boards = {round_trip}",
            self.lease
        );
        let nodes = self.system.noc.nodes();
        assert!(
            self.gateway.index() < nodes,
            "gateway {} lies outside the {nodes}-node mesh",
            self.gateway
        );
        assert!(
            self.gateway != self.system.memory_node(),
            "gateway {} is the memory-service node",
            self.gateway
        );
    }
}

/// The multi-board machine.
pub struct ClusterSystem {
    cfg: ClusterConfig,
    ticks: u64,
    /// The next multiple of `gossip_interval`, advanced where the round
    /// fires: neither the cycle nor `next_due` divides to find it.
    next_gossip: Cycle,
    boards: Vec<Board>,
    fabric: Fabric,
    balancer: Balancer,
    /// `submit`'s list of the live replicas of the name asked for, with
    /// their service ids: refilled by every submit, allocated once.
    candidates: Vec<(Replica, ServiceId)>,
    requests: Requests,
    completions: Vec<Completion>,
    next_ingress: u64,
    /// Submit → the invocation reaching its target board while pending
    /// (outbound fabric hop).
    pub fabric_out: LatencyTracker,
    /// Target-board ingress → local replica reply (on-board time).
    pub on_board: LatencyTracker,
    /// Target gateway's reply → its arrival at the origin while pending
    /// (return fabric hop).
    pub fabric_back: LatencyTracker,
    /// Submit → successful completion, local and remote alike.
    pub end_to_end: LatencyTracker,
    /// Requests completed as errors by the cluster-level timeout.
    pub timeouts: u64,
    /// Fabric deliveries dropped because the destination board was dead.
    pub dead_board_drops: u64,
    /// Replies with no pending request (late replies to timed-out work).
    pub stale_replies: u64,
    /// Submits steered to the origin board itself.
    pub local_submitted: u64,
    /// Submits forwarded over the fabric.
    pub remote_submitted: u64,
    /// Submits the gateway monitor refused.
    pub refused: u64,
    /// Remote capabilities revoked on lease expiry.
    pub caps_revoked: u64,
    /// Live migrations aborted (board died, service could not snapshot,
    /// or the destination refused the restore).
    pub migrations_failed: u64,
    /// In-flight migrations, by service id.
    migrations: BTreeMap<u32, Migration>,
    /// Completed migrations, in completion order.
    migrations_done: Vec<MigrationOutcome>,
}

impl ClusterSystem {
    /// Builds the cluster: `boards` identical systems, a gateway installed
    /// on each, and the fabric between them.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`ClusterConfig::validate`].
    pub fn new(cfg: ClusterConfig) -> ClusterSystem {
        cfg.validate();
        let mut boards = Vec::with_capacity(cfg.boards as usize);
        for b in 0..cfg.boards {
            let mut sys = System::new(cfg.system.clone());
            sys.install(cfg.gateway, Box::new(idle()), OS_APP, FaultPolicy::FailStop)
                .expect("gateway tile is free on a fresh board");
            boards.push(Board::new(sys, Directory::new(b, cfg.lease)));
        }
        let mut fabric = Fabric::new(cfg.boards, cfg.fabric);
        // The cluster starts on cycle 0, which has run: what is sent before
        // the first step leaves on cycle 1.
        fabric.catch_up(Cycle::ZERO);
        let balancer = Balancer::new(cfg.seed);
        ClusterSystem {
            next_gossip: Cycle(cfg.gossip_interval),
            cfg,
            ticks: 0,
            boards,
            fabric,
            balancer,
            requests: Requests::default(),
            candidates: Vec::new(),
            completions: Vec::new(),
            next_ingress: 0,
            fabric_out: LatencyTracker::default(),
            on_board: LatencyTracker::default(),
            fabric_back: LatencyTracker::default(),
            end_to_end: LatencyTracker::default(),
            timeouts: 0,
            dead_board_drops: 0,
            stale_replies: 0,
            local_submitted: 0,
            remote_submitted: 0,
            refused: 0,
            caps_revoked: 0,
            migrations_failed: 0,
            migrations: BTreeMap::new(),
            migrations_done: Vec::new(),
        }
    }

    /// [`Machine::now`], under the name `benchmark/` calls.
    #[inline]
    pub fn now(&self) -> Cycle {
        Machine::now(self)
    }

    /// One board's system.
    pub fn board(&self, b: u16) -> &System {
        self.boards[b as usize].sys()
    }

    /// One board's system, mutably (chaos injection, inspection).
    pub fn board_mut(&mut self, b: u16) -> &mut System {
        self.boards[b as usize].sys_mut()
    }

    /// One board's directory view.
    pub fn directory(&self, b: u16) -> &Directory {
        &self.boards[b as usize].dir
    }

    /// The inter-board network.
    pub fn fabric(&self) -> &Fabric {
        &self.fabric
    }

    /// The replica balancer.
    pub fn balancer(&self) -> &Balancer {
        &self.balancer
    }

    /// Whether a board is alive.
    pub fn alive(&self, b: u16) -> bool {
        self.boards[b as usize].alive
    }

    /// Remote capabilities currently held at a board's gateway.
    pub fn remote_cap_count(&self, b: u16) -> usize {
        self.boards[b as usize].remote_caps.len()
    }

    /// [`Machine::quiescent`], under the name `benchmark/` calls.
    #[inline]
    pub fn quiescent(&self) -> bool {
        Machine::quiescent(self)
    }

    /// Advances the whole cluster by one cycle, densely: every live board
    /// ticks, every link is pumped, every pending request is checked for
    /// timeout. This is the reference the event clock is held to
    /// (`clock_equivalence.rs`, `--det-check=event-vs-dense`); drivers that
    /// want speed step with [`Machine::advance_toward`].
    pub fn tick(&mut self) {
        self.ticks += 1;
        self.cycle(true);
    }

    /// Everything one cluster cycle does, at the cycle `self.ticks` already
    /// names. `dense` selects the reference behaviour of
    /// [`ClusterSystem::tick`]; otherwise only the boards, links and
    /// timeouts that are due at this cycle are touched. The two differ in
    /// what they visit, never in what happens.
    fn cycle(&mut self, dense: bool) {
        let now = Cycle(self.ticks);
        self.catch_up_fabric(now);
        self.advance_boards(now, dense);
        self.drive_migrations(now);
        self.republish_ready(now);
        self.finish_migrations(now);
        let g = self.cfg.gossip_interval;
        debug_assert_eq!(now == self.next_gossip, self.ticks.is_multiple_of(g));
        if now == self.next_gossip {
            self.next_gossip += g;
            self.gossip_round(now);
        }
        self.deliver_fabric(now, dense);
        self.drain_gateways(now);
        self.expire_requests(now, dense);
    }

    /// The next cycle at which anything in the cluster can happen: a
    /// board's kernel phases come due (including all in-flight NoC
    /// traffic), a frame may reach a board, a gossip round fires, a
    /// cluster-level request timeout expires or a migration's quiesce
    /// window ends. Every cycle strictly before the returned one is
    /// provably a no-op for the whole machine, so the event clock may skip
    /// it.
    fn next_due(&mut self) -> Cycle {
        let next = self.now().saturating_add(1);
        let mut due = Cycle::MAX;
        for b in &mut self.boards {
            if b.alive {
                due = due.min(b.next_event_due());
            }
        }
        due = due.min(self.fabric.next_activity(next));
        let g = self.cfg.gossip_interval;
        debug_assert_eq!(self.next_gossip, Cycle((self.ticks / g + 1) * g));
        due = due.min(self.next_gossip);
        if let Some(deadline) = self.requests.next_deadline() {
            due = due.min(deadline);
        }
        due = due.min(self.next_migration_due());
        due.max(next)
    }

    /// One event-clock step: jump the shared cycle counter to the next
    /// eventful cycle (or to `horizon`, which must lie ahead, if that comes
    /// first) and run that cycle touching only what is due. A live board
    /// with nothing due is carried along in O(1); it never falls behind
    /// the cluster's clock.
    fn event_step(&mut self, horizon: Cycle) {
        self.ticks = self.next_due().min(horizon).0;
        self.cycle(false);
    }

    /// [`Machine::advance_toward`], under the name `benchmark/` calls.
    #[inline]
    pub fn advance_toward(&mut self, horizon: Cycle) {
        Machine::advance_toward(self, horizon);
    }

    /// [`Machine::run`], under the name `benchmark/` calls.
    pub fn tick_n(&mut self, n: u64) {
        Machine::run(self, n);
    }
}

impl Machine for ClusterSystem {
    /// All live boards tick in lockstep on this cycle.
    fn now(&self) -> Cycle {
        Cycle(self.ticks)
    }

    fn advance_toward(&mut self, horizon: Cycle) {
        if self.now() >= horizon {
            return;
        }
        match self.cfg.system.clock {
            ClockMode::Dense => self.tick(),
            ClockMode::Event => self.event_step(horizon),
        }
    }

    /// Request traffic drained: nothing pending at the cluster level, no
    /// forwarded work awaiting a local reply, no live migration mid-flight
    /// (its snapshot may be on the wire or restoring while both boards look
    /// idle), every live board idle. Gossip deliberately does not count —
    /// it is a periodic background heartbeat and never "drains".
    fn quiescent(&self) -> bool {
        let mut live = self.boards.iter().filter(|b| b.alive);
        self.requests.is_empty()
            && self.migrations.is_empty()
            && live.all(|b| b.ingress.is_empty() && b.sys().quiescent())
    }

    /// The lockstep bookkeeping is consistent: every board steps by the
    /// cluster's clock, every live board is on the cluster's cycle and
    /// caches no stale deadline (nor does its system), every board's
    /// directory is well filed ([`Directory::check_invariants`]), the
    /// deadline queue's front is no later than the earliest timeout of any
    /// pending request (a later front would let the event clock sleep
    /// through an expiry) and is live if marked so, the balancer counts
    /// exactly the pending requests as in flight (requests are conserved),
    /// and the fabric's laws hold ([`Fabric::check_invariants`]). Boards and
    /// links that a cycle passes over are checked where they are skipped,
    /// in debug builds.
    fn check_invariants(&self) -> Result<(), String> {
        for (i, b) in self.boards.iter().enumerate() {
            let clock = b.sys().config().clock;
            ensure!(
                clock == self.cfg.system.clock,
                "board {i} is not on the cluster's clock"
            );
            b.dir.check_invariants()?;
            if b.alive {
                b.check_invariants(i, self.now())?;
            }
        }
        self.requests.check(self.balancer.total_in_flight())?;
        self.fabric.check_invariants()
    }
}
