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
//! next-event deadline has come (the private `board` module), fabric links
//! with work, and the front of the timeout queue. [`ClusterSystem::tick`]
//! is the dense reference that visits everything; the two must be
//! indistinguishable.

use crate::balancer::Balancer;
use crate::board::{Board, Ingress, ReplicaMeta, Republish};
use crate::directory::Directory;
use crate::fabric::{Body, ClusterMsg, Fabric, FabricConfig};
use crate::migration::Migration;
pub use crate::migration::MigrationOutcome;
use apiary_accel::apps::idle::idle;
use apiary_cap::{CapKind, Capability, Rights, ServiceId};
use apiary_core::process::OS_APP;
use apiary_core::supervisor::AccelFactory;
use apiary_core::{AppId, FaultPolicy, Snapshot, System, SystemConfig, SystemError};
use apiary_monitor::wire::{KIND_ERROR, KIND_REQUEST};
use apiary_net::{BreakerConfig, BreakerState, RequestGen, RetryPolicy, Workload};
use apiary_noc::{NodeId, TrafficClass};
use apiary_sim::{ClockMode, Cycle};
use apiary_trace::{EventKind, LatencyTracker, RemotePhase};
use std::collections::{BTreeMap, VecDeque};

/// High bit marks gateway-local ingress tags, so a board can tell replies
/// to forwarded remote work from replies to its own clients' local work.
/// Client tags are `client_id << 32 | seq` with 32-bit ids, so the spaces
/// cannot collide.
const INGRESS_BIT: u64 = 1 << 63;

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
    /// Push each service's newest checkpoint to a peer board every gossip
    /// round, so a board kill can recover warm elsewhere
    /// ([`ClusterSystem::recover_replica`]).
    pub replicate_checkpoints: bool,
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
            replicate_checkpoints: false,
        }
    }
}

impl ClusterConfig {
    /// Validates internal consistency.
    ///
    /// # Panics
    ///
    /// Panics on zero boards, a zero gossip interval, or a gateway tile
    /// that lies outside the board's mesh or on its memory-service node.
    pub fn validate(&self) {
        assert!(self.boards > 0, "a cluster needs at least one board");
        assert!(
            self.gossip_interval > 0,
            "gossip_interval must be at least one cycle"
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

/// Why a submit was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// No live replica in the origin board's directory view.
    NoReplica,
    /// The origin board is dead (its NIC went with it).
    OriginDead,
    /// The gateway monitor refused the send (backpressure, rate limit, or
    /// a capability failure).
    Refused,
}

/// A finished request, surfaced to whichever client issued the tag.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Completion {
    /// Board whose client issued the request.
    pub origin: u16,
    /// The client's correlation tag.
    pub tag: u64,
    /// Error reply, refused send, or timeout.
    pub is_error: bool,
}

struct Pending {
    origin: u16,
    target: (u16, NodeId),
    deadline: Cycle,
}

/// The multi-board machine.
pub struct ClusterSystem {
    pub(crate) cfg: ClusterConfig,
    ticks: u64,
    /// The next multiple of `gossip_interval`, advanced where the round
    /// fires: neither the cycle nor `next_due` divides to find it.
    next_gossip: Cycle,
    pub(crate) boards: Vec<Board>,
    pub(crate) fabric: Fabric,
    balancer: Balancer,
    pending: BTreeMap<u64, Pending>,
    /// `(deadline, tag)` of every submit, oldest first. `request_timeout`
    /// is constant and the clock monotonic, so submit order is deadline
    /// order and the front is the earliest timeout. Entries of requests
    /// that completed (or whose tag was resubmitted) go stale and are
    /// dropped when they reach the front.
    deadlines: VecDeque<(Cycle, u64)>,
    /// The front of `deadlines` was looked up and found live, and `pending`
    /// has lost or replaced no entry since: it need not be looked up again.
    front_live: bool,
    completions: Vec<Completion>,
    next_ingress: u64,
    /// Origin gateway → target-board ingress (outbound fabric hop).
    pub fabric_out: LatencyTracker,
    /// Target-board ingress → local replica reply (on-board time).
    pub on_board: LatencyTracker,
    /// Target-board reply → origin gateway (return fabric hop).
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
    /// Checkpoints adopted from a peer via fabric replication.
    pub checkpoints_replicated: u64,
    /// In-flight migrations, by service id.
    pub(crate) migrations: BTreeMap<u32, Migration>,
    /// Completed migrations, in completion order.
    pub(crate) migrations_done: Vec<MigrationOutcome>,
    /// Highest checkpoint sequence replicated, per (home board, service).
    replicated_seq: BTreeMap<(u16, u32), u64>,
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
        let fabric = Fabric::new(cfg.boards, cfg.fabric);
        let balancer = Balancer::new(cfg.seed);
        ClusterSystem {
            next_gossip: Cycle(cfg.gossip_interval),
            cfg,
            ticks: 0,
            boards,
            fabric,
            balancer,
            pending: BTreeMap::new(),
            deadlines: VecDeque::new(),
            front_live: false,
            completions: Vec::new(),
            next_ingress: 0,
            fabric_out: LatencyTracker::new(),
            on_board: LatencyTracker::new(),
            fabric_back: LatencyTracker::new(),
            end_to_end: LatencyTracker::new(),
            timeouts: 0,
            dead_board_drops: 0,
            stale_replies: 0,
            local_submitted: 0,
            remote_submitted: 0,
            refused: 0,
            caps_revoked: 0,
            migrations_failed: 0,
            checkpoints_replicated: 0,
            migrations: BTreeMap::new(),
            migrations_done: Vec::new(),
            replicated_seq: BTreeMap::new(),
        }
    }

    /// Current cycle (all live boards tick in lockstep).
    pub fn now(&self) -> Cycle {
        Cycle(self.ticks)
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

    /// Count of `Remote` trace events recorded at a board's gateway.
    pub fn remote_trace_count(&self, b: u16) -> u64 {
        self.boards[b as usize]
            .sys()
            .tile(self.cfg.gateway)
            .monitor
            .tracer()
            .count(&EventKind::Remote {
                phase: RemotePhase::Send,
                board: 0,
                tag: 0,
            })
    }

    /// Deploys one replica of a named service: installs it under the
    /// board's supervisor, wires the gateway as a client (the wiring
    /// survives restarts and migrations), and publishes the binding in the
    /// board's directory — gossip does the rest. Returns the displaced
    /// binding if the name was already published here.
    #[allow(clippy::too_many_arguments)]
    pub fn deploy_replica(
        &mut self,
        board: u16,
        name: &str,
        service: ServiceId,
        node: NodeId,
        app: AppId,
        policy: FaultPolicy,
        bitstream_bytes: u64,
        factory: AccelFactory,
    ) -> Result<Option<(ServiceId, NodeId)>, SystemError> {
        let now = self.now();
        let b = &mut self.boards[board as usize];
        b.sys_mut()
            .deploy_service(service, node, app, policy, bitstream_bytes, factory)?;
        let cap = b.sys_mut().attach_client(self.cfg.gateway, service)?;
        b.local_caps.insert(service.0, cap);
        b.replicas.insert(
            name.to_string(),
            ReplicaMeta {
                service,
                node,
                app,
                policy,
                bitstream_bytes,
            },
        );
        Ok(b.dir.publish(now, name, service, node))
    }

    /// Reconfigures the tile hosting a locally published replica:
    /// **withdraw-then-republish**. The directory entry is tombstoned
    /// before the bitstream starts loading (peers steer new work away as
    /// gossip spreads), and republished — with the gateway re-wired — only
    /// once the new accelerator is online. In-flight invocations against
    /// the tile get monitor error replies and re-balance through the
    /// client retry path.
    pub fn reconfigure_replica(
        &mut self,
        board: u16,
        name: &str,
        factory: AccelFactory,
        bitstream_bytes: u64,
    ) -> Result<(), SystemError> {
        let now = self.now();
        let b = &mut self.boards[board as usize];
        let meta = b
            .replicas
            .get(name)
            .cloned()
            .ok_or(SystemError::BadNode(NodeId(u16::MAX)))?;
        b.dir.withdraw(now, name);
        b.sys_mut()
            .reconfigure(meta.node, factory(), meta.app, meta.policy, bitstream_bytes)?;
        b.republish.push(Republish {
            name: name.to_string(),
            meta,
        });
        Ok(())
    }

    /// Redeploys a replica on `board` from a checkpoint previously adopted
    /// over the fabric ([`ClusterConfig::replicate_checkpoints`]): warm if
    /// a verified snapshot of `service` is held, cold (factory-fresh)
    /// otherwise. The restore is priced through the ICAP like any
    /// reconfiguration — bitstream plus restored state. Returns whether
    /// the recovery was warm.
    #[allow(clippy::too_many_arguments)]
    pub fn recover_replica(
        &mut self,
        board: u16,
        name: &str,
        service: ServiceId,
        node: NodeId,
        app: AppId,
        policy: FaultPolicy,
        bitstream_bytes: u64,
        factory: AccelFactory,
    ) -> Result<bool, SystemError> {
        let b = &mut self.boards[board as usize];
        let state = b
            .sys_mut()
            .checkpoint_store_mut()
            .latest(service.0)
            .map(|s| s.state.clone());
        let mut accel = factory();
        let mut warm_bytes = 0u64;
        let warm = match state {
            Some(s) if accel.restore_state(&s).is_ok() => {
                warm_bytes = s.len() as u64;
                true
            }
            _ => false,
        };
        if !warm {
            // Never deploy a half-restored instance: rebuild fresh.
            accel = factory();
        }
        b.sys_mut()
            .reconfigure(node, accel, app, policy, bitstream_bytes + warm_bytes)?;
        if warm {
            b.sys_mut().checkpoint_store_mut().warm_restores += 1;
        }
        let meta = ReplicaMeta {
            service,
            node,
            app,
            policy,
            bitstream_bytes,
        };
        b.adopt_replica(name, meta, factory);
        Ok(warm)
    }

    /// Deploys a function replica into a warm-pool slot. Unlike
    /// [`ClusterSystem::deploy_replica`] (instantaneous install, used to
    /// seed experiments), the bitstream is priced through the ICAP like any
    /// partial reconfiguration, and the directory entry is published — with
    /// the gateway wired as a client — only once the tile is back online
    /// (via the republish queue). Returns the cycle the reconfiguration
    /// completes: the fabric-level share of the orchestrator's cold start.
    #[allow(clippy::too_many_arguments)]
    pub fn pool_deploy(
        &mut self,
        board: u16,
        name: &str,
        service: ServiceId,
        node: NodeId,
        app: AppId,
        policy: FaultPolicy,
        bitstream_bytes: u64,
        factory: AccelFactory,
    ) -> Result<Cycle, SystemError> {
        let b = &mut self.boards[board as usize];
        if !b.alive {
            return Err(SystemError::BadNode(node));
        }
        let done = b
            .sys_mut()
            .reconfigure(node, factory(), app, policy, bitstream_bytes)?;
        let meta = ReplicaMeta {
            service,
            node,
            app,
            policy,
            bitstream_bytes,
        };
        b.adopt_replica(name, meta, factory);
        Ok(done)
    }

    /// Tears down a pooled replica (scale-to-zero): the directory entry is
    /// withdrawn with a **tombstone** — a version bump a stale peer
    /// snapshot cannot out-rank, so the binding stays dead cluster-wide —
    /// the tile is decommissioned, the gateway's local cap dropped, and
    /// every live board's remote cap against the binding proactively
    /// revoked. Refused while the tile's bitstream is still streaming
    /// through the ICAP: the completion would resurrect the accelerator on
    /// a decommissioned tile. Returns the freed node.
    pub fn pool_teardown(&mut self, board: u16, name: &str) -> Result<NodeId, SystemError> {
        let now = self.now();
        let bad = || SystemError::BadNode(NodeId(u16::MAX));
        let service;
        let node;
        {
            let b = &mut self.boards[board as usize];
            if !b.alive {
                return Err(bad());
            }
            let meta = b.replicas.get(name).cloned().ok_or_else(bad)?;
            if b.sys().reconfiguring(meta.node) {
                return Err(bad());
            }
            service = meta.service;
            node = meta.node;
            b.dir.withdraw(now, name);
            b.sys_mut().undeploy_service(meta.service);
            b.local_caps.remove(&meta.service.0);
            b.replicas.remove(name);
            b.republish.retain(|r| r.name != name);
        }
        self.revoke_remote_caps(board, service.0);
        Ok(node)
    }

    /// Whether a board's gateway currently holds a client capability for
    /// `service` — i.e. a local replica is wired and invokable. The
    /// republish pass installs this cap only once the tile's bitstream has
    /// finished loading, so it doubles as the orchestrator's "replica is
    /// live" signal.
    pub fn has_local_cap(&self, board: u16, service: ServiceId) -> bool {
        self.boards[board as usize]
            .local_caps
            .contains_key(&service.0)
    }

    /// Kills a board: it stops ticking, its fabric links go down, its
    /// leases stop renewing. The rest of the cluster routes around it once
    /// timeouts raise its in-flight counts and lease expiry drops its
    /// directory entries.
    pub fn kill_board(&mut self, b: u16) {
        self.boards[b as usize].alive = false;
        self.fabric.set_link(b, None, false);
    }

    /// Cuts a link (board↔ToR in a star; the pair, or all of `a`'s links
    /// when `b` is `None`, in a mesh).
    pub fn cut_link(&mut self, a: u16, b: Option<u16>) {
        self.fabric.set_link(a, b, false);
    }

    /// Restores a previously cut link.
    pub fn restore_link(&mut self, a: u16, b: Option<u16>) {
        self.fabric.set_link(a, b, true);
    }

    /// Submits a request from a client attached at `origin` for the named
    /// service. The directory supplies live replicas, the balancer picks
    /// one, and the invocation goes out locally or over the fabric.
    /// Returns the chosen replica.
    pub fn submit(
        &mut self,
        origin: u16,
        name: &str,
        tag: u64,
        payload: Vec<u8>,
    ) -> Result<(u16, NodeId), SubmitError> {
        let now = self.now();
        if !self.boards[origin as usize].alive {
            return Err(SubmitError::OriginDead);
        }
        let candidates: Vec<(u16, NodeId, ServiceId)> = self.boards[origin as usize]
            .dir
            .lookup_all(now, name)
            .into_iter()
            .map(|e| (e.home, e.node, e.service))
            .collect();
        let keys: Vec<(u16, NodeId)> = candidates.iter().map(|c| (c.0, c.1)).collect();
        let Some(k) = self.balancer.pick(&keys) else {
            return Err(SubmitError::NoReplica);
        };
        let (tboard, tnode, service) = candidates[k];
        let gw = self.cfg.gateway;
        self.end_to_end.start(tag, now);
        if tboard == origin {
            let b = &mut self.boards[origin as usize];
            let cap = b
                .local_caps
                .get(&service.0)
                .copied()
                .ok_or(SubmitError::NoReplica)?;
            b.sys_mut()
                .tile_mut(gw)
                .monitor
                .send(cap, KIND_REQUEST, tag, TrafficClass::Request, payload, now)
                .map_err(|_| {
                    self.refused += 1;
                    SubmitError::Refused
                })?;
            self.local_submitted += 1;
        } else {
            let b = &mut self.boards[origin as usize];
            // Mint (or reuse) the remote capability for this (board,
            // service) and let the egress proxy check it like any send.
            let cap = match b.remote_caps.get(&(tboard, service.0)) {
                Some(c) => *c,
                None => {
                    let c = b
                        .sys_mut()
                        .tile_mut(gw)
                        .monitor
                        .install_cap(Capability::new(
                            CapKind::Remote {
                                board: tboard,
                                service,
                            },
                            Rights::SEND,
                        ))
                        .map_err(|_| SubmitError::Refused)?;
                    b.remote_caps.insert((tboard, service.0), c);
                    c
                }
            };
            if b.sys()
                .tile(gw)
                .monitor
                .caps()
                .check(cap, Rights::SEND)
                .is_err()
            {
                self.refused += 1;
                return Err(SubmitError::Refused);
            }
            b.trace_remote(gw, now, RemotePhase::Send, tboard, tag);
            self.fabric_out.start(tag, now);
            self.fabric.send(&ClusterMsg {
                src: origin,
                dst: tboard,
                body: Body::Invoke {
                    service: service.0,
                    tag,
                    payload,
                },
            });
            self.remote_submitted += 1;
        }
        self.balancer.started((tboard, tnode));
        let deadline = now + self.cfg.request_timeout;
        let pending = Pending {
            origin,
            target: (tboard, tnode),
            deadline,
        };
        self.front_live &= self.pending.insert(tag, pending).is_none();
        self.deadlines.push_back((deadline, tag));
        Ok((tboard, tnode))
    }

    /// Records a breaker-open transition observed at a board's client (the
    /// board id in the event is the origin itself: the breaker guards the
    /// whole fan-out, not one peer).
    pub fn note_breaker_open(&mut self, origin: u16) {
        let now = self.now();
        let gw = self.cfg.gateway;
        self.boards[origin as usize].trace_remote(gw, now, RemotePhase::BreakerOpen, origin, 0);
    }

    /// Finished requests since the last call, in completion order.
    pub fn take_completions(&mut self) -> Vec<Completion> {
        std::mem::take(&mut self.completions)
    }

    /// Whether finished requests await [`ClusterSystem::take_completions`].
    pub fn has_completions(&self) -> bool {
        !self.completions.is_empty()
    }

    /// Request traffic drained: nothing pending at the cluster level, no
    /// forwarded work awaiting a local reply, no live migration mid-flight
    /// (its snapshot may be on the wire or restoring while both boards look
    /// idle), every live board idle. Gossip deliberately does not count —
    /// it is a periodic background heartbeat and never "drains".
    pub fn quiescent(&self) -> bool {
        self.pending.is_empty()
            && self.migrations.is_empty()
            && self
                .boards
                .iter()
                .filter(|b| b.alive)
                .all(|b| b.ingress.is_empty() && b.sys().is_idle())
    }

    fn finish_request(&mut self, tag: u64, is_error: bool, now: Cycle) {
        match self.pending.remove(&tag) {
            Some(p) => {
                self.front_live = false;
                self.balancer.finished(p.target);
                if !is_error {
                    self.end_to_end.finish(tag, now);
                }
                self.completions.push(Completion {
                    origin: p.origin,
                    tag,
                    is_error,
                });
            }
            None => self.stale_replies += 1,
        }
    }

    /// Advances the whole cluster by one cycle, densely: every live board
    /// ticks, every link is pumped, every pending request is checked for
    /// timeout. This is the reference the event clock is held to
    /// (`clock_equivalence.rs`, `--det-check=event-vs-dense`); drivers that
    /// want speed call [`ClusterSystem::advance_toward`] or
    /// [`ClusterSystem::tick_n`].
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

    /// 1. Boards advance in index order; dead boards stay frozen.
    fn advance_boards(&mut self, now: Cycle, dense: bool) {
        for b in &mut self.boards {
            if b.alive {
                b.advance_to(now, dense);
            }
        }
    }

    /// 2. Completed reconfigurations republish their directory entry.
    fn republish_ready(&mut self, now: Cycle) {
        let gw = self.cfg.gateway;
        for bi in 0..self.boards.len() {
            if !self.boards[bi].alive || self.boards[bi].republish.is_empty() {
                continue;
            }
            let done: Vec<usize> = self.boards[bi]
                .republish
                .iter()
                .enumerate()
                .filter(|(_, r)| self.boards[bi].sys().tile(r.meta.node).accel.is_some())
                .map(|(i, _)| i)
                .collect();
            for i in done.into_iter().rev() {
                let r = self.boards[bi].republish.remove(i);
                let b = &mut self.boards[bi];
                // Re-wire: the reset wiped the replica tile's reply caps;
                // attach_client reinstalls them and refreshes the
                // gateway's service cap.
                if let Ok(cap) = b.sys_mut().attach_client(gw, r.meta.service) {
                    b.local_caps.insert(r.meta.service.0, cap);
                }
                let _ = b.dir.publish(now, &r.name, r.meta.service, r.meta.node);
            }
        }
    }

    /// Drops board `at`'s remote capability against `service` on board
    /// `home`, if it holds one: revoked at the gateway and counted.
    fn revoke_remote_cap(&mut self, at: u16, home: u16, service: u32) {
        let gw = self.cfg.gateway;
        let b = &mut self.boards[at as usize];
        if let Some(cap) = b.remote_caps.remove(&(home, service)) {
            if b.sys_mut().tile_mut(gw).monitor.revoke_cap(cap).is_ok() {
                self.caps_revoked += 1;
            }
        }
    }

    /// Revokes every live board's remote capability against `service` on
    /// board `home`: the binding is gone (torn down or migrated away), so
    /// authority over it must not linger until the lease runs out.
    pub(crate) fn revoke_remote_caps(&mut self, home: u16, service: u32) {
        for at in 0..self.cfg.boards {
            if self.boards[at as usize].alive {
                self.revoke_remote_cap(at, home, service);
            }
        }
    }

    /// 3. Gossip round: renew leases, sweep expiries (revoking remote caps
    ///    for entries that lapsed), push one snapshot round-robin.
    fn gossip_round(&mut self, now: Cycle) {
        let round = self.ticks / self.cfg.gossip_interval;
        let n = self.cfg.boards;
        for bi in 0..n {
            if !self.boards[bi as usize].alive {
                continue;
            }
            let b = &mut self.boards[bi as usize];
            b.dir.renew_local(now);
            for dead in b.dir.sweep(now) {
                if dead.home != bi {
                    self.revoke_remote_cap(bi, dead.home, dead.service.0);
                }
            }
            if n > 1 {
                let peers: Vec<u16> = (0..n).filter(|&p| p != bi).collect();
                let partner = peers[(round as usize) % peers.len()];
                let snapshot = self.boards[bi as usize].dir.snapshot();
                self.fabric.send(&ClusterMsg {
                    src: bi,
                    dst: partner,
                    body: Body::Gossip { entries: snapshot },
                });
            }
        }
        if self.cfg.replicate_checkpoints && n > 1 {
            self.replicate_checkpoints();
        }
    }

    /// Checkpoint replication piggybacks on the gossip cadence: each board
    /// pushes any snapshot whose sequence advanced since the last round to
    /// its ring successor, so a board kill can recover warm from the peer's
    /// adopted copy ([`ClusterSystem::recover_replica`]).
    fn replicate_checkpoints(&mut self) {
        let n = self.cfg.boards;
        for bi in 0..n {
            if !self.boards[bi as usize].alive {
                continue;
            }
            let Some(peer) = (1..n)
                .map(|d| (bi + d) % n)
                .find(|&p| self.boards[p as usize].alive)
            else {
                continue;
            };
            let replicas: Vec<(String, u32)> = self.boards[bi as usize]
                .replicas
                .iter()
                .map(|(name, meta)| (name.clone(), meta.service.0))
                .collect();
            for (name, sid) in replicas {
                let Some(snap) = self.boards[bi as usize]
                    .sys_mut()
                    .checkpoint_store_mut()
                    .latest(sid)
                else {
                    continue;
                };
                let seq = snap.seq;
                if self
                    .replicated_seq
                    .get(&(bi, sid))
                    .is_some_and(|&sent| sent >= seq)
                {
                    continue;
                }
                let snapshot = snap.encode();
                self.replicated_seq.insert((bi, sid), seq);
                self.fabric.send(&ClusterMsg {
                    src: bi,
                    dst: peer,
                    body: Body::Checkpoint {
                        service: sid,
                        name,
                        snapshot,
                    },
                });
            }
        }
    }

    /// 4. Fabric: deliveries and ARQ retransmission attribution.
    fn deliver_fabric(&mut self, now: Cycle, dense: bool) {
        let gw = self.cfg.gateway;
        let (deliveries, retx) = if dense {
            self.fabric.step_dense(now)
        } else {
            self.fabric.step(now)
        };
        for (src_board, n) in retx {
            let b = &mut self.boards[src_board as usize];
            if !b.alive {
                continue;
            }
            for _ in 0..n {
                b.trace_remote(gw, now, RemotePhase::Retransmit, src_board, 0);
            }
        }
        for msg in deliveries {
            if !self.boards[msg.dst as usize].alive {
                self.dead_board_drops += 1;
                continue;
            }
            match msg.body {
                Body::Invoke {
                    service,
                    tag,
                    payload,
                } => self.forward_invoke(msg.src, msg.dst, service, tag, payload, now),
                Body::Reply {
                    tag,
                    is_error,
                    payload: _,
                } => {
                    self.fabric_back.finish(tag, now);
                    self.boards[msg.dst as usize].trace_remote(
                        gw,
                        now,
                        RemotePhase::Reply,
                        msg.src,
                        tag,
                    );
                    self.finish_request(tag, is_error, now);
                }
                Body::Gossip { entries } => {
                    self.boards[msg.dst as usize].dir.merge(&entries);
                }
                Body::Migrate {
                    service,
                    name: _,
                    snapshot,
                } => self.restore_migration(msg.src, msg.dst, service, &snapshot, now),
                Body::Checkpoint {
                    service,
                    name: _,
                    snapshot,
                } => {
                    if let Ok(snap) = Snapshot::decode(&snapshot) {
                        if self.boards[msg.dst as usize]
                            .sys_mut()
                            .checkpoint_store_mut()
                            .adopt(service, snap)
                        {
                            self.checkpoints_replicated += 1;
                        }
                    }
                }
            }
        }
    }

    /// A remote invocation arrived at live board `dst`: forward it to the
    /// local replica through the gateway's capability, or answer `src` with
    /// an error reply if there is none to forward to.
    fn forward_invoke(
        &mut self,
        src: u16,
        dst: u16,
        service: u32,
        tag: u64,
        payload: Vec<u8>,
        now: Cycle,
    ) {
        let gw = self.cfg.gateway;
        self.fabric_out.finish(tag, now);
        let b = &mut self.boards[dst as usize];
        let cap = b.local_caps.get(&service).copied();
        let home = b.sys().service_home(ServiceId(service));
        let forwarded = match (cap, home) {
            (Some(cap), Some(_)) => {
                let ltag = INGRESS_BIT | self.next_ingress;
                self.next_ingress += 1;
                match b.sys_mut().tile_mut(gw).monitor.send(
                    cap,
                    KIND_REQUEST,
                    ltag,
                    TrafficClass::Request,
                    payload,
                    now,
                ) {
                    Ok(()) => {
                        b.ingress.insert(ltag, Ingress { src, tag });
                        self.on_board.start(tag, now);
                        true
                    }
                    Err(_) => false,
                }
            }
            _ => false,
        };
        if !forwarded {
            self.fabric.send(&ClusterMsg {
                src: dst,
                dst: src,
                body: Body::Reply {
                    tag,
                    is_error: true,
                    payload: vec![apiary_monitor::wire::err::NO_SUCH_SERVICE],
                },
            });
        }
    }

    /// 5. Drain gateway inboxes: replies to local submits complete
    ///    directly; replies to forwarded ingress go back over the fabric.
    fn drain_gateways(&mut self, now: Cycle) {
        let gw = self.cfg.gateway;
        for bi in 0..self.boards.len() {
            // Look before taking the board mutably: an empty inbox is the
            // common case and must not cost the board its cached deadline.
            if !self.boards[bi].alive || !self.boards[bi].has_gateway_mail(gw) {
                continue;
            }
            while let Some(d) = self.boards[bi].sys_mut().tile_mut(gw).monitor.recv() {
                let is_error = d.msg.kind == KIND_ERROR;
                if d.msg.tag & INGRESS_BIT != 0 {
                    if let Some(ing) = self.boards[bi].ingress.remove(&d.msg.tag) {
                        self.on_board.finish(ing.tag, now);
                        self.fabric_back.start(ing.tag, now);
                        self.fabric.send(&ClusterMsg {
                            src: bi as u16,
                            dst: ing.src,
                            body: Body::Reply {
                                tag: ing.tag,
                                is_error,
                                payload: d.msg.payload.to_vec(),
                            },
                        });
                    }
                } else {
                    self.finish_request(d.msg.tag, is_error, now);
                }
            }
        }
    }

    /// 6. Cluster-level timeouts feed the client retry path.
    fn expire_requests(&mut self, now: Cycle, dense: bool) {
        for tag in self.pop_expired(now, dense) {
            self.timeouts += 1;
            self.finish_request(tag, true, now);
        }
    }

    /// Tags of the pending requests whose deadline has passed, ascending.
    /// Consumes the front of the deadline queue up to `now` and past any
    /// stale entries, so the front is again the earliest live deadline. The
    /// dense reference also scans `pending` and demands the same answer.
    fn pop_expired(&mut self, now: Cycle, dense: bool) -> Vec<u64> {
        let mut expired = Vec::new();
        while let Some(&(deadline, tag)) = self.deadlines.front() {
            let live = |p: &Pending| p.deadline == deadline;
            self.front_live = self.front_live || self.pending.get(&tag).is_some_and(live);
            if self.front_live && deadline > now {
                break;
            }
            self.deadlines.pop_front();
            if std::mem::take(&mut self.front_live) {
                expired.push(tag);
            }
        }
        // The same tag can sit in the queue twice with one deadline
        // (completed and resubmitted within a cycle).
        expired.sort_unstable();
        expired.dedup();
        if dense {
            let scanned: Vec<u64> = self
                .pending
                .iter()
                .filter(|(_, p)| p.deadline <= now)
                .map(|(&t, _)| t)
                .collect();
            assert_eq!(expired, scanned, "deadline queue disagrees with a scan");
        }
        expired
    }

    /// The next cycle at which anything in the cluster can happen: a
    /// board's kernel phases come due (including all in-flight NoC
    /// traffic), a fabric link has work, a gossip round fires, a
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
        if let Some(&(deadline, _)) = self.deadlines.front() {
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

    /// Panics unless the lockstep bookkeeping is consistent: every board
    /// steps by the cluster's clock, every live board is on the cluster's
    /// cycle and caches no stale deadline (nor does its system), the
    /// deadline queue's front is no later than the earliest timeout of any
    /// pending request (a later front would let the event clock sleep
    /// through an expiry) and is live if marked so, and the fabric's laws
    /// hold ([`Fabric::check_invariants`]). Boards and links that a cycle
    /// passes over are checked where they are skipped, in debug builds.
    pub fn check_invariants(&self) {
        let now = self.now();
        for (i, b) in self.boards.iter().enumerate() {
            assert_eq!(
                b.sys().config().clock,
                self.cfg.system.clock,
                "board {i} is not on the cluster's clock"
            );
            if b.alive {
                b.check_invariants(i, now);
            }
        }
        if let Some(earliest) = self.pending.values().map(|p| p.deadline).min() {
            let front = self.deadlines.front().map(|&(d, _)| d);
            assert!(
                front.is_some_and(|d| d <= earliest),
                "deadline queue front {front:?} is later than pending minimum {earliest:?}"
            );
        }
        let live = |&(d, t): &(Cycle, u64)| self.pending.get(&t).is_some_and(|p| p.deadline == d);
        let marked_right = !self.front_live || self.deadlines.front().is_some_and(live);
        assert!(marked_right, "deadline queue front wrongly marked live");
        self.fabric.check_invariants();
    }

    /// Advances time by one scheduling step: one cycle under the dense
    /// clock, or up to the next cluster-wide wakeup (never beyond
    /// `horizon`) under the event clock. Experiment drivers interleave
    /// their own client wakeups with the cluster's exactly like the
    /// single-board `System::advance_toward`.
    pub fn advance_toward(&mut self, horizon: Cycle) {
        if self.now() >= horizon {
            return;
        }
        match self.cfg.system.clock {
            ClockMode::Dense => self.tick(),
            ClockMode::Event => self.event_step(horizon),
        }
    }

    /// Runs `n` cycles, one [`ClusterSystem::advance_toward`] step at a
    /// time (both clocks end on the same cycle with bit-identical state).
    pub fn tick_n(&mut self, n: u64) {
        let end = Cycle(self.ticks.saturating_add(n));
        while self.now() < end {
            self.advance_toward(end);
        }
    }
}

/// One external client: a [`RequestGen`] (workload, retry policy, circuit
/// breaker) attached at a board's network ingress.
pub struct ClusterClient {
    /// The load generator (owns stats: issued, completed, errors, retries,
    /// shed, RTT histogram).
    pub gen: RequestGen,
    /// Board this client's traffic enters at.
    pub origin: u16,
    /// Service it invokes.
    pub service_name: String,
    /// Submits refused because no live replica was visible.
    pub no_replica: u64,
    last_breaker: Option<BreakerState>,
}

impl ClusterClient {
    /// Creates a client with retries and a breaker armed (the end-to-end
    /// resilience path E17 exercises).
    pub fn new(
        client_id: u32,
        origin: u16,
        service_name: &str,
        payload_bytes: usize,
        workload: Workload,
        seed: u64,
    ) -> ClusterClient {
        ClusterClient {
            gen: RequestGen::new(client_id, 0, payload_bytes, workload, seed)
                .with_retry(RetryPolicy::default())
                .with_breaker(BreakerConfig::default()),
            origin,
            service_name: service_name.to_string(),
            no_replica: 0,
            last_breaker: None,
        }
    }

    /// Whether `tag` belongs to this client's generator.
    pub fn owns(&self, tag: u64) -> bool {
        (tag >> 32) as u32 == self.gen.client_id
    }
}

/// One driver step for a set of clients: deliver completions, then issue
/// new arrivals and due retries, recording breaker-open transitions.
/// Call once per [`ClusterSystem::tick`].
pub fn drive_clients(cluster: &mut ClusterSystem, clients: &mut [ClusterClient]) {
    let now = cluster.now();
    for c in cluster.take_completions() {
        if let Some(cl) = clients.iter_mut().find(|cl| cl.owns(c.tag)) {
            cl.gen.complete(c.tag, now, c.is_error);
        }
    }
    for cl in clients.iter_mut() {
        for tag in cl.gen.poll(now) {
            let payload = vec![0u8; cl.gen.payload_bytes];
            match cluster.submit(cl.origin, &cl.service_name, tag, payload) {
                Ok(_) => {}
                Err(e) => {
                    if e == SubmitError::NoReplica {
                        cl.no_replica += 1;
                    }
                    cl.gen.complete(tag, now, true);
                }
            }
        }
        let state = cl.gen.breaker_state();
        if state == Some(BreakerState::Open) && cl.last_breaker != Some(BreakerState::Open) {
            cluster.note_breaker_open(cl.origin);
        }
        cl.last_breaker = state;
    }
}

/// Runs the cluster for up to `cycles` cycles with `clients` attached,
/// stopping early when `stop` returns true. The cluster jumps between
/// wakeups and the clients are driven at every cycle where they can act —
/// a completion is pending, or a client timed event (arrival, retry,
/// breaker cooldown) is due. Skipped cycles are cycles where
/// `drive_clients` would have been a pure no-op, and `stop` is re-checked
/// after every executed cycle. [`ClockMode::jump_target`] makes the dense reference
/// clock drive the clients on every cycle instead, so both clocks stop on
/// the same cycle with bit-identical client stats.
///
/// Returns `true` if `stop` fired before the cycle budget ran out.
pub fn run_clients(
    cluster: &mut ClusterSystem,
    clients: &mut [ClusterClient],
    cycles: u64,
    mut stop: impl FnMut(&ClusterSystem, &[ClusterClient]) -> bool,
) -> bool {
    let end = Cycle(cluster.now().as_u64().saturating_add(cycles));
    while cluster.now() < end {
        // Next cycle any client does timed work. Client state only changes
        // inside drive_clients, so this stays valid until the next drive.
        let next = Cycle(cluster.now().as_u64().saturating_add(1));
        let mut due = end;
        for cl in clients.iter() {
            if let Some(t) = cl.gen.next_timed_event() {
                due = due.min(t.max(next));
            }
        }
        let due = cluster.cfg.system.clock.jump_target(cluster.now(), due);
        loop {
            cluster.advance_toward(due);
            if cluster.now() >= due || cluster.has_completions() {
                break;
            }
            // `stop` may flip on any executed cycle (e.g. the last board
            // draining), not only on client-drive cycles. Client timed
            // events are not due yet, so driving here would be a no-op.
            if stop(cluster, clients) {
                return true;
            }
        }
        drive_clients(cluster, clients);
        if stop(cluster, clients) {
            return true;
        }
    }
    false
}
