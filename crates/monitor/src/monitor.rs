//! The per-tile monitor: interposition on every message.

use crate::rate::TokenBucket;
use crate::wire;
use apiary_cap::{CapError, CapKind, CapRef, CapTable, Capability, Rights};
use apiary_mem::{AccessKind, ProtectError, SegmentChecker};
use apiary_noc::{Delivered, Message, Noc, NodeId, TrafficClass};
use apiary_sim::{ensure, Cycle, FxHashMap, Payload};
use core::fmt;
use std::collections::{HashMap, VecDeque};

/// Monitor sizing and policy.
#[derive(Debug, Clone, Copy)]
pub struct MonitorConfig {
    /// Capability-table slots.
    pub cap_slots: usize,
    /// Outbound queue depth, in messages.
    pub outbox_depth: usize,
    /// Inbound queue depth, in messages.
    pub inbox_depth: usize,
    /// Pipeline cycles charged per outbound message for the capability
    /// check and header stamping (1 in a realistic design).
    pub check_cycles: u64,
    /// Egress rate limit as (milli-bytes per cycle, burst bytes), or `None`
    /// for unlimited.
    pub rate: Option<(u64, u64)>,
    /// Largest accepted payload, in bytes.
    pub max_payload: usize,
    /// Watchdog: if the oldest delivered message sits unconsumed in the
    /// inbox for this many cycles, the monitor reports the accelerator as
    /// hung (§4.4's "the process may never yield"). `None` disables it.
    pub watchdog_cycles: Option<u64>,
    /// Batched flow verdicts: cache the capability check per
    /// `(cap, destination)` flow so a burst of in-order sends through the
    /// same capability pays the `check_cycles` pipeline once, not per
    /// message. The cache is invalidated wholesale on any operation that
    /// can change a verdict (revoke, service rebind, fail-stop, reset), so
    /// verdicts are message-for-message identical to per-message checking.
    /// `false` restores the exact legacy per-message timing.
    pub flow_cache: bool,
}

impl Default for MonitorConfig {
    fn default() -> Self {
        MonitorConfig {
            cap_slots: 32,
            outbox_depth: 16,
            inbox_depth: 64,
            check_cycles: 1,
            rate: None,
            max_payload: 4096,
            watchdog_cycles: None,
            flow_cache: true,
        }
    }
}

/// The tile's lifecycle state as the monitor sees it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TileState {
    /// Normal operation.
    #[default]
    Running,
    /// Fail-stopped (§4.4): the accelerator faulted; traffic is sealed off
    /// and correspondents receive error replies.
    FailStopped,
}

/// Why the monitor refused to send.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SendError {
    /// Capability missing, stale, or lacking rights.
    Cap(CapError),
    /// Memory access outside the segment or wrong direction.
    Protect(ProtectError),
    /// The egress token bucket is empty.
    RateLimited,
    /// The outbound queue is full (NoC backpressure reached the tile).
    Backpressure,
    /// The tile is fail-stopped; nothing may leave.
    FailStopped,
    /// A service capability names a service with no registered node.
    UnknownService,
    /// Payload exceeds the configured maximum.
    PayloadTooLarge,
    /// An endpoint capability names an id outside the NoC's node-id space.
    /// Surfaced as an explicit error instead of silently truncating the id
    /// (endpoint 65537 must not alias node 1).
    InvalidEndpoint,
}

impl fmt::Display for SendError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SendError::Cap(e) => write!(f, "capability: {e}"),
            SendError::Protect(e) => write!(f, "memory protection: {e}"),
            SendError::RateLimited => write!(f, "rate limited"),
            SendError::Backpressure => write!(f, "outbound queue full"),
            SendError::FailStopped => write!(f, "tile fail-stopped"),
            SendError::UnknownService => write!(f, "unknown service"),
            SendError::PayloadTooLarge => write!(f, "payload too large"),
            SendError::InvalidEndpoint => write!(f, "endpoint id out of node range"),
        }
    }
}

impl std::error::Error for SendError {}

impl From<CapError> for SendError {
    fn from(e: CapError) -> SendError {
        SendError::Cap(e)
    }
}

impl From<ProtectError> for SendError {
    fn from(e: ProtectError) -> SendError {
        SendError::Protect(e)
    }
}

/// Monitor activity counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct MonitorStats {
    /// Messages accepted from the accelerator and queued out.
    pub sent: u64,
    /// Messages delivered into the tile's inbox.
    pub received: u64,
    /// Outbound messages denied on capability grounds.
    pub denied: u64,
    /// Outbound messages denied by the rate limiter.
    pub rate_limited: u64,
    /// Outbound attempts refused because the outbox was full.
    pub backpressured: u64,
    /// Error replies minted on behalf of a failed/overloaded tile.
    pub nacks_sent: u64,
    /// Inbound messages dropped (inbox overflow on error replies).
    pub dropped: u64,
    /// Sends whose capability verdict came from the flow cache (the
    /// `check_cycles` pipeline charge was skipped).
    pub flow_hits: u64,
    /// Sends that took the full capability check and primed the flow cache.
    pub flow_misses: u64,
}

/// The trusted per-tile monitor.
///
/// One instance fronts every tile. The kernel configures it (capabilities,
/// service names, policy); the accelerator can only call the message-path
/// methods ([`Monitor::send`], [`Monitor::send_mem`], [`Monitor::recv`]).
pub struct Monitor {
    node: NodeId,
    cfg: MonitorConfig,
    caps: CapTable,
    names: HashMap<u32, NodeId>,
    bucket: TokenBucket,
    checker: SegmentChecker,
    state: TileState,
    outbox: VecDeque<(Cycle, Message)>,
    inbox: VecDeque<Delivered>,
    stats: MonitorStats,
    /// Batched flow verdicts: `(cap index, cap generation)` -> resolved
    /// destination and badge. Populated on a successful full check, cleared
    /// by every operation that can change a verdict (see
    /// [`MonitorConfig::flow_cache`]). Iterated only by the law, so hash-map
    /// order cannot leak into simulation results.
    flows: FxHashMap<(u16, u16), FlowEntry>,
}

/// A cached capability verdict for one `(cap, destination)` flow.
#[derive(Debug, Clone, Copy)]
struct FlowEntry {
    dst: NodeId,
    badge: u64,
}

impl Monitor {
    /// Creates a monitor for the tile at `node`.
    pub fn new(node: NodeId, cfg: MonitorConfig) -> Monitor {
        Monitor {
            node,
            caps: CapTable::new(cfg.cap_slots),
            names: HashMap::new(),
            bucket: match cfg.rate {
                Some((rate, burst)) => TokenBucket::new(rate, burst),
                None => TokenBucket::unlimited(),
            },
            checker: SegmentChecker::new(1),
            state: TileState::Running,
            outbox: VecDeque::new(),
            inbox: VecDeque::new(),
            stats: MonitorStats::default(),
            flows: FxHashMap::default(),
            cfg,
        }
    }

    /// This tile's NoC node.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Current lifecycle state.
    pub fn state(&self) -> TileState {
        self.state
    }

    /// Counters.
    pub fn stats(&self) -> &MonitorStats {
        &self.stats
    }

    // ------------------------------------------------------------------
    // Kernel-facing (trusted) operations.
    // ------------------------------------------------------------------

    /// Installs a root capability (kernel authority).
    ///
    /// # Errors
    ///
    /// [`CapError::TableFull`] when the table is exhausted.
    pub fn install_cap(&mut self, cap: Capability) -> Result<CapRef, CapError> {
        self.caps.insert_root(cap)
    }

    /// Direct access to the capability table (kernel and tests).
    pub fn caps(&self) -> &CapTable {
        &self.caps
    }

    /// Derives a narrowed capability on behalf of the tile.
    ///
    /// # Errors
    ///
    /// Propagates [`CapError`] from the table.
    pub fn derive_cap(
        &mut self,
        parent: CapRef,
        rights: Rights,
        narrow: Option<CapKind>,
    ) -> Result<CapRef, CapError> {
        self.caps.derive(parent, rights, narrow)
    }

    /// Revokes a capability subtree.
    ///
    /// # Errors
    ///
    /// Propagates [`CapError`] from the table.
    pub fn revoke_cap(&mut self, r: CapRef) -> Result<(), CapError> {
        // Revocation kills a whole subtree of capabilities; invalidate every
        // batched flow verdict so the next send re-checks from scratch.
        self.flows.clear();
        self.caps.revoke(r)
    }

    /// Binds a logical service id to a physical node in this tile's name
    /// table (§4.3).
    ///
    /// Rebinding changes where service capabilities resolve, so this is a
    /// flow-cache invalidation point: the supervisor's reconfiguration
    /// rewiring and `System::bind_service` both land here.
    pub fn bind_service(&mut self, service: u32, node: NodeId) {
        self.flows.clear();
        self.names.insert(service, node);
    }

    /// Finds a live SEND-bearing endpoint capability for `node`, if the
    /// kernel granted one. This is how replies stay inside the capability
    /// discipline: a service can only answer clients it was explicitly
    /// connected to (§4.2 — IPC must be established).
    pub fn find_endpoint_cap(&self, node: NodeId) -> Option<CapRef> {
        // Compare in the wider u32 domain: endpoint 65537 must not match
        // node 1 (the old `e.0 as u16` truncation aliased them).
        self.caps.iter_live().find_map(|(r, c)| match c.kind {
            CapKind::Endpoint(e) if e.0 == u32::from(node.0) && c.rights.contains(Rights::SEND) => {
                Some(r)
            }
            _ => None,
        })
    }

    /// Fail-stops the tile: drains all queued traffic and seals it (§4.4).
    /// In-flight NoC traffic addressed here will be answered with errors as
    /// it arrives.
    pub fn fail_stop(&mut self) {
        self.state = TileState::FailStopped;
        self.outbox.clear();
        self.inbox.clear();
        self.flows.clear();
    }

    /// Resets the tile after reconfiguration: clears queues, capabilities,
    /// names, and returns to [`TileState::Running`].
    ///
    /// `now` is unused. It stays only because `benchmark/` calls
    /// `monitor.reset(now)` by this signature.
    pub fn reset(&mut self, _now: Cycle) {
        self.state = TileState::Running;
        self.outbox.clear();
        self.inbox.clear();
        self.caps = CapTable::new(self.cfg.cap_slots);
        self.names.clear();
        self.flows.clear();
    }

    /// `Err` unless the capability table's law holds
    /// ([`CapTable::check_invariants`]) and every cached flow verdict is
    /// what a full check would give now: its `(index, generation)` is a
    /// live SEND capability that resolves to the cached destination and
    /// badge.
    pub fn check_invariants(&self) -> Result<(), String> {
        self.caps
            .check_invariants()
            .map_err(|e| format!("tile {}: {e}", self.node))?;
        for (&(index, generation), flow) in &self.flows {
            let cap = self.caps.check(CapRef { index, generation }, Rights::SEND);
            let verdict = cap.ok().map(|c| (self.resolve_dst(c), c.badge));
            ensure!(
                verdict == Some((Ok(flow.dst), flow.badge)),
                "tile {} caches a stale flow {index}.{generation}",
                self.node
            );
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Accelerator-facing (untrusted) operations.
    // ------------------------------------------------------------------

    /// Resolves the destination node a capability names.
    fn resolve_dst(&self, cap: &Capability) -> Result<NodeId, SendError> {
        match cap.kind {
            // Endpoint ids are u32 but NoC node ids are u16; an id that
            // does not fit is a malformed capability, not an alias of
            // whatever node the low 16 bits happen to spell.
            CapKind::Endpoint(e) => u16::try_from(e.0)
                .map(NodeId)
                .map_err(|_| SendError::InvalidEndpoint),
            CapKind::Service(s) => self
                .names
                .get(&s.0)
                .copied()
                .ok_or(SendError::UnknownService),
            _ => Err(SendError::Cap(CapError::InsufficientRights {
                needed: Rights::SEND,
            })),
        }
    }

    /// Sends a message through `cap`.
    ///
    /// The monitor checks the capability, meters the bytes, stamps the true
    /// source and the capability badge, and queues the message for
    /// injection. The `kind`/`tag` words are application-level.
    ///
    /// With [`MonitorConfig::flow_cache`] enabled (the default), the first
    /// send through a capability takes the full check and pays the
    /// `check_cycles` pipeline; subsequent sends through the same live
    /// capability reuse the cached verdict and inject without the pipeline
    /// charge. Any revoke/rebind/fail-stop/reset invalidates the cache, so
    /// the *verdicts* are identical either way — only the timing of
    /// repeat-flow traffic improves.
    ///
    /// # Errors
    ///
    /// [`SendError`] describing the refusal; refusals have no side effects
    /// beyond counters.
    pub fn send(
        &mut self,
        cap: CapRef,
        kind: u16,
        tag: u64,
        class: TrafficClass,
        payload: impl Into<Payload>,
        now: Cycle,
    ) -> Result<(), SendError> {
        let payload: Payload = payload.into();
        if self.state == TileState::FailStopped {
            return Err(SendError::FailStopped);
        }
        if payload.len() > self.cfg.max_payload {
            return Err(SendError::PayloadTooLarge);
        }
        let flow_key = (cap.index, cap.generation);
        let cached = if self.cfg.flow_cache {
            self.flows.get(&flow_key).copied()
        } else {
            None
        };
        let (dst, badge, ready) = match cached {
            // Cache hit: the capability was checked when the flow was
            // primed and nothing has invalidated it since, so the verdict
            // stands. Skip the table walk and the pipeline charge.
            Some(entry) => {
                self.stats.flow_hits += 1;
                (entry.dst, entry.badge, now)
            }
            None => {
                let capability = match self.caps.check(cap, Rights::SEND) {
                    Ok(c) => *c,
                    Err(e) => {
                        self.stats.denied += 1;
                        return Err(e.into());
                    }
                };
                let dst = match self.resolve_dst(&capability) {
                    Ok(d) => d,
                    Err(e) => {
                        self.stats.denied += 1;
                        return Err(e);
                    }
                };
                if self.cfg.flow_cache {
                    self.stats.flow_misses += 1;
                    self.flows.insert(
                        flow_key,
                        FlowEntry {
                            dst,
                            badge: capability.badge,
                        },
                    );
                }
                (dst, capability.badge, now + self.cfg.check_cycles)
            }
        };
        if self.outbox.len() >= self.cfg.outbox_depth {
            self.stats.backpressured += 1;
            return Err(SendError::Backpressure);
        }
        let bytes = payload.len() as u64 + 16;
        if !self.bucket.try_consume(bytes, now) {
            self.stats.rate_limited += 1;
            return Err(SendError::RateLimited);
        }
        let mut msg = Message::new(self.node, dst, class, payload);
        msg.kind = kind;
        msg.tag = tag;
        msg.badge = badge;
        self.stats.sent += 1;
        self.outbox.push_back((ready, msg));
        Ok(())
    }

    /// Sends a memory access: bounds-checks `(offset, len)` against the
    /// segment capability `mem_cap`, translates to a physical address, and
    /// sends the request to the memory service through `service_cap`.
    ///
    /// Write data rides in `data`; reads pass an empty slice. The request
    /// payload encodes `[phys_addr: u64][len: u64][data...]` — the memory
    /// tile trusts these fields because only monitors can mint them.
    ///
    /// # Errors
    ///
    /// [`SendError`], including [`SendError::Protect`] for bounds/rights
    /// failures (the deny happens *before* anything enters the network).
    #[allow(clippy::too_many_arguments)]
    pub fn send_mem(
        &mut self,
        mem_cap: CapRef,
        service_cap: CapRef,
        access: AccessKind,
        offset: u64,
        len: u64,
        data: &[u8],
        tag: u64,
        now: Cycle,
    ) -> Result<(), SendError> {
        if self.state == TileState::FailStopped {
            return Err(SendError::FailStopped);
        }
        let phys = match self.checker.check(&self.caps, mem_cap, access, offset, len) {
            Ok(p) => p,
            Err(e) => {
                self.stats.denied += 1;
                return Err(e.into());
            }
        };
        let kind = match access {
            AccessKind::Read => wire::KIND_MEM_READ,
            AccessKind::Write => wire::KIND_MEM_WRITE,
        };
        let payload = wire_mem::encode(phys, len, data);
        let class = if data.len() > 256 {
            TrafficClass::Bulk
        } else {
            TrafficClass::Request
        };
        self.send(service_cap, kind, tag, class, payload, now)
    }

    /// Takes the next delivered message, if any.
    pub fn recv(&mut self) -> Option<Delivered> {
        self.inbox.pop_front()
    }

    /// Messages waiting in the inbox.
    pub fn inbox_len(&self) -> usize {
        self.inbox.len()
    }

    /// Messages waiting to enter the NoC.
    pub fn outbox_len(&self) -> usize {
        self.outbox.len()
    }

    /// Returns `true` if the watchdog is armed and the accelerator has
    /// left its oldest delivery unconsumed beyond the configured window.
    /// The kernel polls this and applies the tile's fault policy.
    pub fn hang_detected(&self, now: Cycle) -> bool {
        let Some(window) = self.cfg.watchdog_cycles else {
            return false;
        };
        if self.state != TileState::Running {
            return false;
        }
        self.inbox
            .front()
            .is_some_and(|d| now - d.delivered_at > window)
    }

    /// The first cycle at which [`Monitor::hang_detected`] would report the
    /// current oldest delivery as hung, or `None` when no hang is brewing
    /// (watchdog disarmed, tile not running, or inbox empty). The event
    /// clock uses this to schedule a watchdog wakeup instead of polling
    /// every cycle; consuming the delivery invalidates the deadline, which
    /// is fine — waking on a stale deadline is merely spurious.
    pub fn hang_deadline(&self) -> Option<Cycle> {
        let window = self.cfg.watchdog_cycles?;
        if self.state != TileState::Running {
            return None;
        }
        self.inbox
            .front()
            .map(|d| d.delivered_at.saturating_add(window).saturating_add(1))
    }

    // ------------------------------------------------------------------
    // Data-path pumping, driven by the kernel once per cycle.
    // ------------------------------------------------------------------

    /// When the head of the outbox becomes eligible to inject, if anything
    /// is queued. The outbox is head-of-line FIFO, so the event clock only
    /// needs the front entry's ready time to schedule the next
    /// [`Monitor::pump_out`] that can make progress.
    pub fn outbox_next_ready(&self) -> Option<Cycle> {
        self.outbox.front().map(|(ready, _)| *ready)
    }

    /// Moves ready outbound messages into the NoC (stops on backpressure).
    pub fn pump_out(&mut self, noc: &mut Noc, now: Cycle) {
        while let Some((ready, head)) = self.outbox.front() {
            if *ready > now {
                break;
            }
            // Reserve injection space *before* popping so the message is
            // moved into the NoC rather than cloned speculatively (the old
            // peek-then-clone copied every payload once per pump attempt).
            if noc.inject_space(self.node, head.class) == 0 {
                break;
            }
            let (_, msg) = self.outbox.pop_front().expect("peeked");
            if noc.try_inject(self.node, msg).is_err() {
                // Space was reserved, so the only remaining failures are an
                // unreachable or invalid destination — neither heals by
                // waiting; drop instead of wedging the outbox behind it.
                self.stats.dropped += 1;
            }
        }
    }

    /// Accepts deliveries from the NoC into the inbox; fail-stopped tiles
    /// answer with error replies instead (§4.4).
    pub fn pump_in(&mut self, noc: &mut Noc, now: Cycle) {
        while let Some(d) = noc.poll_eject(self.node) {
            self.accept(d, now);
        }
    }

    fn accept(&mut self, d: Delivered, now: Cycle) {
        match self.state {
            TileState::FailStopped => {
                self.nack(&d.msg, wire::err::TARGET_FAILED, now);
            }
            TileState::Running => {
                if self.inbox.len() >= self.cfg.inbox_depth {
                    self.nack(&d.msg, wire::err::OVERLOAD, now);
                    return;
                }
                self.stats.received += 1;
                self.inbox.push_back(d);
            }
        }
    }

    /// Mints an error reply with monitor authority (no capability needed —
    /// the monitor is trusted). Never replies to an error, so two failed
    /// tiles cannot ping-pong.
    fn nack(&mut self, original: &Message, code: u8, now: Cycle) {
        if original.kind == wire::KIND_ERROR {
            self.stats.dropped += 1;
            return;
        }
        let mut reply = Message::new(self.node, original.src, TrafficClass::Control, vec![code]);
        reply.kind = wire::KIND_ERROR;
        reply.tag = original.tag;
        self.stats.nacks_sent += 1;
        self.outbox.push_back((now, reply));
    }
}

/// Encoding of memory request payloads.
pub mod wire_mem {
    /// Encodes `[addr][len][data...]`.
    pub fn encode(addr: u64, len: u64, data: &[u8]) -> Vec<u8> {
        let mut p = Vec::with_capacity(16 + data.len());
        p.extend_from_slice(&addr.to_le_bytes());
        p.extend_from_slice(&len.to_le_bytes());
        p.extend_from_slice(data);
        p
    }

    /// Decodes a memory request payload; `None` if malformed.
    pub fn decode(payload: &[u8]) -> Option<(u64, u64, &[u8])> {
        if payload.len() < 16 {
            return None;
        }
        let addr = u64::from_le_bytes(payload[0..8].try_into().ok()?);
        let len = u64::from_le_bytes(payload[8..16].try_into().ok()?);
        Some((addr, len, &payload[16..]))
    }
}

#[cfg(test)]
mod tests;
