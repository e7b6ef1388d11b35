//! The configuration plane: seating, wiring, preempting and reconfiguring
//! tiles, and the supervised services the kernel re-homes after failure.

use super::{System, SystemError};
use crate::checkpoint::CheckpointStore;
use crate::fault::{preemption_downtime, FaultAction, FaultPolicy, FaultRecord};
use crate::process::{AppId, OS_APP};
use crate::supervisor::{AccelFactory, Incident, Phase, ServiceImage, ServiceSpec};
use crate::tile::ParkedTenant;
use apiary_accel::{Accelerator, CapEnv};
use apiary_cap::{CapError, CapKind, CapRef, Capability, EndpointId, Rights, ServiceId};
use apiary_noc::NodeId;
use apiary_sim::Cycle;
use apiary_trace::EventKind;

/// A SEND capability to `node`'s endpoint, stamped with `badge`.
fn send_to(node: NodeId, badge: u64) -> Capability {
    Capability::badged(
        CapKind::Endpoint(EndpointId(node.0 as u32)),
        Rights::SEND,
        badge,
    )
}

impl System {
    /// Installs an accelerator into an empty tile.
    ///
    /// # Errors
    ///
    /// [`SystemError::BadNode`] or [`SystemError::SlotOccupied`].
    pub fn install(
        &mut self,
        node: NodeId,
        accel: Box<dyn Accelerator>,
        app: AppId,
        policy: FaultPolicy,
    ) -> Result<(), SystemError> {
        self.touched().check_node(node)?;
        let tile = &mut self.tiles[node.index()];
        if tile.accel.is_some() {
            return Err(SystemError::SlotOccupied(node));
        }
        tile.seat(accel, app, policy, CapEnv::new());
        Ok(())
    }

    /// Grants `from` a SEND capability to `to` and returns the handle.
    ///
    /// Connections across application boundaries require `allow_cross_app`
    /// unless one side is an OS service — the §4.2 rule that distrusting
    /// processes must *specifically establish* IPC.
    ///
    /// # Errors
    ///
    /// [`SystemError::CrossAppConnect`] for implicit cross-app links, plus
    /// node/slot/capability errors.
    pub fn connect(
        &mut self,
        from: NodeId,
        to: NodeId,
        allow_cross_app: bool,
    ) -> Result<CapRef, SystemError> {
        self.connect_badged(from, to, 0, allow_cross_app)
    }

    /// Like [`System::connect`] but stamps a badge into the capability, so
    /// the receiver can attribute traffic to this grant (multi-tenant
    /// services key tenant state off the badge).
    ///
    /// # Errors
    ///
    /// As [`System::connect`].
    pub fn connect_badged(
        &mut self,
        from: NodeId,
        to: NodeId,
        badge: u64,
        allow_cross_app: bool,
    ) -> Result<CapRef, SystemError> {
        self.touched().check_node(from)?;
        self.check_node(to)?;
        let from_app = self.tiles[from.index()]
            .app
            .ok_or(SystemError::SlotEmpty(from))?;
        let to_app = self.tiles[to.index()]
            .app
            .ok_or(SystemError::SlotEmpty(to))?;
        if from_app != to_app && to_app != OS_APP && from_app != OS_APP && !allow_cross_app {
            return Err(SystemError::CrossAppConnect { from, to });
        }
        let cap = self.tiles[from.index()]
            .monitor
            .install_cap(send_to(to, badge))?;
        let now = self.clock.now();
        self.tiles[from.index()].monitor.tracer_mut().record(
            now,
            from.0,
            EventKind::CapOp { op: "connect" },
        );
        Ok(cap)
    }

    /// Connects `from` to `to` and places the capability in `from`'s
    /// environment under `name`.
    ///
    /// # Errors
    ///
    /// As [`System::connect`].
    pub fn connect_env(
        &mut self,
        from: NodeId,
        to: NodeId,
        name: &str,
        allow_cross_app: bool,
    ) -> Result<CapRef, SystemError> {
        let cap = self.connect(from, to, allow_cross_app)?;
        self.tiles[from.index()].env.insert(name, cap);
        Ok(cap)
    }

    /// Places an existing capability into a tile's environment.
    pub fn grant_env(&mut self, node: NodeId, name: &str, cap: CapRef) {
        self.touched().tiles[node.index()].env.insert(name, cap);
    }

    /// Allocates `len` bytes of segment memory for `node`: wires the tile
    /// to the memory service and installs a READ|WRITE memory capability.
    ///
    /// # Errors
    ///
    /// Allocation or capability errors. A failed grant leaves no segment
    /// allocated and no memory capability installed.
    pub fn grant_memory(&mut self, node: NodeId, len: u64) -> Result<CapRef, SystemError> {
        self.touched().check_node(node)?;
        self.wire_to_memory(node)?;
        let range = self.allocator.alloc(len)?;
        let cap = Capability::new(CapKind::Memory(range), Rights::READ | Rights::WRITE);
        let installed = self.tiles[node.index()].monitor.install_cap(cap);
        if installed.is_err() {
            self.allocator.free(range)?;
        }
        Ok(installed?)
    }

    /// Wires `node` to the memory service: a SEND capability under env
    /// name `"mem-service"` and the service's reply path. Idempotent, so a
    /// later failure may leave it in place.
    fn wire_to_memory(&mut self, node: NodeId) -> Result<(), CapError> {
        let mem_node = self.mem_node();
        let tile = &mut self.tiles[node.index()];
        if tile.env.get("mem-service").is_none() {
            let svc = tile.monitor.install_cap(send_to(mem_node, 0))?;
            tile.env.insert("mem-service", svc);
        }
        self.open_reply_path(mem_node, node)
    }

    /// Gives `home` a SEND capability back to `client` unless it holds one.
    pub(crate) fn open_reply_path(&mut self, home: NodeId, client: NodeId) -> Result<(), CapError> {
        let monitor = &mut self.tiles[home.index()].monitor;
        if monitor.find_endpoint_cap(client).is_none() {
            monitor.install_cap(send_to(client, 0))?;
        }
        Ok(())
    }

    /// Shares a memory segment: derives a (possibly narrowed, rights-
    /// reduced) view of `owner`'s memory capability and installs it at
    /// `peer`, wiring the peer to the memory service too. This is §4.6's
    /// segment sharing — two accelerators exchanging data through a common
    /// buffer without either being able to touch anything else.
    ///
    /// # Errors
    ///
    /// Capability errors (bad handle, not a memory capability, rights not
    /// a subset), node errors.
    pub fn share_memory(
        &mut self,
        owner: NodeId,
        cap: CapRef,
        peer: NodeId,
        rights: Rights,
        narrow: Option<apiary_cap::MemRange>,
    ) -> Result<CapRef, SystemError> {
        self.touched().check_node(owner)?;
        self.check_node(peer)?;
        let capability = *self.tiles[owner.index()]
            .monitor
            .caps()
            .lookup(cap)
            .map_err(SystemError::Cap)?;
        let CapKind::Memory(range) = capability.kind else {
            return Err(SystemError::Cap(CapError::InvalidRef));
        };
        if !rights.is_subset_of(capability.rights) {
            return Err(SystemError::Cap(CapError::IllegalDerivation));
        }
        let shared_range = match narrow {
            Some(r) => {
                if !range.covers(&r) {
                    return Err(SystemError::Cap(CapError::IllegalDerivation));
                }
                r
            }
            None => range,
        };
        self.wire_to_memory(peer)?;
        let shared = self.tiles[peer.index()]
            .monitor
            .install_cap(Capability::new(CapKind::Memory(shared_range), rights))?;
        Ok(shared)
    }

    /// Revokes a memory capability and returns its segment to the pool.
    ///
    /// # Errors
    ///
    /// Capability or allocator errors.
    pub fn release_memory(&mut self, node: NodeId, cap: CapRef) -> Result<(), SystemError> {
        self.touched().check_node(node)?;
        let tile = &mut self.tiles[node.index()];
        let capability = *tile.monitor.caps().lookup(cap).map_err(SystemError::Cap)?;
        let CapKind::Memory(range) = capability.kind else {
            return Err(SystemError::Cap(CapError::InvalidRef));
        };
        tile.monitor.revoke_cap(cap)?;
        self.allocator.free(range)?;
        Ok(())
    }

    /// Binds logical service `service` to `target` in `client`'s name
    /// table and grants a SEND capability for it (§4.3 naming).
    ///
    /// # Errors
    ///
    /// Node or capability errors.
    pub fn bind_service(
        &mut self,
        client: NodeId,
        service: ServiceId,
        target: NodeId,
    ) -> Result<CapRef, SystemError> {
        self.touched().check_node(client)?;
        self.check_node(target)?;
        let tile = &mut self.tiles[client.index()];
        tile.monitor.bind_service(service.0, target);
        let cap = tile
            .monitor
            .install_cap(Capability::new(CapKind::Service(service), Rights::SEND))?;
        Ok(cap)
    }

    /// Manually fail-stops a tile (operator action or watchdog).
    pub fn fail_stop(&mut self, node: NodeId) {
        let now = self.touched().clock.now();
        let tile = &mut self.tiles[node.index()];
        tile.monitor.fail_stop(now);
        tile.faults.push(FaultRecord {
            code: 0,
            at: now,
            action: FaultAction::FailStopped,
        });
    }

    /// Injects a fault into a tile exactly as if its accelerator had raised
    /// `code`: the tile's fault policy applies (preempt or fail-stop) and a
    /// [`FaultRecord`] lands in its history. This is the chaos plane's
    /// tile-kill primitive and an operator's big red button.
    pub fn inject_fault(&mut self, node: NodeId, code: u32) {
        let now = self.touched().clock.now();
        self.apply_fault(node, code, now);
    }

    // ------------------------------------------------------------------
    // Supervised services (self-healing, §4.4).
    // ------------------------------------------------------------------

    /// Installs a supervised service: instantiates `factory()` at `node`
    /// and registers the spec so the supervisor can re-instantiate it after
    /// a failure. Requires `supervisor.enabled` in the config to actually
    /// heal; deploying without it just installs.
    ///
    /// # Errors
    ///
    /// As [`System::install`].
    pub fn deploy_service(
        &mut self,
        service: ServiceId,
        node: NodeId,
        app: AppId,
        policy: FaultPolicy,
        bitstream_bytes: u64,
        factory: AccelFactory,
    ) -> Result<(), SystemError> {
        self.install(node, factory(), app, policy)?;
        let image = ServiceImage {
            app,
            policy,
            bitstream_bytes,
            factory,
        };
        self.supervise(service, node, image);
        Ok(())
    }

    /// Loads a fresh instance of `image` onto `node` through the ICAP,
    /// warm from `snapshot` if it restores into it, and supervises the
    /// service from now: a pooled deploy, or the destination half of a
    /// cross-board migration. Returns the load's completion cycle and
    /// whether the start was warm.
    ///
    /// # Errors
    ///
    /// As [`System::reconfigure`]; nothing is supervised then.
    pub fn adopt_service(
        &mut self,
        service: ServiceId,
        node: NodeId,
        image: ServiceImage,
        snapshot: Option<&[u8]>,
    ) -> Result<(Cycle, bool), SystemError> {
        let started = self.touched().warm_start(node, &image, snapshot)?;
        self.supervise(service, node, image);
        Ok(started)
    }

    /// Registers the spec of a service whose instance is up (or loading)
    /// at `node`.
    fn supervise(&mut self, service: ServiceId, node: NodeId, image: ServiceImage) {
        let next_checkpoint_at = self.first_checkpoint_due();
        self.supervisor.specs.push(ServiceSpec {
            service,
            node,
            image,
            clients: Vec::new(),
            restarts_used: 0,
            abandoned: false,
            next_checkpoint_at,
        });
    }

    /// Loads a fresh instance of `image` onto `node` through the ICAP,
    /// warm if `snapshot` restores into it. The snapshot crosses the ICAP
    /// with the bitstream, so the load is priced at both. A snapshot the
    /// instance rejects leaves nothing half-restored: the instance is
    /// rebuilt fresh and the start is cold. Returns the completion cycle
    /// and whether the start was warm.
    pub(crate) fn warm_start(
        &mut self,
        node: NodeId,
        image: &ServiceImage,
        snapshot: Option<&[u8]>,
    ) -> Result<(Cycle, bool), SystemError> {
        let mut accel = (image.factory)();
        let restored = snapshot.filter(|s| accel.restore_state(s).is_ok());
        if restored.is_none() && snapshot.is_some() {
            accel = (image.factory)();
        }
        let bytes = image.bitstream_bytes + restored.map_or(0, |s| s.len() as u64);
        let done = self.reconfigure(node, accel, image.app, image.policy, bytes)?;
        Ok((done, restored.is_some()))
    }

    /// Removes a supervised service from this board: drops its spec and
    /// stored checkpoint, closes any open incident, and decommissions its
    /// tile so no stale authority survives. Returns the removed spec: its
    /// node is the freed tile, and the source half of a cross-board
    /// migration hands its image to the destination.
    pub fn undeploy_service(&mut self, service: ServiceId) -> Option<ServiceSpec> {
        let idx = self
            .touched()
            .supervisor
            .specs
            .iter()
            .position(|s| s.service == service)?;
        if let Some(ii) = self.supervisor.open_incident(service) {
            self.supervisor.incidents[ii].phase = Phase::Closed;
        }
        let spec = self.supervisor.specs.remove(idx);
        self.supervisor.checkpoints.remove(service.0);
        let now = self.clock.now();
        self.tiles[spec.node.index()].vacate(now);
        Some(spec)
    }

    /// The board's checkpoint store.
    pub fn checkpoint_store(&self) -> &CheckpointStore {
        self.supervisor.checkpoints()
    }

    /// Wires `client` to a supervised service: binds the logical name to
    /// the service's current home in the client's name table, grants the
    /// client a SEND capability for it, opens the reply path, and records
    /// the client so recovery re-wires it. Returns the client's service
    /// capability — it stays valid across restarts *and* migrations,
    /// because service naming is late-bound (§4.3).
    ///
    /// # Errors
    ///
    /// Node or capability errors; [`SystemError::UnknownService`] if no
    /// such service is deployed.
    pub fn attach_client(
        &mut self,
        client: NodeId,
        service: ServiceId,
    ) -> Result<CapRef, SystemError> {
        let home = self
            .supervisor
            .service_home(service)
            .ok_or(SystemError::UnknownService(service))?;
        let cap = self.bind_service(client, service, home)?;
        self.open_reply_path(home, client)?;
        let spec = self
            .supervisor
            .specs
            .iter_mut()
            .find(|s| s.service == service)
            .expect("home lookup succeeded above");
        if !spec.clients.contains(&client) {
            spec.clients.push(client);
        }
        Ok(cap)
    }

    /// The supervisor's incident log (detection/recovery cycles, MTTR).
    pub fn incidents(&self) -> &[Incident] {
        self.supervisor.incidents()
    }

    /// MTTR samples (cycles) for all recovered incidents.
    pub fn mttr_samples(&self) -> Vec<u64> {
        self.supervisor.mttr_samples()
    }

    /// Current home node of a supervised service.
    pub fn service_home(&self, service: ServiceId) -> Option<NodeId> {
        self.supervisor.service_home(service)
    }

    /// The spec of a supervised service: its home and what a restart
    /// loads there.
    pub fn service_spec(&self, service: ServiceId) -> Option<&ServiceSpec> {
        self.supervisor.spec(service)
    }

    /// Manually preempts a tile: saves and immediately restores the
    /// accelerator's state, charging the save/restore downtime. Returns the
    /// snapshot size in bytes.
    ///
    /// # Errors
    ///
    /// [`SystemError::NotPreemptible`] if the accelerator cannot
    /// externalize state.
    pub fn preempt(&mut self, node: NodeId) -> Result<usize, SystemError> {
        self.touched().check_node(node)?;
        let now = self.clock.now();
        self.tiles[node.index()].preempt_in_place(now)
    }

    /// Installs a *second* tenant on an occupied tile, parked: the tile
    /// time-multiplexes between the active and parked tenants via
    /// [`System::swap_context`]. The parked tenant starts cold (no
    /// snapshot yet) and begins running at its first swap-in.
    ///
    /// # Errors
    ///
    /// [`SystemError::SlotEmpty`] if no active tenant is present,
    /// [`SystemError::SlotOccupied`] if a tenant is already parked.
    pub fn install_shared(
        &mut self,
        node: NodeId,
        accel: Box<dyn Accelerator>,
        app: AppId,
        policy: FaultPolicy,
    ) -> Result<(), SystemError> {
        self.touched().check_node(node)?;
        let tile = &mut self.tiles[node.index()];
        if tile.accel.is_none() {
            return Err(SystemError::SlotEmpty(node));
        }
        if tile.parked.is_some() {
            return Err(SystemError::SlotOccupied(node));
        }
        tile.parked = Some(ParkedTenant {
            accel,
            app,
            policy,
            env: CapEnv::new(),
            snapshot: None,
        });
        Ok(())
    }

    /// Swaps the active and parked tenants on a shared tile: saves the
    /// active tenant's architectural state, restores the incoming tenant
    /// from its last swap-out snapshot (or starts it cold), and charges
    /// the partial-reconfig time model for both legs — the tile stalls
    /// for [`preemption_downtime`] of the combined state crossing the
    /// configuration port. Returns `(outgoing, incoming)` snapshot sizes.
    ///
    /// # Errors
    ///
    /// [`SystemError::NoParkedTenant`] without a second tenant,
    /// [`SystemError::NotPreemptible`] if the active tenant cannot
    /// externalize state (the swap does not happen),
    /// [`SystemError::ReconfigInProgress`] mid-bitstream.
    pub fn swap_context(&mut self, node: NodeId) -> Result<(usize, usize), SystemError> {
        self.touched().check_node(node)?;
        if self.reconfig.in_progress(node) {
            return Err(SystemError::ReconfigInProgress(node));
        }
        let now = self.clock.now();
        let tile = &mut self.tiles[node.index()];
        if tile.parked.is_none() {
            return Err(SystemError::NoParkedTenant(node));
        }
        let outgoing_snap = match tile.accel.as_ref().and_then(|a| a.save_state()) {
            Some(s) => s,
            None => return Err(SystemError::NotPreemptible(node)),
        };
        let mut incoming = tile.parked.take().expect("checked above");
        let in_len = match incoming.snapshot.take() {
            Some(snap) => {
                incoming
                    .accel
                    .restore_state(&snap)
                    .expect("a tenant restores its own snapshot");
                snap.len()
            }
            None => 0,
        };
        let out_len = outgoing_snap.len();
        let outgoing = ParkedTenant {
            accel: tile.accel.take().expect("active tenant was saved"),
            app: tile.app.expect("active tenant has an app"),
            policy: tile.policy,
            env: std::mem::take(&mut tile.env),
            snapshot: Some(outgoing_snap),
        };
        tile.seat(incoming.accel, incoming.app, incoming.policy, incoming.env);
        tile.parked = Some(outgoing);
        tile.busy_until = now + preemption_downtime(out_len + in_len);
        tile.monitor
            .tracer_mut()
            .record(now, node.0, EventKind::Preempt { context: 1 });
        Ok((out_len, in_len))
    }

    /// Downcasts a tile's *parked* tenant to a concrete type (retention
    /// audits on the swapped-out tenant).
    pub fn parked_as<T: 'static>(&self, n: NodeId) -> Option<&T> {
        self.tiles[n.index()]
            .parked
            .as_ref()?
            .accel
            .as_any()
            .downcast_ref::<T>()
    }

    /// Begins partial reconfiguration of `node` with a new accelerator.
    /// The tile goes offline immediately (correspondents get errors) and
    /// comes back reset when the bitstream finishes loading. Returns the
    /// completion cycle.
    ///
    /// # Errors
    ///
    /// Node errors or [`SystemError::ReconfigInProgress`].
    pub fn reconfigure(
        &mut self,
        node: NodeId,
        accel: Box<dyn Accelerator>,
        app: AppId,
        policy: FaultPolicy,
        bitstream_bytes: u64,
    ) -> Result<Cycle, SystemError> {
        self.touched().check_node(node)?;
        if self.reconfig.in_progress(node) {
            return Err(SystemError::ReconfigInProgress(node));
        }
        let now = self.clock.now();
        let tile = &mut self.tiles[node.index()];
        tile.accel = None;
        tile.app = None;
        tile.monitor.fail_stop(now);
        Ok(self
            .reconfig
            .start(now, node, accel, app, policy, bitstream_bytes))
    }
}
