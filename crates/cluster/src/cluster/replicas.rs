//! The replica and chaos plane: deploying, reconfiguring and tearing down
//! replicas, and killing boards and cutting links. A replica is a name
//! bound to a service id; everything else about it is read from its
//! board's supervisor spec.

use super::{ClusterSystem, NO_REPLICA};
use apiary_cap::ServiceId;
use apiary_core::supervisor::AccelFactory;
use apiary_core::{AppId, FaultPolicy, ServiceImage, SystemError};
use apiary_noc::NodeId;
use apiary_sim::Cycle;

impl ClusterSystem {
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
        b.replicas.insert(name.to_string(), service);
        Ok(b.dir.publish(now, name, service, node))
    }

    /// Reconfigures the tile hosting a locally published replica:
    /// **withdraw-then-republish**. The directory entry is tombstoned
    /// before the bitstream starts loading (peers steer new work away as
    /// gossip spreads), and republished — with the gateway re-wired — only
    /// once the new accelerator is online. In-flight invocations against
    /// the tile get monitor error replies and re-balance through the
    /// client retry path. The replica is undeployed and adopted afresh
    /// where it lives, so its spec holds the new image and a later restart
    /// or migration loads the new accelerator.
    pub fn reconfigure_replica(
        &mut self,
        board: u16,
        name: &str,
        factory: AccelFactory,
        bitstream_bytes: u64,
    ) -> Result<(), SystemError> {
        let now = self.now();
        let b = &mut self.boards[board as usize];
        let spec = b.replica(name).ok_or(NO_REPLICA)?;
        let (service, node) = (spec.service, spec.node);
        if b.sys().reconfiguring(node) {
            return Err(SystemError::ReconfigInProgress(node));
        }
        b.dir.withdraw(now, name);
        let spec = b.sys_mut().undeploy_service(service).expect("listed");
        let image = ServiceImage {
            bitstream_bytes,
            factory,
            ..spec.image
        };
        b.adopt_replica(name, service, node, image, None)?;
        Ok(())
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
        let image = ServiceImage {
            app,
            policy,
            bitstream_bytes,
            factory,
        };
        let (done, _) = b.adopt_replica(name, service, node, image, None)?;
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
        let b = &mut self.boards[board as usize];
        if !b.alive {
            return Err(NO_REPLICA);
        }
        let spec = b.replica(name).ok_or(NO_REPLICA)?;
        let (service, node) = (spec.service, spec.node);
        if b.sys().reconfiguring(node) {
            return Err(SystemError::ReconfigInProgress(node));
        }
        b.dir.withdraw(now, name);
        b.sys_mut().undeploy_service(service);
        b.local_caps.remove(&service.0);
        b.replicas.remove(name);
        b.republish.retain(|r| r.name != name);
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
}
