//! The machine: NoC (whose cycle is the machine's clock) + tiles, and the
//! kernel management API.
//!
//! This file holds the machine's state and its accessors. The management
//! API is in `system/plane.rs`, and the cycle loop, the [`Machine`] impl
//! and the laws are in `system/cycle.rs`.

mod cycle;
mod plane;

use crate::fault::FaultPolicy;
use crate::memsvc::MemoryService;
use crate::process::OS_APP;
use crate::reconfig::ReconfigController;
use crate::supervisor::{Supervisor, SupervisorConfig};
use crate::tile::Tile;
use apiary_cap::{CapError, ServiceId};
use apiary_mem::{AllocError, AllocPolicy, DramConfig, SegmentAllocator};
use apiary_monitor::{Monitor, MonitorConfig, TileState};
use apiary_noc::{Noc, NocConfig, NodeId};
use apiary_sim::{ClockMode, Cycle, Machine};
use core::fmt;
use std::cell::Cell;

/// On-card DRAM capacity behind the memory service, in bytes.
pub const MEM_CAPACITY: u64 = 16 << 20;

/// System-level configuration.
#[derive(Debug, Clone)]
pub struct SystemConfig {
    /// NoC geometry and parameters.
    pub noc: NocConfig,
    /// Per-tile monitor configuration.
    pub monitor: MonitorConfig,
    /// DRAM timing.
    pub dram: DramConfig,
    /// ICAP bandwidth for partial reconfiguration, bytes/cycle.
    pub icap_bytes_per_cycle: u64,
    /// Self-healing supervisor policy (off by default).
    pub supervisor: SupervisorConfig,
    /// The clock [`System::advance_toward`] steps this machine by: the
    /// event core (default) or the dense per-cycle reference it is
    /// replayed against.
    pub clock: ClockMode,
}

impl SystemConfig {
    /// The node hosting the memory service: the last node of the mesh.
    pub fn memory_node(&self) -> NodeId {
        NodeId(self.noc.nodes() as u16 - 1)
    }
}

impl Default for SystemConfig {
    fn default() -> Self {
        SystemConfig {
            noc: NocConfig::default(),
            monitor: MonitorConfig::default(),
            dram: DramConfig::default(),
            icap_bytes_per_cycle: 4,
            supervisor: SupervisorConfig::default(),
            clock: ClockMode::default(),
        }
    }
}

/// Kernel API errors.
#[derive(Debug)]
pub enum SystemError {
    /// The node is outside the mesh.
    BadNode(NodeId),
    /// The tile already hosts an accelerator.
    SlotOccupied(NodeId),
    /// The tile hosts no accelerator.
    SlotEmpty(NodeId),
    /// Mutually distrusting applications may only be connected explicitly
    /// (§4.2); this connect lacked `allow_cross_app`.
    CrossAppConnect {
        /// Requesting tile.
        from: NodeId,
        /// Target tile.
        to: NodeId,
    },
    /// A capability-table operation failed.
    Cap(CapError),
    /// A memory allocation failed.
    Alloc(AllocError),
    /// Preemption requested on a non-preemptible accelerator.
    NotPreemptible(NodeId),
    /// The tile is being reconfigured.
    ReconfigInProgress(NodeId),
    /// Context swap requested on a tile with no parked tenant.
    NoParkedTenant(NodeId),
    /// No supervised service by that name is deployed.
    UnknownService(ServiceId),
}

impl fmt::Display for SystemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SystemError::BadNode(n) => write!(f, "node {n} outside mesh"),
            SystemError::SlotOccupied(n) => write!(f, "tile {n} already occupied"),
            SystemError::SlotEmpty(n) => write!(f, "tile {n} is empty"),
            SystemError::CrossAppConnect { from, to } => {
                write!(f, "cross-application connect {from} -> {to} not allowed")
            }
            SystemError::Cap(e) => write!(f, "capability: {e}"),
            SystemError::Alloc(e) => write!(f, "allocation: {e}"),
            SystemError::NotPreemptible(n) => write!(f, "tile {n} is not preemptible"),
            SystemError::ReconfigInProgress(n) => write!(f, "tile {n} is reconfiguring"),
            SystemError::NoParkedTenant(n) => write!(f, "tile {n} has no parked tenant"),
            SystemError::UnknownService(s) => write!(f, "service {} is not deployed", s.0),
        }
    }
}

impl std::error::Error for SystemError {}

impl From<CapError> for SystemError {
    fn from(e: CapError) -> SystemError {
        SystemError::Cap(e)
    }
}

impl From<AllocError> for SystemError {
    fn from(e: AllocError) -> SystemError {
        SystemError::Alloc(e)
    }
}

/// A complete Apiary machine.
///
/// # Examples
///
/// ```
/// use apiary_core::{AppId, FaultPolicy, System, SystemConfig};
/// use apiary_accel::apps::echo::echo;
/// use apiary_noc::NodeId;
/// use apiary_sim::Machine;
///
/// let mut sys = System::new(SystemConfig::default());
/// sys.install(NodeId(1), Box::new(echo(1)), AppId(1), FaultPolicy::FailStop)
///     .expect("slot free");
/// sys.run(10);
/// assert_eq!(sys.now().as_u64(), 10);
/// ```
pub struct System {
    pub(crate) cfg: SystemConfig,
    noc: Noc,
    pub(crate) tiles: Vec<Tile>,
    allocator: SegmentAllocator,
    pub(crate) reconfig: ReconfigController,
    pub(crate) supervisor: Supervisor,
    /// `next_phase_due(now)`, kept while nothing that scan reads can have
    /// changed: `cycle_phases` and every public `&mut self` entry drop it,
    /// and an event step or [`System::next_event_due`] keeps the scan it
    /// made. A `Cell`, so that asking when the system is due (`&self`)
    /// keeps its answer for the step that follows.
    phase_due: Cell<Option<Cycle>>,
    phase_cycles: u64,
}

impl System {
    /// Boots a system: builds the mesh, instantiates monitors, and brings
    /// up the memory service tile.
    pub fn new(cfg: SystemConfig) -> System {
        let noc = Noc::new(cfg.noc);
        let nodes = noc.mesh().nodes();
        let tiles: Vec<Tile> = (0..nodes)
            .map(|i| Tile::new(Monitor::new(NodeId(i as u16), cfg.monitor)))
            .collect();
        let mem_node = cfg.memory_node();
        let memsvc = Box::new(MemoryService::new(MEM_CAPACITY, cfg.dram));
        let supervisor = Supervisor {
            free_spares: cfg.supervisor.spare_nodes.iter().copied().collect(),
            ..Supervisor::default()
        };
        let mut sys = System {
            noc,
            tiles,
            allocator: SegmentAllocator::new(MEM_CAPACITY, AllocPolicy::FirstFit),
            reconfig: ReconfigController::new(cfg.icap_bytes_per_cycle),
            supervisor,
            phase_due: Cell::new(None),
            phase_cycles: 0,
            cfg,
        };
        sys.install(mem_node, memsvc, OS_APP, FaultPolicy::FailStop)
            .expect("memory node is a valid empty slot at boot");
        sys
    }

    /// [`Machine::now`], under the name `benchmark/` calls.
    #[inline]
    pub fn now(&self) -> Cycle {
        Machine::now(self)
    }

    /// The system configuration.
    pub fn config(&self) -> &SystemConfig {
        &self.cfg
    }

    /// The NoC (for stats).
    pub fn noc(&self) -> &Noc {
        &self.noc
    }

    /// Mutable NoC access (external injectors such as the network service
    /// front-end).
    pub fn noc_mut(&mut self) -> &mut Noc {
        &mut self.touched().noc
    }

    /// Cycles on which the kernel phases ran, ever: the machine's work count,
    /// and until it grows no tile has changed except under a caller's `&mut`.
    pub fn phase_cycles(&self) -> u64 {
        self.phase_cycles
    }

    /// The funnel of every public `&mut self` entry that does not step the
    /// clock: the caller may move the kernel deadline, so the memo is dropped.
    fn touched(&mut self) -> &mut System {
        self.phase_due.set(None);
        self
    }

    /// The node hosting the memory service.
    pub fn mem_node(&self) -> NodeId {
        self.cfg.memory_node()
    }

    /// Whether `node` has a partial reconfiguration in flight (its bitstream
    /// is still streaming through the ICAP). Orchestration layers must not
    /// tear a tile down mid-load: the completion would resurrect it.
    pub fn reconfiguring(&self, node: NodeId) -> bool {
        self.reconfig.in_progress(node)
    }

    /// Kernel-side allocator statistics (segment memory).
    pub fn mem_stats(&self) -> apiary_mem::AllocStats {
        self.allocator.stats()
    }

    fn check_node(&self, n: NodeId) -> Result<(), SystemError> {
        if self.noc.mesh().contains(n) {
            Ok(())
        } else {
            Err(SystemError::BadNode(n))
        }
    }

    /// Immutable tile access.
    ///
    /// # Panics
    ///
    /// Panics on an out-of-mesh node.
    pub fn tile(&self, n: NodeId) -> &Tile {
        &self.tiles[n.index()]
    }

    /// Mutable tile access.
    ///
    /// # Panics
    ///
    /// Panics on an out-of-mesh node.
    pub fn tile_mut(&mut self, n: NodeId) -> &mut Tile {
        &mut self.touched().tiles[n.index()]
    }

    /// Downcasts a tile's accelerator to a concrete type.
    pub fn accel_as<T: 'static>(&self, n: NodeId) -> Option<&T> {
        self.tiles[n.index()]
            .accel
            .as_ref()?
            .as_any()
            .downcast_ref::<T>()
    }

    /// Mutable accelerator downcast.
    pub fn accel_as_mut<T: 'static>(&mut self, n: NodeId) -> Option<&mut T> {
        self.touched().tiles[n.index()]
            .accel
            .as_mut()?
            .as_any_mut()
            .downcast_mut::<T>()
    }

    // ------------------------------------------------------------------
    // Introspection (Figure 1 rendering and debugging).
    // ------------------------------------------------------------------

    /// Renders the tile map as ASCII art — the textual reproduction of the
    /// paper's Figure 1 for an arbitrary configuration.
    pub fn render_map(&self) -> String {
        use core::fmt::Write;
        let mesh = self.noc.mesh();
        let mut out = String::new();
        const W: usize = 20;
        for y in (0..mesh.height).rev() {
            let mut row_top = String::new();
            let mut row_mid = String::new();
            let mut row_bot = String::new();
            for x in 0..mesh.width {
                let n = mesh.node(apiary_noc::Coord::new(x, y));
                let tile = &self.tiles[n.index()];
                let app = tile
                    .app
                    .map(|a| format!("{a}"))
                    .unwrap_or_else(|| "free".to_string());
                let state = match tile.monitor.state() {
                    TileState::Running => "",
                    TileState::FailStopped => "!",
                };
                let name: String = tile.accel_name().chars().take(W - 4).collect();
                row_top.push_str(&format!("+{:-<w$}", "", w = W - 1));
                row_mid.push_str(&format!("|{:<w$}", format!("{n}{state} {name}"), w = W - 1));
                row_bot.push_str(&format!("|{:<w$}", format!("  {app} [mon+rtr]"), w = W - 1));
            }
            let _ = writeln!(out, "{row_top}+");
            let _ = writeln!(out, "{row_mid}|");
            let _ = writeln!(out, "{row_bot}|");
        }
        let _ = writeln!(
            out,
            "{}+",
            format!("+{:-<w$}", "", w = W - 1).repeat(mesh.width as usize)
        );
        out
    }
}
