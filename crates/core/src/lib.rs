//! The Apiary microkernel (§4 of the paper).
//!
//! Apiary is a NoC-based hardware microkernel: each tile pairs a trusted
//! monitor with an untrusted accelerator slot, and everything — user logic
//! and OS services alike — communicates by message passing over the mesh
//! (Figure 1). This crate is the kernel tying the substrates together:
//!
//! - [`tile::Tile`] — a monitor plus an accelerator slot plus the tile's
//!   fault policy and capability environment, and its lifecycle steps,
//! - [`system::System`] — the machine: NoC + tiles + clock. `system.rs` holds
//!   its state and laws, `system/plane.rs` the management API (install,
//!   connect, grant memory, services) and `system/cycle.rs` the cycle loop,
//! - [`supervisor`] — the self-healing escalation ladder and its law,
//! - [`process`] — application identity and the trust rules of
//!   §4.1–§4.2 (distrusting applications never share a tile; IPC must be
//!   explicitly established),
//! - [`fault`] — the two §4.4 execution models: fail-stop for merely
//!   concurrent accelerators, context swap for preemptible ones,
//! - [`reconfig`] — the partial-reconfiguration controller (timed by
//!   bitstream size over ICAP bandwidth),
//! - [`memsvc`] — the memory service tile: segment-allocated, DRAM-timed,
//!   capability-checked memory shared by all applications.
//!
//! The kernel in Apiary is *hardware*: nothing here models a CPU. Every
//! kernel object in this crate corresponds to logic the paper places in the
//! static region of the FPGA.

pub mod checkpoint;
pub mod fault;
pub mod memsvc;
pub mod process;
pub mod reconfig;
pub mod supervisor;
pub mod system;
pub mod tile;

pub use checkpoint::{CheckpointStore, Snapshot};
pub use fault::FaultPolicy;
pub use process::AppId;
pub use supervisor::{
    AccelFactory, Incident, RecoveryTarget, ServiceImage, Supervisor, SupervisorConfig,
};
pub use system::{System, SystemConfig, SystemError, MEM_CAPACITY};
pub use tile::Tile;
