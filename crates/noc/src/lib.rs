//! Apiary's Network-on-Chip (§4.3 of the paper).
//!
//! The NoC is Apiary's *single physical interface*: every tile talks to
//! every service over the same local port, and service naming happens at the
//! API layer (a destination field in the message) instead of in wiring. This
//! crate implements a cycle-level 2D-mesh NoC with the properties the paper
//! leans on:
//!
//! - **wormhole switching** with per-virtual-channel input buffers,
//! - **credit-based flow control** (no flit is ever dropped),
//! - **dimension-order (XY) routing**, which is deadlock-free on a mesh,
//! - **virtual channels doubling as traffic classes**, giving weighted
//!   priority between OS/control traffic, latency-sensitive requests and
//!   bulk data (the QoS hook §4.5 cites prior NoC work for),
//! - **per-message latency and per-link utilisation statistics**.
//!
//! The model is flit-accurate: messages are segmented into flits, flits
//! contend for links, and congestion propagates backwards through credit
//! exhaustion exactly as in hardware. A `hardened` configuration models the
//! hard NoCs of Versal-class parts (wider links, faster clock) by widening
//! flits and removing the per-hop pipeline bubble.
//!
//! Modules: [`config`] (parameters and the ranges accepted), [`topology`]
//! (mesh, ports, XY routing), [`packet`] (messages, plain-data flits, the
//! in-flight packet table), [`network`] (the engine: ring-slab input FIFOs
//! that also hold the flits crossing the link in front of them, standing
//! switch requests and NIC queues as flat arrays behind [`Noc`], with
//! [`Noc::check_invariants`] stating their laws) and [`fault`] (the seeded
//! chaos plane).

pub mod config;
pub mod fault;
pub mod network;
pub mod packet;
pub mod topology;

pub use apiary_sim::Payload;
pub use config::{NocConfig, VCS};
pub use fault::{FaultEvent, FaultPlane, FaultPlaneStats};
pub use network::{InjectError, Noc, NocStats};
pub use packet::{Delivered, Message, PacketId, TrafficClass};
pub use topology::{Coord, Direction, NodeId, Port};
