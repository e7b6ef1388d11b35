//! # Apiary
//!
//! A faithful, executable reproduction of *"Apiary: An OS for the Modern
//! FPGA"* (HotOS '25): a microkernel operating system implemented in
//! hardware on a network-attached FPGA, simulated cycle-by-cycle in Rust.
//!
//! Apiary structures an FPGA as a mesh of **tiles**. Each tile pairs an
//! untrusted accelerator (dynamic region) with a trusted **monitor**
//! (static region); tiles communicate only by **message passing** over a
//! **Network-on-Chip**. The monitor interposes on every message and
//! enforces **capabilities** — for endpoints, logical services, and
//! **memory segments** — giving mutually distrusting applications
//! isolation, rate limiting, fault containment (fail-stop or preemption)
//! and portable OS services (memory, networking) without any host CPU on
//! the data path.
//!
//! ## Crate map
//!
//! | Crate | Contents |
//! |---|---|
//! | [`sim`] | Cycle clock, deterministic event queue, PRNG, statistics |
//! | [`noc`] | Flit-accurate 2D-mesh NoC: wormhole, VCs, credits, QoS |
//! | [`cap`] | Capabilities: rights, partitioned tables, derive/revoke |
//! | [`mem`] | Segment allocators, paging baseline, bounds checks, DRAM |
//! | [`monitor`] | The per-tile monitor and its hardware area model |
//! | [`core`] | The kernel: tiles, system, fault policies, reconfiguration |
//! | [`cluster`] | Multi-board scale-out: gossip directory, balancing, migration |
//! | [`faas`] | Serverless plane: functions, bitstream caches, autoscaling |
//! | [`accel`] | Accelerator framework + library (video, LZ, KV, …) |
//! | [`net`] | Network service: MAC tile, wire, clients, go-back-N ARQ |
//! | [`host`] | Host-mediated baselines (Coyote/AmorphOS-like) + energy |
//! | [`resources`] | FPGA part catalog (Table 1) and tile floor-planning |
//! | [`trace`] | Per-hop request latency histograms |
//!
//! ## Quickstart
//!
//! ```
//! use apiary::core::{AppId, FaultPolicy, System, SystemConfig};
//! use apiary::accel::apps::echo::echo;
//! use apiary::accel::apps::idle::idle;
//! use apiary::monitor::wire;
//! use apiary::noc::{NodeId, TrafficClass};
//!
//! // Boot a 4x4 Apiary with a memory-service tile.
//! let mut sys = System::new(SystemConfig::default());
//!
//! // Install a client slot and an echo service under one application.
//! sys.install(NodeId(0), Box::new(idle()), AppId(1), FaultPolicy::FailStop).unwrap();
//! sys.install(NodeId(5), Box::new(echo(8)), AppId(1), FaultPolicy::FailStop).unwrap();
//!
//! // Establish IPC explicitly, in both directions.
//! let cap = sys.connect(NodeId(0), NodeId(5), false).unwrap();
//! sys.connect(NodeId(5), NodeId(0), false).unwrap();
//!
//! // Send a request through the capability and run the machine.
//! let now = sys.now();
//! sys.tile_mut(NodeId(0)).monitor
//!     .send(cap, wire::KIND_REQUEST, 1, TrafficClass::Request, b"ping".to_vec(), now)
//!     .unwrap();
//! sys.run_until_idle(100_000);
//!
//! let reply = sys.tile_mut(NodeId(0)).monitor.recv().expect("echoed");
//! assert_eq!(reply.msg.payload, b"ping");
//! ```

pub use apiary_accel as accel;
pub use apiary_cap as cap;
pub use apiary_cluster as cluster;
pub use apiary_core as core;
pub use apiary_faas as faas;
pub use apiary_host as host;
pub use apiary_mem as mem;
pub use apiary_monitor as monitor;
pub use apiary_net as net;
pub use apiary_noc as noc;
pub use apiary_resources as resources;
pub use apiary_sim as sim;
pub use apiary_trace as trace;
