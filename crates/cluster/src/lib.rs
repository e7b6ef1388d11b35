//! Apiary scale-out: a multi-board fabric (§1's network-attached premise
//! taken past a single card).
//!
//! One board is a full [`apiary_core::System`] — NoC, monitors, kernel,
//! services. This crate joins N of them into one deterministic simulation:
//!
//! - [`fabric`] — the inter-board network, built from the same
//!   [`apiary_net`] primitives the single-board network service uses:
//!   [`apiary_net::Wire`] for serialisation + propagation and go-back-N ARQ
//!   for reliability, arranged as a star through a top-of-rack switch or as
//!   a direct full mesh, with cut/restore hooks for the chaos plane,
//! - [`directory`] — the global service directory: each board's published
//!   names, with node scoping, versioned lease-based entries, and anti-entropy
//!   gossip, so every board eventually knows every replica of every named
//!   service without any central coordinator,
//! - [`balancer`] — replica selection by power-of-two-choices over
//!   per-replica in-flight counts, the cheapest policy that still avoids
//!   herding onto a dead or slow board,
//! - [`cluster`] — [`cluster::ClusterSystem`]: the boards, the fabric, the
//!   directory plumbing, and remote capability invocation — a
//!   [`apiary_cap::CapKind::Remote`] capability held at a board's gateway
//!   tile is forwarded by the kernel's egress proxy onto the fabric, with
//!   the client-side retry/backoff and circuit breaker of
//!   [`apiary_net::RequestGen`] applying end-to-end. `cluster.rs` holds the
//!   config, the machine, its clock and its invariants; private child
//!   modules hold the rest of it, one concern each: `cluster/cycle.rs` (the
//!   cycle's phases), `cluster/migration.rs` (cross-board live migration),
//!   `cluster/requests.rs` (submit, completion and the timeout queue),
//!   `cluster/replicas.rs` (the replica and chaos plane) and
//!   `cluster/clients.rs` (external clients and the loop that runs them).
//!
//! Everything is seeded and ticked in board order: the same configuration
//! and seed replay byte-identically regardless of host parallelism, which
//! experiment E17 checks.

pub mod balancer;
mod board;
pub mod cluster;
pub mod directory;
pub mod fabric;

pub use balancer::Balancer;
pub use cluster::{
    ClusterClient, ClusterConfig, ClusterSystem, Completion, MigrationOutcome, SubmitError, GATEWAY,
};
pub use directory::{DirEntry, Directory};
pub use fabric::{
    Body, BodyView, ClusterMsg, EntryRef, Fabric, FabricConfig, Gossip, LinkConfig, MsgView,
    Topology,
};
