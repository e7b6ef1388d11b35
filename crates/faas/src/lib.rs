//! The serverless plane: FPGA functions as a managed, elastic service.
//!
//! The cluster fabric (`apiary-cluster`) gives Apiary boards, a gossip
//! directory, remote capabilities and a balancer; the checkpoint plane
//! gave it partial-reconfiguration pricing through the ICAP. This crate
//! stacks the cloud-native layer on top — a Funky-style orchestrator in
//! which the unit of deployment is an **FPGA function**: a bitstream with
//! an area footprint (from `apiary-resources`), priced deploys, and a pool
//! of replicas the platform grows and shrinks on demand.
//!
//! The pieces, bottom-up:
//!
//! - [`cache::BitstreamCache`] — per-board LRU cache of function
//!   bitstreams. A cold start pays the (modelled) fetch from the bitstream
//!   store only on a miss; eviction is priced explicitly in the stats so
//!   E18 can show what cache capacity buys.
//! - [`admission::TenantAdmission`] — per-tenant token buckets at the
//!   orchestrator ingress. A greedy tenant's invocation storm is shed at
//!   the front door; everyone else's buckets are untouched (the same
//!   isolation argument the per-tile monitor makes, one layer up).
//! - [`orchestrator::FaasSystem`] — the control loop: register →
//!   deploy-on-demand → invoke → autoscale → scale-to-zero. Replicas are
//!   placed with power-of-two-choices over the boards' **elastic area
//!   ledgers** (FOS-style: a per-board budget from the floor-planner that
//!   every resident function's footprint is packed into), deployed through
//!   [`apiary_cluster::ClusterSystem::pool_deploy`] (ICAP-priced, directory
//!   published only when the tile is live) and reclaimed through
//!   `pool_teardown` (tombstoned, caps revoked).
//! - `pool.rs` (private) — the replica state machine `Fetching → Loading →
//!   Live` and every function's pool of replicas and queued invocations,
//!   changed only through transitions that post what the control loop asks
//!   on every step, so a warm step walks nobody (DESIGN.md §6).
//!
//! **Determinism.** The orchestrator owns no randomness beyond the seeded
//! placement RNG, schedules every timer (bitstream fetches, autoscale
//! boundaries, queue expiries) as an absolute cycle, and exposes
//! [`orchestrator::FaasSystem::next_wakeup`] so the event clock can jump
//! straight to the next cycle where anything can happen. E18 runs
//! byte-identical across `--jobs` counts and event-vs-dense clocks.

pub mod admission;
pub mod cache;
pub mod orchestrator;
mod pool;

pub use admission::{AdmissionConfig, TenantAdmission};
pub use cache::BitstreamCache;
pub use orchestrator::{
    FaasConfig, FaasStats, FaasSystem, FunctionSpec, InvokeOutcome, ReplicaState,
};
