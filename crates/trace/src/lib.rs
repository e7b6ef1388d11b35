//! Message-layer tracing and debugging for Apiary.
//!
//! The paper's programmability goal (§3) calls for "debugging and tracing
//! support at the message passing layer": because every inter-accelerator
//! interaction crosses a monitor, the OS can observe, timestamp and filter
//! all of it without accelerator cooperation — the hardware analogue of
//! `strace`. This crate provides:
//!
//! - [`Tracer`]: a bounded ring buffer of timestamped [`Event`]s with
//!   per-kind counters and simple filtering/rendering,
//! - [`LatencyTracker`]: tag-correlated request/response latency
//!   measurement, the building block for per-service latency breakdowns.

pub mod latency;
pub mod tracer;

pub use latency::LatencyTracker;
pub use tracer::{Event, EventKind, RemotePhase, Tracer};
