//! Discrete-event / cycle-level simulation kernel for Apiary.
//!
//! This crate is the substrate every other Apiary subsystem builds on. It
//! provides:
//!
//! - [`Cycle`], a newtype for simulated clock cycles, with saturating
//!   arithmetic helpers,
//! - [`EventQueue`], a deterministic time-ordered event queue (FIFO within
//!   a cycle), the future-event list of the host baseline model,
//! - [`Wakeup`], the answer a component gives when it is run: when it next
//!   needs to run. `apiary_accel::Accelerator::wake` is the contract that
//!   returns it, and the drivers jump the clock between wakeups,
//! - [`ClockMode`], the dense/event choice a machine carries in its
//!   configuration (`SystemConfig::clock`; there is no process-wide
//!   switch),
//! - [`Reader`], the bounds-checked little-endian cursor every decoder of
//!   untrusted bytes (fabric frames, snapshots) reads through,
//! - [`SimRng`], a small, seedable PRNG so every run is reproducible from a
//!   single seed,
//! - [`FxHashMap`]/[`FxHashSet`], fast deterministic hashing for
//!   simulator-internal maps,
//! - [`stats`], the [`Histogram`] the benchmark harness and the tracing
//!   layer record latencies in,
//! - [`Machine`], the one interface every machine is driven through, with
//!   [`Machine::drive`], the one loop that feeds it a [`Load`], and
//!   [`ensure!`] for its laws.
//!
//! The simulator is *event-resolved with cycle-exact semantics*: every
//! component behaves as if ticked each cycle, but the drivers skip cycles
//! no component scheduled a wakeup for. Dense per-cycle ticking remains
//! available ([`ClockMode::Dense`]) as the reference behaviour; the two
//! must be bit-identical.

pub mod clock;
pub mod event;
pub mod fxmap;
pub mod machine;
pub mod payload;
pub mod reader;
pub mod rng;
pub mod sched;
pub mod stats;

pub use clock::Cycle;
pub use event::EventQueue;
pub use fxmap::{FxHashMap, FxHashSet};
pub use machine::{until, Load, Machine};
pub use payload::Payload;
pub use reader::Reader;
pub use rng::SimRng;
pub use sched::{ClockMode, Wakeup};
pub use stats::Histogram;
