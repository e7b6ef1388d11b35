//! The Apiary per-tile monitor (§4.1, §4.4–§4.6 of the paper).
//!
//! Every tile pairs an untrusted accelerator with a trusted monitor; the
//! monitor is the accelerator's *only* interface to the rest of the system
//! (Figure 1). All traffic — sends, receives, memory accesses — crosses it,
//! which is where Apiary's isolation story lives:
//!
//! - **capability enforcement**: outbound messages must present a live
//!   [`apiary_cap::CapRef`] carrying [`apiary_cap::Rights::SEND`]; memory
//!   accesses are bounds-checked against segment capabilities before they
//!   ever reach the memory service,
//! - **service naming**: capabilities name logical services; the monitor's
//!   name table resolves them to physical NoC nodes (§4.3 — naming is an
//!   API-layer concern, not wiring),
//! - **source stamping**: the monitor writes the true source and the
//!   capability badge into every message, so identity cannot be forged,
//! - **rate limiting**: a token bucket on egress bounds the damage of a
//!   misbehaving accelerator (§4.5),
//! - **fault handling**: on a fault the monitor fail-stops the tile —
//!   drains traffic and answers subsequent requests with errors (§4.4),
//! - **accounting**: every verdict is counted in [`MonitorStats`].
//!
//! [`area`] models the hardware cost of all of this, which is the paper's
//! first open question (§6).

pub mod area;
pub mod monitor;
pub mod rate;
pub mod wire;

pub use area::{MonitorAreaModel, MonitorFeatures};
pub use monitor::{Monitor, MonitorConfig, MonitorStats, SendError, TileState};
pub use rate::TokenBucket;
