//! Apiary's network service: the direct-attached path (§1).
//!
//! A direct-attached FPGA terminates the datacenter network itself: frames
//! arrive at an Ethernet MAC on the card and are steered to accelerator
//! tiles without any CPU on the path. This crate provides:
//!
//! - [`frame::Frame`] and [`frame::Wire`] — a simplified Ethernet/UDP frame
//!   and a serialisation + propagation wire model,
//! - [`client`] — external load generators (open-loop Poisson and
//!   closed-loop) that live on the far end of the wire and measure
//!   *client-observed* request latency,
//! - [`mac::EthernetTile`] — the network service accelerator: a flow table
//!   maps UDP ports to capability-addressed tiles; inbound frames become
//!   NoC requests, responses become outbound frames,
//! - [`arq`] — a go-back-N reliable transport, one of the "services that
//!   would be taken for granted in software" (§2) that Apiary offers so
//!   every accelerator does not rebuild it.
//!
//! The experiment E4 pairs this path against `apiary-host`'s CPU-mediated
//! baselines.

pub mod arq;
pub mod client;
pub mod frame;
pub mod mac;
pub mod proxy;

pub use client::{BreakerConfig, ClientStats, RequestGen, RetryPolicy, Workload};
pub use frame::{Frame, Wire};
pub use mac::{EthernetTile, NetConfig};
pub use proxy::RemoteCpuProxy;
