//! The Apiary accelerator framework and accelerator library.
//!
//! An accelerator is untrusted logic in a tile's dynamic region. It programs
//! against the portable [`TileOs`] interface — the stable, board-independent
//! API the paper's §4.3 calls for — and implements the [`Accelerator`]
//! trait, which the kernel drives one `tick` per cycle.
//!
//! Execution model (§4.4): every accelerator is at least *concurrent*
//! (cooperatively scheduled, fail-stop on faults). Accelerators that
//! implement [`Accelerator::save_state`]/[`Accelerator::restore_state`] are
//! *preemptible*: the kernel can swap a faulting context out and let the
//! tile's other processes continue.
//!
//! The library ships the accelerators the paper's motivation (§2) builds
//! its scenarios from:
//!
//! - [`apps::video::VideoEncoderAccel`] — video encoding service,
//! - [`apps::compress::CompressorAccel`] — a third-party compression stage,
//! - [`apps::kv::KvStoreAccel`] — an independent, multi-tenant KV store,
//! - [`apps::echo::EchoAccel`], [`apps::idle::IdleAccel`] — utility engines,
//! - [`apps::flood::FlooderAccel`], [`apps::faulty::FaultyAccel`] —
//!   adversarial accelerators for the isolation and fault experiments.
//!
//! The codecs under [`codec`] are real (lossless round-trip) implementations
//! so pipeline experiments move real bytes.

pub mod accelerator;
pub mod apps;
pub mod codec;
pub mod os;

pub use accelerator::{Accelerator, ServerAccel, Service, ServiceAction, ServiceReply, StateError};
pub use os::{CapEnv, TileOs};
