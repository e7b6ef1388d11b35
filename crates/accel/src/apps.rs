//! The accelerator library: services the paper's scenarios are built from.

pub mod compress;
pub mod echo;
pub mod faulty;
pub mod flood;
pub mod idle;
pub mod kv;
pub mod video;
