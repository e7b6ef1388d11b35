//! Request latency breakdowns for Apiary.
//!
//! [`LatencyTracker`] is the latency histogram of one hop of a request,
//! recorded from the request's own record at each layer (a cluster
//! `Pending` or ingress entry, a faas in-flight invocation).

pub mod latency;

pub use latency::LatencyTracker;
