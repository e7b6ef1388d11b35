//! External load on the cluster: its clients, and the [`Load`] a set of
//! them puts on it.

use super::{ClusterSystem, SubmitError};
use apiary_net::{BreakerConfig, RequestGen, RetryPolicy, Workload};
use apiary_sim::{Cycle, Load};

/// One external client: a [`RequestGen`] (workload, retry policy, circuit
/// breaker) attached at a board's network ingress.
pub struct ClusterClient {
    /// The load generator (owns stats: issued, completed, errors, retries,
    /// shed, RTT histogram). Between pumps, only lower its `max_requests`.
    pub gen: RequestGen,
    /// Board this client's traffic enters at.
    pub origin: u16,
    /// Service it invokes.
    pub service_name: String,
    /// Submits refused because no live replica was visible.
    pub no_replica: u64,
    /// `gen.next_timed_event()` as of the last pump.
    wake: Cycle,
}

impl ClusterClient {
    /// Creates a client with retries and a breaker armed (the end-to-end
    /// resilience path E17 exercises).
    pub fn new(
        client_id: u32,
        origin: u16,
        service_name: &str,
        payload_bytes: usize,
        workload: Workload,
        seed: u64,
    ) -> ClusterClient {
        ClusterClient {
            gen: RequestGen::new(client_id, 0, payload_bytes, workload, seed)
                .with_retry(RetryPolicy::default())
                .with_breaker(BreakerConfig::default()),
            origin,
            service_name: service_name.to_string(),
            no_replica: 0,
            wake: Cycle::ZERO,
        }
    }

    /// Whether `tag` belongs to this client's generator.
    pub fn owns(&self, tag: u64) -> bool {
        (tag >> 32) as u32 == self.gen.client_id
    }
}

/// A set of clients is the fleet's [`Load`]: [`Machine::drive`] pumps it
/// after every step, and steps no further than its next arrival, retry or
/// breaker cooldown. A completion goes to the client whose tag it carries.
///
/// [`Machine::drive`]: apiary_sim::Machine::drive
impl Load<ClusterSystem> for [ClusterClient] {
    fn next_wakeup(&self, _: &ClusterSystem) -> Cycle {
        self.iter().fold(Cycle::MAX, |due, cl| due.min(cl.wake))
    }

    /// Delivers completions, then issues new arrivals and due retries.
    fn pump(&mut self, cluster: &mut ClusterSystem) {
        let now = cluster.now();
        if !cluster.has_completions() && self.iter().all(|cl| cl.wake > now) {
            return;
        }
        for c in cluster.take_completions() {
            if let Some(cl) = self.iter_mut().find(|cl| cl.owns(c.tag)) {
                cl.gen.complete(c.tag, now, c.is_error);
            }
        }
        for cl in self.iter_mut() {
            for tag in cl.gen.poll(now) {
                let payload = vec![0u8; cl.gen.payload_bytes];
                if let Err(e) = cluster.submit(cl.origin, &cl.service_name, tag, payload) {
                    cl.no_replica += u64::from(e == SubmitError::NoReplica);
                    cl.gen.complete(tag, now, true);
                }
            }
            cl.wake = cl.gen.next_timed_event().unwrap_or(Cycle::MAX);
        }
    }
}
