//! External load on the cluster: its clients, one step of them, a whole run.

use super::{ClusterSystem, SubmitError};
use apiary_net::{BreakerConfig, BreakerState, RequestGen, RetryPolicy, Workload};
use apiary_sim::{Cycle, Machine};

/// One external client: a [`RequestGen`] (workload, retry policy, circuit
/// breaker) attached at a board's network ingress.
pub struct ClusterClient {
    /// The load generator (owns stats: issued, completed, errors, retries,
    /// shed, RTT histogram).
    pub gen: RequestGen,
    /// Board this client's traffic enters at.
    pub origin: u16,
    /// Service it invokes.
    pub service_name: String,
    /// Submits refused because no live replica was visible.
    pub no_replica: u64,
    last_breaker: Option<BreakerState>,
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
            last_breaker: None,
        }
    }

    /// Whether `tag` belongs to this client's generator.
    pub fn owns(&self, tag: u64) -> bool {
        (tag >> 32) as u32 == self.gen.client_id
    }
}

/// One driver step for a set of clients: deliver completions, then issue
/// new arrivals and due retries, recording breaker-open transitions. Call
/// it on every cycle where a completion is pending or a client's timed
/// event is due, as [`run_clients`] does.
pub fn drive_clients(cluster: &mut ClusterSystem, clients: &mut [ClusterClient]) {
    let now = cluster.now();
    for c in cluster.take_completions() {
        if let Some(cl) = clients.iter_mut().find(|cl| cl.owns(c.tag)) {
            cl.gen.complete(c.tag, now, c.is_error);
        }
    }
    for cl in clients.iter_mut() {
        for tag in cl.gen.poll(now) {
            let payload = vec![0u8; cl.gen.payload_bytes];
            match cluster.submit(cl.origin, &cl.service_name, tag, payload) {
                Ok(_) => {}
                Err(e) => {
                    if e == SubmitError::NoReplica {
                        cl.no_replica += 1;
                    }
                    cl.gen.complete(tag, now, true);
                }
            }
        }
        let state = cl.gen.breaker_state();
        if state == Some(BreakerState::Open) && cl.last_breaker != Some(BreakerState::Open) {
            cluster.note_breaker_open(cl.origin);
        }
        cl.last_breaker = state;
    }
}

/// Runs the cluster for up to `cycles` cycles with `clients` attached,
/// stopping early when `stop` returns true. The cluster jumps between
/// wakeups and the clients are driven at every cycle where they can act —
/// a completion is pending, or a client timed event (arrival, retry,
/// breaker cooldown) is due. Skipped cycles are cycles where
/// `drive_clients` would have been a pure no-op, and `stop` is re-checked
/// after every executed cycle. [`ClockMode::jump_target`] makes the dense reference
/// clock drive the clients on every cycle instead, so both clocks stop on
/// the same cycle with bit-identical client stats.
///
/// Returns `true` if `stop` fired before the cycle budget ran out.
///
/// [`ClockMode::jump_target`]: apiary_sim::ClockMode::jump_target
pub fn run_clients(
    cluster: &mut ClusterSystem,
    clients: &mut [ClusterClient],
    cycles: u64,
    mut stop: impl FnMut(&ClusterSystem, &[ClusterClient]) -> bool,
) -> bool {
    let end = Cycle(cluster.now().as_u64().saturating_add(cycles));
    while cluster.now() < end {
        // Next cycle any client does timed work. Client state only changes
        // inside drive_clients, so this stays valid until the next drive.
        let next = Cycle(cluster.now().as_u64().saturating_add(1));
        let mut due = end;
        for cl in clients.iter() {
            if let Some(t) = cl.gen.next_timed_event() {
                due = due.min(t.max(next));
            }
        }
        let due = cluster.cfg.system.clock.jump_target(cluster.now(), due);
        loop {
            Machine::advance_toward(cluster, due);
            if cluster.now() >= due || cluster.has_completions() {
                break;
            }
            // `stop` may flip on any executed cycle (e.g. the last board
            // draining), not only on client-drive cycles. Client timed
            // events are not due yet, so driving here would be a no-op.
            if stop(cluster, clients) {
                return true;
            }
        }
        drive_clients(cluster, clients);
        if stop(cluster, clients) {
            return true;
        }
    }
    false
}
