//! Shared system builders and load-driving harnesses for the experiments.

use apiary_accel::apps::idle::idle;
use apiary_cap::CapRef;
use apiary_core::{AppId, FaultPolicy, System};
use apiary_monitor::{wire, SendError};
use apiary_noc::{NodeId, TrafficClass};
use apiary_sim::{until, Cycle, Histogram, Load, Machine, Payload};
use std::collections::HashMap;

/// A closed-loop request driver attached directly to a tile's monitor —
/// the harness stand-in for request-issuing accelerator logic. It keeps
/// `outstanding` requests in flight toward one capability and records
/// round-trip latency.
pub struct MonitorClient {
    /// The tile this client drives.
    pub node: NodeId,
    /// The capability requests go through.
    pub cap: CapRef,
    /// In-flight window.
    pub outstanding: u32,
    /// Think time after each completion.
    pub think: u64,
    /// Stop after this many requests.
    pub max_requests: u64,
    /// Payload generator, called with the request tag.
    pub payload: Box<dyn FnMut(u64) -> Vec<u8>>,
    next_tag: u64,
    next_fire: Cycle,
    sent_at: HashMap<u64, Cycle>,
    /// Requests issued.
    pub issued: u64,
    /// Responses received.
    pub completed: u64,
    /// Error responses received (not included in the RTT histogram).
    pub errors: u64,
    /// Sends refused by the monitor (rate limit, backpressure).
    pub refused: u64,
    /// Requests abandoned after `timeout` cycles without a response.
    pub lost: u64,
    /// Per-request timeout in cycles (0 = wait forever).
    pub timeout: u64,
    /// Completions to discard before recording RTTs (warmup; hides the
    /// initial window-fill burst).
    pub warmup: u64,
    /// Round-trip latency histogram.
    pub rtt: Histogram,
    /// Response payloads kept for verification (bounded).
    pub kept: Vec<(u64, Payload)>,
    /// How many response payloads to keep.
    pub keep: usize,
    /// Tag namespace offset so co-resident clients don't collide.
    pub tag_base: u64,
}

impl MonitorClient {
    /// Creates a client with a fixed payload.
    pub fn new(node: NodeId, cap: CapRef, payload_bytes: usize) -> MonitorClient {
        MonitorClient::with_payload(node, cap, Box::new(move |_| vec![0x5A; payload_bytes]))
    }

    /// Creates a client with a payload generator.
    pub fn with_payload(
        node: NodeId,
        cap: CapRef,
        payload: Box<dyn FnMut(u64) -> Vec<u8>>,
    ) -> MonitorClient {
        MonitorClient {
            node,
            cap,
            outstanding: 1,
            think: 0,
            max_requests: u64::MAX,
            payload,
            next_tag: 0,
            next_fire: Cycle::ZERO,
            sent_at: HashMap::new(),
            issued: 0,
            completed: 0,
            errors: 0,
            refused: 0,
            lost: 0,
            timeout: 0,
            warmup: 0,
            rtt: Histogram::new(),
            kept: Vec::new(),
            keep: 0,
            tag_base: 0,
        }
    }

    /// Builder: in-flight window.
    pub fn window(mut self, n: u32) -> MonitorClient {
        self.outstanding = n;
        self
    }

    /// Builder: request budget.
    pub fn max_requests(mut self, n: u64) -> MonitorClient {
        self.max_requests = n;
        self
    }

    /// Builder: keep the first `n` response payloads for verification.
    pub fn keep_responses(mut self, n: usize) -> MonitorClient {
        self.keep = n;
        self
    }

    /// Expires timed-out requests (lost to a faulted service).
    fn expire(&mut self, now: Cycle) {
        if self.timeout > 0 {
            let before = self.sent_at.len();
            self.sent_at.retain(|_, sent| now - *sent < self.timeout);
            self.lost += (before - self.sent_at.len()) as u64;
        }
    }

    /// Room in the window and budget left (`sent_at` holds the requests
    /// neither answered nor expired).
    fn window_open(&self) -> bool {
        self.sent_at.len() < self.outstanding as usize && self.issued < self.max_requests
    }

    /// Accounts one delivered message addressed to this client.
    fn absorb(&mut self, d: apiary_noc::Delivered, now: Cycle) {
        let Some(sent) = self.sent_at.remove(&d.msg.tag) else {
            return;
        };
        self.completed += 1;
        if d.msg.kind == wire::KIND_ERROR {
            self.errors += 1;
        } else {
            if self.completed > self.warmup {
                self.rtt.record(now - sent);
            }
            if self.kept.len() < self.keep {
                self.kept.push((d.msg.tag, d.msg.payload));
            }
        }
        self.next_fire = now + self.think;
    }

    /// Refills the request window.
    fn refill(&mut self, sys: &mut System) {
        let now = sys.now();
        while self.window_open() && self.next_fire <= now {
            let tag = self.tag_base + self.next_tag;
            let body = (self.payload)(tag);
            let res = sys.tile_mut(self.node).monitor.send(
                self.cap,
                wire::KIND_REQUEST,
                tag,
                TrafficClass::Request,
                body,
                now,
            );
            match res {
                Ok(()) => {
                    self.next_tag += 1;
                    self.issued += 1;
                    self.sent_at.insert(tag, now);
                }
                Err(SendError::Backpressure | SendError::RateLimited) => {
                    self.refused += 1;
                    break;
                }
                Err(e) => panic!("client send failed: {e}"),
            }
        }
    }

    /// All requests issued and completed.
    pub fn done(&self) -> bool {
        self.issued >= self.max_requests && self.sent_at.is_empty()
    }

    /// When this client next needs a [`Load::pump`]: immediately
    /// if a response is already waiting at its monitor, at the earliest
    /// request-timeout expiry, or whenever it could attempt a send (which
    /// must be retried every cycle while the window is open — dense ticking
    /// counts each refused attempt, and the event clock must match).
    /// `Cycle::MAX` means "only a message can wake me".
    pub fn next_wakeup(&self, sys: &System) -> Cycle {
        let next = sys.now().saturating_add(1);
        if sys.tile(self.node).monitor.inbox_len() > 0 {
            return next;
        }
        let oldest = self.sent_at.values().min().filter(|_| self.timeout > 0);
        let mut due = oldest.map_or(Cycle::MAX, |s| s.saturating_add(self.timeout).max(next));
        if self.window_open() {
            due = due.min(self.next_fire.max(next));
        }
        due
    }
}

/// A set of [`MonitorClient`]s is a board's [`Load`]. Clients may share a
/// tile: a response goes to the client that sent its tag, so co-resident
/// clients need distinct [`MonitorClient::tag_base`]s.
pub struct Clients<'a, 'c>(pub &'a mut [&'c mut MonitorClient]);

impl Clients<'_, '_> {
    /// Every client has issued and completed its budget.
    pub fn done(&self) -> bool {
        self.0.iter().all(|c| c.done())
    }
}

impl Load<System> for Clients<'_, '_> {
    fn next_wakeup(&self, sys: &System) -> Cycle {
        self.0
            .iter()
            .fold(Cycle::MAX, |due, c| due.min(c.next_wakeup(sys)))
    }

    /// Lets every client act on the current cycle: expire timed-out
    /// requests, collect the responses waiting at its tile, refill its
    /// window.
    fn pump(&mut self, sys: &mut System) {
        let clients = &mut *self.0;
        let now = sys.now();
        for c in clients.iter_mut() {
            c.expire(now);
        }
        for i in 0..clients.len() {
            let node = clients[i].node;
            while let Some(d) = sys.tile_mut(node).monitor.recv() {
                let sender = clients
                    .iter_mut()
                    .find(|c| c.node == node && c.sent_at.contains_key(&d.msg.tag));
                if let Some(c) = sender {
                    c.absorb(d, now);
                }
            }
        }
        for c in clients.iter_mut() {
            c.refill(sys);
        }
    }
}

/// Populates a fresh system with an idle client tile and one serving
/// tile, wired bidirectionally. Returns `(system, client_cap)`.
pub fn client_server(
    mut sys: System,
    client: NodeId,
    server: NodeId,
    accel: Box<dyn apiary_accel::Accelerator>,
) -> (System, CapRef) {
    sys.install(client, Box::new(idle()), AppId(1), FaultPolicy::FailStop)
        .expect("client slot free");
    sys.install(server, accel, AppId(1), FaultPolicy::FailStop)
        .expect("server slot free");
    let cap = sys.connect(client, server, false).expect("same app");
    sys.connect(server, client, false).expect("reply path");
    (sys, cap)
}

/// Drives the system until all clients are done or `max_cycles` pass
/// (one cycle if they are done on entry). Returns the cycles consumed.
pub fn drive(sys: &mut System, clients: &mut [&mut MonitorClient], max_cycles: u64) -> u64 {
    let start = sys.now();
    sys.drive(&mut Clients(clients), max_cycles, |_, c| until(c.done()));
    sys.now() - start
}

/// Stops every client issuing and lets the board drain: up to three
/// [`System::run_until_idle`] windows of 2M cycles, the clients collecting
/// their responses after each. Returns whether the board went idle.
pub fn drain(sys: &mut System, clients: &mut [&mut MonitorClient]) -> bool {
    for c in clients.iter_mut() {
        c.max_requests = c.issued;
    }
    (0..3).any(|_| {
        let drained = sys.run_until_idle(2_000_000);
        Clients(clients).pump(sys);
        drained
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::Run;
    use apiary_accel::apps::echo::echo;
    use apiary_core::SystemConfig;

    #[test]
    fn monitor_client_completes_closed_loop() {
        let (mut sys, cap) = client_server(
            Run::QUICK.system(SystemConfig::default()),
            NodeId(0),
            NodeId(5),
            Box::new(echo(4)),
        );
        let mut client = MonitorClient::new(NodeId(0), cap, 32)
            .window(2)
            .max_requests(25)
            .keep_responses(3);
        let cycles = drive(&mut sys, &mut [&mut client], 100_000);
        assert!(client.done(), "only {} of 25 done", client.completed);
        assert_eq!(client.completed, 25);
        assert_eq!(client.errors, 0);
        assert_eq!(client.kept.len(), 3);
        assert_eq!(client.kept[0].1, vec![0x5A; 32]);
        assert!(client.rtt.min() > 0);
        assert!(cycles > 0);
    }

    #[test]
    fn think_time_slows_issue_rate() {
        let (mut sys, cap) = client_server(
            Run::QUICK.system(SystemConfig::default()),
            NodeId(0),
            NodeId(5),
            Box::new(echo(1)),
        );
        let mut fast = MonitorClient::new(NodeId(0), cap, 8).max_requests(10);
        let fast_cycles = drive(&mut sys, &mut [&mut fast], 100_000);

        let (mut sys2, cap2) = client_server(
            Run::QUICK.system(SystemConfig::default()),
            NodeId(0),
            NodeId(5),
            Box::new(echo(1)),
        );
        let mut slow = MonitorClient::new(NodeId(0), cap2, 8).max_requests(10);
        slow.think = 500;
        let slow_cycles = drive(&mut sys2, &mut [&mut slow], 100_000);
        assert!(slow_cycles > fast_cycles + 9 * 400);
    }
}
