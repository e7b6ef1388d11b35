//! Shared system builders and load-driving harnesses for the experiments.

use apiary_accel::apps::idle::idle;
use apiary_cap::CapRef;
use apiary_core::{AppId, FaultPolicy, System};
use apiary_monitor::{wire, SendError};
use apiary_noc::{NodeId, TrafficClass};
use apiary_sim::{Cycle, Histogram, Machine, Payload};
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
    /// Traffic class for requests.
    pub class: TrafficClass,
    /// Stop after this many requests.
    pub max_requests: u64,
    /// Payload generator, called with the request tag.
    pub payload: Box<dyn FnMut(u64) -> Vec<u8>>,
    next_tag: u64,
    in_flight: u32,
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
            class: TrafficClass::Request,
            max_requests: u64::MAX,
            payload,
            next_tag: 0,
            in_flight: 0,
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
            let deadline = self.timeout;
            let before = self.sent_at.len();
            self.sent_at.retain(|_, sent| now - *sent < deadline);
            let expired = before - self.sent_at.len();
            self.lost += expired as u64;
            self.in_flight = self.in_flight.saturating_sub(expired as u32);
        }
    }

    /// Accounts one delivered message addressed to this client.
    fn absorb(&mut self, d: apiary_noc::Delivered, now: Cycle) {
        let Some(sent) = self.sent_at.remove(&d.msg.tag) else {
            return;
        };
        self.in_flight = self.in_flight.saturating_sub(1);
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
        while self.in_flight < self.outstanding
            && self.issued < self.max_requests
            && self.next_fire <= now
        {
            let tag = self.tag_base + self.next_tag;
            let body = (self.payload)(tag);
            let res = sys.tile_mut(self.node).monitor.send(
                self.cap,
                wire::KIND_REQUEST,
                tag,
                self.class,
                body,
                now,
            );
            match res {
                Ok(()) => {
                    self.next_tag += 1;
                    self.issued += 1;
                    self.in_flight += 1;
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
        self.issued >= self.max_requests && self.in_flight == 0
    }

    /// When this client next needs a [`pump`]: immediately
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
        let mut due = Cycle::MAX;
        if self.timeout > 0 {
            if let Some(expiry) = self
                .sent_at
                .values()
                .map(|s| s.saturating_add(self.timeout))
                .min()
            {
                due = due.min(expiry.max(next));
            }
        }
        if self.in_flight < self.outstanding && self.issued < self.max_requests {
            due = due.min(self.next_fire.max(next));
        }
        due
    }
}

/// Lets every client act on the current cycle: expire timed-out requests,
/// collect the responses waiting at its tile, refill its window. Call it
/// after each [`step`]. Clients may share a tile: a response goes to the
/// client that sent its tag, so co-resident clients need distinct
/// [`MonitorClient::tag_base`]s.
pub fn pump(sys: &mut System, clients: &mut [&mut MonitorClient]) {
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

/// The one place a harness loop advances time: a single
/// [`Machine::advance_toward`] step toward the earliest cycle on which the
/// driver has something to do, which is the clients' [`next_wakeup`]s or
/// the caller's own `deadline` (its next kill, its next swap, the end of
/// its window). The caller then [`pump`]s and looks at the machine.
///
/// A step executes at most one cycle's kernel phases and component state
/// changes nowhere else, so a condition polled after every step (a tile
/// came back `Running`, a client is done) is seen on the cycle per-cycle
/// ticking would see it. A condition on raw clock time is not: it must be
/// the `deadline`. Under the dense clock a step is one cycle whatever the
/// target, so a target computed too late shows as a divergence between
/// the two clocks.
///
/// [`next_wakeup`]: MonitorClient::next_wakeup
pub fn step(sys: &mut System, clients: &[&mut MonitorClient], deadline: Cycle) {
    let due = clients
        .iter()
        .fold(deadline, |due, c| due.min(c.next_wakeup(sys)));
    Machine::advance_toward(sys, due);
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

/// Runs the system, one [`step`] and one [`pump`] at a time, until all
/// clients are done or `max_cycles` pass. Returns the cycles consumed.
pub fn drive(sys: &mut System, clients: &mut [&mut MonitorClient], max_cycles: u64) -> u64 {
    let all_done = |clients: &[&mut MonitorClient]| clients.iter().all(|c| c.done());
    let start = sys.now();
    let end = start.saturating_add(max_cycles);
    while sys.now() < end {
        // `done` is checked after every executed cycle, so clients that
        // are already done still consume exactly one cycle.
        let deadline = if all_done(clients) {
            sys.now().saturating_add(1)
        } else {
            end
        };
        step(sys, clients, deadline);
        pump(sys, clients);
        if all_done(clients) {
            break;
        }
    }
    sys.now() - start
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
