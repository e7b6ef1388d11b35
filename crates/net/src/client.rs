//! External clients: load generation and client-observed latency.

use apiary_sim::{Cycle, Histogram, SimRng};

/// How a client issues requests.
#[derive(Debug, Clone, Copy)]
pub enum Workload {
    /// Open loop: Poisson arrivals with the given mean inter-arrival time
    /// (cycles). Arrival times do not react to response latency — the
    /// honest way to measure latency under load.
    Open {
        /// Mean cycles between arrivals.
        mean_interarrival: f64,
    },
    /// Closed loop: keep `outstanding` requests in flight; a response
    /// triggers the next request after `think_cycles`.
    Closed {
        /// In-flight window.
        outstanding: u32,
        /// Think time between response and next request.
        think_cycles: u64,
    },
}

/// Client-observed statistics.
#[derive(Debug, Clone, Default)]
pub struct ClientStats {
    /// Requests issued.
    pub issued: u64,
    /// Responses received.
    pub completed: u64,
    /// Error responses received.
    pub errors: u64,
    /// Retransmissions scheduled by the retry policy.
    pub retries: u64,
    /// Requests that exhausted their retries.
    pub gave_up: u64,
    /// Open-loop arrivals shed by an open circuit breaker.
    pub shed: u64,
    /// Request-to-response round-trip latency (cycles).
    pub rtt: Histogram,
}

/// Client-side retry policy: failed requests are reissued with
/// exponentially growing, jittered backoff. Off by default — a plain
/// [`RequestGen`] observes failures without reacting to them.
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Retries per request beyond the first attempt.
    pub max_retries: u32,
    /// Backoff before the first retry (cycles); doubles per attempt.
    pub base_backoff: u64,
    /// Backoff ceiling (cycles).
    pub max_backoff: u64,
    /// Uniform random extra delay in `[0, jitter]` cycles, decorrelating
    /// retry storms across clients.
    pub jitter: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 3,
            base_backoff: 2_000,
            max_backoff: 64_000,
            jitter: 1_000,
        }
    }
}

/// Circuit-breaker configuration: after `failure_threshold` consecutive
/// errors the client stops sending for `cooldown` cycles, then probes with
/// a single request (half-open) before resuming.
#[derive(Debug, Clone, Copy)]
pub struct BreakerConfig {
    /// Consecutive failures that trip the breaker.
    pub failure_threshold: u32,
    /// Cycles to back off while open.
    pub cooldown: u64,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig {
            failure_threshold: 5,
            cooldown: 20_000,
        }
    }
}

/// Circuit-breaker state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Traffic flows normally.
    Closed,
    /// Tripped: no traffic until the cooldown elapses.
    Open,
    /// Cooldown over: one probe request is allowed through.
    HalfOpen,
}

#[derive(Debug, Clone)]
struct Breaker {
    cfg: BreakerConfig,
    state: BreakerState,
    consecutive_failures: u32,
    open_until: Cycle,
    probe_in_flight: bool,
}

impl Breaker {
    fn new(cfg: BreakerConfig) -> Breaker {
        Breaker {
            cfg,
            state: BreakerState::Closed,
            consecutive_failures: 0,
            open_until: Cycle::ZERO,
            probe_in_flight: false,
        }
    }

    /// Moves Open -> HalfOpen once the cooldown has elapsed.
    fn refresh(&mut self, now: Cycle) {
        if self.state == BreakerState::Open && now >= self.open_until {
            self.state = BreakerState::HalfOpen;
            self.probe_in_flight = false;
        }
    }

    /// May a request be issued at `now`?
    fn admits(&self, _now: Cycle) -> bool {
        match self.state {
            BreakerState::Closed => true,
            BreakerState::Open => false,
            BreakerState::HalfOpen => !self.probe_in_flight,
        }
    }

    fn on_issue(&mut self) {
        if self.state == BreakerState::HalfOpen {
            self.probe_in_flight = true;
        }
    }

    fn on_outcome(&mut self, is_error: bool, now: Cycle) {
        if is_error {
            self.consecutive_failures += 1;
            let trip = self.state == BreakerState::HalfOpen
                || self.consecutive_failures >= self.cfg.failure_threshold;
            if trip {
                self.state = BreakerState::Open;
                self.open_until = now + self.cfg.cooldown;
                self.probe_in_flight = false;
            }
        } else {
            self.consecutive_failures = 0;
            self.state = BreakerState::Closed;
            self.probe_in_flight = false;
        }
    }
}

/// A request generator on the far side of the wire.
#[derive(Debug, Clone)]
pub struct RequestGen {
    /// Client identity (rides in frames).
    pub client_id: u32,
    /// Destination service port.
    pub port: u16,
    /// Request payload size in bytes.
    pub payload_bytes: usize,
    /// Issue policy.
    pub workload: Workload,
    /// Stop issuing after this many requests (`u64::MAX` = unbounded).
    pub max_requests: u64,
    rng: SimRng,
    next_fire: Cycle,
    in_flight: u32,
    next_tag: u64,
    /// Statistics.
    pub stats: ClientStats,
    /// Request send times by tag.
    sent_at: std::collections::HashMap<u64, Cycle>,
    retry: Option<RetryPolicy>,
    /// Retry attempts consumed, by tag.
    attempts: std::collections::HashMap<u64, u32>,
    /// Scheduled retries `(due, tag)`, kept sorted by insertion (backoffs
    /// are monotonic per tag, and poll scans the whole queue).
    pending_retries: Vec<(Cycle, u64)>,
    breaker: Option<Breaker>,
}

impl RequestGen {
    /// Creates a generator.
    pub fn new(
        client_id: u32,
        port: u16,
        payload_bytes: usize,
        workload: Workload,
        seed: u64,
    ) -> RequestGen {
        RequestGen {
            client_id,
            port,
            payload_bytes,
            workload,
            max_requests: u64::MAX,
            rng: SimRng::new(seed),
            next_fire: Cycle::ZERO,
            in_flight: 0,
            next_tag: 0,
            stats: ClientStats::default(),
            sent_at: std::collections::HashMap::new(),
            retry: None,
            attempts: std::collections::HashMap::new(),
            pending_retries: Vec::new(),
            breaker: None,
        }
    }

    /// Limits total requests.
    pub fn with_max_requests(mut self, n: u64) -> RequestGen {
        self.max_requests = n;
        self
    }

    /// Enables client-side retries with exponential backoff and jitter.
    pub fn with_retry(mut self, policy: RetryPolicy) -> RequestGen {
        self.retry = Some(policy);
        self
    }

    /// Arms a circuit breaker in front of the generator.
    pub fn with_breaker(mut self, cfg: BreakerConfig) -> RequestGen {
        self.breaker = Some(Breaker::new(cfg));
        self
    }

    /// Current breaker state (`None` if no breaker is armed).
    pub fn breaker_state(&self) -> Option<BreakerState> {
        self.breaker.as_ref().map(|b| b.state)
    }

    /// Returns the tags of requests to issue at `now` (new arrivals plus
    /// any due retries), filtered through the circuit breaker if armed.
    pub fn poll(&mut self, now: Cycle) -> Vec<u64> {
        if let Some(b) = &mut self.breaker {
            b.refresh(now);
        }
        let mut out = Vec::new();
        // Due retries go first: they are older traffic.
        let mut i = 0;
        while i < self.pending_retries.len() {
            let (due, tag) = self.pending_retries[i];
            if due <= now && self.admits(now) {
                self.pending_retries.remove(i);
                if let Some(b) = &mut self.breaker {
                    b.on_issue();
                }
                out.push(tag);
            } else {
                i += 1;
            }
        }
        match self.workload {
            Workload::Open { mean_interarrival } => {
                while self.next_fire <= now && self.stats.issued < self.max_requests {
                    let gap = self.rng.gen_exp(mean_interarrival).max(1.0) as u64;
                    if self.admits(now) {
                        out.push(self.issue(now));
                    } else {
                        // Open loop: the arrival happened regardless; an
                        // open breaker sheds it.
                        self.stats.shed += 1;
                    }
                    self.next_fire += gap;
                }
            }
            Workload::Closed { outstanding, .. } => {
                while self.in_flight < outstanding
                    && self.next_fire <= now
                    && self.stats.issued < self.max_requests
                    && self.admits(now)
                {
                    out.push(self.issue(now));
                }
            }
        }
        out
    }

    fn admits(&self, now: Cycle) -> bool {
        self.breaker.as_ref().is_none_or(|b| b.admits(now))
    }

    fn issue(&mut self, now: Cycle) -> u64 {
        let tag = (self.client_id as u64) << 32 | self.next_tag;
        self.next_tag += 1;
        self.in_flight += 1;
        self.stats.issued += 1;
        self.sent_at.insert(tag, now);
        if let Some(b) = &mut self.breaker {
            b.on_issue();
        }
        tag
    }

    /// Records a response arriving at the client at `now`. With a retry
    /// policy armed, an error response schedules a reissue of the same tag
    /// (after jittered exponential backoff) instead of completing it, until
    /// the retries run out.
    pub fn complete(&mut self, tag: u64, now: Cycle, is_error: bool) {
        if !self.sent_at.contains_key(&tag) {
            return;
        }
        if let Some(b) = &mut self.breaker {
            b.on_outcome(is_error, now);
        }
        if is_error {
            if let Some(policy) = self.retry {
                let used = *self.attempts.get(&tag).unwrap_or(&0);
                if used < policy.max_retries {
                    self.attempts.insert(tag, used + 1);
                    let backoff = policy
                        .base_backoff
                        .saturating_mul(1u64 << used.min(16))
                        .min(policy.max_backoff);
                    let jitter = if policy.jitter > 0 {
                        self.rng.gen_range(policy.jitter + 1)
                    } else {
                        0
                    };
                    self.pending_retries.push((now + backoff + jitter, tag));
                    self.stats.retries += 1;
                    return; // still in flight; sent_at keeps the first send.
                }
                self.stats.gave_up += 1;
            }
        }
        let sent = self.sent_at.remove(&tag).expect("checked above");
        self.attempts.remove(&tag);
        self.in_flight = self.in_flight.saturating_sub(1);
        self.stats.completed += 1;
        if is_error {
            self.stats.errors += 1;
        }
        self.stats.rtt.record(now - sent);
        if let Workload::Closed { think_cycles, .. } = self.workload {
            self.next_fire = now + think_cycles;
        }
    }

    /// When this generator next needs a [`RequestGen::poll`] to make timed
    /// progress: the next open-loop arrival, the next closed-loop refill,
    /// a due retry, or the end of a breaker cooldown. `None` means only a
    /// response can unblock it (the wire and the NoC carry those, and they
    /// are timed separately). Spurious earlier polls are harmless no-ops,
    /// so event-driven drivers may poll more often — never less.
    ///
    /// Arrivals and retries blocked by an *open* breaker are clamped to
    /// the cooldown expiry: polling in between cannot issue anything, and
    /// open-loop shed accounting still happens arrival-by-arrival because
    /// open-loop arrivals are never clamped.
    pub fn next_timed_event(&self) -> Option<Cycle> {
        let mut due: Option<Cycle> = None;
        let upd = |d: &mut Option<Cycle>, t: Cycle| *d = Some(d.map_or(t, |x: Cycle| x.min(t)));
        let gate = match &self.breaker {
            Some(b) if b.state == BreakerState::Open => Some(b.open_until),
            _ => None,
        };
        for &(t, _) in &self.pending_retries {
            upd(&mut due, gate.map_or(t, |g| t.max(g)));
        }
        match self.workload {
            Workload::Open { .. } => {
                if self.stats.issued < self.max_requests {
                    // Never clamped: a shed arrival must be counted at its
                    // own cycle, exactly as a dense per-cycle poll would.
                    upd(&mut due, self.next_fire);
                }
            }
            Workload::Closed { outstanding, .. } => {
                if self.in_flight < outstanding && self.stats.issued < self.max_requests {
                    upd(
                        &mut due,
                        gate.map_or(self.next_fire, |g| self.next_fire.max(g)),
                    );
                }
            }
        }
        due
    }

    /// Requests awaiting responses.
    pub fn in_flight(&self) -> u32 {
        self.in_flight
    }

    /// Returns `true` when the generator is done: its request budget is
    /// exhausted and everything came back.
    pub fn done(&self) -> bool {
        self.stats.issued >= self.max_requests && self.in_flight == 0
    }
}

#[cfg(test)]
mod tests;
