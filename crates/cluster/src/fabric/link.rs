//! One reliable directed link: a data wire, the reverse wire its acks ride,
//! go-back-N at both ends and an unbounded egress backlog.

use super::LinkConfig;
use apiary_net::arq::{Ack, GoBackNReceiver, GoBackNSender, Packet};
use apiary_net::{Frame, Wire};
use apiary_sim::{Cycle, Payload};
use std::collections::VecDeque;

/// The reverse wire of a link. An ack is a timed value: it is serialised
/// like a minimum-size frame, queues behind the acks before it and
/// propagates like data, but carries no payload. Lossless (cumulative acks
/// make a lost one cost only delay, and the data wire's loss model already
/// drives the retransmissions).
///
/// An ack that has arrived waits here until the link is next pumped (or
/// changed), which applies it on the cycle it arrived: see
/// [`Link::settle`].
#[derive(Debug)]
struct AckWire {
    latency: u64,
    /// Serialisation of one ack, cycles.
    ser: u64,
    free_at: Cycle,
    /// `(arrival, next expected sequence number)`, in arrival order.
    queue: VecDeque<(Cycle, u64)>,
    /// The head's arrival ([`Cycle::MAX`] when empty) and the newest ack:
    /// what a pump and a deadline read, kept beside the queue so that
    /// reading them does not touch its buffer.
    first: Cycle,
    last: (Cycle, u64),
}

impl AckWire {
    fn new(latency: u64, ser: u64) -> AckWire {
        AckWire {
            latency,
            ser,
            free_at: Cycle::ZERO,
            queue: VecDeque::new(),
            first: Cycle::MAX,
            last: (Cycle::MAX, 0),
        }
    }

    fn push(&mut self, now: Cycle, next: u64) {
        self.free_at = now.max(self.free_at) + self.ser;
        let ack = (self.free_at + self.latency, next);
        if self.queue.is_empty() {
            self.first = ack.0;
        }
        self.queue.push_back(ack);
        self.last = ack;
    }

    /// The next ack that arrives before `end`, with its arrival cycle.
    fn pop_before(&mut self, end: Cycle) -> Option<(Cycle, u64)> {
        if self.first >= end {
            return None;
        }
        let ack = self.queue.pop_front();
        self.first = self.queue.front().map_or(Cycle::MAX, |&(at, _)| at);
        ack
    }
}

/// One reliable directed link: wire + ARQ + an unbounded egress backlog
/// (the egress proxy's queue — the ARQ window is the real admission gate).
#[derive(Debug)]
pub(super) struct Link {
    /// `(from, to)` endpoints; [`super::TOR`] is the switch.
    pub(super) key: (u16, u16),
    pub(super) data: Wire,
    acks: AckWire,
    pub(super) tx: GoBackNSender,
    pub(super) rx: GoBackNReceiver,
    pub(super) backlog: VecDeque<Payload>,
    pub(super) up: bool,
    /// The sender's flat retransmission timeout, cycles.
    timeout: u64,
    pub(super) cut_drops: u64,
    pub(super) acks_coalesced: u64,
}

impl Link {
    pub(super) fn new(key: (u16, u16), cfg: &LinkConfig, seed: u64) -> Link {
        let data = if cfg.loss > 0.0 {
            Wire::with_loss(cfg.latency, cfg.bytes_per_cycle, cfg.loss, seed)
        } else {
            Wire::new(cfg.latency, cfg.bytes_per_cycle)
        };
        Link {
            key,
            acks: AckWire::new(cfg.latency, data.serialisation(0)),
            data,
            // Size-aware ARQ timeouts: a bulk frame (e.g. a migration
            // snapshot) can take longer to serialize than the flat timeout;
            // scaling the deadline with the outstanding bytes prevents a
            // retransmission storm while the first copy is still on the wire.
            tx: GoBackNSender::new(cfg.arq_window, cfg.arq_timeout)
                .with_serialization_rate(cfg.bytes_per_cycle),
            rx: GoBackNReceiver::new(),
            backlog: VecDeque::new(),
            up: true,
            timeout: cfg.arq_timeout,
            cut_drops: 0,
            acks_coalesced: 0,
        }
    }

    /// The first half of a pump: admit backlog into the ARQ window and put
    /// whatever the sender releases on the data wire. Returns how many
    /// packets were retransmissions.
    pub(super) fn transmit(&mut self, now: Cycle) -> u64 {
        if self.backlog.is_empty() && self.tx.queued() == 0 && !self.times_out(now) {
            return 0;
        }
        let retx_before = self.tx.retransmissions;
        while let Some(m) = self.backlog.front() {
            // Admission is a refcount bump: the ARQ window and the backlog
            // share the same buffer.
            if self.tx.offer(m.clone(), now) {
                self.backlog.pop_front();
            } else {
                break;
            }
        }
        for pkt in self.tx.transmit(now) {
            if self.up {
                self.data.push(
                    now,
                    Frame {
                        client: 0,
                        port: 0,
                        tag: pkt.seq,
                        payload: pkt.payload,
                    },
                );
            } else {
                self.cut_drops += 1;
            }
        }
        self.tx.retransmissions - retx_before
    }

    /// The next data frame that has arrived by `now` and passed the
    /// receiver: `Some(Some(payload))` for the next in-order packet,
    /// `Some(None)` for one go-back-N discarded, `None` once nothing more
    /// has arrived. A cut link drops what arrives. Every frame received is
    /// owed an ack, which [`Link::acknowledge`] coalesces.
    pub(super) fn receive(&mut self, now: Cycle) -> Option<Option<Payload>> {
        loop {
            let f = self.data.pop_due(now)?;
            if !self.up {
                self.cut_drops += 1;
                continue;
            }
            let (delivered, _) = self.rx.on_packet(Packet {
                seq: f.tag,
                payload: f.payload,
            });
            return Some(delivered);
        }
    }

    /// The second half of a pump, after `received` live frames came in:
    /// one ack for the burst, then the acks that have reached the sender.
    /// Acks are cumulative and the receiver's expected-seq only grows, so
    /// a burst of arrivals needs exactly one ack: the last one dominates
    /// every earlier one. Coalescing frees the reverse wire of
    /// `received - 1` acks.
    pub(super) fn acknowledge(&mut self, now: Cycle, received: u64) {
        if received > 0 {
            self.acks_coalesced += received - 1;
            self.acks.push(now, self.rx.expected());
        }
        self.settle(now + 1);
    }

    /// Applies every ack that reached the sender before `end`, each on the
    /// cycle it arrived (a cut link drops it). An ack that only moves the
    /// sender's timer, or frees a window nothing waits for, needs no pump
    /// of its own: the link's next pump, or whatever changes the link
    /// next, settles it first, which leaves the sender exactly as a pump on
    /// its arrival cycle would have. `next_activity` names the arrival
    /// when it matters sooner.
    pub(super) fn settle(&mut self, end: Cycle) {
        while let Some((at, next)) = self.acks.pop_before(end) {
            if self.up {
                self.tx.on_ack(Ack { next }, at);
            } else {
                self.cut_drops += 1;
            }
        }
    }

    /// No later than the cycle the retransmission timer fires, the acks on
    /// their way applied on their arrival cycles; [`Cycle::MAX`] when it
    /// never does. Exact with no ack on its way. A timer due at or before
    /// the first ack's arrival fires first, as a pump transmits before it
    /// reads acks. An ack restarts the timer at least a full timeout after
    /// its arrival (or stops it, if it acknowledges everything sent), so
    /// while the acks on the way arrive within one timeout of each other
    /// none of the timers they restart fires before the next arrives. The
    /// link is pumped at this cycle at the latest, and that pump settles
    /// the acks and posts the exact deadline.
    pub(super) fn fires_at(&self) -> Cycle {
        let timer = self.tx.next_timeout().unwrap_or(Cycle::MAX);
        let (first, (last, next)) = (self.acks.first, self.acks.last);
        if first == Cycle::MAX || !self.up {
            return timer;
        }
        if timer <= first {
            timer
        } else if last >= first + self.timeout {
            first + self.timeout
        } else if next < self.tx.unacked().end {
            last + self.timeout
        } else {
            Cycle::MAX
        }
    }

    /// Nothing queued, unacked, or in flight, counting as applied the acks
    /// that arrived before `next`.
    pub(super) fn idle(&self, next: Cycle) -> bool {
        let unacked = self.tx.unacked();
        let arrived = self.acks.queue.iter().take_while(|&&(at, _)| at < next);
        let acked = self.up && arrived.last().is_some_and(|&(_, n)| n >= unacked.end);
        self.backlog.is_empty()
            && self.tx.queued() == 0
            && self.data.in_flight() == 0
            && (unacked.is_empty() || acked)
    }

    /// Acks that arrived before `next` on a cut link and wait to be
    /// counted as dropped.
    pub(super) fn pending_cut_drops(&self, next: Cycle) -> u64 {
        if self.up {
            return 0;
        }
        self.acks
            .queue
            .iter()
            .take_while(|&&(at, _)| at < next)
            .count() as u64
    }

    /// Whether the sender takes the backlog's head on its next pump.
    pub(super) fn admits(&self) -> bool {
        !self.backlog.is_empty() && self.tx.window_free()
    }

    /// Whether the retransmission timer has fired by `now`.
    fn times_out(&self, now: Cycle) -> bool {
        self.tx.next_timeout().is_some_and(|t| t <= now)
    }

    /// Whether a frame handed over at `now` would be the only thing a pump
    /// at `now` transmits: nothing waits before it, the window has room
    /// and no retransmission is due.
    pub(super) fn sends_at_once(&self, now: Cycle) -> bool {
        self.backlog.is_empty()
            && self.tx.queued() == 0
            && self.tx.window_free()
            && !self.times_out(now)
    }

    /// The earliest cycle at which a pump can do anything, if the link may
    /// next be pumped at `ready` and has settled its acks before it:
    /// transmit queued or admissible backlog (`ready` itself), receive a
    /// frame, fire the retransmission timer, or take an ack that lets
    /// waiting backlog in. [`Cycle::MAX`] when the link is completely
    /// quiet. Pumping earlier is a harmless no-op; pumping later would
    /// change ARQ timing.
    pub(super) fn next_activity(&self, ready: Cycle) -> Cycle {
        self.next_activity_firing(ready, self.fires_at())
    }

    /// [`Link::next_activity`], given [`Link::fires_at`].
    pub(super) fn next_activity_firing(&self, ready: Cycle, fires: Cycle) -> Cycle {
        if self.tx.queued() > 0 || self.admits() {
            return ready;
        }
        let arrival = self.data.next_due().unwrap_or(Cycle::MAX);
        let ack = if self.backlog.is_empty() {
            Cycle::MAX
        } else {
            self.acks.first
        };
        fires.min(arrival).min(ack)
    }
}
