//! A go-back-N reliable transport.
//!
//! §2 of the paper lists "reliable network protocols" among the services
//! FPGA developers are forced to rebuild per project. Apiary provides one:
//! a compact go-back-N ARQ suitable for hardware (fixed window, cumulative
//! acks, a single retransmission timer — no per-packet state beyond the
//! ring of unacknowledged payloads).

use apiary_sim::{ensure, Cycle, Payload};
use std::collections::VecDeque;
use std::ops::Range;

/// A data packet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Packet {
    /// Sequence number.
    pub seq: u64,
    /// Payload, shared with the sender's unacked ring: a retransmission
    /// re-sends the same buffer, it does not copy it.
    pub payload: Payload,
}

/// A cumulative acknowledgement: "I have everything below `next`".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ack {
    /// Next expected sequence number.
    pub next: u64,
}

/// Go-back-N sender state machine.
#[derive(Debug, Clone)]
pub struct GoBackNSender {
    window: usize,
    timeout: u64,
    base: u64,
    next_seq: u64,
    unacked: VecDeque<Payload>,
    /// Total bytes in `unacked`, kept as packets enter and leave it.
    unacked_bytes: u64,
    /// Deadline for the oldest unacked packet.
    timer: Option<Cycle>,
    /// Packets to (re)transmit.
    outbox: VecDeque<Packet>,
    /// Wire serialization rate (bytes/cycle); 0 = size-unaware timeouts.
    bytes_per_cycle: u64,
    /// Retransmitted packets (for stats).
    pub retransmissions: u64,
}

impl GoBackNSender {
    /// Creates a sender with the given window (packets) and retransmission
    /// timeout (cycles).
    pub fn new(window: usize, timeout: u64) -> GoBackNSender {
        GoBackNSender {
            window: window.max(1),
            timeout,
            base: 0,
            next_seq: 0,
            unacked: VecDeque::new(),
            unacked_bytes: 0,
            timer: None,
            outbox: VecDeque::new(),
            bytes_per_cycle: 0,
            retransmissions: 0,
        }
    }

    /// Makes the retransmission deadline account for serialization time:
    /// `timeout + unacked_bytes / bytes_per_cycle` cycles instead of a flat
    /// `timeout`. A single fixed timeout works for packets much smaller than
    /// `timeout × rate`, but a bulk payload (e.g. a migration snapshot) whose
    /// wire time exceeds the timeout would otherwise be retransmitted in a
    /// storm before its first copy even finishes serializing — delivery still
    /// succeeds (the receiver discards duplicates) but the wasted copies
    /// occupy the wire for far longer than the payload itself. `0` disables
    /// the scaling (the default).
    pub fn with_serialization_rate(mut self, bytes_per_cycle: u64) -> GoBackNSender {
        self.bytes_per_cycle = bytes_per_cycle;
        self
    }

    /// The retransmission deadline as of `now`: the flat timeout plus the
    /// serialization time of everything outstanding (when a rate is set).
    fn deadline(&self, now: Cycle) -> Cycle {
        let extra = if self.bytes_per_cycle == 0 {
            0
        } else {
            self.unacked_bytes.div_ceil(self.bytes_per_cycle)
        };
        now + self.timeout + extra
    }

    /// Offers a payload; returns `false` (not accepted) when the window is
    /// full.
    pub fn offer(&mut self, payload: impl Into<Payload>, now: Cycle) -> bool {
        if self.unacked.len() >= self.window {
            return false;
        }
        let payload: Payload = payload.into();
        self.outbox.push_back(Packet {
            seq: self.next_seq,
            payload: payload.clone(),
        });
        self.unacked_bytes += payload.len() as u64;
        self.unacked.push_back(payload);
        self.next_seq += 1;
        if self.timer.is_none() {
            self.timer = Some(self.deadline(now));
        }
        true
    }

    /// Processes a cumulative ack.
    pub fn on_ack(&mut self, ack: Ack, now: Cycle) {
        while self.base < ack.next.min(self.next_seq) {
            if let Some(p) = self.unacked.pop_front() {
                self.unacked_bytes -= p.len() as u64;
            }
            self.base += 1;
        }
        self.timer = if self.unacked.is_empty() {
            None
        } else {
            Some(self.deadline(now))
        };
    }

    /// Advances time: on timeout, requeues the entire window (go-back-N).
    /// Returns packets to put on the wire (new and retransmitted), copied
    /// out so the caller may ack while it walks them.
    pub fn poll(&mut self, now: Cycle) -> Vec<Packet> {
        self.transmit(now).collect()
    }

    /// [`GoBackNSender::poll`] without the copy: the outbox itself, drained
    /// as the caller puts each packet on the wire.
    pub fn transmit(&mut self, now: Cycle) -> impl Iterator<Item = Packet> + '_ {
        if let Some(deadline) = self.timer {
            if now >= deadline {
                // Retransmit everything outstanding.
                self.outbox.clear();
                for (i, payload) in self.unacked.iter().enumerate() {
                    self.outbox.push_back(Packet {
                        seq: self.base + i as u64,
                        payload: payload.clone(),
                    });
                    self.retransmissions += 1;
                }
                self.timer = Some(self.deadline(now));
            }
        }
        self.outbox.drain(..)
    }

    /// The sequence numbers sent and not yet acknowledged: from the
    /// oldest unacknowledged packet to the next one [`GoBackNSender::offer`]
    /// numbers. A receiver fed only by this sender expects a number in
    /// `start..=end`.
    pub fn unacked(&self) -> Range<u64> {
        self.base..self.next_seq
    }

    /// Payloads not yet acknowledged.
    pub fn outstanding(&self) -> usize {
        self.unacked.len()
    }

    /// The retransmission deadline, if the timer is armed. [`GoBackNSender::poll`]
    /// at or after this cycle requeues the window; polls before it are no-ops
    /// (beyond draining the outbox).
    pub fn next_timeout(&self) -> Option<Cycle> {
        self.timer
    }

    /// Packets waiting in the outbox for the next [`GoBackNSender::poll`].
    pub fn queued(&self) -> usize {
        self.outbox.len()
    }

    /// Whether [`GoBackNSender::offer`] would currently accept a payload.
    pub fn window_free(&self) -> bool {
        self.unacked.len() < self.window
    }

    /// Everything offered has been acknowledged.
    pub fn idle(&self) -> bool {
        self.unacked.is_empty() && self.outbox.is_empty()
    }

    /// `Err` unless the window's laws hold: the outstanding bytes are
    /// counted right, the packets acknowledged plus the packets
    /// outstanding are exactly the packets sent (so acks never exceed
    /// sends), and no more than a window is outstanding.
    pub fn check_invariants(&self) -> Result<(), String> {
        let bytes: u64 = self.unacked.iter().map(|p| p.len() as u64).sum();
        ensure!(
            self.unacked_bytes == bytes,
            "{} unacked bytes counted, {bytes} outstanding",
            self.unacked_bytes
        );
        let outstanding = self.unacked.len();
        ensure!(
            self.base + outstanding as u64 == self.next_seq,
            "acknowledged + outstanding != sent"
        );
        ensure!(
            outstanding <= self.window,
            "{outstanding} packets outstanding in a window of {}",
            self.window
        );
        Ok(())
    }
}

/// Go-back-N receiver state machine.
#[derive(Debug, Clone, Default)]
pub struct GoBackNReceiver {
    expected: u64,
    /// Out-of-order packets discarded.
    pub discarded: u64,
}

impl GoBackNReceiver {
    /// Creates a receiver.
    pub fn new() -> GoBackNReceiver {
        GoBackNReceiver::default()
    }

    /// Processes an arriving packet; returns the in-order payload (if this
    /// was the expected packet) and the ack to send back.
    pub fn on_packet(&mut self, pkt: Packet) -> (Option<Payload>, Ack) {
        if pkt.seq == self.expected {
            self.expected += 1;
            (
                Some(pkt.payload),
                Ack {
                    next: self.expected,
                },
            )
        } else {
            // Go-back-N discards out-of-order data; the cumulative ack
            // tells the sender where to resume.
            self.discarded += 1;
            (
                None,
                Ack {
                    next: self.expected,
                },
            )
        }
    }

    /// Next sequence number the receiver expects.
    pub fn expected(&self) -> u64 {
        self.expected
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apiary_sim::SimRng;

    #[test]
    fn lossless_in_order_delivery() {
        let mut tx = GoBackNSender::new(4, 100);
        let mut rx = GoBackNReceiver::new();
        let mut delivered = Vec::new();
        for i in 0..10u8 {
            assert!(tx.offer(vec![i], Cycle(i as u64)));
            for pkt in tx.poll(Cycle(i as u64)) {
                let (data, ack) = rx.on_packet(pkt);
                if let Some(d) = data {
                    delivered.push(d[0]);
                }
                tx.on_ack(ack, Cycle(i as u64));
            }
        }
        assert_eq!(delivered, (0..10).collect::<Vec<_>>());
        assert!(tx.idle());
        assert_eq!(tx.retransmissions, 0);
    }

    #[test]
    fn window_blocks_when_full() {
        let mut tx = GoBackNSender::new(2, 100);
        assert!(tx.offer(vec![1], Cycle(0)));
        assert!(tx.offer(vec![2], Cycle(0)));
        assert!(!tx.offer(vec![3], Cycle(0)));
        tx.on_ack(Ack { next: 1 }, Cycle(5));
        assert!(tx.offer(vec![3], Cycle(5)));
    }

    #[test]
    fn timeout_retransmits_window() {
        let mut tx = GoBackNSender::new(4, 50);
        tx.offer(vec![1], Cycle(0));
        tx.offer(vec![2], Cycle(0));
        let first = tx.poll(Cycle(0));
        assert_eq!(first.len(), 2);
        // Lose them; nothing to send until the timer fires.
        assert!(tx.poll(Cycle(40)).is_empty());
        let retx = tx.poll(Cycle(50));
        assert_eq!(retx.len(), 2);
        assert_eq!(retx[0].seq, 0);
        assert_eq!(tx.retransmissions, 2);
    }

    #[test]
    fn receiver_discards_out_of_order() {
        let mut rx = GoBackNReceiver::new();
        let (d, ack) = rx.on_packet(Packet {
            seq: 3,
            payload: vec![9].into(),
        });
        assert!(d.is_none());
        assert_eq!(ack, Ack { next: 0 });
        assert_eq!(rx.discarded, 1);
    }

    #[test]
    fn duplicate_cumulative_acks_are_idempotent() {
        let mut tx = GoBackNSender::new(4, 100);
        for i in 0..3u8 {
            assert!(tx.offer(vec![i], Cycle(0)));
        }
        tx.poll(Cycle(0));
        tx.on_ack(Ack { next: 2 }, Cycle(10));
        assert_eq!(tx.outstanding(), 1);
        // The same ack again (go-back-N receivers repeat cumulative acks
        // for every out-of-order arrival) must change nothing.
        tx.on_ack(Ack { next: 2 }, Cycle(11));
        tx.on_ack(Ack { next: 2 }, Cycle(12));
        assert_eq!(tx.outstanding(), 1);
        // A stale (lower) ack must not regress the base either.
        tx.on_ack(Ack { next: 1 }, Cycle(13));
        assert_eq!(tx.outstanding(), 1);
        tx.on_ack(Ack { next: 3 }, Cycle(14));
        assert!(tx.idle());
    }

    #[test]
    fn timer_restarts_after_retransmission_burst() {
        let mut tx = GoBackNSender::new(4, 50);
        tx.offer(vec![1], Cycle(0));
        tx.offer(vec![2], Cycle(0));
        tx.poll(Cycle(0));
        // First timeout at 50: the whole window is retransmitted and the
        // timer restarts from the retransmission, not from the old deadline.
        assert_eq!(tx.poll(Cycle(50)).len(), 2);
        assert!(tx.poll(Cycle(99)).is_empty(), "new deadline is 100");
        assert_eq!(tx.poll(Cycle(100)).len(), 2, "second burst on schedule");
        assert_eq!(tx.retransmissions, 4);
        // An ack mid-flight rebases the timer again.
        tx.on_ack(Ack { next: 1 }, Cycle(120));
        assert!(tx.poll(Cycle(150)).is_empty(), "deadline moved to 170");
        assert_eq!(tx.poll(Cycle(170)).len(), 1, "only the unacked packet");
    }

    #[test]
    fn window_full_rejection_then_drain_resumes_in_order() {
        let mut tx = GoBackNSender::new(2, 100);
        assert!(tx.offer(vec![0], Cycle(0)));
        assert!(tx.offer(vec![1], Cycle(0)));
        // Rejections while full: no sequence numbers are burned.
        assert!(!tx.offer(vec![2], Cycle(1)));
        assert!(!tx.offer(vec![2], Cycle(2)));
        assert_eq!(tx.outstanding(), 2);
        // Drain the window completely, then refill.
        tx.poll(Cycle(2));
        tx.on_ack(Ack { next: 2 }, Cycle(10));
        assert!(tx.idle());
        assert!(tx.offer(vec![2], Cycle(11)));
        let pkts = tx.poll(Cycle(11));
        assert_eq!(pkts.len(), 1);
        assert_eq!(pkts[0].seq, 2, "rejected offers did not consume seqs");
        let mut rx = GoBackNReceiver::new();
        rx.on_packet(Packet {
            seq: 0,
            payload: vec![0].into(),
        });
        rx.on_packet(Packet {
            seq: 1,
            payload: vec![1].into(),
        });
        let (data, ack) = rx.on_packet(pkts[0].clone());
        assert_eq!(data, Some(vec![2].into()));
        assert_eq!(ack, Ack { next: 3 });
    }

    #[test]
    fn ack_beyond_next_seq_does_not_panic_or_corrupt() {
        let mut tx = GoBackNSender::new(4, 100);
        tx.offer(vec![1], Cycle(0));
        tx.offer(vec![2], Cycle(0));
        // A corrupted or malicious ack far beyond anything sent: the sender
        // clamps to what it actually transmitted.
        tx.on_ack(Ack { next: u64::MAX }, Cycle(5));
        assert!(tx.unacked.is_empty());
        assert_eq!(tx.base, tx.next_seq, "base clamps to next_seq");
        assert_eq!(tx.check_invariants(), Ok(()));
        // The sender keeps working afterwards.
        assert!(tx.offer(vec![3], Cycle(6)));
        let pkts = tx.poll(Cycle(6));
        assert_eq!(pkts.last().expect("sent").seq, 2);
        // Also safe on a sender that never sent anything.
        let mut fresh = GoBackNSender::new(2, 100);
        fresh.on_ack(Ack { next: 7 }, Cycle(0));
        assert!(fresh.idle());
    }

    #[test]
    fn serialization_rate_scales_the_timeout_for_bulk_payloads() {
        // A 64 KiB payload on a 16 B/cycle wire takes 4096 cycles to
        // serialize — more than the 100-cycle flat timeout. Size-unaware,
        // the sender would retransmit dozens of copies before the first
        // one could possibly be acked; with the rate set, the deadline is
        // 100 + 4096 and no spurious retransmission happens.
        let mut tx = GoBackNSender::new(4, 100).with_serialization_rate(16);
        assert!(tx.offer(vec![0u8; 64 * 1024], Cycle(0)));
        assert_eq!(tx.poll(Cycle(0)).len(), 1);
        assert!(tx.poll(Cycle(4195)).is_empty(), "deadline is 100 + 4096");
        assert_eq!(tx.retransmissions, 0);
        // A genuinely lost bulk payload is still retransmitted — once the
        // scaled deadline passes, not never.
        assert_eq!(tx.poll(Cycle(4196)).len(), 1);
        assert_eq!(tx.retransmissions, 1);
        // New offers do NOT slide the armed deadline (a retransmit timer
        // that resets on new data never fires under continuous traffic) —
        // but an ack rebases it on everything still outstanding, so a bulk
        // payload offered behind a small one is covered from the moment
        // the small one is acked.
        let mut tx = GoBackNSender::new(4, 100).with_serialization_rate(16);
        assert!(tx.offer(vec![0u8; 1600], Cycle(0)));
        assert_eq!(tx.next_timeout(), Some(Cycle(200)));
        assert!(tx.offer(vec![0u8; 64 * 1024], Cycle(50)));
        assert_eq!(tx.next_timeout(), Some(Cycle(200)), "offers never extend");
        tx.poll(Cycle(50));
        tx.on_ack(Ack { next: 1 }, Cycle(60));
        assert_eq!(tx.next_timeout(), Some(Cycle(4256)), "60 + 100 + 65536/16");
    }

    #[test]
    fn survives_heavy_loss_both_directions() {
        let mut rng = SimRng::new(99);
        let mut tx = GoBackNSender::new(8, 200);
        let mut rx = GoBackNReceiver::new();
        let total = 200u64;
        let mut offered = 0u64;
        let mut delivered: Vec<u64> = Vec::new();
        // Wires with 30% loss, 10-cycle latency.
        let mut data_wire: VecDeque<(Cycle, Packet)> = VecDeque::new();
        let mut ack_wire: VecDeque<(Cycle, Ack)> = VecDeque::new();

        for t in 0..2_000_000u64 {
            let now = Cycle(t);
            if offered < total && tx.offer(offered.to_le_bytes().to_vec(), now) {
                offered += 1;
            }
            for pkt in tx.poll(now) {
                if rng.gen_f64() > 0.3 {
                    data_wire.push_back((now + 10, pkt));
                }
            }
            while data_wire.front().is_some_and(|(at, _)| *at <= now) {
                let (_, pkt) = data_wire.pop_front().expect("peeked");
                let (data, ack) = rx.on_packet(pkt);
                if let Some(d) = data {
                    delivered.push(u64::from_le_bytes(d[..].try_into().expect("sized")));
                }
                if rng.gen_f64() > 0.3 {
                    ack_wire.push_back((now + 10, ack));
                }
            }
            while ack_wire.front().is_some_and(|(at, _)| *at <= now) {
                let (_, ack) = ack_wire.pop_front().expect("peeked");
                tx.on_ack(ack, now);
            }
            assert_eq!(tx.check_invariants(), Ok(()));
            let (sent, expected) = (tx.unacked(), rx.expected());
            assert!(
                sent.start <= expected && expected <= sent.end,
                "{expected} vs {sent:?}"
            );
            if delivered.len() as u64 == total && tx.idle() {
                break;
            }
        }
        assert_eq!(delivered.len() as u64, total, "all data delivered");
        assert_eq!(delivered, (0..total).collect::<Vec<_>>(), "in order");
        assert!(tx.retransmissions > 0, "loss must have caused retransmits");
    }
}
