//! Frames and the wire model.

use apiary_sim::{Cycle, Payload, SimRng};
use std::collections::VecDeque;

/// A simplified network frame (Ethernet + UDP collapsed into what the
/// experiments need).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Identifies the external client (stands in for src IP/port).
    pub client: u32,
    /// Destination service port (the flow-table key).
    pub port: u16,
    /// Request/response correlation tag.
    pub tag: u64,
    /// Payload bytes (shared handle; framing never copies them).
    pub payload: Payload,
}

impl Frame {
    /// Wire size: payload plus Ethernet+IP+UDP header overhead (42 bytes,
    /// rounded to the 64-byte Ethernet minimum).
    pub fn wire_bytes(&self) -> u64 {
        wire_bytes(self.payload.len())
    }
}

/// Wire size of a frame carrying `payload_len` bytes (see
/// [`Frame::wire_bytes`]).
fn wire_bytes(payload_len: usize) -> u64 {
    (payload_len as u64 + 42).max(64)
}

/// A unidirectional wire: serialisation at a fixed bandwidth plus constant
/// propagation delay. Frames arrive in order.
///
/// # Examples
///
/// ```
/// use apiary_net::{Frame, Wire};
/// use apiary_sim::Cycle;
///
/// let mut w = Wire::new(100, 8); // 100-cycle propagation, 8 B/cycle.
/// w.push(Cycle(0), Frame { client: 0, port: 7, tag: 1, payload: vec![0; 22].into() });
/// assert_eq!(w.pop_due(Cycle(50)), None);
/// // 64 B / 8 Bpc = 8 cycles serialisation + 100 propagation.
/// assert!(w.pop_due(Cycle(108)).is_some());
/// ```
#[derive(Debug, Clone)]
pub struct Wire {
    latency: u64,
    bytes_per_cycle: u64,
    /// The transmitter is busy serialising until this cycle.
    tx_free_at: Cycle,
    /// `(arrival, serialisation, frame)`, in arrival order.
    queue: VecDeque<(Cycle, u64, Frame)>,
    /// Frames carried.
    pub carried: u64,
    /// Frames dropped by the loss model.
    pub dropped: u64,
    loss: Option<(f64, SimRng)>,
}

impl Wire {
    /// Creates a lossless wire with the given propagation delay (cycles)
    /// and bandwidth (bytes per cycle).
    pub fn new(latency: u64, bytes_per_cycle: u64) -> Wire {
        Wire {
            latency,
            bytes_per_cycle: bytes_per_cycle.max(1),
            tx_free_at: Cycle::ZERO,
            queue: VecDeque::new(),
            carried: 0,
            dropped: 0,
            loss: None,
        }
    }

    /// Creates a wire that drops each frame independently with probability
    /// `loss_prob` (after paying serialisation — the transmitter cannot
    /// know). Deterministic in `seed`.
    pub fn with_loss(latency: u64, bytes_per_cycle: u64, loss_prob: f64, seed: u64) -> Wire {
        let mut w = Wire::new(latency, bytes_per_cycle);
        w.loss = Some((loss_prob.clamp(0.0, 1.0), SimRng::new(seed)));
        w
    }

    /// Transmits a frame at `now`; it will arrive after serialisation and
    /// propagation, queuing behind earlier frames for the transmitter —
    /// unless the loss model eats it.
    pub fn push(&mut self, now: Cycle, frame: Frame) {
        let start = now.max(self.tx_free_at);
        let ser = self.serialisation(frame.payload.len());
        let tx_done = start + ser;
        self.tx_free_at = tx_done;
        if let Some((p, rng)) = &mut self.loss {
            if rng.gen_bool(*p) {
                self.dropped += 1;
                return;
            }
        }
        self.queue.push_back((tx_done + self.latency, ser, frame));
        self.carried += 1;
    }

    /// Takes the next frame if it has fully arrived by `now`.
    pub fn pop_due(&mut self, now: Cycle) -> Option<Frame> {
        if self.queue.front().is_some_and(|(at, _, _)| *at <= now) {
            self.queue.pop_front().map(|(_, _, f)| f)
        } else {
            None
        }
    }

    /// Frames still in flight.
    pub fn in_flight(&self) -> usize {
        self.queue.len()
    }

    /// When the next in-flight frame arrives (`None` if the wire is empty).
    /// Frames are queued in arrival order, so the head is the earliest.
    pub fn next_due(&self) -> Option<Cycle> {
        self.queue.front().map(|(at, _, _)| *at)
    }

    /// The frames in flight, earliest first, each with its arrival cycle
    /// and the cycles it took to serialise.
    pub fn frames(&self) -> impl Iterator<Item = (Cycle, u64, &Frame)> {
        self.queue.iter().map(|(at, ser, f)| (*at, *ser, f))
    }

    /// Cycles the transmitter spends serialising a frame that carries
    /// `payload_len` bytes.
    pub fn serialisation(&self, payload_len: usize) -> u64 {
        wire_bytes(payload_len).div_ceil(self.bytes_per_cycle)
    }

    /// The cycle the transmitter finishes what it has been given: a frame
    /// pushed at `now` starts serialising at `now.max(free_at())`.
    pub fn free_at(&self) -> Cycle {
        self.tx_free_at
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame(bytes: usize) -> Frame {
        Frame {
            client: 1,
            port: 80,
            tag: 0,
            payload: vec![0; bytes].into(),
        }
    }

    #[test]
    fn min_frame_size_is_64() {
        assert_eq!(frame(0).wire_bytes(), 64);
        assert_eq!(frame(21).wire_bytes(), 64);
        assert_eq!(frame(100).wire_bytes(), 142);
    }

    #[test]
    fn serialisation_queues_back_to_back_frames() {
        let mut w = Wire::new(10, 8);
        w.push(Cycle(0), frame(22)); // 64 B -> 8 cycles.
        w.push(Cycle(0), frame(22)); // Starts at 8, done at 16.
        assert_eq!(w.pop_due(Cycle(17)), None);
        assert_eq!(w.pop_due(Cycle(18)), Some(frame(22)));
        assert_eq!(w.pop_due(Cycle(25)), None);
        assert!(w.pop_due(Cycle(26)).is_some());
    }

    #[test]
    fn in_order_arrival() {
        let mut w = Wire::new(5, 64);
        for tag in 0..10u64 {
            let mut f = frame(10);
            f.tag = tag;
            w.push(Cycle(tag), f);
        }
        let mut got = Vec::new();
        for t in 0..200u64 {
            while let Some(f) = w.pop_due(Cycle(t)) {
                got.push(f.tag);
            }
        }
        assert_eq!(got, (0..10).collect::<Vec<_>>());
        assert_eq!(w.carried, 10);
        assert_eq!(w.in_flight(), 0);
    }

    #[test]
    fn big_frames_take_longer() {
        let mut small = Wire::new(0, 8);
        small.push(Cycle(0), frame(22));
        let mut t_small = 0;
        for t in 0..1000 {
            if small.pop_due(Cycle(t)).is_some() {
                t_small = t;
                break;
            }
        }
        let mut big = Wire::new(0, 8);
        big.push(Cycle(0), frame(4000));
        let mut t_big = 0;
        for t in 0..10_000 {
            if big.pop_due(Cycle(t)).is_some() {
                t_big = t;
                break;
            }
        }
        assert!(t_big > t_small);
    }
}

#[cfg(test)]
mod loss_tests {
    use super::*;
    use crate::arq::{Ack, GoBackNReceiver, GoBackNSender};

    #[test]
    fn lossy_wire_drops_roughly_at_rate() {
        let mut w = Wire::with_loss(0, 64, 0.25, 7);
        for _ in 0..2_000 {
            w.push(
                Cycle(0),
                Frame {
                    client: 0,
                    port: 1,
                    tag: 0,
                    payload: vec![0; 10].into(),
                },
            );
        }
        let rate = w.dropped as f64 / 2_000.0;
        assert!((0.20..0.30).contains(&rate), "drop rate {rate}");
        assert_eq!(w.carried + w.dropped, 2_000);
    }

    /// A full reliable transfer over two lossy wires: go-back-N carries
    /// 100 records across 20% loss in both directions, in order.
    #[test]
    fn go_back_n_over_lossy_wires_delivers_everything() {
        let mut data_wire = Wire::with_loss(20, 64, 0.2, 11);
        let mut ack_wire = Wire::with_loss(20, 64, 0.2, 13);
        let mut tx = GoBackNSender::new(8, 400);
        let mut rx = GoBackNReceiver::new();
        let total = 100u64;
        let mut offered = 0u64;
        let mut delivered = Vec::new();

        for t in 0..5_000_000u64 {
            let now = Cycle(t);
            if offered < total && tx.offer(offered.to_le_bytes().to_vec(), now) {
                offered += 1;
            }
            for pkt in tx.poll(now) {
                data_wire.push(
                    now,
                    Frame {
                        client: 0,
                        port: 1,
                        tag: pkt.seq,
                        payload: pkt.payload,
                    },
                );
            }
            while let Some(f) = data_wire.pop_due(now) {
                let (data, ack) = rx.on_packet(crate::arq::Packet {
                    seq: f.tag,
                    payload: f.payload,
                });
                if let Some(d) = data {
                    delivered.push(u64::from_le_bytes(d[..].try_into().expect("sized")));
                }
                ack_wire.push(
                    now,
                    Frame {
                        client: 0,
                        port: 2,
                        tag: ack.next,
                        payload: Payload::empty(),
                    },
                );
            }
            while let Some(f) = ack_wire.pop_due(now) {
                tx.on_ack(Ack { next: f.tag }, now);
            }
            if delivered.len() as u64 == total && tx.idle() {
                break;
            }
        }
        assert_eq!(delivered, (0..total).collect::<Vec<_>>());
        assert!(tx.retransmissions > 0, "loss must have caused retransmits");
        assert!(data_wire.dropped > 0);
    }
}
