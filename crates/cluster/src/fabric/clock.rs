//! How the fabric runs its own cycles: the replay of internal events in
//! per-cycle order, one link's pump, the switch, and the delivery bound each
//! link posts.

use super::msg::{route, MsgView};
use super::{Fabric, Retransmits, TOR};
use apiary_sim::{Cycle, Payload};

impl Fabric {
    /// Pumps every link whose deadline falls at or before `through`, by
    /// cycle and then by link key: the order a per-cycle pump of every link
    /// would have changed them in. A frame the switch forwards onto a
    /// downlink makes that link due on the cycle it reached the switch, and
    /// downlinks sort after uplinks, so it leaves on that very cycle. Costs
    /// one comparison when nothing is due, and one pass over the deadlines
    /// per cycle that has work: a pump changes only its own link's deadline
    /// and a later link's, so the pass also finds the next earliest (a
    /// pass for an `earliest` that a settle outside it left too early finds
    /// nothing to pump).
    pub(super) fn run_through(&mut self, through: Cycle) {
        while self.earliest <= through && self.earliest < Cycle::MAX {
            let at = self.earliest;
            let mut earliest = Cycle::MAX;
            for i in 0..self.links.len() {
                if self.due[i] == at {
                    self.pump(i, at);
                    self.post(i, at + 1);
                }
                earliest = earliest.min(self.due[i]);
            }
            self.earliest = earliest;
        }
    }

    /// One cycle of link `i`: admit and transmit, receive (each in-order
    /// frame goes to the switch or to its board as it comes off the wire),
    /// ack. A pump at a cycle the link has no work on changes nothing.
    pub(super) fn pump(&mut self, i: usize, now: Cycle) {
        self.links[i].settle(now);
        let count = self.links[i].transmit(now);
        let from = self.links[i].key.0;
        if count > 0 && from != TOR {
            self.retransmits.push(Retransmits {
                board: from,
                at: now,
                count,
            });
        }
        let mut received = 0;
        while let Some(frame) = self.links[i].receive(now) {
            received += 1;
            if let Some(p) = frame {
                self.arrive(i, p, now);
            }
        }
        self.links[i].acknowledge(now, received);
    }

    /// An in-order frame came off link `i` at `now`. The switch
    /// store-and-forwards on the `dst` header alone (a frame with none, or
    /// for no board, dies there); a board takes the message if it parses,
    /// as a view of the frame it arrived in.
    /// A downlink with nothing before the frame sends it at once: the
    /// downlink's own pump later in the cycle would have sent exactly it.
    fn arrive(&mut self, i: usize, p: Payload, now: Cycle) {
        let to = self.links[i].key.1;
        if to == TOR {
            if let Some(down) = route(&p).and_then(|(_, d)| self.link_index(TOR, d)) {
                debug_assert!(down > i, "downlinks are pumped after uplinks");
                let link = &mut self.links[down];
                link.settle(now);
                let at_once = link.sends_at_once(now);
                link.backlog.push_back(p);
                if at_once {
                    link.transmit(now);
                }
                self.post(down, now);
            }
        } else if let Some(msg) = MsgView::parse(&p) {
            if now != self.delivering {
                debug_assert!(false, "a frame reached board {to} at {now:?}, unstepped");
                self.early.get_or_insert((to, now));
            }
            self.delivered += 1;
            self.arrived.push(msg);
        }
    }

    /// Posts link `i`'s deadline, as if it may next be pumped at `ready`,
    /// and its delivery bound, while the link is at hand.
    pub(super) fn post(&mut self, i: usize, ready: Cycle) {
        let fires = self.links[i].fires_at();
        let due = self.links[i].next_activity_firing(ready, fires);
        self.due[i] = due;
        self.earliest = self.earliest.min(due);
        self.reach[i] = self.reach_firing(i, fires);
    }

    /// A fresh lower bound on the first cycle anything link `i` holds
    /// reaches a board. A frame on the wire arrives when the wire says; one
    /// still to be sent leaves no earlier than the link's deadline (a cycle
    /// later while the window is full: only an ack frees it, and the pump
    /// admits before it reads acks) and serialises behind what the
    /// transmitter holds. A frame that reaches the switch then serialises
    /// onto its downlink behind what that one holds. Only the head of the
    /// wire and the head of the backlog are bounded frame by frame; the
    /// frames behind them and retransmissions are charged a minimum-size
    /// frame per hop. Cut links and duplicates only make the bound early.
    pub(super) fn reach(&self, i: usize) -> Cycle {
        self.reach_firing(i, self.links[i].fires_at())
    }

    /// [`Fabric::reach`], given the link's [`Link::fires_at`].
    ///
    /// [`Link::fires_at`]: super::link::Link::fires_at
    fn reach_firing(&self, i: usize, fires: Cycle) -> Cycle {
        let link = &self.links[i];
        let latency = self.cfg.link.latency;
        let hop = self.hop;
        let least = hop - latency;
        let uplink = link.key.1 == TOR;
        // Where a frame that comes off link `i` at `at` reaches a board;
        // `ser` is its serialisation, the same on every link.
        let onward = |at: Cycle, ser: u64, p: &Payload| {
            if !uplink {
                return at;
            }
            match route(p).and_then(|(_, d)| self.link_index(TOR, d)) {
                Some(d) => at.max(self.links[d].data.free_at()) + ser + latency,
                None => Cycle::MAX,
            }
        };
        let far = if uplink { hop } else { 0 };
        // Frames arrive in order: the head exactly, the rest no earlier
        // than the second's arrival plus a minimum-size frame's onward hop.
        let mut frames = link.data.frames();
        let mut reach = frames
            .next()
            .map_or(Cycle::MAX, |(at, ser, f)| onward(at, ser, &f.payload));
        if let Some((at, _, _)) = frames.next() {
            reach = reach.min(at + far);
        }
        let due = self.due[i];
        if let Some(head) = link.backlog.front() {
            let ready = if link.admits() { due } else { due + 1 };
            let ser = link.data.serialisation(head.len());
            let off = ready.max(link.data.free_at()) + ser + latency;
            reach = reach.min(onward(off, ser, head));
            if link.backlog.len() > 1 {
                reach = reach.min(off + least + far);
            }
        }
        let resend = if link.tx.queued() > 0 { due } else { fires };
        if resend < Cycle::MAX {
            reach = reach.min(resend.max(link.data.free_at()) + hop + far);
        }
        reach
    }
}
