//! The event ring buffer.

use apiary_sim::Cycle;
use core::fmt;
use std::collections::VecDeque;

/// What happened at a monitor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EventKind {
    /// A message left a tile (passed the monitor's outbound checks).
    MsgSend {
        /// Destination tile.
        dst: u16,
        /// Message kind word.
        kind: u16,
        /// Correlation tag.
        tag: u64,
        /// Payload bytes (u64: bulk checkpoint-sized payloads must not
        /// truncate the per-delivery byte accounting).
        bytes: u64,
    },
    /// A message was delivered into a tile.
    MsgRecv {
        /// Source tile.
        src: u16,
        /// Message kind word.
        kind: u16,
        /// Correlation tag.
        tag: u64,
        /// Payload bytes (u64, matching [`EventKind::MsgSend`]).
        bytes: u64,
    },
    /// The monitor denied an outbound message (capability failure).
    SendDenied {
        /// Attempted destination.
        dst: u16,
    },
    /// The monitor delayed or dropped traffic due to rate limiting.
    RateLimited {
        /// Attempted destination.
        dst: u16,
    },
    /// The tile raised a fault.
    Fault {
        /// Implementation-defined fault code.
        code: u32,
    },
    /// The monitor fail-stopped the tile (drained and sealed it).
    FailStop,
    /// A process context was preempted and swapped out.
    Preempt {
        /// Context index within the tile.
        context: u16,
    },
    /// A capability operation (mint/derive/revoke) completed.
    CapOp {
        /// Human-readable operation name.
        op: &'static str,
    },
    /// The tile's dynamic region was reconfigured.
    Reconfig,
    /// Free-form annotation from an accelerator or service.
    Note(String),
    /// A remote (cross-board) invocation or migration phase at this board's
    /// gateway.
    Remote {
        /// Which phase (see [`RemotePhase`]).
        phase: RemotePhase,
        /// The remote board involved.
        board: u16,
        /// End-to-end correlation tag (0 when the phase is not tied to one
        /// request, e.g. `breaker-open`).
        tag: u64,
    },
}

/// The phases a cross-board request or migration passes through at a
/// gateway; [`RemotePhase::as_str`] is the spelling rendered traces use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RemotePhase {
    /// The request was forwarded onto the fabric.
    Send,
    /// Link-layer ARQ resent a frame.
    Retransmit,
    /// The response returned from the fabric.
    Reply,
    /// The end-to-end circuit breaker tripped.
    BreakerOpen,
    /// A migrating service was withdrawn and is draining at its source.
    MigrateQuiesce,
    /// The migration snapshot left for the destination board.
    MigrateXfer,
    /// The destination restored the snapshot and began loading it.
    MigrateRestore,
    /// The migrated service is serving at its new home.
    MigrateDone,
}

impl RemotePhase {
    /// The phase's name in rendered traces.
    pub fn as_str(self) -> &'static str {
        match self {
            RemotePhase::Send => "send",
            RemotePhase::Retransmit => "retransmit",
            RemotePhase::Reply => "reply",
            RemotePhase::BreakerOpen => "breaker-open",
            RemotePhase::MigrateQuiesce => "migrate-quiesce",
            RemotePhase::MigrateXfer => "migrate-xfer",
            RemotePhase::MigrateRestore => "migrate-restore",
            RemotePhase::MigrateDone => "migrate-done",
        }
    }
}

impl EventKind {
    /// A stable small index for per-kind counting.
    fn counter_slot(&self) -> usize {
        match self {
            EventKind::MsgSend { .. } => 0,
            EventKind::MsgRecv { .. } => 1,
            EventKind::SendDenied { .. } => 2,
            EventKind::RateLimited { .. } => 3,
            EventKind::Fault { .. } => 4,
            EventKind::FailStop => 5,
            EventKind::Preempt { .. } => 6,
            EventKind::CapOp { .. } => 7,
            EventKind::Reconfig => 8,
            EventKind::Note(_) => 9,
            EventKind::Remote { .. } => 10,
        }
    }

    /// Human-readable kind name.
    pub fn name(&self) -> &'static str {
        const NAMES: [&str; 11] = [
            "send",
            "recv",
            "denied",
            "rate-limited",
            "fault",
            "fail-stop",
            "preempt",
            "cap-op",
            "reconfig",
            "note",
            "remote",
        ];
        NAMES[self.counter_slot()]
    }
}

/// A timestamped, tile-attributed event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    /// When it happened.
    pub at: Cycle,
    /// Which tile's monitor observed it.
    pub tile: u16,
    /// What happened.
    pub kind: EventKind,
}

impl fmt::Display for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{:>8}] tile {:>3} {:<12} ",
            self.at,
            self.tile,
            self.kind.name()
        )?;
        match &self.kind {
            EventKind::MsgSend {
                dst,
                kind,
                tag,
                bytes,
            } => {
                write!(f, "-> tile {dst} kind={kind} tag={tag} {bytes}B")
            }
            EventKind::MsgRecv {
                src,
                kind,
                tag,
                bytes,
            } => {
                write!(f, "<- tile {src} kind={kind} tag={tag} {bytes}B")
            }
            EventKind::SendDenied { dst } => write!(f, "-> tile {dst}"),
            EventKind::RateLimited { dst } => write!(f, "-> tile {dst}"),
            EventKind::Fault { code } => write!(f, "code={code}"),
            EventKind::Preempt { context } => write!(f, "ctx={context}"),
            EventKind::CapOp { op } => write!(f, "{op}"),
            EventKind::Note(s) => write!(f, "{s}"),
            EventKind::Remote { phase, board, tag } => {
                write!(f, "{} board {board} tag={tag}", phase.as_str())
            }
            EventKind::FailStop | EventKind::Reconfig => Ok(()),
        }
    }
}

/// A bounded, overwrite-oldest trace buffer with per-kind counters.
///
/// Counters are never lost to ring eviction, so security-relevant tallies
/// (denials, rate-limit hits) stay exact even when the event log wraps.
///
/// # Examples
///
/// ```
/// use apiary_sim::Cycle;
/// use apiary_trace::{EventKind, Tracer};
///
/// let mut t = Tracer::new(128);
/// t.record(Cycle(5), 2, EventKind::FailStop);
/// assert_eq!(t.count(&EventKind::FailStop), 1);
/// assert_eq!(t.events().count(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct Tracer {
    ring: VecDeque<Event>,
    capacity: usize,
    counts: [u64; 11],
    dropped: u64,
}

impl Tracer {
    /// Creates a tracer holding up to `capacity` events.
    pub fn new(capacity: usize) -> Tracer {
        Tracer {
            ring: VecDeque::with_capacity(capacity.min(4096)),
            capacity,
            counts: [0; 11],
            dropped: 0,
        }
    }

    /// Records an event.
    pub fn record(&mut self, at: Cycle, tile: u16, kind: EventKind) {
        self.counts[kind.counter_slot()] += 1;
        if self.capacity == 0 {
            return;
        }
        if self.ring.len() == self.capacity {
            self.ring.pop_front();
            self.dropped += 1;
        }
        self.ring.push_back(Event { at, tile, kind });
    }

    /// Exact count of events of the same kind-variant as `probe`
    /// (field values in `probe` are ignored).
    pub fn count(&self, probe: &EventKind) -> u64 {
        self.counts[probe.counter_slot()]
    }

    /// Events currently buffered, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &Event> {
        self.ring.iter()
    }

    /// Events evicted from the ring so far.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Renders the buffer as text, one event per line.
    pub fn render(&self) -> String {
        use core::fmt::Write;
        let mut out = String::new();
        for e in &self.ring {
            let _ = writeln!(out, "{e}");
        }
        out
    }

    /// Clears buffered events (counters are kept).
    pub fn clear(&mut self) {
        self.ring.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn send(dst: u16) -> EventKind {
        EventKind::MsgSend {
            dst,
            kind: 1,
            tag: 9,
            bytes: 64,
        }
    }

    #[test]
    fn records_and_counts() {
        let mut t = Tracer::new(16);
        t.record(Cycle(1), 0, send(1));
        t.record(Cycle(2), 0, send(2));
        t.record(Cycle(3), 1, EventKind::SendDenied { dst: 0 });
        assert_eq!(t.count(&send(0)), 2, "field values ignored in counting");
        assert_eq!(t.count(&EventKind::SendDenied { dst: 99 }), 1);
        assert_eq!(t.events().count(), 3);
    }

    #[test]
    fn ring_evicts_oldest_but_keeps_counts() {
        let mut t = Tracer::new(2);
        for i in 0..5 {
            t.record(Cycle(i), 0, send(i as u16));
        }
        assert_eq!(t.events().count(), 2);
        assert_eq!(t.count(&send(0)), 5);
        assert_eq!(t.dropped(), 3);
        // Oldest two were evicted; the buffer holds events 3 and 4.
        let dsts: Vec<u16> = t
            .events()
            .map(|e| match e.kind {
                EventKind::MsgSend { dst, .. } => dst,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(dsts, vec![3, 4]);
    }

    #[test]
    fn counters_only_mode() {
        let mut t = Tracer::new(0);
        t.record(Cycle(1), 0, EventKind::FailStop);
        assert_eq!(t.count(&EventKind::FailStop), 1);
        assert_eq!(t.events().count(), 0);
    }

    #[test]
    fn remote_events_count_and_render() {
        let mut t = Tracer::new(8);
        t.record(
            Cycle(1),
            0,
            EventKind::Remote {
                phase: RemotePhase::Send,
                board: 2,
                tag: 77,
            },
        );
        t.record(
            Cycle(9),
            0,
            EventKind::Remote {
                phase: RemotePhase::Reply,
                board: 2,
                tag: 77,
            },
        );
        assert_eq!(
            t.count(&EventKind::Remote {
                phase: RemotePhase::Send,
                board: 0,
                tag: 0
            }),
            2
        );
        let s = t.render();
        assert!(s.contains("remote"));
        assert!(s.contains("send board 2 tag=77"));
        assert!(s.contains("reply board 2 tag=77"));
    }

    #[test]
    fn remote_phases_keep_their_trace_spellings() {
        // Rendered traces are diffed byte for byte; these are their words.
        use RemotePhase::*;
        let all = [
            Send,
            Retransmit,
            Reply,
            BreakerOpen,
            MigrateQuiesce,
            MigrateXfer,
            MigrateRestore,
            MigrateDone,
        ];
        assert_eq!(
            all.map(RemotePhase::as_str),
            [
                "send",
                "retransmit",
                "reply",
                "breaker-open",
                "migrate-quiesce",
                "migrate-xfer",
                "migrate-restore",
                "migrate-done",
            ]
        );
    }

    #[test]
    fn render_contains_fields() {
        let mut t = Tracer::new(4);
        t.record(Cycle(42), 3, send(9));
        let s = t.render();
        assert!(s.contains("tile   3"));
        assert!(s.contains("tag=9"));
        assert!(s.contains("64B"));
    }
}
