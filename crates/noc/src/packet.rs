//! Messages, packets and flits.

use crate::topology::NodeId;
use apiary_sim::{Cycle, Payload};
use core::fmt;

/// Traffic class, mapped one-to-one onto virtual channels.
///
/// Lower classes win arbitration. The OS reserves [`TrafficClass::Control`]
/// for monitor/kernel traffic so that a flooded data network can never choke
/// fault handling — one of the isolation levers of §4.5.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum TrafficClass {
    /// OS control-plane traffic (capability ops, fault notices).
    Control = 0,
    /// Latency-sensitive request/response traffic.
    #[default]
    Request = 1,
    /// Bulk data movement.
    Bulk = 2,
}

impl TrafficClass {
    /// All classes, highest priority first.
    pub const ALL: [TrafficClass; 3] = [
        TrafficClass::Control,
        TrafficClass::Request,
        TrafficClass::Bulk,
    ];

    /// The virtual-channel index this class rides on.
    pub const fn vc(self) -> usize {
        self as usize
    }
}

/// A unique packet identifier, assigned at injection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct PacketId(pub u64);

/// An application-level message, the unit handed to and from the NoC.
///
/// `kind`, `tag` and `badge` are opaque to the NoC; higher layers (the
/// monitor and kernel) give them meaning. The NoC charges `header_bytes +
/// payload.len()` bytes of link capacity for the message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Message {
    /// Source node (stamped by the injecting monitor; untrusted logic cannot
    /// forge it).
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
    /// Traffic class / virtual channel.
    pub class: TrafficClass,
    /// Message type, interpreted by the OS layer.
    pub kind: u16,
    /// Request/response correlation tag.
    pub tag: u64,
    /// Badge of the capability the sender used (stamped by the monitor).
    pub badge: u64,
    /// Payload bytes, held by refcounted handle: forwarding, retransmitting
    /// or keeping a message never copies the bytes.
    pub payload: Payload,
}

impl Message {
    /// Creates a message with empty metadata.
    pub fn new(
        src: NodeId,
        dst: NodeId,
        class: TrafficClass,
        payload: impl Into<Payload>,
    ) -> Message {
        Message {
            src,
            dst,
            class,
            kind: 0,
            tag: 0,
            badge: 0,
            payload: payload.into(),
        }
    }

    /// Total wire size in bytes, including the header.
    pub fn wire_bytes(&self, header_bytes: usize) -> usize {
        header_bytes + self.payload.len()
    }
}

/// One flit of a packet: plain `Copy` data. The message itself stays in
/// the [`PacketTable`] entry `slot` names, so moving a flit from one router
/// to the next copies 12 bytes and drops nothing.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Flit {
    /// The packet's [`PacketTable`] slot. A slot is freed only once no flit
    /// names it, so it identifies the packet while the flit exists.
    pub slot: u32,
    /// Destination node (replicated so body flits can be audited).
    pub dst: NodeId,
    /// Virtual channel.
    pub vc: u8,
    /// `true` on the first flit of the packet.
    pub is_head: bool,
    /// `true` on the last flit of the packet (a single-flit packet's head is
    /// also its tail).
    pub is_tail: bool,
    /// Damaged in transit: a CRC-protected link that fails its check. Set by
    /// fault injection; the ejecting node reads it, so corruption is
    /// *detected* (and the packet dropped) rather than silently delivered.
    pub damaged: bool,
    /// While the flit is crossing a link: the slot of the network's landing
    /// schedule that lists it. Set by the switch at every hop.
    pub due: u8,
}

impl Flit {
    /// Forms flit `index` of an `nflits`-flit packet.
    pub fn form(slot: u32, dst: NodeId, vc: u8, index: u32, nflits: u32) -> Flit {
        Flit {
            slot,
            dst,
            vc,
            is_head: index == 0,
            is_tail: index + 1 == nflits,
            damaged: false,
            due: 0,
        }
    }

    /// Marks the flit as damaged in transit. Idempotent: crossing several
    /// faulty links stays detectable.
    pub fn corrupt(&mut self) {
        self.damaged = true;
    }
}

/// Flits a message occupies on the wire: `flit_bytes` of data per flit, the
/// header in front, and at least one flit per packet.
pub(crate) fn flits_for(msg: &Message, flit_bytes: usize, header_bytes: usize) -> usize {
    msg.wire_bytes(header_bytes).div_ceil(flit_bytes).max(1)
}

/// What the network remembers about one in-flight packet.
#[derive(Debug)]
pub(crate) struct PacketEntry {
    /// The packet's id; every flit naming this slot carries the same one.
    pub id: PacketId,
    /// Cycle of the `try_inject` call.
    pub injected_at: Cycle,
    /// The message, handed over at delivery.
    pub msg: Message,
    /// The head flit has been ejected at the destination.
    pub head_ejected: bool,
    /// A flit arrived corrupt: the packet is dropped when its tail ejects.
    pub poisoned: bool,
}

/// In-flight packets in a slab with a free list. An entry lives from
/// `try_inject` until delivery, drop-at-tail or purge, so it outlives every
/// flit that names it. Slot numbers are reused LIFO; that order is
/// deterministic and never observable (only `PacketId`s leave the crate).
#[derive(Debug, Default)]
pub(crate) struct PacketTable {
    entries: Vec<Option<PacketEntry>>,
    free: Vec<u32>,
}

impl PacketTable {
    /// Stores `entry`, returning its slot.
    pub fn insert(&mut self, entry: PacketEntry) -> u32 {
        let slot = self.free.pop().unwrap_or_else(|| {
            self.entries.push(None);
            u32::try_from(self.entries.len() - 1).expect("packet slots fit u32")
        });
        self.entries[slot as usize] = Some(entry);
        slot
    }

    /// The live entry at `slot`, if any.
    pub fn get(&self, slot: u32) -> Option<&PacketEntry> {
        self.entries.get(slot as usize)?.as_ref()
    }

    /// The live entry at `slot`, if any, for update.
    pub fn get_mut(&mut self, slot: u32) -> Option<&mut PacketEntry> {
        self.entries.get_mut(slot as usize)?.as_mut()
    }

    /// Frees `slot`, returning its entry if it was live.
    pub fn remove(&mut self, slot: u32) -> Option<PacketEntry> {
        let entry = self.entries.get_mut(slot as usize)?.take();
        if entry.is_some() {
            self.free.push(slot);
        }
        entry
    }

    /// Every live entry with its slot, in slot order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &PacketEntry)> {
        let slots = self.entries.iter().enumerate();
        slots.filter_map(|(slot, e)| Some((slot as u32, e.as_ref()?)))
    }

    /// Number of live entries.
    pub fn live(&self) -> usize {
        self.entries.len() - self.free.len()
    }
}

/// A message delivered at its destination's local port, with timing.
#[derive(Debug, Clone)]
pub struct Delivered {
    /// The message.
    pub msg: Message,
    /// Cycle the head flit entered the network.
    pub injected_at: Cycle,
    /// Cycle the tail flit left the network.
    pub delivered_at: Cycle,
}

impl Delivered {
    /// Network latency in cycles (inject to eject, inclusive of queueing).
    pub fn latency(&self) -> u64 {
        self.delivered_at - self.injected_at
    }
}

impl fmt::Display for Delivered {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} -> {} ({} B, {} cyc)",
            self.msg.src,
            self.msg.dst,
            self.msg.payload.len(),
            self.latency()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn msg(bytes: usize) -> Message {
        Message::new(NodeId(0), NodeId(1), TrafficClass::Request, vec![0; bytes])
    }

    fn flits(msg: Message) -> Vec<Flit> {
        let n = flits_for(&msg, 16, 8) as u32;
        (0..n)
            .map(|i| Flit::form(0, msg.dst, msg.class.vc() as u8, i, n))
            .collect()
    }

    #[test]
    fn single_flit_message() {
        let flits = flits(msg(0));
        assert_eq!(flits.len(), 1);
        assert!(flits[0].is_tail);
        assert!(flits[0].is_head);
    }

    #[test]
    fn flit_count_matches_wire_size() {
        // 8-byte header + 100-byte payload = 108 bytes = 7 x 16 B flits.
        let flits = flits(msg(100));
        assert_eq!(flits.len(), 7);
        assert!(flits[6].is_tail);
        assert!(!flits[0].is_tail);
        assert!(flits[1..].iter().all(|f| !f.is_head));
    }

    #[test]
    fn exact_multiple_has_no_extra_flit() {
        // 8 + 24 = 32 bytes = exactly 2 x 16.
        assert_eq!(flits_for(&msg(24), 16, 8), 2);
    }

    #[test]
    fn class_maps_to_vc() {
        assert_eq!(TrafficClass::Control.vc(), 0);
        assert_eq!(TrafficClass::Request.vc(), 1);
        assert_eq!(TrafficClass::Bulk.vc(), 2);
        let mut m = msg(0);
        m.class = TrafficClass::Bulk;
        assert_eq!(flits(m)[0].vc, 2);
    }

    #[test]
    fn corruption_marks_one_flit_and_sticks() {
        let mut flits = flits(msg(100));
        assert!(flits.iter().all(|f| !f.damaged), "formed intact");
        flits[3].corrupt();
        assert!(flits[3].damaged);
        flits[3].corrupt();
        assert!(flits[3].damaged, "double corruption stays detected");
        let damaged: Vec<usize> = (0..flits.len()).filter(|&i| flits[i].damaged).collect();
        assert_eq!(damaged, [3], "damage is per flit");
    }

    #[test]
    fn flits_are_small_plain_data() {
        assert_eq!(core::mem::size_of::<Flit>(), 12);
        assert!(!core::mem::needs_drop::<Flit>());
    }

    #[test]
    fn packet_table_reuses_freed_slots() {
        let entry = |id| PacketEntry {
            id: PacketId(id),
            injected_at: Cycle(0),
            msg: msg(0),
            head_ejected: false,
            poisoned: false,
        };
        let mut t = PacketTable::default();
        let (a, b) = (t.insert(entry(1)), t.insert(entry(2)));
        assert_eq!(t.live(), 2);
        assert_eq!(t.remove(a).map(|e| e.id), Some(PacketId(1)));
        assert!(t.remove(a).is_none(), "double free is a no-op");
        assert!(t.get(a).is_none());
        assert_eq!(t.live(), 1);
        assert_eq!(t.insert(entry(3)), a, "freed slot is reused");
        assert_eq!(t.get(b).map(|e| e.id), Some(PacketId(2)));
        assert_eq!(t.get_mut(a).map(|e| e.id), Some(PacketId(3)));
    }

    #[test]
    fn delivered_latency() {
        let d = Delivered {
            msg: msg(1),
            injected_at: Cycle(10),
            delivered_at: Cycle(35),
        };
        assert_eq!(d.latency(), 25);
    }
}
