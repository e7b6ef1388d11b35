//! The messages boards exchange over the fabric and their wire format.
//!
//! One parser reads a frame and one writer per body writes it. The owned
//! form ([`ClusterMsg`]) is what a caller builds and [`ClusterMsg::decode`]
//! returns; the fabric itself delivers a [`MsgView`], whose byte fields are
//! views of the frame they arrived in and whose gossip entries are read
//! from its bytes where they lie. Both come out of the same parser, so they
//! accept exactly the same frames.

use crate::directory::DirEntry;
use apiary_cap::ServiceId;
use apiary_noc::NodeId;
use apiary_sim::{Cycle, Payload, Reader};
use std::ops::Range;

/// A message between boards.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterMsg {
    /// Originating board.
    pub src: u16,
    /// Destination board.
    pub dst: u16,
    /// What it carries.
    pub body: Body,
}

/// Fabric message bodies.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Body {
    /// Remote capability invocation: run `service` on the destination
    /// board, reply with the end-to-end `tag`.
    Invoke {
        /// Target service id on the destination board.
        service: u32,
        /// End-to-end correlation tag.
        tag: u64,
        /// Request payload.
        payload: Vec<u8>,
    },
    /// Response to an [`Body::Invoke`].
    Reply {
        /// End-to-end correlation tag.
        tag: u64,
        /// The invocation failed (service missing, tile fail-stopped, …).
        is_error: bool,
        /// Response payload.
        payload: Vec<u8>,
    },
    /// Anti-entropy directory exchange.
    Gossip {
        /// Full snapshot of the sender's directory.
        entries: Vec<DirEntry>,
    },
    /// Live-migration state transfer: the source board ships `name`'s
    /// quiesced snapshot to the destination. Transfer time is whatever the
    /// link's bandwidth/latency model charges these bytes — blackout
    /// scales with state size by construction.
    Migrate {
        /// Service id the destination should adopt.
        service: u32,
        /// Directory name of the replica being moved.
        name: String,
        /// The service's raw architectural state, as
        /// [`apiary_accel::Accelerator::save_state`] returned it.
        snapshot: Vec<u8>,
    },
}

/// A message as the fabric delivers it: parsed where it landed, every
/// byte field a view of the frame ([`Payload::slice`]), so nothing is
/// copied out of it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MsgView {
    /// Originating board.
    pub src: u16,
    /// Destination board.
    pub dst: u16,
    /// What it carries.
    pub body: BodyView,
}

/// [`Body`], read in place.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BodyView {
    /// [`Body::Invoke`].
    Invoke {
        /// Target service id on the destination board.
        service: u32,
        /// End-to-end correlation tag.
        tag: u64,
        /// Request payload, a view of the frame.
        payload: Payload,
    },
    /// [`Body::Reply`].
    Reply {
        /// End-to-end correlation tag.
        tag: u64,
        /// The invocation failed.
        is_error: bool,
        /// Response payload, a view of the frame.
        payload: Payload,
    },
    /// [`Body::Gossip`]: the entries, checked and left in the frame.
    Gossip(Gossip),
    /// [`Body::Migrate`].
    Migrate {
        /// Service id the destination should adopt.
        service: u32,
        /// Directory name of the replica being moved.
        name: String,
        /// The service's state, a view of the frame.
        snapshot: Payload,
    },
}

/// A gossiped directory snapshot as it landed: every entry was read once
/// when the frame arrived (a malformed one drops the frame), and
/// [`Gossip::entries`] reads them again from the frame's bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Gossip {
    count: u16,
    /// The frame's entry bytes.
    entries: Payload,
}

impl Gossip {
    /// The entries, in the sender's `(name, home)` order, borrowed from
    /// the frame.
    pub fn entries(&self) -> impl Iterator<Item = EntryRef<'_>> {
        let mut r = Reader::new(&self.entries);
        (0..self.count).map_while(move |_| read_entry(&mut r))
    }
}

/// One directory entry as a gossip frame carries it, its name borrowed
/// from the frame: [`DirEntry`] without the name's allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EntryRef<'a> {
    /// Logical service name.
    pub name: &'a str,
    /// Board that published (and owns) this binding.
    pub home: u16,
    /// Node hosting the replica on its home board.
    pub node: NodeId,
    /// The service id clients invoke.
    pub service: ServiceId,
    /// The home board's version of the binding.
    pub version: u64,
    /// Lease deadline.
    pub expires_at: Cycle,
    /// Tombstone flag.
    pub withdrawn: bool,
}

impl From<EntryRef<'_>> for DirEntry {
    fn from(e: EntryRef<'_>) -> DirEntry {
        DirEntry {
            name: e.name.to_string(),
            home: e.home,
            node: e.node,
            service: e.service,
            version: e.version,
            expires_at: e.expires_at,
            withdrawn: e.withdrawn,
        }
    }
}

/// Wire tags of the four bodies.
const INVOKE: u8 = 0;
const REPLY: u8 = 1;
const GOSSIP: u8 = 2;
const MIGRATE: u8 = 3;

/// Bytes of an entry besides its name.
const ENTRY_FIXED: usize = 27;

/// A frame's header: the `src`/`dst` the switch routes on, then the
/// body's tag, in a buffer sized for `body` more bytes.
fn frame(src: u16, dst: u16, tag: u8, body: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(5 + body);
    out.extend_from_slice(&src.to_le_bytes());
    out.extend_from_slice(&dst.to_le_bytes());
    out.push(tag);
    out
}

/// The frame of a [`Body::Invoke`].
pub(crate) fn invoke(src: u16, dst: u16, service: u32, tag: u64, payload: &[u8]) -> Vec<u8> {
    let mut out = frame(src, dst, INVOKE, 16 + payload.len());
    out.extend_from_slice(&service.to_le_bytes());
    out.extend_from_slice(&tag.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// The frame of a [`Body::Reply`].
pub(crate) fn reply(src: u16, dst: u16, tag: u64, is_error: bool, payload: &[u8]) -> Vec<u8> {
    let mut out = frame(src, dst, REPLY, 13 + payload.len());
    out.push(u8::from(is_error));
    out.extend_from_slice(&tag.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// The frame of a [`Body::Gossip`] carrying `entries`, written straight
/// from wherever they are held.
pub(crate) fn gossip<'a, I>(src: u16, dst: u16, entries: I) -> Vec<u8>
where
    I: Iterator<Item = &'a DirEntry> + Clone,
{
    let (count, bulk) = entries.clone().fold((0usize, 0), |(n, b), e| {
        (n + 1, b + ENTRY_FIXED + e.name.len())
    });
    let mut out = frame(src, dst, GOSSIP, 2 + bulk);
    out.extend_from_slice(&(count as u16).to_le_bytes());
    for e in entries {
        write_entry(&mut out, e);
    }
    out
}

/// The frame of a [`Body::Migrate`].
fn migrate(src: u16, dst: u16, service: u32, name: &str, snapshot: &[u8]) -> Vec<u8> {
    let mut out = frame(src, dst, MIGRATE, 10 + name.len() + snapshot.len());
    out.extend_from_slice(&service.to_le_bytes());
    out.extend_from_slice(&(name.len() as u16).to_le_bytes());
    out.extend_from_slice(name.as_bytes());
    out.extend_from_slice(&(snapshot.len() as u32).to_le_bytes());
    out.extend_from_slice(snapshot);
    out
}

/// The one entry writer.
fn write_entry(out: &mut Vec<u8>, e: &DirEntry) {
    out.extend_from_slice(&e.home.to_le_bytes());
    out.extend_from_slice(&e.node.0.to_le_bytes());
    out.extend_from_slice(&e.service.0.to_le_bytes());
    out.extend_from_slice(&e.version.to_le_bytes());
    out.extend_from_slice(&e.expires_at.0.to_le_bytes());
    out.push(u8::from(e.withdrawn));
    out.extend_from_slice(&(e.name.len() as u16).to_le_bytes());
    out.extend_from_slice(e.name.as_bytes());
}

/// The one entry reader; `None` for a cut entry or a name that is not
/// UTF-8.
fn read_entry<'a>(r: &mut Reader<'a>) -> Option<EntryRef<'a>> {
    let home = r.u16()?;
    let node = NodeId(r.u16()?);
    let service = ServiceId(r.u32()?);
    let version = r.u64()?;
    let expires_at = Cycle(r.u64()?);
    let withdrawn = r.u8()? != 0;
    let name_len = r.u16()? as usize;
    let name = std::str::from_utf8(r.bytes(name_len)?).ok()?;
    Some(EntryRef {
        name,
        home,
        node,
        service,
        version,
        expires_at,
        withdrawn,
    })
}

/// A well-formed frame's fields, borrowed from it.
enum Fields<'a> {
    Invoke {
        service: u32,
        tag: u64,
        payload: &'a [u8],
    },
    Reply {
        tag: u64,
        is_error: bool,
        payload: &'a [u8],
    },
    /// `count` entries, each read once, filling `entries`.
    Gossip { count: u16, entries: &'a [u8] },
    Migrate {
        service: u32,
        name: &'a str,
        snapshot: &'a [u8],
    },
}

/// The one parser: `(src, dst, fields)`, or `None` for malformed bytes
/// (a cut field, an unknown tag, a name that is not UTF-8, trailing
/// bytes).
fn parse(buf: &[u8]) -> Option<(u16, u16, Fields<'_>)> {
    let mut r = Reader::new(buf);
    let src = r.u16()?;
    let dst = r.u16()?;
    let fields = match r.u8()? {
        INVOKE => {
            let service = r.u32()?;
            let tag = r.u64()?;
            let len = r.u32()? as usize;
            let payload = r.bytes(len)?;
            Fields::Invoke {
                service,
                tag,
                payload,
            }
        }
        REPLY => {
            let is_error = r.u8()? != 0;
            let tag = r.u64()?;
            let len = r.u32()? as usize;
            let payload = r.bytes(len)?;
            Fields::Reply {
                tag,
                is_error,
                payload,
            }
        }
        GOSSIP => {
            let count = r.u16()?;
            let entries = r.rest();
            r = Reader::new(entries);
            for _ in 0..count {
                read_entry(&mut r)?;
            }
            Fields::Gossip { count, entries }
        }
        MIGRATE => {
            let service = r.u32()?;
            let name_len = r.u16()? as usize;
            let name = std::str::from_utf8(r.bytes(name_len)?).ok()?;
            let len = r.u32()? as usize;
            let snapshot = r.bytes(len)?;
            Fields::Migrate {
                service,
                name,
                snapshot,
            }
        }
        _ => return None,
    };
    r.is_empty().then_some((src, dst, fields))
}

/// Where `part`, a sub-slice of `whole`, lies in it.
fn within(whole: &[u8], part: &[u8]) -> Range<usize> {
    let start = part.as_ptr() as usize - whole.as_ptr() as usize;
    start..start + part.len()
}

impl ClusterMsg {
    /// Serialises for the wire. The switch routes on the 4-byte
    /// `src`/`dst` header, which rides in-band like any real switch expects.
    pub fn encode(&self) -> Vec<u8> {
        let (src, dst) = (self.src, self.dst);
        match &self.body {
            Body::Invoke {
                service,
                tag,
                payload,
            } => invoke(src, dst, *service, *tag, payload),
            Body::Reply {
                tag,
                is_error,
                payload,
            } => reply(src, dst, *tag, *is_error, payload),
            Body::Gossip { entries } => gossip(src, dst, entries.iter()),
            Body::Migrate {
                service,
                name,
                snapshot,
            } => migrate(src, dst, *service, name, snapshot),
        }
    }

    /// Parses a wire payload into owned fields; `None` for malformed
    /// bytes, exactly where [`MsgView::parse`] gives `None`.
    pub fn decode(buf: &[u8]) -> Option<ClusterMsg> {
        let (src, dst, fields) = parse(buf)?;
        let body = match fields {
            Fields::Invoke {
                service,
                tag,
                payload,
            } => Body::Invoke {
                service,
                tag,
                payload: payload.to_vec(),
            },
            Fields::Reply {
                tag,
                is_error,
                payload,
            } => Body::Reply {
                tag,
                is_error,
                payload: payload.to_vec(),
            },
            Fields::Gossip { count, entries } => {
                let mut r = Reader::new(entries);
                let entries = (0..count).map_while(|_| read_entry(&mut r));
                Body::Gossip {
                    entries: entries.map(DirEntry::from).collect(),
                }
            }
            Fields::Migrate {
                service,
                name,
                snapshot,
            } => Body::Migrate {
                service,
                name: name.to_string(),
                snapshot: snapshot.to_vec(),
            },
        };
        Some(ClusterMsg { src, dst, body })
    }
}

impl MsgView {
    /// Parses a frame where it landed; `None` for malformed bytes, exactly
    /// where [`ClusterMsg::decode`] gives `None`. Copies no byte field.
    pub fn parse(frame: &Payload) -> Option<MsgView> {
        let (src, dst, fields) = parse(frame)?;
        let view = |part: &[u8]| frame.slice(within(frame, part));
        let body = match fields {
            Fields::Invoke {
                service,
                tag,
                payload,
            } => BodyView::Invoke {
                service,
                tag,
                payload: view(payload),
            },
            Fields::Reply {
                tag,
                is_error,
                payload,
            } => BodyView::Reply {
                tag,
                is_error,
                payload: view(payload),
            },
            Fields::Gossip { count, entries } => BodyView::Gossip(Gossip {
                count,
                entries: view(entries),
            }),
            Fields::Migrate {
                service,
                name,
                snapshot,
            } => BodyView::Migrate {
                service,
                name: name.to_string(),
                snapshot: view(snapshot),
            },
        };
        Some(MsgView { src, dst, body })
    }
}

/// The source and destination boards in an encoded message's header, the
/// only bytes the switch reads; `None` for a frame too short to carry
/// them.
pub(super) fn route(frame: &[u8]) -> Option<(u16, u16)> {
    let h = frame.get(..4)?;
    Some((
        u16::from_le_bytes([h[0], h[1]]),
        u16::from_le_bytes([h[2], h[3]]),
    ))
}
