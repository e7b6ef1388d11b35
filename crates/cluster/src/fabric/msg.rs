//! The messages boards exchange over the fabric and their wire format.

use crate::directory::DirEntry;
use apiary_cap::ServiceId;
use apiary_noc::NodeId;
use apiary_sim::{Cycle, Reader};

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

impl ClusterMsg {
    /// Serialises for the wire. The switch routes on the 4-byte
    /// `src`/`dst` header, which rides in-band like any real switch expects.
    pub fn encode(&self) -> Vec<u8> {
        // Sized once: the bulk plus the largest fixed part (4 + an invoke's 17).
        let bulk = match &self.body {
            Body::Invoke { payload, .. } | Body::Reply { payload, .. } => payload.len(),
            Body::Gossip { entries } => entries.iter().map(|e| 27 + e.name.len()).sum(),
            Body::Migrate { name, snapshot, .. } => name.len() + snapshot.len(),
        };
        let mut out = Vec::with_capacity(21 + bulk);
        out.extend_from_slice(&self.src.to_le_bytes());
        out.extend_from_slice(&self.dst.to_le_bytes());
        match &self.body {
            Body::Invoke {
                service,
                tag,
                payload,
            } => {
                out.push(0);
                out.extend_from_slice(&service.to_le_bytes());
                out.extend_from_slice(&tag.to_le_bytes());
                out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
                out.extend_from_slice(payload);
            }
            Body::Reply {
                tag,
                is_error,
                payload,
            } => {
                out.push(1);
                out.push(u8::from(*is_error));
                out.extend_from_slice(&tag.to_le_bytes());
                out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
                out.extend_from_slice(payload);
            }
            Body::Gossip { entries } => {
                out.push(2);
                out.extend_from_slice(&(entries.len() as u16).to_le_bytes());
                for e in entries {
                    out.extend_from_slice(&e.home.to_le_bytes());
                    out.extend_from_slice(&e.node.0.to_le_bytes());
                    out.extend_from_slice(&e.service.0.to_le_bytes());
                    out.extend_from_slice(&e.version.to_le_bytes());
                    out.extend_from_slice(&e.expires_at.0.to_le_bytes());
                    out.push(u8::from(e.withdrawn));
                    let name = e.name.as_bytes();
                    out.extend_from_slice(&(name.len() as u16).to_le_bytes());
                    out.extend_from_slice(name);
                }
            }
            Body::Migrate {
                service,
                name,
                snapshot,
            } => {
                out.push(3);
                out.extend_from_slice(&service.to_le_bytes());
                let nb = name.as_bytes();
                out.extend_from_slice(&(nb.len() as u16).to_le_bytes());
                out.extend_from_slice(nb);
                out.extend_from_slice(&(snapshot.len() as u32).to_le_bytes());
                out.extend_from_slice(snapshot);
            }
        }
        out
    }

    /// Parses a wire payload; `None` for malformed bytes.
    pub fn decode(buf: &[u8]) -> Option<ClusterMsg> {
        let mut r = Reader::new(buf);
        let src = r.u16()?;
        let dst = r.u16()?;
        let body = match r.u8()? {
            0 => {
                let service = r.u32()?;
                let tag = r.u64()?;
                let len = r.u32()? as usize;
                Body::Invoke {
                    service,
                    tag,
                    payload: r.bytes(len)?.to_vec(),
                }
            }
            1 => {
                let is_error = r.u8()? != 0;
                let tag = r.u64()?;
                let len = r.u32()? as usize;
                Body::Reply {
                    tag,
                    is_error,
                    payload: r.bytes(len)?.to_vec(),
                }
            }
            2 => {
                let count = r.u16()? as usize;
                // An entry takes at least 27 bytes: a damaged count
                // reserves no more than the frame could hold.
                let mut entries = Vec::with_capacity(count.min(buf.len() / 27));
                for _ in 0..count {
                    let home = r.u16()?;
                    let node = NodeId(r.u16()?);
                    let service = ServiceId(r.u32()?);
                    let version = r.u64()?;
                    let expires_at = Cycle(r.u64()?);
                    let withdrawn = r.u8()? != 0;
                    let name_len = r.u16()? as usize;
                    let name = String::from_utf8(r.bytes(name_len)?.to_vec()).ok()?;
                    entries.push(DirEntry {
                        name,
                        home,
                        node,
                        service,
                        version,
                        expires_at,
                        withdrawn,
                    });
                }
                Body::Gossip { entries }
            }
            3 => {
                let service = r.u32()?;
                let name_len = r.u16()? as usize;
                let name = String::from_utf8(r.bytes(name_len)?.to_vec()).ok()?;
                let len = r.u32()? as usize;
                Body::Migrate {
                    service,
                    name,
                    snapshot: r.bytes(len)?.to_vec(),
                }
            }
            _ => return None,
        };
        r.is_empty().then_some(ClusterMsg { src, dst, body })
    }
}

/// The destination board in an encoded message's header, the only bytes
/// the switch reads; `None` for a frame too short to carry one.
pub(super) fn dst(frame: &[u8]) -> Option<u16> {
    frame.get(2..4).map(|d| u16::from_le_bytes([d[0], d[1]]))
}
