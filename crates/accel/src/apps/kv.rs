//! A multi-tenant key-value store (the "independent KV-store application"
//! of §2, after Caribou).
//!
//! Tenancy comes from capability badges: the kernel badges each client's
//! endpoint capability, the monitor stamps the badge into every message,
//! and the store namespaces keys by badge. Tenants cannot observe one
//! another's keys even though they share the accelerator — and because the
//! store externalizes its state, it is *preemptible* (§4.4): the kernel can
//! swap it out and back without losing data.
//!
//! Request payload:
//! `[op: u8][klen: u16][key][vlen: u16][value]` (value only for PUT).
//! Response payload: `[status: u8]` then `[vlen: u16][value]` for GET hits.

use crate::accelerator::{ServerAccel, Service, ServiceAction, ServiceReply, StateError};
use crate::os::TileOs;
use apiary_noc::Delivered;
use apiary_sim::Reader;
use std::collections::BTreeMap;

/// Operations.
pub mod op {
    /// Read a key.
    pub const GET: u8 = 1;
    /// Write a key.
    pub const PUT: u8 = 2;
    /// Delete a key.
    pub const DEL: u8 = 3;
}

/// Response status codes.
pub mod status {
    /// Success (GET hit, PUT stored, DEL removed).
    pub const OK: u8 = 0;
    /// GET/DEL on an absent key.
    pub const NOT_FOUND: u8 = 1;
    /// Request did not parse.
    pub const MALFORMED: u8 = 2;
}

/// Builds a GET request payload.
pub fn get_req(key: &[u8]) -> Vec<u8> {
    let mut p = vec![op::GET];
    p.extend_from_slice(&(key.len() as u16).to_le_bytes());
    p.extend_from_slice(key);
    p
}

/// Builds a PUT request payload.
pub fn put_req(key: &[u8], value: &[u8]) -> Vec<u8> {
    let mut p = vec![op::PUT];
    p.extend_from_slice(&(key.len() as u16).to_le_bytes());
    p.extend_from_slice(key);
    p.extend_from_slice(&(value.len() as u16).to_le_bytes());
    p.extend_from_slice(value);
    p
}

/// Builds a DEL request payload.
pub fn del_req(key: &[u8]) -> Vec<u8> {
    let mut p = vec![op::DEL];
    p.extend_from_slice(&(key.len() as u16).to_le_bytes());
    p.extend_from_slice(key);
    p
}

/// Parses a response payload into `(status, value)`.
pub fn parse_resp(payload: &[u8]) -> Option<(u8, Option<&[u8]>)> {
    let status = *payload.first()?;
    if payload.len() > 1 {
        let vlen = u16::from_le_bytes(payload[1..3].try_into().ok()?) as usize;
        if payload.len() != 3 + vlen {
            return None;
        }
        Some((status, Some(&payload[3..])))
    } else {
        Some((status, None))
    }
}

struct Parsed<'a> {
    op: u8,
    key: &'a [u8],
    value: Option<&'a [u8]>,
}

fn parse_req(p: &[u8]) -> Option<Parsed<'_>> {
    if p.len() < 3 {
        return None;
    }
    let op = p[0];
    let klen = u16::from_le_bytes(p[1..3].try_into().ok()?) as usize;
    if p.len() < 3 + klen {
        return None;
    }
    let key = &p[3..3 + klen];
    let rest = &p[3 + klen..];
    match op {
        self::op::GET | self::op::DEL => {
            if !rest.is_empty() {
                return None;
            }
            Some(Parsed {
                op,
                key,
                value: None,
            })
        }
        self::op::PUT => {
            if rest.len() < 2 {
                return None;
            }
            let vlen = u16::from_le_bytes(rest[0..2].try_into().ok()?) as usize;
            if rest.len() != 2 + vlen {
                return None;
            }
            Some(Parsed {
                op,
                key,
                value: Some(&rest[2..]),
            })
        }
        _ => None,
    }
}

/// The store: keys namespaced by tenant badge.
#[derive(Debug, Clone, Default)]
pub struct KvStoreService {
    map: BTreeMap<(u64, Vec<u8>), Vec<u8>>,
    /// Operations served, by (gets, puts, dels).
    pub ops: (u64, u64, u64),
    /// Per-request base cost in cycles (hash + BRAM access pipeline).
    pub base_cost: u64,
}

impl KvStoreService {
    /// Creates an empty store with a default 8-cycle access pipeline.
    pub fn new() -> KvStoreService {
        KvStoreService {
            base_cost: 8,
            ..KvStoreService::default()
        }
    }

    /// Number of live keys across all tenants.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Returns `true` when no tenant has data.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Keys held by one tenant (tests and admin tooling).
    pub fn tenant_len(&self, badge: u64) -> usize {
        self.map.range((badge, vec![])..(badge + 1, vec![])).count()
    }

    /// Admin insert bypassing the wire protocol (preloading experiments
    /// and tests with a known population).
    pub fn insert(&mut self, badge: u64, key: &[u8], value: &[u8]) {
        self.map.insert((badge, key.to_vec()), value.to_vec());
    }

    /// Admin read bypassing the wire protocol (retention audits).
    pub fn get(&self, badge: u64, key: &[u8]) -> Option<&[u8]> {
        self.map.get(&(badge, key.to_vec())).map(|v| v.as_slice())
    }
}

impl Service for KvStoreService {
    fn name(&self) -> &'static str {
        "kv-store"
    }

    fn serve(&mut self, req: &Delivered, _os: &mut dyn TileOs) -> ServiceAction {
        let tenant = req.msg.badge;
        let Some(parsed) = parse_req(&req.msg.payload) else {
            return ServiceAction::Reply(ServiceReply::ok(vec![status::MALFORMED], 1));
        };
        let cost = self.base_cost + (parsed.key.len() as u64) / 8;
        let payload = match parsed.op {
            op::GET => {
                self.ops.0 += 1;
                match self.map.get(&(tenant, parsed.key.to_vec())) {
                    Some(v) => {
                        let mut p = vec![status::OK];
                        p.extend_from_slice(&(v.len() as u16).to_le_bytes());
                        p.extend_from_slice(v);
                        p
                    }
                    None => vec![status::NOT_FOUND],
                }
            }
            op::PUT => {
                self.ops.1 += 1;
                let value = parsed.value.expect("parser guarantees value for PUT");
                self.map
                    .insert((tenant, parsed.key.to_vec()), value.to_vec());
                vec![status::OK]
            }
            op::DEL => {
                self.ops.2 += 1;
                match self.map.remove(&(tenant, parsed.key.to_vec())) {
                    Some(_) => vec![status::OK],
                    None => vec![status::NOT_FOUND],
                }
            }
            _ => unreachable!("parser rejects unknown ops"),
        };
        ServiceAction::Reply(ServiceReply::ok(payload, cost))
    }

    /// Externalizes the whole store: `[count: u64]` then per entry
    /// `[badge: u64][klen: u32][key][vlen: u32][value]`, then the
    /// configuration and counters `[base_cost: u64][gets][puts][dels]`.
    /// BTreeMap iteration is sorted, so identical stores always produce
    /// identical bytes.
    fn save(&self) -> Option<Vec<u8>> {
        let mut out = Vec::new();
        out.extend_from_slice(&(self.map.len() as u64).to_le_bytes());
        for ((badge, key), value) in &self.map {
            out.extend_from_slice(&badge.to_le_bytes());
            out.extend_from_slice(&(key.len() as u32).to_le_bytes());
            out.extend_from_slice(key);
            out.extend_from_slice(&(value.len() as u32).to_le_bytes());
            out.extend_from_slice(value);
        }
        out.extend_from_slice(&self.base_cost.to_le_bytes());
        out.extend_from_slice(&self.ops.0.to_le_bytes());
        out.extend_from_slice(&self.ops.1.to_le_bytes());
        out.extend_from_slice(&self.ops.2.to_le_bytes());
        Some(out)
    }

    fn restore(&mut self, state: &[u8]) -> Result<(), StateError> {
        fn parse(state: &[u8]) -> Option<KvStoreService> {
            let mut r = Reader::new(state);
            let mut map = BTreeMap::new();
            for _ in 0..r.u64()? {
                let badge = r.u64()?;
                let klen = r.u32()? as usize;
                let key = r.bytes(klen)?.to_vec();
                let vlen = r.u32()? as usize;
                let value = r.bytes(vlen)?.to_vec();
                map.insert((badge, key), value);
            }
            let base_cost = r.u64()?;
            let ops = (r.u64()?, r.u64()?, r.u64()?);
            r.is_empty().then_some(KvStoreService {
                map,
                ops,
                base_cost,
            })
        }
        *self = parse(state).ok_or(StateError::Corrupt)?;
        Ok(())
    }
}

/// The KV store as an accelerator.
pub type KvStoreAccel = ServerAccel<KvStoreService>;

/// Creates a KV-store accelerator.
pub fn kv_store() -> KvStoreAccel {
    ServerAccel::new(KvStoreService::new())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::accelerator::Accelerator;
    use crate::os::test_os::MockOs;
    use apiary_monitor::wire;
    use apiary_noc::{Message, NodeId, TrafficClass};
    use apiary_sim::Cycle;

    fn deliver(os: &mut MockOs, badge: u64, payload: Vec<u8>) {
        let mut msg = Message::new(NodeId(1), NodeId(0), TrafficClass::Request, payload);
        msg.kind = wire::KIND_REQUEST;
        msg.badge = badge;
        os.deliver(Delivered {
            msg,
            injected_at: Cycle(0),
            delivered_at: Cycle(0),
        });
    }

    fn pump(a: &mut KvStoreAccel, os: &mut MockOs, cycles: u64) {
        for _ in 0..cycles {
            a.wake(os.now(), os);
            os.advance(1);
        }
    }

    #[test]
    fn put_get_del_roundtrip() {
        let mut os = MockOs::new();
        let mut a = kv_store();
        deliver(&mut os, 1, put_req(b"k", b"value!"));
        deliver(&mut os, 1, get_req(b"k"));
        deliver(&mut os, 1, del_req(b"k"));
        deliver(&mut os, 1, get_req(b"k"));
        pump(&mut a, &mut os, 100);
        assert_eq!(os.sent.len(), 4);
        assert_eq!(parse_resp(&os.sent[0].3), Some((status::OK, None)));
        assert_eq!(
            parse_resp(&os.sent[1].3),
            Some((status::OK, Some(b"value!".as_slice())))
        );
        assert_eq!(parse_resp(&os.sent[2].3), Some((status::OK, None)));
        assert_eq!(parse_resp(&os.sent[3].3), Some((status::NOT_FOUND, None)));
    }

    #[test]
    fn tenants_are_isolated_by_badge() {
        let mut os = MockOs::new();
        let mut a = kv_store();
        deliver(&mut os, 100, put_req(b"shared-key", b"tenant A"));
        deliver(&mut os, 200, put_req(b"shared-key", b"tenant B"));
        deliver(&mut os, 100, get_req(b"shared-key"));
        deliver(&mut os, 200, get_req(b"shared-key"));
        deliver(&mut os, 300, get_req(b"shared-key"));
        pump(&mut a, &mut os, 200);
        assert_eq!(
            parse_resp(&os.sent[2].3),
            Some((status::OK, Some(b"tenant A".as_slice())))
        );
        assert_eq!(
            parse_resp(&os.sent[3].3),
            Some((status::OK, Some(b"tenant B".as_slice())))
        );
        // A third tenant sees nothing.
        assert_eq!(parse_resp(&os.sent[4].3), Some((status::NOT_FOUND, None)));
        assert_eq!(a.service().tenant_len(100), 1);
        assert_eq!(a.service().tenant_len(999), 0);
    }

    #[test]
    fn malformed_requests_get_status() {
        let mut os = MockOs::new();
        let mut a = kv_store();
        deliver(&mut os, 1, vec![9, 9]);
        deliver(&mut os, 1, vec![op::PUT, 2, 0, b'k']); // Truncated.
        pump(&mut a, &mut os, 50);
        assert_eq!(os.sent.len(), 2);
        assert_eq!(os.sent[0].3, vec![status::MALFORMED]);
        assert_eq!(os.sent[1].3, vec![status::MALFORMED]);
    }

    #[test]
    fn save_restore_preserves_all_tenants() {
        let mut os = MockOs::new();
        let mut a = kv_store();
        deliver(&mut os, 1, put_req(b"a", b"1"));
        deliver(&mut os, 2, put_req(b"b", b"2"));
        deliver(&mut os, 2, put_req(b"c", &vec![0xCC; 300]));
        pump(&mut a, &mut os, 100);
        assert!(a.is_preemptible());
        let snap = a.save_state().expect("preemptible");

        let mut b = kv_store();
        b.restore_state(&snap).expect("well formed");
        assert_eq!(b.service().len(), 3);
        assert_eq!(b.service().tenant_len(2), 2);

        // Restored store serves the data.
        let mut os2 = MockOs::new();
        deliver(&mut os2, 2, get_req(b"c"));
        pump(&mut b, &mut os2, 100);
        assert_eq!(
            parse_resp(&os2.sent[0].3),
            Some((status::OK, Some(vec![0xCC; 300].as_slice())))
        );
    }

    #[test]
    fn corrupt_snapshot_rejected() {
        let mut a = kv_store();
        assert_eq!(a.restore_state(&[1, 2, 3]), Err(StateError::Corrupt));
        let snap = kv_store().save_state().expect("preemptible");
        // Trailing garbage.
        let mut bad = snap.clone();
        bad.push(0);
        assert_eq!(a.restore_state(&bad), Err(StateError::Corrupt));
    }

    #[test]
    fn request_builders_parse() {
        assert!(parse_req(&get_req(b"key")).is_some());
        assert!(parse_req(&put_req(b"key", b"val")).is_some());
        assert!(parse_req(&del_req(b"key")).is_some());
        assert!(parse_req(&[]).is_none());
        // PUT bytes interpreted as GET (trailing junk) must fail.
        let mut p = get_req(b"key");
        p.push(0);
        assert!(parse_req(&p).is_none());
    }
}
