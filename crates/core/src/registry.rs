//! The service registry tile (§4.3).
//!
//! Service naming in Apiary is an API-layer concern: capabilities name
//! logical [`ServiceId`]s and each monitor's name table resolves them to
//! physical nodes. The kernel seeds those tables, but discovering *which*
//! service id a human-readable name maps to is itself a service — this
//! tile. Accelerators send [`wire::KIND_LOOKUP`] requests carrying a name
//! string and receive the `(service id, node)` binding, which they can use
//! when asking the kernel (via their management interface) for a service
//! capability.
//!
//! Request payload: the UTF-8 service name.
//! Reply payload: `[found: u8][service_id: u32][node: u16]`.

use apiary_accel::{Accelerator, TileOs};
use apiary_cap::ServiceId;
use apiary_monitor::wire;
use apiary_noc::{NodeId, TrafficClass};
use apiary_sim::{Cycle, Wakeup};
use std::collections::BTreeMap;

/// The registry accelerator.
#[derive(Debug, Default)]
pub struct RegistryService {
    entries: BTreeMap<String, (ServiceId, NodeId)>,
    /// Lookups served.
    pub lookups: u64,
    /// Lookups that missed.
    pub misses: u64,
}

impl RegistryService {
    /// Creates an empty registry.
    pub fn new() -> RegistryService {
        RegistryService::default()
    }

    /// Publishes a binding (kernel/management plane). Returns the binding
    /// this publish displaced, if the name was already taken — silently
    /// overwriting a live service's name is how split-brain directories
    /// start, so callers get to notice and withdraw-then-republish instead.
    ///
    /// Flow-cache contract: the registry only maps *names* to service ids;
    /// it never changes where a monitor's service table points. Rebinding a
    /// service to a new node goes through [`crate::System::bind_service`],
    /// which calls `Monitor::bind_service` on the client tile — and that
    /// call invalidates the monitor's flow-verdict cache, so a cached
    /// (capability, destination) verdict can never outlive a rebind.
    pub fn publish(
        &mut self,
        name: &str,
        service: ServiceId,
        node: NodeId,
    ) -> Option<(ServiceId, NodeId)> {
        self.entries.insert(name.to_string(), (service, node))
    }

    /// Removes a binding; returns whether it existed.
    pub fn withdraw(&mut self, name: &str) -> bool {
        self.entries.remove(name).is_some()
    }

    /// Looks up a binding by name (kernel/management plane; accelerators use
    /// [`wire::KIND_LOOKUP`] messages instead).
    pub fn lookup(&self, name: &str) -> Option<(ServiceId, NodeId)> {
        self.entries.get(name).copied()
    }

    /// Number of published bindings.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` when nothing is published.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Encodes a reply payload.
    fn encode_reply(entry: Option<&(ServiceId, NodeId)>) -> Vec<u8> {
        match entry {
            Some((sid, node)) => {
                let mut p = vec![1u8];
                p.extend_from_slice(&sid.0.to_le_bytes());
                p.extend_from_slice(&node.0.to_le_bytes());
                p
            }
            None => vec![0u8],
        }
    }
}

/// Decodes a registry reply into `Some((service, node))` or `None` for a
/// miss; `None` is also returned for malformed payloads.
pub fn decode_lookup_reply(payload: &[u8]) -> Option<Option<(ServiceId, NodeId)>> {
    match payload.first()? {
        0 => Some(None),
        1 => {
            if payload.len() != 7 {
                return None;
            }
            let sid = u32::from_le_bytes(payload[1..5].try_into().ok()?);
            let node = u16::from_le_bytes(payload[5..7].try_into().ok()?);
            Some(Some((ServiceId(sid), NodeId(node))))
        }
        _ => None,
    }
}

impl Accelerator for RegistryService {
    fn name(&self) -> &'static str {
        "registry"
    }

    fn as_any(&self) -> &dyn core::any::Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn core::any::Any {
        self
    }

    fn wake(&mut self, _now: Cycle, os: &mut dyn TileOs) -> Wakeup {
        while let Some(req) = os.recv() {
            if req.msg.kind != wire::KIND_LOOKUP {
                continue;
            }
            self.lookups += 1;
            let name = String::from_utf8_lossy(&req.msg.payload);
            let entry = self.entries.get(name.as_ref());
            if entry.is_none() {
                self.misses += 1;
            }
            let _ = os.reply(
                &req,
                wire::KIND_LOOKUP_REPLY,
                TrafficClass::Control,
                Self::encode_reply(entry).into(),
            );
        }
        // Purely reactive: nothing to do until the next lookup arrives.
        Wakeup::OnMessage
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apiary_accel::os::test_os::MockOs;
    use apiary_noc::{Delivered, Message};
    use apiary_sim::Cycle;

    fn lookup(name: &str) -> Delivered {
        let mut msg = Message::new(
            NodeId(1),
            NodeId(0),
            TrafficClass::Control,
            name.as_bytes().to_vec(),
        );
        msg.kind = wire::KIND_LOOKUP;
        Delivered {
            msg,
            injected_at: Cycle(0),
            delivered_at: Cycle(0),
        }
    }

    #[test]
    fn hit_and_miss() {
        let mut os = MockOs::new();
        let mut r = RegistryService::new();
        assert_eq!(r.publish("kv", ServiceId(7), NodeId(9)), None);
        os.deliver(lookup("kv"));
        os.deliver(lookup("nonesuch"));
        r.wake(os.now(), &mut os);
        assert_eq!(r.lookups, 2);
        assert_eq!(r.misses, 1);
        assert_eq!(
            decode_lookup_reply(&os.sent[0].3),
            Some(Some((ServiceId(7), NodeId(9))))
        );
        assert_eq!(decode_lookup_reply(&os.sent[1].3), Some(None));
    }

    #[test]
    fn withdraw_removes() {
        let mut r = RegistryService::new();
        assert_eq!(r.publish("x", ServiceId(1), NodeId(2)), None);
        assert!(r.withdraw("x"));
        assert!(!r.withdraw("x"));
        assert!(r.is_empty());
    }

    #[test]
    fn non_lookup_traffic_ignored() {
        let mut os = MockOs::new();
        let mut r = RegistryService::new();
        let mut d = lookup("kv");
        d.msg.kind = wire::KIND_REQUEST;
        os.deliver(d);
        r.wake(os.now(), &mut os);
        assert_eq!(r.lookups, 0);
        assert!(os.sent.is_empty());
    }

    proptest::proptest! {
        /// Any reply payload decodes to a binding, a miss or `None`; none
        /// panics.
        #[test]
        fn lookup_reply_decoder_never_panics(
            data in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..512),
        ) {
            let _ = decode_lookup_reply(&data);
        }
    }

    #[test]
    fn malformed_replies_rejected_by_decoder() {
        assert_eq!(decode_lookup_reply(&[]), None);
        assert_eq!(decode_lookup_reply(&[1, 2, 3]), None);
        assert_eq!(decode_lookup_reply(&[9]), None);
        assert_eq!(decode_lookup_reply(&[0]), Some(None));
    }
}

#[cfg(test)]
mod lookup_tests {
    use super::*;

    #[test]
    fn lookup_returns_published_binding() {
        let mut r = RegistryService::new();
        assert_eq!(r.lookup("kv"), None);
        assert_eq!(r.publish("kv", ServiceId(7), NodeId(9)), None);
        assert_eq!(r.lookup("kv"), Some((ServiceId(7), NodeId(9))));
        assert_eq!(r.lookup("video"), None);
    }

    #[test]
    fn republish_returns_the_displaced_binding() {
        let mut r = RegistryService::new();
        assert_eq!(r.publish("kv", ServiceId(7), NodeId(9)), None);
        // Rebinding the same name reports what it displaced, so a kernel
        // moving a service can detect an unexpected squatter.
        assert_eq!(
            r.publish("kv", ServiceId(7), NodeId(12)),
            Some((ServiceId(7), NodeId(9)))
        );
        assert_eq!(r.lookup("kv"), Some((ServiceId(7), NodeId(12))));
        assert_eq!(r.len(), 1, "rebinding does not duplicate the entry");
    }

    #[test]
    fn lookup_after_withdraw_misses() {
        let mut r = RegistryService::new();
        assert_eq!(r.publish("kv", ServiceId(7), NodeId(9)), None);
        assert!(r.withdraw("kv"));
        assert_eq!(r.lookup("kv"), None);
        // Republish after withdraw displaces nothing.
        assert_eq!(r.publish("kv", ServiceId(8), NodeId(10)), None);
        assert_eq!(r.lookup("kv"), Some((ServiceId(8), NodeId(10))));
    }
}
