//! Multi-context accelerators (§4.2, §4.4).
//!
//! The paper's process granularity is *one user context on one
//! accelerator*: contexts on the same tile are mutually trusting but
//! should still be fault-isolated — "if an error occurs in one user
//! context within an accelerator, other independent processes on the
//! accelerator can keep running."
//!
//! [`MultiService`] is that execution model as a harness: it hosts one
//! [`Service`] instance per context (contexts are keyed by capability
//! badge, like KV tenancy), dispatches each request to its context's
//! instance, and contains context faults — a faulting context is swapped
//! out (its instance reset, its state lost) while every other context
//! keeps both service and state. Because each context's state is
//! externalized independently, the whole tile is preemptible.

use crate::accelerator::{Accelerator, Service, ServiceAction, ServiceReply, StateError};
use crate::os::TileOs;
use apiary_monitor::wire;
use apiary_noc::{Delivered, TrafficClass};
use apiary_sim::{Cycle, Reader, Wakeup};
use std::collections::BTreeMap;

/// One in-flight job (per tile, one execution unit shared by contexts —
/// the §4.4 concurrent model).
struct Pending {
    done_at: Cycle,
    reply: ServiceReply,
    to: Delivered,
}

/// A multi-context wrapper: one `S` per badge.
pub struct MultiService<S: Service> {
    factory: Box<dyn Fn() -> S + Send>,
    contexts: BTreeMap<u64, S>,
    pending: Option<Pending>,
    /// Requests served per context.
    pub served: BTreeMap<u64, u64>,
    /// Context faults contained (context id, code).
    pub context_faults: Vec<(u64, u32)>,
}

impl<S: Service> MultiService<S> {
    /// Creates a multi-context accelerator; `factory` builds a fresh
    /// context instance on first use and after a context fault.
    pub fn new(factory: impl Fn() -> S + Send + 'static) -> MultiService<S> {
        MultiService {
            factory: Box::new(factory),
            contexts: BTreeMap::new(),
            pending: None,
            served: BTreeMap::new(),
            context_faults: Vec::new(),
        }
    }

    /// Live context count.
    pub fn contexts(&self) -> usize {
        self.contexts.len()
    }

    /// Immutable access to one context's service instance.
    pub fn context(&self, badge: u64) -> Option<&S> {
        self.contexts.get(&badge)
    }
}

impl<S: Service + 'static> Accelerator for MultiService<S> {
    fn name(&self) -> &'static str {
        "multi-context"
    }

    fn as_any(&self) -> &dyn core::any::Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn core::any::Any {
        self
    }

    fn wake(&mut self, now: Cycle, os: &mut dyn TileOs) -> Wakeup {
        // Finish the in-flight job.
        if let Some(p) = &self.pending {
            if now >= p.done_at {
                let p = self.pending.take().expect("checked above");
                let _ = os.reply(&p.to, p.reply.kind, p.reply.class, p.reply.payload);
            } else {
                return Wakeup::At(p.done_at);
            }
        }
        let Some(req) = os.recv() else {
            return Wakeup::OnMessage;
        };
        // Consumed one message; more may be queued behind it.
        let backlog = if os.inbox_depth() > 0 {
            Wakeup::AtOrMessage(now.saturating_add(1))
        } else {
            Wakeup::OnMessage
        };
        if matches!(
            req.msg.kind,
            wire::KIND_ERROR | wire::KIND_RESPONSE | wire::KIND_MEM_REPLY | wire::KIND_LOOKUP_REPLY
        ) {
            return backlog;
        }
        let badge = req.msg.badge;
        let ctx = self
            .contexts
            .entry(badge)
            .or_insert_with(|| (self.factory)());
        match ctx.serve(&req, os) {
            ServiceAction::Reply(reply) => {
                *self.served.entry(badge).or_default() += 1;
                let done_at = now + reply.cost_cycles;
                self.pending = Some(Pending {
                    done_at,
                    reply,
                    to: req,
                });
                Wakeup::At(done_at)
            }
            ServiceAction::Forward { .. } | ServiceAction::Done => {
                *self.served.entry(badge).or_default() += 1;
                backlog
            }
            ServiceAction::Fault(code) => {
                // Contain the fault to this context: swap in a fresh
                // instance; the other contexts are untouched (§4.4). The
                // faulting request is answered with an error so the caller
                // is not left hanging.
                self.context_faults.push((badge, code));
                self.contexts.insert(badge, (self.factory)());
                let _ = os.reply(
                    &req,
                    wire::KIND_ERROR,
                    TrafficClass::Control,
                    vec![wire::err::REJECTED].into(),
                );
                backlog
            }
        }
    }

    fn is_preemptible(&self) -> bool {
        true
    }

    /// Externalizes every context: `[count][per ctx: badge, len, bytes]`.
    /// Contexts whose service cannot save are recreated fresh on restore
    /// (recorded with length `u32::MAX`).
    fn save_state(&self) -> Option<Vec<u8>> {
        let mut out = (self.contexts.len() as u64).to_le_bytes().to_vec();
        for (badge, ctx) in &self.contexts {
            out.extend_from_slice(&badge.to_le_bytes());
            match ctx.save() {
                Some(bytes) => {
                    out.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
                    out.extend_from_slice(&bytes);
                }
                None => out.extend_from_slice(&u32::MAX.to_le_bytes()),
            }
        }
        Some(out)
    }

    fn restore_state(&mut self, state: &[u8]) -> Result<(), StateError> {
        let mut r = Reader::new(state);
        let count = r.u64().ok_or(StateError::Corrupt)?;
        let mut contexts = BTreeMap::new();
        for _ in 0..count {
            let badge = r.u64().ok_or(StateError::Corrupt)?;
            let len = r.u32().ok_or(StateError::Corrupt)?;
            let mut ctx = (self.factory)();
            if len != u32::MAX {
                ctx.restore(r.bytes(len as usize).ok_or(StateError::Corrupt)?)?;
            }
            contexts.insert(badge, ctx);
        }
        if !r.is_empty() {
            return Err(StateError::Corrupt);
        }
        self.contexts = contexts;
        self.pending = None;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apps::faulty::FaultyService;
    use crate::apps::kv::{self, KvStoreService};
    use crate::os::test_os::MockOs;
    use apiary_noc::{Message, NodeId};

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

    fn pump<S: Service + 'static>(a: &mut MultiService<S>, os: &mut MockOs, n: u64) {
        for _ in 0..n {
            a.wake(os.now(), os);
            os.advance(1);
        }
    }

    #[test]
    fn contexts_are_independent_kv_stores() {
        let mut os = MockOs::new();
        let mut a = MultiService::new(KvStoreService::new);
        deliver(&mut os, 1, kv::put_req(b"k", b"ctx one"));
        deliver(&mut os, 2, kv::put_req(b"k", b"ctx two"));
        deliver(&mut os, 1, kv::get_req(b"k"));
        deliver(&mut os, 2, kv::get_req(b"k"));
        pump(&mut a, &mut os, 200);
        assert_eq!(a.contexts(), 2);
        assert_eq!(
            kv::parse_resp(&os.sent[2].3),
            Some((kv::status::OK, Some(b"ctx one".as_slice())))
        );
        assert_eq!(
            kv::parse_resp(&os.sent[3].3),
            Some((kv::status::OK, Some(b"ctx two".as_slice())))
        );
    }

    #[test]
    fn context_fault_is_contained() {
        let mut os = MockOs::new();
        // Every context faults on its 2nd request.
        let mut a = MultiService::new(|| FaultyService::new(2));
        deliver(&mut os, 1, vec![1]);
        deliver(&mut os, 2, vec![2]);
        deliver(&mut os, 1, vec![3]); // Context 1 faults here.
        deliver(&mut os, 2, vec![4]); // Context 2 faults here.
        deliver(&mut os, 1, vec![5]); // Fresh context 1 serves again.
        pump(&mut a, &mut os, 200);
        assert_eq!(a.context_faults, vec![(1, 0xBAD0), (2, 0xBAD0)]);
        // No tile-level fault was ever raised; the tile stays alive.
        assert!(os.faults.is_empty());
        // The faulting requests got error replies; the rest succeeded.
        let errors = os
            .sent
            .iter()
            .filter(|(_, kind, _, _)| *kind == wire::KIND_ERROR)
            .count();
        assert_eq!(errors, 2);
        assert_eq!(os.sent.len(), 5);
    }

    #[test]
    fn whole_tile_save_restore_keeps_every_context() {
        let mut os = MockOs::new();
        let mut a = MultiService::new(KvStoreService::new);
        deliver(&mut os, 7, kv::put_req(b"a", b"1"));
        deliver(&mut os, 9, kv::put_req(b"b", b"2"));
        pump(&mut a, &mut os, 100);
        let snap = a.save_state().expect("preemptible");

        let mut b = MultiService::new(KvStoreService::new);
        b.restore_state(&snap).expect("own snapshot");
        assert_eq!(b.contexts(), 2);
        let mut os2 = MockOs::new();
        deliver(&mut os2, 9, kv::get_req(b"b"));
        pump(&mut b, &mut os2, 100);
        assert_eq!(
            kv::parse_resp(&os2.sent[0].3),
            Some((kv::status::OK, Some(b"2".as_slice())))
        );
    }

    #[test]
    fn corrupt_snapshot_rejected() {
        let mut a = MultiService::new(KvStoreService::new);
        assert_eq!(a.restore_state(&[1, 2]), Err(StateError::Corrupt));
        let snap = a.save_state().expect("preemptible");
        let mut long = snap.clone();
        long.push(9);
        assert_eq!(a.restore_state(&long), Err(StateError::Corrupt));
    }
}
