//! The memory service tile.
//!
//! On-card DRAM is fronted by a service tile: accelerators send
//! monitor-checked, monitor-translated read/write requests over the NoC and
//! receive timed completions. Timing comes from the banked
//! [`apiary_mem::DramModel`], so memory experiments see row locality and
//! bank contention.
//!
//! Security model: the *sending* monitor performs the capability bounds
//! check and writes the physical address into the request (§4.6); the
//! memory tile additionally range-checks against its backing store as
//! defence in depth. Only monitors can produce well-formed requests, so a
//! compromised accelerator cannot reach memory it holds no capability for.

use apiary_accel::{Accelerator, TileOs};
use apiary_mem::{DramConfig, DramModel};
use apiary_monitor::monitor::wire_mem;
use apiary_monitor::wire;
use apiary_noc::{Delivered, TrafficClass};
use apiary_sim::{Cycle, Payload, Wakeup};
use std::collections::VecDeque;

/// A completed-at-`done` reply waiting to leave.
struct PendingReply {
    done: Cycle,
    to: Delivered,
    payload: Payload,
    kind: u16,
}

/// The memory service accelerator.
///
/// Unlike request/response services, the memory tile keeps many operations
/// in flight (DRAM banks are parallel), so it implements [`Accelerator`]
/// directly rather than through `ServerAccel`.
pub struct MemoryService {
    dram: DramModel,
    store: Vec<u8>,
    pending: VecDeque<PendingReply>,
    /// Reads served.
    pub reads: u64,
    /// Writes served.
    pub writes: u64,
    /// Requests rejected (malformed or out of backing range).
    pub rejected: u64,
}

impl MemoryService {
    /// Creates a memory service with `capacity` bytes of backing DRAM.
    pub fn new(capacity: u64, dram: DramConfig) -> MemoryService {
        MemoryService {
            dram: DramModel::new(dram),
            store: vec![0; capacity as usize],
            pending: VecDeque::new(),
            reads: 0,
            writes: 0,
            rejected: 0,
        }
    }

    /// Backing capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.store.len() as u64
    }

    /// DRAM row-buffer statistics: (hits, misses, conflicts).
    pub fn dram_stats(&self) -> (u64, u64, u64) {
        self.dram.stats()
    }

    fn handle(&mut self, req: Delivered, now: Cycle) {
        let Some((addr, len, data)) = wire_mem::decode(&req.msg.payload) else {
            self.rejected += 1;
            return;
        };
        let end = addr.saturating_add(len);
        if end > self.store.len() as u64
            || (req.msg.kind == wire::KIND_MEM_WRITE && data.len() as u64 != len)
        {
            self.rejected += 1;
            return;
        }
        let done = self.dram.access(now, addr, len);
        let payload = match req.msg.kind {
            wire::KIND_MEM_READ => {
                self.reads += 1;
                self.store[addr as usize..end as usize].to_vec()
            }
            wire::KIND_MEM_WRITE => {
                self.writes += 1;
                self.store[addr as usize..end as usize].copy_from_slice(data);
                Vec::new()
            }
            _ => {
                self.rejected += 1;
                return;
            }
        };
        self.pending.push_back(PendingReply {
            done,
            to: req,
            payload: payload.into(),
            kind: wire::KIND_MEM_REPLY,
        });
    }
}

impl Accelerator for MemoryService {
    fn name(&self) -> &'static str {
        "memory-service"
    }

    fn as_any(&self) -> &dyn core::any::Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn core::any::Any {
        self
    }

    fn wake(&mut self, now: Cycle, os: &mut dyn TileOs) -> Wakeup {
        // Flush due replies in queue order, in place (the queue is roughly
        // time-sorted because DRAM completion times are near-monotonic per
        // bank).
        self.pending.retain(|p| {
            if p.done > now {
                return true;
            }
            let class = if p.payload.len() > 256 {
                TrafficClass::Bulk
            } else {
                TrafficClass::Request
            };
            let _ = os.reply(&p.to, p.kind, class, p.payload.clone());
            false
        });
        // Accept all new requests this cycle (the DRAM model serialises
        // per-bank internally).
        while let Some(req) = os.recv() {
            if req.msg.kind == wire::KIND_ERROR {
                continue;
            }
            self.handle(req, now);
        }
        // Sleep until the earliest in-flight DRAM completion; new requests
        // re-arm the tile on arrival. DRAM bank state only advances when a
        // request lands, so skipped cycles cannot change timing.
        match self.pending.iter().map(|p| p.done).min() {
            Some(done) => Wakeup::AtOrMessage(done.max(now.saturating_add(1))),
            None => Wakeup::OnMessage,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apiary_accel::os::test_os::MockOs;
    use apiary_noc::{Message, NodeId};

    fn mem_req(kind: u16, addr: u64, len: u64, data: &[u8], tag: u64) -> Delivered {
        let mut msg = Message::new(
            NodeId(1),
            NodeId(0),
            TrafficClass::Request,
            wire_mem::encode(addr, len, data),
        );
        msg.kind = kind;
        msg.tag = tag;
        Delivered {
            msg,
            injected_at: Cycle(0),
            delivered_at: Cycle(0),
        }
    }

    fn pump(svc: &mut MemoryService, os: &mut MockOs, cycles: u64) {
        for _ in 0..cycles {
            svc.wake(os.now(), os);
            os.advance(1);
        }
    }

    #[test]
    fn write_then_read_roundtrip() {
        let mut os = MockOs::new();
        let mut svc = MemoryService::new(4096, DramConfig::default());
        os.deliver(mem_req(wire::KIND_MEM_WRITE, 128, 4, &[9, 8, 7, 6], 1));
        os.deliver(mem_req(wire::KIND_MEM_READ, 128, 4, &[], 2));
        pump(&mut svc, &mut os, 100);
        assert_eq!(svc.writes, 1);
        assert_eq!(svc.reads, 1);
        assert_eq!(os.sent.len(), 2);
        // Write ack is empty; read returns the data.
        assert!(os.sent[0].3.is_empty());
        assert_eq!(os.sent[1].3, vec![9, 8, 7, 6]);
    }

    #[test]
    fn replies_take_dram_time() {
        let mut os = MockOs::new();
        let mut svc = MemoryService::new(4096, DramConfig::default());
        os.deliver(mem_req(wire::KIND_MEM_READ, 0, 64, &[], 1));
        let w = svc.wake(os.now(), &mut os);
        assert!(os.sent.is_empty(), "completion is not instantaneous");
        assert!(
            matches!(w, Wakeup::AtOrMessage(t) if t > Cycle(0)),
            "memory tile sleeps until the DRAM completion: {w:?}"
        );
        pump(&mut svc, &mut os, 50);
        assert_eq!(os.sent.len(), 1);
    }

    #[test]
    fn out_of_range_rejected() {
        let mut os = MockOs::new();
        let mut svc = MemoryService::new(256, DramConfig::default());
        os.deliver(mem_req(wire::KIND_MEM_READ, 250, 16, &[], 1));
        os.deliver(mem_req(wire::KIND_MEM_READ, u64::MAX - 4, 16, &[], 2));
        pump(&mut svc, &mut os, 50);
        assert_eq!(svc.rejected, 2);
        assert!(os.sent.is_empty());
    }

    #[test]
    fn malformed_and_mismatched_rejected() {
        let mut os = MockOs::new();
        let mut svc = MemoryService::new(256, DramConfig::default());
        // Too short to decode.
        let mut msg = Message::new(NodeId(1), NodeId(0), TrafficClass::Request, vec![1, 2]);
        msg.kind = wire::KIND_MEM_READ;
        os.deliver(Delivered {
            msg,
            injected_at: Cycle(0),
            delivered_at: Cycle(0),
        });
        // Write whose data length disagrees with len field.
        os.deliver(mem_req(wire::KIND_MEM_WRITE, 0, 8, &[1, 2, 3], 1));
        pump(&mut svc, &mut os, 20);
        assert_eq!(svc.rejected, 2);
    }

    #[test]
    fn many_outstanding_ops_complete() {
        let mut os = MockOs::new();
        let mut svc = MemoryService::new(1 << 20, DramConfig::default());
        for i in 0..32u64 {
            os.deliver(mem_req(wire::KIND_MEM_READ, i * 8192, 64, &[], i));
        }
        pump(&mut svc, &mut os, 500);
        assert_eq!(os.sent.len(), 32);
        assert_eq!(svc.reads, 32);
    }
}
