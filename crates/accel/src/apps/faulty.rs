//! An accelerator that works for a while, then hits an internal error —
//! the test vehicle for the paper's fault-handling models (§4.4).

use crate::accelerator::{Service, ServiceAction, ServiceReply, StateError};
use crate::os::TileOs;
use apiary_noc::Delivered;
use apiary_sim::Reader;

/// Echoes requests, but the `fault_after`-th request (exactly) trips an
/// internal error and raises a fault. The kernel's policy then decides the
/// blast radius: fail-stop (whole tile) or preemption (context swap). A
/// preempted-and-restored instance remembers `served` and keeps working —
/// the fault was a one-off condition tied to that request.
///
/// The service externalizes its request counter, so it is preemptible: a
/// restored instance remembers how far it got.
#[derive(Debug, Clone)]
pub struct FaultyService {
    /// Requests served before faulting.
    pub fault_after: u64,
    /// Requests served so far.
    pub served: u64,
    /// Fault code raised.
    pub fault_code: u32,
}

impl FaultyService {
    /// Creates a service that faults on request number `fault_after`
    /// (1-based).
    pub fn new(fault_after: u64) -> FaultyService {
        FaultyService {
            fault_after,
            served: 0,
            fault_code: 0xBAD0,
        }
    }
}

impl Service for FaultyService {
    fn name(&self) -> &'static str {
        "faulty"
    }

    fn serve(&mut self, req: &Delivered, _os: &mut dyn TileOs) -> ServiceAction {
        self.served += 1;
        if self.served == self.fault_after {
            return ServiceAction::Fault(self.fault_code);
        }
        ServiceAction::Reply(ServiceReply::ok(req.msg.payload.clone(), 2))
    }

    fn save(&self) -> Option<Vec<u8>> {
        let mut out = self.fault_after.to_le_bytes().to_vec();
        out.extend_from_slice(&self.served.to_le_bytes());
        Some(out)
    }

    fn restore(&mut self, state: &[u8]) -> Result<(), StateError> {
        let mut r = Reader::new(state);
        let (Some(fault_after), Some(served), true) = (r.u64(), r.u64(), r.is_empty()) else {
            return Err(StateError::Corrupt);
        };
        (self.fault_after, self.served) = (fault_after, served);
        Ok(())
    }
}

/// An accelerator that wedges *silently*: it echoes `hang_after - 1`
/// requests, then stops consuming anything — without raising a fault. The
/// only way the system notices is the monitor's watchdog (§4.4: a process
/// that never yields).
pub struct HangAccel {
    served: u64,
    hang_after: u64,
}

impl HangAccel {
    /// Creates an accelerator that hangs on request number `hang_after`.
    pub fn new(hang_after: u64) -> HangAccel {
        HangAccel {
            served: 0,
            hang_after,
        }
    }
}

impl crate::accelerator::Accelerator for HangAccel {
    fn name(&self) -> &'static str {
        "hang"
    }

    fn as_any(&self) -> &dyn core::any::Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn core::any::Any {
        self
    }

    fn wake(&mut self, now: apiary_sim::Cycle, os: &mut dyn TileOs) -> apiary_sim::Wakeup {
        use apiary_sim::Wakeup;
        if self.served + 1 >= self.hang_after {
            // Wedged: consumes nothing, says nothing — only the monitor's
            // watchdog will notice.
            return Wakeup::Idle;
        }
        if let Some(req) = os.recv() {
            if req.msg.kind != apiary_monitor::wire::KIND_ERROR {
                self.served += 1;
                let _ = os.reply(
                    &req,
                    apiary_monitor::wire::KIND_RESPONSE,
                    apiary_noc::TrafficClass::Request,
                    req.msg.payload.clone(),
                );
                if self.served + 1 >= self.hang_after {
                    return Wakeup::Idle;
                }
            }
            if os.inbox_depth() > 0 {
                return Wakeup::AtOrMessage(now.saturating_add(1));
            }
        }
        Wakeup::OnMessage
    }
}

/// The faulty service as an accelerator.
pub type FaultyAccel = crate::accelerator::ServerAccel<FaultyService>;

/// Creates a faulty accelerator.
pub fn faulty(fault_after: u64) -> FaultyAccel {
    crate::accelerator::ServerAccel::new(FaultyService::new(fault_after))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::accelerator::Accelerator;
    use crate::os::test_os::MockOs;
    use apiary_monitor::wire;
    use apiary_noc::{Message, NodeId, TrafficClass};
    use apiary_sim::Cycle;

    fn deliver(os: &mut MockOs, tag: u64) {
        let mut msg = Message::new(NodeId(1), NodeId(0), TrafficClass::Request, vec![tag as u8]);
        msg.kind = wire::KIND_REQUEST;
        msg.tag = tag;
        os.deliver(Delivered {
            msg,
            injected_at: Cycle(0),
            delivered_at: Cycle(0),
        });
    }

    #[test]
    fn serves_then_faults() {
        let mut os = MockOs::new();
        let mut a = faulty(3);
        for i in 0..5 {
            deliver(&mut os, i);
        }
        for _ in 0..50 {
            a.wake(os.now(), &mut os);
            os.advance(1);
        }
        // Two good replies, then the fault wedges the accelerator; the
        // remaining requests are never consumed.
        assert_eq!(os.sent.len(), 2);
        assert_eq!(os.faults, vec![0xBAD0]);
        assert_eq!(os.inbox_len(), 2);
    }

    #[test]
    fn state_roundtrip_remembers_progress() {
        let mut s = FaultyService::new(10);
        s.served = 7;
        let snap = s.save().expect("preemptible");
        let mut t = FaultyService::new(1);
        t.restore(&snap).expect("well formed");
        assert_eq!(t.fault_after, 10);
        assert_eq!(t.served, 7);
        assert_eq!(t.restore(&[0; 3]), Err(StateError::Corrupt));
    }
}
