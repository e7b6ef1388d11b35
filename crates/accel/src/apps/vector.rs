//! A SIMD-style vector engine (the ML-inference flavour of accelerator
//! that motivates datacenter FPGAs in §1 — Microsoft's direct-attached
//! inference accelerators being the canonical example).
//!
//! Request payload: `[op: u8][n: u32][a: n x i32][b: n x i32]` for
//! elementwise ops, or `[op][n][a][b]` reduced for dot product.
//! Response: `[n x i32]` (elementwise) or `[i64]` (dot).
//!
//! The cost model is a `LANES`-wide pipeline: `ceil(n / LANES)` cycles
//! plus setup — the classic shape of a vector unit.

use crate::accelerator::{ServerAccel, Service, ServiceAction, ServiceReply};
use crate::os::TileOs;
use apiary_noc::Delivered;
use apiary_sim::Reader;

/// Operation codes.
pub mod op {
    /// Elementwise addition.
    pub const ADD: u8 = 1;
    /// Elementwise multiplication.
    pub const MUL: u8 = 2;
    /// Dot product (i64 accumulator).
    pub const DOT: u8 = 3;
}

/// Application error codes.
pub mod verr {
    /// Request did not parse.
    pub const MALFORMED: u8 = 0x30;
}

/// Pipeline width (elements per cycle).
pub const LANES: u64 = 8;

/// Builds a request payload for two `i32` vectors.
pub fn request(op_code: u8, a: &[i32], b: &[i32]) -> Vec<u8> {
    assert_eq!(a.len(), b.len(), "operands must match");
    let mut p = vec![op_code];
    p.extend_from_slice(&(a.len() as u32).to_le_bytes());
    for v in a.iter().chain(b.iter()) {
        p.extend_from_slice(&v.to_le_bytes());
    }
    p
}

/// Parses an elementwise response.
pub fn parse_elementwise(payload: &[u8]) -> Option<Vec<i32>> {
    if !payload.len().is_multiple_of(4) {
        return None;
    }
    Some(
        payload
            .chunks_exact(4)
            .map(|c| i32::from_le_bytes(c.try_into().expect("sized")))
            .collect(),
    )
}

/// Parses a dot-product response.
pub fn parse_dot(payload: &[u8]) -> Option<i64> {
    Some(i64::from_le_bytes(payload.try_into().ok()?))
}

fn parse_request(p: &[u8]) -> Option<(u8, Vec<i32>, Vec<i32>)> {
    if p.len() < 5 {
        return None;
    }
    let opc = p[0];
    let n = u32::from_le_bytes(p[1..5].try_into().ok()?) as usize;
    let body = &p[5..];
    if body.len() != n * 8 {
        return None;
    }
    let read = |bytes: &[u8]| -> Vec<i32> {
        bytes
            .chunks_exact(4)
            .map(|c| i32::from_le_bytes(c.try_into().expect("sized")))
            .collect()
    };
    Some((opc, read(&body[..n * 4]), read(&body[n * 4..])))
}

/// The vector engine.
#[derive(Debug, Clone, Default)]
pub struct VectorService {
    /// Operations served.
    pub ops: u64,
    /// Elements processed.
    pub elements: u64,
}

impl Service for VectorService {
    fn name(&self) -> &'static str {
        "vector"
    }

    fn serve(&mut self, req: &Delivered, _os: &mut dyn TileOs) -> ServiceAction {
        let Some((opc, a, b)) = parse_request(&req.msg.payload) else {
            return ServiceAction::Reply(ServiceReply::error(verr::MALFORMED));
        };
        let n = a.len() as u64;
        let cost = 8 + n.div_ceil(LANES);
        let payload = match opc {
            op::ADD => a
                .iter()
                .zip(&b)
                .flat_map(|(x, y)| x.wrapping_add(*y).to_le_bytes())
                .collect(),
            op::MUL => a
                .iter()
                .zip(&b)
                .flat_map(|(x, y)| x.wrapping_mul(*y).to_le_bytes())
                .collect(),
            op::DOT => {
                let acc: i64 = a.iter().zip(&b).map(|(x, y)| *x as i64 * *y as i64).sum();
                acc.to_le_bytes().to_vec()
            }
            _ => return ServiceAction::Reply(ServiceReply::error(verr::MALFORMED)),
        };
        self.ops += 1;
        self.elements += n;
        ServiceAction::Reply(ServiceReply::ok(payload, cost))
    }

    fn save(&self) -> Option<Vec<u8>> {
        let mut out = self.ops.to_le_bytes().to_vec();
        out.extend_from_slice(&self.elements.to_le_bytes());
        Some(out)
    }

    fn restore(&mut self, state: &[u8]) -> Result<(), crate::accelerator::StateError> {
        let mut r = Reader::new(state);
        let (Some(ops), Some(elements), true) = (r.u64(), r.u64(), r.is_empty()) else {
            return Err(crate::accelerator::StateError::Corrupt);
        };
        (self.ops, self.elements) = (ops, elements);
        Ok(())
    }
}

/// The vector engine as an accelerator.
pub type VectorAccel = ServerAccel<VectorService>;

/// Creates a vector accelerator.
pub fn vector() -> VectorAccel {
    ServerAccel::new(VectorService::default())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::accelerator::Accelerator;
    use crate::os::test_os::MockOs;
    use apiary_monitor::wire;
    use apiary_noc::{Message, NodeId, TrafficClass};
    use apiary_sim::Cycle;

    fn deliver(os: &mut MockOs, payload: Vec<u8>) {
        let mut msg = Message::new(NodeId(1), NodeId(0), TrafficClass::Request, payload);
        msg.kind = wire::KIND_REQUEST;
        os.deliver(Delivered {
            msg,
            injected_at: Cycle(0),
            delivered_at: Cycle(0),
        });
    }

    fn run(a: &mut VectorAccel, os: &mut MockOs) {
        for _ in 0..1_000 {
            a.wake(os.now(), os);
            os.advance(1);
            if !os.sent.is_empty() {
                return;
            }
        }
    }

    #[test]
    fn add_and_mul_elementwise() {
        let mut os = MockOs::new();
        let mut a = vector();
        deliver(&mut os, request(op::ADD, &[1, 2, 3], &[10, 20, 30]));
        run(&mut a, &mut os);
        assert_eq!(parse_elementwise(&os.sent[0].3), Some(vec![11, 22, 33]));
        os.sent.clear();
        deliver(&mut os, request(op::MUL, &[2, -3], &[4, 5]));
        run(&mut a, &mut os);
        assert_eq!(parse_elementwise(&os.sent[0].3), Some(vec![8, -15]));
    }

    #[test]
    fn dot_product_accumulates_wide() {
        let mut os = MockOs::new();
        let mut a = vector();
        // Values that would overflow i32 accumulation.
        deliver(&mut os, request(op::DOT, &[i32::MAX, i32::MAX], &[2, 2]));
        run(&mut a, &mut os);
        assert_eq!(parse_dot(&os.sent[0].3), Some(2 * 2 * (i32::MAX as i64)));
    }

    #[test]
    fn overflow_wraps_like_hardware() {
        let mut os = MockOs::new();
        let mut a = vector();
        deliver(&mut os, request(op::ADD, &[i32::MAX], &[1]));
        run(&mut a, &mut os);
        assert_eq!(parse_elementwise(&os.sent[0].3), Some(vec![i32::MIN]));
    }

    #[test]
    fn malformed_rejected() {
        let mut os = MockOs::new();
        let mut a = vector();
        deliver(&mut os, vec![op::ADD, 9, 0, 0, 0, 1, 2]);
        run(&mut a, &mut os);
        assert_eq!(os.sent[0].1, wire::KIND_ERROR);
        os.sent.clear();
        deliver(&mut os, vec![99, 0, 0, 0, 0]);
        run(&mut a, &mut os);
        assert_eq!(os.sent[0].1, wire::KIND_ERROR);
    }

    #[test]
    fn cost_scales_with_lanes() {
        let mut svc = VectorService::default();
        let mut os = MockOs::new();
        let small = request(op::ADD, &[0; 8], &[0; 8]);
        let large = request(op::ADD, &[0; 256], &[0; 256]);
        let mk = |payload: Vec<u8>| {
            let mut msg = Message::new(NodeId(1), NodeId(0), TrafficClass::Request, payload);
            msg.kind = wire::KIND_REQUEST;
            Delivered {
                msg,
                injected_at: Cycle(0),
                delivered_at: Cycle(0),
            }
        };
        let c_small = match svc.serve(&mk(small), &mut os) {
            ServiceAction::Reply(r) => r.cost_cycles,
            _ => unreachable!(),
        };
        let c_large = match svc.serve(&mk(large), &mut os) {
            ServiceAction::Reply(r) => r.cost_cycles,
            _ => unreachable!(),
        };
        assert_eq!(c_small, 8 + 1);
        assert_eq!(c_large, 8 + 32);
    }

    #[test]
    fn preemptible_state_roundtrip() {
        let mut svc = VectorService {
            ops: 5,
            elements: 123,
        };
        let snap = svc.save().expect("preemptible");
        let mut restored = VectorService::default();
        restored.restore(&snap).expect("own snapshot");
        assert_eq!(restored.ops, 5);
        assert_eq!(restored.elements, 123);
        assert!(svc.restore(&[1]).is_err());
    }
}
