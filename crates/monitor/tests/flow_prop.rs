//! Property test for the flow-verdict cache (batched monitor verdicts).
//!
//! Two monitors are driven through the same interleaving of sends,
//! revocations, derivations, service rebinds, fail-stops and resets — one
//! with the flow cache on (batched verdicts), one with it off (per-message
//! checks). The contract under test: **verdicts are identical
//! message-for-message**. Every send must return the same `Result`, and
//! every message that reaches the NoC must carry the same destination,
//! badge, kind, tag and payload, in the same order. Only timing may differ
//! (cache hits skip the check pipeline), so timestamps are excluded from
//! the comparison.

use apiary_cap::{CapKind, CapRef, Capability, EndpointId, Rights, ServiceId};
use apiary_monitor::{Monitor, MonitorConfig};
use apiary_noc::{Noc, NocConfig, NodeId, TrafficClass};
use apiary_sim::Cycle;
use proptest::prelude::*;

/// One step of the interleaving. Capability handles are referenced by
/// index into the (identical) handle list both monitors build up.
#[derive(Debug, Clone)]
enum Op {
    /// Send a small payload through handle `cap % handles.len()`.
    Send { cap: usize, len: usize, tag: u64 },
    /// Revoke handle `cap % handles.len()`.
    Revoke { cap: usize },
    /// Derive a SEND-only child of handle `cap % handles.len()`.
    Derive { cap: usize },
    /// Install a fresh endpoint capability to `node % 16`.
    Install { node: u16 },
    /// Rebind service 9 to `node % 16` (the supervisor-rewiring path).
    Bind { node: u16 },
    /// Fail-stop the tile.
    FailStop,
    /// Reset (reconfigure) the tile: all authority revoked.
    Reset,
}

fn arb_send() -> impl Strategy<Value = Op> {
    (any::<usize>(), 0usize..64, any::<u64>()).prop_map(|(cap, len, tag)| Op::Send {
        cap,
        len,
        tag,
    })
}

fn arb_op() -> impl Strategy<Value = Op> {
    // The vendored `prop_oneof!` is unweighted; repeating the send arm
    // biases runs toward send-heavy interleavings (where the cache is hot).
    prop_oneof![
        arb_send(),
        arb_send(),
        arb_send(),
        arb_send(),
        any::<usize>().prop_map(|cap| Op::Revoke { cap }),
        any::<usize>().prop_map(|cap| Op::Derive { cap }),
        any::<u16>().prop_map(|node| Op::Install { node }),
        any::<u16>().prop_map(|node| Op::Bind { node }),
        Just(Op::FailStop),
        Just(Op::Reset),
    ]
}

/// A monitor + NoC pair plus the handle list the ops index into.
struct Rig {
    monitor: Monitor,
    noc: Noc,
    handles: Vec<CapRef>,
}

impl Rig {
    fn new(flow_cache: bool) -> Rig {
        let cfg = MonitorConfig {
            flow_cache,
            ..MonitorConfig::default()
        };
        let mut monitor = Monitor::new(NodeId(0), cfg);
        let mut handles = Vec::new();
        for dst in 1u32..=3 {
            handles.push(
                monitor
                    .install_cap(Capability::badged(
                        CapKind::Endpoint(EndpointId(dst)),
                        Rights::SEND | Rights::GRANT,
                        u64::from(dst) << 8,
                    ))
                    .expect("space"),
            );
        }
        handles.push(
            monitor
                .install_cap(Capability::new(
                    CapKind::Service(ServiceId(9)),
                    Rights::SEND | Rights::GRANT,
                ))
                .expect("space"),
        );
        monitor.bind_service(9, NodeId(2));
        Rig {
            monitor,
            noc: Noc::new(NocConfig::soft(4, 4)),
            handles,
        }
    }

    /// Applies one op at `now`; returns the send verdict when the op was a
    /// send. Pumps the outbox afterwards at `now + 1` so both rigs drain
    /// fully before the next (possibly destructive) op.
    fn apply(&mut self, op: &Op, now: Cycle) -> Option<Result<(), apiary_monitor::SendError>> {
        let pick = |i: usize, n: usize| i % n.max(1);
        let verdict = match op {
            Op::Send { cap, len, tag } => {
                if self.handles.is_empty() {
                    return None;
                }
                let cap = self.handles[pick(*cap, self.handles.len())];
                Some(
                    self.monitor
                        .send(cap, 1, *tag, TrafficClass::Request, vec![0xAB; *len], now),
                )
            }
            Op::Revoke { cap } => {
                if !self.handles.is_empty() {
                    let cap = self.handles[pick(*cap, self.handles.len())];
                    let _ = self.monitor.revoke_cap(cap);
                }
                None
            }
            Op::Derive { cap } => {
                if !self.handles.is_empty() {
                    let cap = self.handles[pick(*cap, self.handles.len())];
                    if let Ok(child) = self.monitor.derive_cap(cap, Rights::SEND, None) {
                        self.handles.push(child);
                    }
                }
                None
            }
            Op::Install { node } => {
                if let Ok(r) = self.monitor.install_cap(Capability::new(
                    CapKind::Endpoint(EndpointId(u32::from(node % 16))),
                    Rights::SEND | Rights::GRANT,
                )) {
                    self.handles.push(r);
                }
                None
            }
            Op::Bind { node } => {
                self.monitor.bind_service(9, NodeId(node % 16));
                None
            }
            Op::FailStop => {
                self.monitor.fail_stop();
                None
            }
            Op::Reset => {
                self.monitor.reset(now);
                // Old handles are dead either way; keep indexing stable.
                None
            }
        };
        // Drain at now + check_cycles so cached (ready = now) and uncached
        // (ready = now + 1) messages are both eligible — equivalence is
        // about *what* is sent, not when.
        self.monitor.pump_out(&mut self.noc, now + 1);
        let _ = self.noc.run_until_quiescent(100_000);
        verdict
    }

    /// Everything the NoC delivered, with timing stripped.
    fn delivered(&mut self) -> Vec<(u16, u16, u16, u64, u64, Vec<u8>)> {
        let mut out = Vec::new();
        for n in 0..16u16 {
            while let Some(d) = self.noc.poll_eject(NodeId(n)) {
                out.push((
                    n,
                    d.msg.src.0,
                    d.msg.kind,
                    d.msg.tag,
                    d.msg.badge,
                    d.msg.payload.to_vec(),
                ));
            }
        }
        out
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Batched (flow-cached) verdicts equal per-message verdicts for any
    /// interleaving of sends with revokes, rebinds and reconfigurations.
    #[test]
    fn batched_verdicts_match_per_message(ops in prop::collection::vec(arb_op(), 1..60)) {
        let mut cached = Rig::new(true);
        let mut plain = Rig::new(false);

        let mut now = Cycle(0);
        for op in &ops {
            now += 3;
            let a = cached.apply(op, now);
            let b = plain.apply(op, now);
            prop_assert_eq!(a, b, "send verdict diverged on {:?}", op);
            prop_assert_eq!(cached.handles.len(), plain.handles.len());
        }

        // Same messages on the wire, same order, same contents.
        prop_assert_eq!(cached.delivered(), plain.delivered());

        // And the policy counters agree (flow_hits/misses excluded — they
        // are the *only* intended difference).
        let (a, b) = (cached.monitor.stats(), plain.monitor.stats());
        prop_assert_eq!(a.sent, b.sent);
        prop_assert_eq!(a.denied, b.denied);
        prop_assert_eq!(a.backpressured, b.backpressured);
        prop_assert_eq!(a.rate_limited, b.rate_limited);
        prop_assert_eq!(a.dropped, b.dropped);
    }
}
