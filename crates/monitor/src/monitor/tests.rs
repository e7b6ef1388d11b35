use super::*;
use apiary_cap::{EndpointId, MemRange, ServiceId};
use apiary_noc::NocConfig;

fn monitor(node: u16) -> Monitor {
    Monitor::new(NodeId(node), MonitorConfig::default())
}

fn ep_cap(m: &mut Monitor, dst: u16, rights: Rights) -> CapRef {
    m.install_cap(Capability::new(
        CapKind::Endpoint(EndpointId(u32::from(dst))),
        rights,
    ))
    .expect("space")
}

#[test]
fn send_requires_capability() {
    let mut m = monitor(0);
    let bogus = CapRef {
        index: 3,
        generation: 0,
    };
    let err = m
        .send(bogus, 1, 0, TrafficClass::Request, vec![], Cycle(1))
        .expect_err("no cap installed");
    assert!(matches!(err, SendError::Cap(_)));
    assert_eq!(m.stats().denied, 1);
}

#[test]
fn send_happy_path_stamps_src_and_badge() {
    let mut noc = Noc::new(NocConfig::soft(2, 2));
    let mut m = monitor(0);
    let cap = m
        .install_cap(Capability::badged(
            CapKind::Endpoint(EndpointId(3)),
            Rights::SEND,
            0xBEE5,
        ))
        .expect("space");
    m.send(cap, 7, 42, TrafficClass::Request, vec![1, 2], Cycle(0))
        .expect("allowed");
    // Pump out after the check pipeline cycle.
    m.pump_out(&mut noc, Cycle(1));
    assert!(noc.run_until_quiescent(1_000));
    let d = noc.poll_eject(NodeId(3)).expect("delivered");
    assert_eq!(d.msg.src, NodeId(0), "monitor stamps the true source");
    assert_eq!(d.msg.badge, 0xBEE5);
    assert_eq!(d.msg.kind, 7);
    assert_eq!(d.msg.tag, 42);
}

#[test]
fn recv_only_cap_cannot_send() {
    let mut m = monitor(0);
    let cap = ep_cap(&mut m, 1, Rights::RECV);
    let err = m
        .send(cap, 1, 0, TrafficClass::Request, vec![], Cycle(0))
        .expect_err("SEND missing");
    assert!(matches!(
        err,
        SendError::Cap(CapError::InsufficientRights { .. })
    ));
}

#[test]
fn service_caps_resolve_through_name_table() {
    let mut m = monitor(0);
    let cap = m
        .install_cap(Capability::new(
            CapKind::Service(ServiceId(9)),
            Rights::SEND,
        ))
        .expect("space");
    // Unbound: unknown service.
    assert_eq!(
        m.send(cap, 1, 0, TrafficClass::Request, vec![], Cycle(0)),
        Err(SendError::UnknownService)
    );
    // Bind and retry.
    m.bind_service(9, NodeId(2));
    m.send(cap, 1, 0, TrafficClass::Request, vec![], Cycle(0))
        .expect("resolves now");
}

#[test]
fn rate_limit_denies_and_counts() {
    let cfg = MonitorConfig {
        rate: Some((0, 100)), // 100-byte bucket, no refill.
        ..MonitorConfig::default()
    };
    let mut m = Monitor::new(NodeId(0), cfg);
    let cap = ep_cap(&mut m, 1, Rights::SEND);
    // 64 + 16 header = 80 bytes: fits once.
    m.send(cap, 1, 0, TrafficClass::Bulk, vec![0; 64], Cycle(0))
        .expect("burst");
    let err = m
        .send(cap, 1, 1, TrafficClass::Bulk, vec![0; 64], Cycle(0))
        .expect_err("bucket empty");
    assert_eq!(err, SendError::RateLimited);
    assert_eq!(m.stats().rate_limited, 1);
}

#[test]
fn outbox_backpressure() {
    let cfg = MonitorConfig {
        outbox_depth: 2,
        ..MonitorConfig::default()
    };
    let mut m = Monitor::new(NodeId(0), cfg);
    let cap = ep_cap(&mut m, 1, Rights::SEND);
    m.send(cap, 1, 0, TrafficClass::Request, vec![], Cycle(0))
        .expect("slot 1");
    m.send(cap, 1, 1, TrafficClass::Request, vec![], Cycle(0))
        .expect("slot 2");
    assert_eq!(
        m.send(cap, 1, 2, TrafficClass::Request, vec![], Cycle(0)),
        Err(SendError::Backpressure)
    );
}

#[test]
fn payload_cap_enforced() {
    let mut m = monitor(0);
    let cap = ep_cap(&mut m, 1, Rights::SEND);
    assert_eq!(
        m.send(cap, 1, 0, TrafficClass::Bulk, vec![0; 5000], Cycle(0)),
        Err(SendError::PayloadTooLarge)
    );
}

#[test]
fn fail_stop_seals_the_tile() {
    let mut noc = Noc::new(NocConfig::soft(2, 2));
    let mut m0 = monitor(0);
    let mut m1 = monitor(1);
    let cap = ep_cap(&mut m0, 1, Rights::SEND);

    m1.fail_stop();
    assert_eq!(m1.state(), TileState::FailStopped);

    // Tile 0 sends to the dead tile 1.
    m0.send(
        cap,
        wire::KIND_REQUEST,
        5,
        TrafficClass::Request,
        vec![9],
        Cycle(0),
    )
    .expect("cap is fine");
    m0.pump_out(&mut noc, Cycle(1));
    assert!(noc.run_until_quiescent(1_000));
    let now = noc.now();
    m1.pump_in(&mut noc, now);
    // The dead tile minted a NACK instead of consuming.
    assert_eq!(m1.inbox_len(), 0);
    assert_eq!(m1.stats().nacks_sent, 1);
    m1.pump_out(&mut noc, now);
    assert!(noc.run_until_quiescent(1_000));
    let now = noc.now();
    m0.pump_in(&mut noc, now);
    let d = m0.recv().expect("error reply");
    assert_eq!(d.msg.kind, wire::KIND_ERROR);
    assert_eq!(d.msg.payload[0], wire::err::TARGET_FAILED);
    assert_eq!(d.msg.tag, 5, "error reply correlates to the request");

    // And the dead tile cannot send.
    assert_eq!(
        m1.send(cap, 1, 0, TrafficClass::Request, vec![], now),
        Err(SendError::FailStopped)
    );
}

#[test]
fn errors_are_not_nacked() {
    let mut m = monitor(1);
    m.fail_stop();
    let mut err_msg = Message::new(NodeId(0), NodeId(1), TrafficClass::Control, vec![1]);
    err_msg.kind = wire::KIND_ERROR;
    m.accept(
        Delivered {
            msg: err_msg,
            injected_at: Cycle(0),
            delivered_at: Cycle(1),
        },
        Cycle(1),
    );
    assert_eq!(m.stats().nacks_sent, 0);
    assert_eq!(m.stats().dropped, 1);
}

#[test]
fn inbox_overflow_nacks() {
    let cfg = MonitorConfig {
        inbox_depth: 1,
        ..MonitorConfig::default()
    };
    let mut m = Monitor::new(NodeId(1), cfg);
    for i in 0..2 {
        let mut msg = Message::new(NodeId(0), NodeId(1), TrafficClass::Request, vec![]);
        msg.kind = wire::KIND_REQUEST;
        msg.tag = i;
        m.accept(
            Delivered {
                msg,
                injected_at: Cycle(0),
                delivered_at: Cycle(1),
            },
            Cycle(1),
        );
    }
    assert_eq!(m.inbox_len(), 1);
    assert_eq!(m.stats().nacks_sent, 1);
}

#[test]
fn mem_send_checks_bounds_before_network() {
    let mut m = monitor(0);
    let seg = m
        .install_cap(Capability::new(
            CapKind::Memory(MemRange::new(0x4000, 0x100)),
            Rights::READ | Rights::WRITE,
        ))
        .expect("space");
    let svc = ep_cap(&mut m, 3, Rights::SEND);
    // In-bounds write.
    m.send_mem(
        seg,
        svc,
        AccessKind::Write,
        0x10,
        4,
        &[1, 2, 3, 4],
        1,
        Cycle(0),
    )
    .expect("in bounds");
    // Out-of-bounds read denied locally.
    let err = m
        .send_mem(seg, svc, AccessKind::Read, 0xfff, 8, &[], 2, Cycle(0))
        .expect_err("out of bounds");
    assert!(matches!(err, SendError::Protect(_)));
    assert_eq!(m.stats().sent, 1, "denied access never queued");
}

#[test]
fn mem_payload_encodes_physical_address() {
    let mut m = monitor(0);
    let seg = m
        .install_cap(Capability::new(
            CapKind::Memory(MemRange::new(0x4000, 0x100)),
            Rights::READ,
        ))
        .expect("space");
    let svc = ep_cap(&mut m, 3, Rights::SEND);
    m.send_mem(seg, svc, AccessKind::Read, 0x20, 8, &[], 1, Cycle(0))
        .expect("in bounds");
    let (_, msg) = m.outbox.pop_front().expect("queued");
    let (addr, len, data) = wire_mem::decode(&msg.payload).expect("well formed");
    assert_eq!(addr, 0x4020);
    assert_eq!(len, 8);
    assert!(data.is_empty());
    assert_eq!(msg.kind, wire::KIND_MEM_READ);
}

#[test]
fn reset_clears_everything() {
    let mut m = monitor(0);
    let cap = ep_cap(&mut m, 1, Rights::SEND);
    m.send(cap, 1, 0, TrafficClass::Request, vec![], Cycle(0))
        .expect("queued");
    m.fail_stop();
    m.reset(Cycle(2));
    assert_eq!(m.state(), TileState::Running);
    assert_eq!(m.caps().live(), 0, "reconfig revokes all authority");
    // Old cap refs are dead.
    assert!(matches!(
        m.send(cap, 1, 0, TrafficClass::Request, vec![], Cycle(3)),
        Err(SendError::Cap(_))
    ));
}

#[test]
fn out_of_range_endpoint_is_an_error_not_an_alias() {
    // Regression: endpoint 65537 used to truncate (`e.0 as u16`) and
    // alias node 1, silently routing traffic to the wrong tile.
    let mut m = monitor(0);
    let cap = m
        .install_cap(Capability::new(
            CapKind::Endpoint(EndpointId(65_537)),
            Rights::SEND,
        ))
        .expect("space");
    assert_eq!(
        m.send(cap, 1, 0, TrafficClass::Request, vec![1], Cycle(0)),
        Err(SendError::InvalidEndpoint)
    );
    assert_eq!(m.stats().denied, 1);
    assert_eq!(m.outbox_len(), 0, "nothing queued for the bogus id");
    // And the reply-path lookup must not confuse it with node 1 either.
    assert_eq!(m.find_endpoint_cap(NodeId(1)), None);
}

#[test]
fn flow_cache_skips_pipeline_on_repeat_sends() {
    let mut m = monitor(0);
    let cap = ep_cap(&mut m, 1, Rights::SEND);
    m.send(cap, 1, 0, TrafficClass::Request, vec![], Cycle(5))
        .expect("first send primes the flow");
    m.send(cap, 1, 1, TrafficClass::Request, vec![], Cycle(5))
        .expect("second send hits the cache");
    assert_eq!(m.stats().flow_misses, 1);
    assert_eq!(m.stats().flow_hits, 1);
    // First message pays check_cycles (ready at 6); the hit is ready
    // immediately but queues behind it in FIFO order.
    assert_eq!(m.outbox_next_ready(), Some(Cycle(6)));
    let ready: Vec<Cycle> = m.outbox.iter().map(|(r, _)| *r).collect();
    assert_eq!(ready, vec![Cycle(6), Cycle(5)]);
}

#[test]
fn revoke_invalidates_flow_cache() {
    let mut m = monitor(0);
    let cap = ep_cap(&mut m, 1, Rights::SEND);
    m.send(cap, 1, 0, TrafficClass::Request, vec![], Cycle(0))
        .expect("primes the cache");
    m.revoke_cap(cap).expect("live");
    // The cached verdict must not outlive the capability.
    assert!(matches!(
        m.send(cap, 1, 1, TrafficClass::Request, vec![], Cycle(1)),
        Err(SendError::Cap(_))
    ));
    assert_eq!(m.stats().denied, 1);
}

#[test]
fn rebind_invalidates_flow_cache() {
    let mut m = monitor(0);
    let cap = m
        .install_cap(Capability::new(
            CapKind::Service(ServiceId(9)),
            Rights::SEND,
        ))
        .expect("space");
    m.bind_service(9, NodeId(2));
    m.send(cap, 1, 0, TrafficClass::Request, vec![], Cycle(0))
        .expect("resolves to node 2");
    // Supervisor rewires the service to node 3: the cached verdict for
    // the old destination must be dropped, not replayed.
    m.bind_service(9, NodeId(3));
    m.send(cap, 1, 1, TrafficClass::Request, vec![], Cycle(0))
        .expect("resolves to node 3");
    let dsts: Vec<NodeId> = m.outbox.iter().map(|(_, msg)| msg.dst).collect();
    assert_eq!(dsts, vec![NodeId(2), NodeId(3)]);
}

/// Every invalidation point leaves the flow-cache law holding: no cached
/// verdict survives that a full check would no longer give.
#[test]
fn flow_cache_law_holds_across_revoke_rebind_and_reset() {
    let send = |m: &mut Monitor, cap| {
        m.send(cap, 1, 0, TrafficClass::Request, vec![], Cycle(0))
            .expect("primes the flow");
    };
    let mut m = monitor(0);
    let ep = ep_cap(&mut m, 1, Rights::SEND);
    send(&mut m, ep);
    assert_eq!(m.check_invariants(), Ok(()));
    m.revoke_cap(ep).expect("live");
    assert_eq!(m.check_invariants(), Ok(()), "after revoke");

    let svc = Capability::new(CapKind::Service(ServiceId(9)), Rights::SEND);
    let svc = m.install_cap(svc).expect("space");
    m.bind_service(9, NodeId(2));
    send(&mut m, svc);
    m.bind_service(9, NodeId(3));
    assert_eq!(m.check_invariants(), Ok(()), "after rebind");

    send(&mut m, svc);
    m.reset(Cycle(1));
    assert_eq!(m.check_invariants(), Ok(()), "after reset");

    // A verdict the table no longer gives breaks the law.
    let ep = ep_cap(&mut m, 1, Rights::SEND);
    let wrong = FlowEntry {
        dst: NodeId(2),
        badge: 0,
    };
    m.flows.insert((ep.index, ep.generation), wrong);
    assert!(m.check_invariants().is_err());
}

#[test]
fn flow_cache_off_restores_per_message_checks() {
    let cfg = MonitorConfig {
        flow_cache: false,
        ..MonitorConfig::default()
    };
    let mut m = Monitor::new(NodeId(0), cfg);
    let cap = ep_cap(&mut m, 1, Rights::SEND);
    m.send(cap, 1, 0, TrafficClass::Request, vec![], Cycle(0))
        .expect("ok");
    m.send(cap, 1, 1, TrafficClass::Request, vec![], Cycle(0))
        .expect("ok");
    assert_eq!(m.stats().flow_hits, 0);
    assert_eq!(m.stats().flow_misses, 0);
    let ready: Vec<Cycle> = m.outbox.iter().map(|(r, _)| *r).collect();
    assert_eq!(
        ready,
        vec![Cycle(1), Cycle(1)],
        "every message pays the pipeline"
    );
}

#[test]
fn wire_mem_roundtrip() {
    let p = wire_mem::encode(0xdead_beef, 32, &[7; 5]);
    let (a, l, d) = wire_mem::decode(&p).expect("well formed");
    assert_eq!(a, 0xdead_beef);
    assert_eq!(l, 32);
    assert_eq!(d, &[7; 5]);
    assert_eq!(wire_mem::decode(&[0; 15]), None);
}
