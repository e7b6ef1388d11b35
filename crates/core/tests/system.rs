//! Kernel-level integration tests: full systems on a real NoC.

use apiary_accel::apps::echo::{echo, EchoAccel};
use apiary_accel::apps::faulty::faulty;
use apiary_accel::apps::idle::idle;
use apiary_accel::apps::kv::{self, KvStoreAccel};
use apiary_core::memsvc::MemoryService;
use apiary_core::{AppId, FaultPolicy, System, SystemConfig, SystemError, MEM_CAPACITY};
use apiary_monitor::{wire, TileState};
use apiary_noc::{NodeId, TrafficClass};
use apiary_sim::{Cycle, Machine};

fn small_system() -> System {
    System::new(SystemConfig::default()) // 4x4, memory service at n15.
}

/// Drives a request from a bare client tile by poking its monitor directly.
fn client_send(
    sys: &mut System,
    from: NodeId,
    cap: apiary_cap::CapRef,
    tag: u64,
    payload: Vec<u8>,
) {
    let now = sys.now();
    sys.tile_mut(from)
        .monitor
        .send(
            cap,
            wire::KIND_REQUEST,
            tag,
            TrafficClass::Request,
            payload,
            now,
        )
        .expect("send accepted");
}

fn client_recv(sys: &mut System, at: NodeId) -> Option<apiary_noc::Delivered> {
    sys.tile_mut(at).monitor.recv()
}

#[test]
fn echo_request_response_end_to_end() {
    let mut sys = small_system();
    let client = NodeId(0);
    let server = NodeId(5);
    sys.install(client, Box::new(idle()), AppId(1), FaultPolicy::FailStop)
        .expect("free");
    sys.install(server, Box::new(echo(3)), AppId(1), FaultPolicy::FailStop)
        .expect("free");
    let cap = sys.connect(client, server, false).expect("same app");
    // Reply path.
    sys.connect(server, client, false).expect("same app");

    client_send(&mut sys, client, cap, 77, vec![1, 2, 3]);
    assert!(sys.run_until_idle(10_000));
    let d = client_recv(&mut sys, client).expect("response came back");
    assert_eq!(d.msg.kind, wire::KIND_RESPONSE);
    assert_eq!(d.msg.tag, 77);
    assert_eq!(d.msg.payload, vec![1, 2, 3]);
    assert_eq!(d.msg.src, server);
}

#[test]
fn cross_app_connect_requires_explicit_allow() {
    let mut sys = small_system();
    sys.install(
        NodeId(0),
        Box::new(echo(1)),
        AppId(1),
        FaultPolicy::FailStop,
    )
    .expect("free");
    sys.install(
        NodeId(1),
        Box::new(echo(1)),
        AppId(2),
        FaultPolicy::FailStop,
    )
    .expect("free");
    assert!(matches!(
        sys.connect(NodeId(0), NodeId(1), false),
        Err(apiary_core::SystemError::CrossAppConnect { .. })
    ));
    sys.connect(NodeId(0), NodeId(1), true).expect("explicit");
}

#[test]
fn unconnected_tiles_cannot_communicate() {
    let mut sys = small_system();
    sys.install(
        NodeId(0),
        Box::new(echo(1)),
        AppId(1),
        FaultPolicy::FailStop,
    )
    .expect("free");
    sys.install(
        NodeId(1),
        Box::new(echo(1)),
        AppId(2),
        FaultPolicy::FailStop,
    )
    .expect("free");
    // No connect: nothing to send through. The only authority tile 0 holds
    // is none at all.
    assert_eq!(sys.tile(NodeId(0)).monitor.caps().live(), 0);
}

#[test]
fn connecting_to_os_service_is_implicitly_allowed() {
    let mut sys = small_system();
    sys.install(
        NodeId(0),
        Box::new(echo(1)),
        AppId(7),
        FaultPolicy::FailStop,
    )
    .expect("free");
    // The memory tile belongs to OS_APP; no allow_cross_app needed.
    sys.connect(NodeId(0), sys.mem_node(), false)
        .expect("OS services are reachable");
}

#[test]
fn memory_read_write_through_the_service() {
    let mut sys = small_system();
    let client = NodeId(2);
    sys.install(client, Box::new(idle()), AppId(1), FaultPolicy::FailStop)
        .expect("free");
    let mem_cap = sys.grant_memory(client, 4096).expect("memory available");

    // Drive the monitor directly as a stand-in for accelerator logic.
    let svc = sys.tile(client).env.get("mem-service").expect("wired");
    let now = sys.now();
    sys.tile_mut(client)
        .monitor
        .send_mem(
            mem_cap,
            svc,
            apiary_mem::AccessKind::Write,
            64,
            4,
            &[0xAA, 0xBB, 0xCC, 0xDD],
            1,
            now,
        )
        .expect("in bounds");
    assert!(sys.run_until_idle(10_000));
    let ack = client_recv(&mut sys, client).expect("write ack");
    assert_eq!(ack.msg.kind, wire::KIND_MEM_REPLY);

    let now = sys.now();
    sys.tile_mut(client)
        .monitor
        .send_mem(
            mem_cap,
            svc,
            apiary_mem::AccessKind::Read,
            64,
            4,
            &[],
            2,
            now,
        )
        .expect("in bounds");
    assert!(sys.run_until_idle(10_000));
    let data = client_recv(&mut sys, client).expect("read completion");
    assert_eq!(data.msg.payload, vec![0xAA, 0xBB, 0xCC, 0xDD]);

    // Out-of-segment access is refused locally.
    let now = sys.now();
    let err = sys
        .tile_mut(client)
        .monitor
        .send_mem(
            mem_cap,
            svc,
            apiary_mem::AccessKind::Read,
            4090,
            16,
            &[],
            3,
            now,
        )
        .expect_err("out of bounds");
    assert!(matches!(err, apiary_monitor::SendError::Protect(_)));
}

#[test]
fn memory_isolation_between_tiles() {
    let mut sys = small_system();
    let a = NodeId(1);
    let b = NodeId(2);
    sys.install(a, Box::new(idle()), AppId(1), FaultPolicy::FailStop)
        .expect("free");
    sys.install(b, Box::new(idle()), AppId(2), FaultPolicy::FailStop)
        .expect("free");
    let cap_a = sys.grant_memory(a, 1024).expect("space");
    let cap_b = sys.grant_memory(b, 1024).expect("space");
    // The two segments are disjoint physical ranges.
    let seg_a = match sys.tile(a).monitor.caps().lookup(cap_a).expect("live").kind {
        apiary_cap::CapKind::Memory(r) => r,
        _ => panic!("memory cap"),
    };
    let seg_b = match sys.tile(b).monitor.caps().lookup(cap_b).expect("live").kind {
        apiary_cap::CapKind::Memory(r) => r,
        _ => panic!("memory cap"),
    };
    assert!(!seg_a.overlaps(&seg_b));
    // Tile B's capability handle is meaningless at tile A (different table),
    // and A cannot address outside its own segment at all: offsets are
    // segment-relative and bounds-checked.
    let svc = sys.tile(a).env.get("mem-service").expect("wired");
    let now = sys.now();
    let err = sys
        .tile_mut(a)
        .monitor
        .send_mem(
            cap_a,
            svc,
            apiary_mem::AccessKind::Read,
            1024,
            8,
            &[],
            1,
            now,
        )
        .expect_err("offset beyond own segment");
    assert!(matches!(err, apiary_monitor::SendError::Protect(_)));
}

#[test]
fn release_memory_returns_segment() {
    let mut sys = small_system();
    sys.install(NodeId(1), Box::new(idle()), AppId(1), FaultPolicy::FailStop)
        .expect("free");
    let before = sys.mem_stats().free;
    let cap = sys.grant_memory(NodeId(1), 1 << 20).expect("space");
    assert_eq!(sys.mem_stats().free, before - (1 << 20));
    sys.release_memory(NodeId(1), cap).expect("live grant");
    assert_eq!(sys.mem_stats().free, before);
    // The handle is dead now.
    assert!(sys.release_memory(NodeId(1), cap).is_err());
}

#[test]
fn fail_stop_contains_fault_and_isolates() {
    let mut sys = small_system();
    let client = NodeId(0);
    let victim = NodeId(5);
    let bystander = NodeId(6);
    sys.install(client, Box::new(idle()), AppId(1), FaultPolicy::FailStop)
        .expect("free");
    sys.install(victim, Box::new(faulty(2)), AppId(1), FaultPolicy::FailStop)
        .expect("free");
    sys.install(
        bystander,
        Box::new(echo(1)),
        AppId(2),
        FaultPolicy::FailStop,
    )
    .expect("free");
    let cap = sys.connect(client, victim, false).expect("same app");
    sys.connect(victim, client, false).expect("reply path");

    // First request is served; the second faults the accelerator.
    client_send(&mut sys, client, cap, 1, vec![1]);
    assert!(sys.run_until_idle(10_000));
    assert!(client_recv(&mut sys, client).is_some());

    client_send(&mut sys, client, cap, 2, vec![2]);
    assert!(sys.run_until_idle(10_000));
    assert_eq!(sys.tile(victim).monitor.state(), TileState::FailStopped);
    assert_eq!(sys.tile(victim).faults.len(), 1);

    // Requests to the dead tile now come back as errors.
    client_send(&mut sys, client, cap, 3, vec![3]);
    assert!(sys.run_until_idle(10_000));
    let d = client_recv(&mut sys, client).expect("error reply");
    assert_eq!(d.msg.kind, wire::KIND_ERROR);
    assert_eq!(d.msg.payload[0], wire::err::TARGET_FAILED);
    assert_eq!(d.msg.tag, 3);

    // The bystander tile is untouched.
    assert_eq!(sys.tile(bystander).monitor.state(), TileState::Running);
    assert!(sys.tile(bystander).faults.is_empty());
}

#[test]
fn preempt_policy_survives_fault_with_downtime() {
    let mut sys = small_system();
    let client = NodeId(0);
    let server = NodeId(5);
    sys.install(client, Box::new(idle()), AppId(1), FaultPolicy::FailStop)
        .expect("free");
    // KV store is preemptible; run it under the Preempt policy with a
    // faulty companion? Use faulty() which is also preemptible.
    sys.install(server, Box::new(faulty(2)), AppId(1), FaultPolicy::Preempt)
        .expect("free");
    let cap = sys.connect(client, server, false).expect("same app");
    sys.connect(server, client, false).expect("reply path");

    client_send(&mut sys, client, cap, 1, vec![1]);
    assert!(sys.run_until_idle(20_000));
    assert!(client_recv(&mut sys, client).is_some());

    client_send(&mut sys, client, cap, 2, vec![2]);
    assert!(sys.run_until_idle(20_000));
    // Preempted, not fail-stopped.
    assert_eq!(sys.tile(server).monitor.state(), TileState::Running);
    let rec = sys.tile(server).faults[0];
    assert!(matches!(
        rec.action,
        apiary_core::fault::FaultAction::Preempted { downtime } if downtime > 0
    ));

    // The tile keeps serving after its downtime. (FaultyService::served is
    // preserved across the swap, so it no longer faults at 2: served=2 >=
    // fault_after=2 means it would fault again... send request and expect
    // another preemption rather than death — the tile stays alive.)
    client_send(&mut sys, client, cap, 3, vec![3]);
    assert!(sys.run_until_idle(50_000));
    assert_eq!(sys.tile(server).monitor.state(), TileState::Running);
}

#[test]
fn preempted_tile_wakes_alike_under_both_clocks() {
    // A fault halts the accelerator, whose last wakeup is `Idle`; the
    // preemption restores it, and the second request, already waiting in
    // its inbox, must be served on the same cycle under either clock.
    let run = |clock| {
        let mut sys = System::new(SystemConfig {
            clock,
            ..SystemConfig::default()
        });
        let (client, server) = (NodeId(0), NodeId(5));
        sys.install(client, Box::new(idle()), AppId(1), FaultPolicy::FailStop)
            .expect("free");
        sys.install(server, Box::new(faulty(1)), AppId(1), FaultPolicy::Preempt)
            .expect("free");
        let cap = sys.connect(client, server, false).expect("same app");
        sys.connect(server, client, false).expect("reply path");
        client_send(&mut sys, client, cap, 1, vec![1]);
        client_send(&mut sys, client, cap, 2, vec![2]);
        let replied = sys.run_until(200_000, |s| s.tile(client).monitor.inbox_len() > 0);
        assert!(replied, "{clock:?}: no reply by cycle {}", sys.now());
        let reply = client_recv(&mut sys, client).expect("a reply");
        (reply.delivered_at, sys.tile(server).faults.len())
    };
    let dense = run(apiary_sim::ClockMode::Dense);
    assert_eq!(dense.1, 1, "the first request faults the server once");
    assert_eq!(run(apiary_sim::ClockMode::Event), dense);
}

#[test]
fn kv_store_multi_tenant_over_the_noc() {
    let mut sys = small_system();
    let tenant_a = NodeId(0);
    let tenant_b = NodeId(3);
    let store = NodeId(9);
    sys.install(tenant_a, Box::new(idle()), AppId(1), FaultPolicy::FailStop)
        .expect("free");
    sys.install(tenant_b, Box::new(idle()), AppId(2), FaultPolicy::FailStop)
        .expect("free");
    sys.install(
        store,
        Box::new(kv::kv_store()),
        AppId(3),
        FaultPolicy::FailStop,
    )
    .expect("free");
    let cap_a = sys
        .connect_badged(tenant_a, store, 0xA, true)
        .expect("explicit cross-app");
    let cap_b = sys
        .connect_badged(tenant_b, store, 0xB, true)
        .expect("explicit cross-app");
    sys.connect(store, tenant_a, true).expect("reply path");
    sys.connect(store, tenant_b, true).expect("reply path");

    // Both tenants put under the same key.
    client_send(&mut sys, tenant_a, cap_a, 1, kv::put_req(b"k", b"A"));
    client_send(&mut sys, tenant_b, cap_b, 1, kv::put_req(b"k", b"B"));
    assert!(sys.run_until_idle(20_000));
    client_recv(&mut sys, tenant_a).expect("ack");
    client_recv(&mut sys, tenant_b).expect("ack");

    // Each reads back its own value.
    client_send(&mut sys, tenant_a, cap_a, 2, kv::get_req(b"k"));
    client_send(&mut sys, tenant_b, cap_b, 2, kv::get_req(b"k"));
    assert!(sys.run_until_idle(20_000));
    let ra = client_recv(&mut sys, tenant_a).expect("value");
    let rb = client_recv(&mut sys, tenant_b).expect("value");
    assert_eq!(
        kv::parse_resp(&ra.msg.payload),
        Some((kv::status::OK, Some(b"A".as_slice())))
    );
    assert_eq!(
        kv::parse_resp(&rb.msg.payload),
        Some((kv::status::OK, Some(b"B".as_slice())))
    );
    let store_accel = sys.accel_as::<KvStoreAccel>(store).expect("installed");
    assert_eq!(store_accel.service().len(), 2);
}

#[test]
fn reconfigure_swaps_accelerator_and_revokes_authority() {
    let mut sys = small_system();
    let node = NodeId(4);
    sys.install(node, Box::new(faulty(1)), AppId(1), FaultPolicy::FailStop)
        .expect("free");
    sys.grant_memory(node, 1024).expect("space");
    assert!(sys.tile(node).monitor.caps().live() > 0);

    let done = sys
        .reconfigure(
            node,
            Box::new(echo(1)),
            AppId(2),
            FaultPolicy::FailStop,
            4096,
        )
        .expect("not already reconfiguring");
    assert!(done > sys.now());
    // Mid-reconfig: offline.
    sys.run(10);
    assert_eq!(sys.tile(node).monitor.state(), TileState::FailStopped);
    assert!(matches!(
        sys.reconfigure(node, Box::new(echo(1)), AppId(2), FaultPolicy::FailStop, 1),
        Err(apiary_core::SystemError::ReconfigInProgress(_))
    ));
    // After completion: fresh accelerator, empty capability table.
    let wait = done - sys.now();
    sys.run(wait + 2);
    assert_eq!(sys.tile(node).monitor.state(), TileState::Running);
    assert_eq!(sys.tile(node).accel_name(), "echo");
    assert_eq!(sys.tile(node).app, Some(AppId(2)));
    assert_eq!(
        sys.tile(node).monitor.caps().live(),
        0,
        "reconfiguration revokes all prior authority"
    );
}

#[test]
fn manual_preempt_roundtrips_state() {
    let mut sys = small_system();
    let node = NodeId(3);
    sys.install(node, Box::new(echo(1)), AppId(1), FaultPolicy::Preempt)
        .expect("free");
    let bytes = sys.preempt(node).expect("echo is preemptible");
    assert_eq!(bytes, 0, "echo has no state");
    assert!(sys.tile(node).busy_until > sys.now());

    // Non-preemptible accelerators refuse. (The video encoder used to be
    // the example here, but it externalizes its state now; the flooder
    // remains genuinely non-preemptible.)
    let node2 = NodeId(7);
    sys.install(
        node2,
        Box::new(apiary_accel::apps::flood::flooder(8)),
        AppId(1),
        FaultPolicy::Preempt,
    )
    .expect("free");
    assert!(matches!(
        sys.preempt(node2),
        Err(apiary_core::SystemError::NotPreemptible(_))
    ));
}

#[test]
fn render_map_shows_configuration() {
    let mut sys = small_system();
    sys.install(
        NodeId(0),
        Box::new(echo(1)),
        AppId(1),
        FaultPolicy::FailStop,
    )
    .expect("free");
    let map = sys.render_map();
    assert!(map.contains("echo"));
    assert!(map.contains("memory-service"));
    assert!(map.contains("app1"));
    assert!(map.contains("free"));
    assert!(map.contains("[mon+rtr]"), "every tile shows monitor+router");
}

#[test]
fn install_rejects_occupied_and_bad_nodes() {
    let mut sys = small_system();
    assert!(matches!(
        sys.install(
            NodeId(99),
            Box::new(echo(1)),
            AppId(1),
            FaultPolicy::FailStop
        ),
        Err(apiary_core::SystemError::BadNode(_))
    ));
    let mem = sys.mem_node();
    assert!(matches!(
        sys.install(mem, Box::new(echo(1)), AppId(1), FaultPolicy::FailStop),
        Err(apiary_core::SystemError::SlotOccupied(_))
    ));
}

#[test]
fn memory_service_stats_reachable_via_downcast() {
    let sys = small_system();
    let svc = sys
        .accel_as::<MemoryService>(sys.mem_node())
        .expect("memory service installed at boot");
    assert_eq!(svc.capacity(), MEM_CAPACITY);
}

#[test]
fn echo_accel_type_is_downcastable() {
    let mut sys = small_system();
    sys.install(
        NodeId(0),
        Box::new(echo(1)),
        AppId(1),
        FaultPolicy::FailStop,
    )
    .expect("free");
    assert!(sys.accel_as::<EchoAccel>(NodeId(0)).is_some());
    assert!(sys.accel_as::<KvStoreAccel>(NodeId(0)).is_none());
}

#[test]
fn shared_memory_segment_between_tiles() {
    let mut sys = small_system();
    let producer = NodeId(1);
    let consumer = NodeId(2);
    sys.install(producer, Box::new(idle()), AppId(1), FaultPolicy::FailStop)
        .expect("free");
    sys.install(consumer, Box::new(idle()), AppId(1), FaultPolicy::FailStop)
        .expect("free");
    let owner_cap = sys.grant_memory(producer, 4096).expect("space");
    // Share the first 256 bytes read-only with the consumer.
    let shared = sys
        .share_memory(
            producer,
            owner_cap,
            consumer,
            apiary_cap::Rights::READ,
            Some(apiary_cap::MemRange::new(
                match sys
                    .tile(producer)
                    .monitor
                    .caps()
                    .lookup(owner_cap)
                    .expect("live")
                    .kind
                {
                    apiary_cap::CapKind::Memory(r) => r.base,
                    _ => unreachable!(),
                },
                256,
            )),
        )
        .expect("sharable");

    // Producer writes; consumer reads the same bytes back.
    let svc_p = sys.tile(producer).env.get("mem-service").expect("wired");
    let now = sys.now();
    sys.tile_mut(producer)
        .monitor
        .send_mem(
            owner_cap,
            svc_p,
            apiary_mem::AccessKind::Write,
            0,
            4,
            &[9, 9, 9, 9],
            1,
            now,
        )
        .expect("in bounds");
    assert!(sys.run_until_idle(100_000));
    client_recv(&mut sys, producer).expect("ack");

    let svc_c = sys.tile(consumer).env.get("mem-service").expect("wired");
    let now = sys.now();
    sys.tile_mut(consumer)
        .monitor
        .send_mem(
            shared,
            svc_c,
            apiary_mem::AccessKind::Read,
            0,
            4,
            &[],
            2,
            now,
        )
        .expect("in bounds");
    assert!(sys.run_until_idle(100_000));
    let d = client_recv(&mut sys, consumer).expect("data");
    assert_eq!(d.msg.payload, vec![9, 9, 9, 9], "shared bytes visible");

    // The consumer's view is read-only and bounded.
    let now = sys.now();
    assert!(sys
        .tile_mut(consumer)
        .monitor
        .send_mem(
            shared,
            svc_c,
            apiary_mem::AccessKind::Write,
            0,
            1,
            &[1],
            3,
            now
        )
        .is_err());
    let now = sys.now();
    assert!(sys
        .tile_mut(consumer)
        .monitor
        .send_mem(
            shared,
            svc_c,
            apiary_mem::AccessKind::Read,
            250,
            16,
            &[],
            4,
            now
        )
        .is_err());
}

#[test]
fn share_memory_cannot_amplify_rights_or_widen() {
    let mut sys = small_system();
    sys.install(NodeId(1), Box::new(idle()), AppId(1), FaultPolicy::FailStop)
        .expect("free");
    sys.install(NodeId(2), Box::new(idle()), AppId(1), FaultPolicy::FailStop)
        .expect("free");
    let cap = sys.grant_memory(NodeId(1), 1024).expect("space");
    let base = match sys
        .tile(NodeId(1))
        .monitor
        .caps()
        .lookup(cap)
        .expect("live")
        .kind
    {
        apiary_cap::CapKind::Memory(r) => r.base,
        _ => unreachable!(),
    };
    // GRANT was never given to the owner cap, so sharing more rights than
    // READ|WRITE is refused; widening the range is refused too.
    assert!(sys
        .share_memory(
            NodeId(1),
            cap,
            NodeId(2),
            apiary_cap::Rights::READ | apiary_cap::Rights::MANAGE,
            None
        )
        .is_err());
    assert!(sys
        .share_memory(
            NodeId(1),
            cap,
            NodeId(2),
            apiary_cap::Rights::READ,
            Some(apiary_cap::MemRange::new(base, 2048))
        )
        .is_err());
}

/// Memory capabilities held at `node`.
fn memory_caps(sys: &System, node: NodeId) -> usize {
    sys.tile(node)
        .monitor
        .caps()
        .iter_live()
        .filter(|(_, c)| matches!(c.kind, apiary_cap::CapKind::Memory(_)))
        .count()
}

/// A grant or share refused by a full capability table takes nothing: the
/// allocator is where it was and the tile holds no memory capability its
/// caller was not handed. With 32 of 32 slots used the memory-service
/// wiring does not fit; with 31 it does and the memory capability does not.
#[test]
fn a_grant_or_share_refused_for_room_leaks_nothing() {
    use apiary_cap::{CapError, Rights};
    for used in [32, 31] {
        let mut sys = small_system();
        let (owner, peer, target) = (NodeId(1), NodeId(2), NodeId(3));
        for n in [owner, peer, target] {
            sys.install(n, Box::new(idle()), AppId(1), FaultPolicy::FailStop)
                .expect("free");
        }
        let owned = sys.grant_memory(owner, 1024).expect("space");
        for _ in 0..used {
            sys.connect(peer, target, false).expect("a free slot");
        }
        let stats = sys.mem_stats();
        let full = |e: SystemError| matches!(e, SystemError::Cap(CapError::TableFull));
        let granted = sys.grant_memory(peer, 4096);
        assert!(granted.is_err_and(full), "{used} slots used");
        assert_eq!(sys.mem_stats(), stats, "{used} slots used");
        assert_eq!(memory_caps(&sys, peer), 0, "{used} slots used");
        let shared = sys.share_memory(owner, owned, peer, Rights::READ, None);
        assert!(shared.is_err_and(full), "{used} slots used");
        assert_eq!(sys.mem_stats(), stats, "{used} slots used");
        assert_eq!(memory_caps(&sys, peer), 0, "{used} slots used");
    }
}

#[test]
fn attach_client_to_an_unknown_service_names_it() {
    let mut sys = small_system();
    sys.install(NodeId(1), Box::new(idle()), AppId(1), FaultPolicy::FailStop)
        .expect("free");
    let err = sys
        .attach_client(NodeId(1), apiary_cap::ServiceId(77))
        .expect_err("nothing deployed");
    assert!(
        matches!(err, SystemError::UnknownService(apiary_cap::ServiceId(77))),
        "{err}"
    );
}

// ---------------------------------------------------------------------
// Preemptive tile sharing (§4.4): two tenants time-multiplex one tile.
// ---------------------------------------------------------------------

#[test]
fn shared_tile_time_multiplexes_two_tenants() {
    use apiary_core::fault::preemption_downtime;
    let mut sys = small_system();
    let n = NodeId(4);
    sys.install(n, Box::new(kv::kv_store()), AppId(1), FaultPolicy::Preempt)
        .expect("free tile");
    sys.accel_as_mut::<KvStoreAccel>(n)
        .expect("installed")
        .service_mut()
        .insert(1, b"a", b"alpha");
    sys.install_shared(n, Box::new(kv::kv_store()), AppId(2), FaultPolicy::Preempt)
        .expect("second tenant parks");

    // Swap 1: tenant A parks with its snapshot; B starts cold.
    let start = sys.now();
    let (out_a, in_b) = sys.swap_context(n).expect("both tenants preemptible");
    assert!(out_a > 0, "A externalized state");
    assert_eq!(in_b, 0, "B's first swap-in is cold");
    assert_eq!(
        sys.tile(n).busy_until,
        start + preemption_downtime(out_a),
        "swap charges the partial-reconfig time model"
    );
    assert_eq!(sys.tile(n).app, Some(AppId(2)));

    // Tenant B accumulates its own state while A is parked.
    sys.accel_as_mut::<KvStoreAccel>(n)
        .expect("B active")
        .service_mut()
        .insert(2, b"b", b"beta-with-more-bytes");

    // Swap 2: B parks, A restores from its swap-out snapshot.
    let (out_b, in_a) = sys.swap_context(n).expect("swap back");
    assert!(out_b > out_a, "B's snapshot includes its new entry");
    assert_eq!(in_a, out_a, "A restores exactly what it saved");
    let kv_a = sys.accel_as::<KvStoreAccel>(n).expect("A active");
    assert_eq!(kv_a.service().get(1, b"a"), Some(&b"alpha"[..]));
    assert!(
        kv_a.service().get(2, b"b").is_none(),
        "tenant isolation: B's entries are not visible to A"
    );
    let parked_b = sys.parked_as::<KvStoreAccel>(n).expect("B parked");
    assert_eq!(
        parked_b.service().get(2, b"b"),
        Some(&b"beta-with-more-bytes"[..])
    );
}

#[test]
fn shared_tile_guards_slots_and_preemptibility() {
    use apiary_core::SystemError;
    let mut sys = small_system();
    let n = NodeId(4);
    // No active tenant: nothing to share with.
    assert!(matches!(
        sys.install_shared(n, Box::new(kv::kv_store()), AppId(2), FaultPolicy::Preempt),
        Err(SystemError::SlotEmpty(_))
    ));
    // Swap without a parked tenant.
    sys.install(n, Box::new(kv::kv_store()), AppId(1), FaultPolicy::Preempt)
        .expect("free tile");
    assert!(matches!(
        sys.swap_context(n),
        Err(SystemError::NoParkedTenant(_))
    ));
    // Only one tenant can be parked.
    sys.install_shared(n, Box::new(kv::kv_store()), AppId(2), FaultPolicy::Preempt)
        .expect("parks");
    assert!(matches!(
        sys.install_shared(n, Box::new(kv::kv_store()), AppId(3), FaultPolicy::Preempt),
        Err(SystemError::SlotOccupied(_))
    ));
    // A non-preemptible active tenant refuses the swap (and nothing moves).
    let m = NodeId(6);
    sys.install(
        m,
        Box::new(apiary_accel::apps::flood::flooder(8)),
        AppId(1),
        FaultPolicy::FailStop,
    )
    .expect("free tile");
    sys.install_shared(m, Box::new(kv::kv_store()), AppId(2), FaultPolicy::Preempt)
        .expect("parks");
    assert!(matches!(
        sys.swap_context(m),
        Err(SystemError::NotPreemptible(_))
    ));
    assert_eq!(sys.tile(m).accel_name(), "flooder");
    assert!(sys.tile(m).parked.is_some(), "parked tenant untouched");
}

/// Counts its wakes and asks to sleep until `until`.
struct WakeCounter {
    wakes: u64,
    until: apiary_sim::Cycle,
}

impl apiary_accel::Accelerator for WakeCounter {
    fn name(&self) -> &'static str {
        "wake-counter"
    }
    fn wake(
        &mut self,
        _now: apiary_sim::Cycle,
        _os: &mut dyn apiary_accel::TileOs,
    ) -> apiary_sim::Wakeup {
        self.wakes += 1;
        apiary_sim::Wakeup::At(self.until)
    }
    fn as_any(&self) -> &dyn core::any::Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn core::any::Any {
        self
    }
}

/// Everything about a system a skipped cycle could have changed.
fn observable(sys: &System) -> String {
    let tiles: Vec<String> = (0..sys.noc().mesh().nodes() as u16)
        .map(|n| {
            let t = sys.tile(NodeId(n));
            format!("{:?}/{:?}", t.monitor.stats(), t.monitor.state())
        })
        .collect();
    format!(
        "{:?} {:?} idle={} {tiles:?}",
        sys.now(),
        sys.noc().stats(),
        sys.quiescent(),
    )
}

#[test]
fn advance_toward_a_horizon_before_every_deadline_runs_no_phases() {
    use apiary_sim::Cycle;
    let build = || {
        let mut sys = small_system();
        let counter = WakeCounter {
            wakes: 0,
            until: Cycle(1_000_000),
        };
        sys.install(
            NodeId(3),
            Box::new(counter),
            AppId(1),
            FaultPolicy::FailStop,
        )
        .expect("free");
        sys
    };
    let wakes = |sys: &System| {
        sys.accel_as::<WakeCounter>(NodeId(3))
            .expect("installed")
            .wakes
    };

    // Let every freshly installed accelerator take its first wake.
    let mut event = build();
    let mut dense = build();
    event.run(10);
    for _ in 0..10 {
        dense.tick();
    }
    let settled = wakes(&event);
    assert!(settled > 0, "the first wake ran");
    assert!(
        event.next_event_due() > Cycle(510),
        "nothing is scheduled soon"
    );

    // The horizon is the only reason to stop: no phase runs there.
    event.advance_toward(Cycle(510));
    assert_eq!(event.now(), Cycle(510));
    assert_eq!(wakes(&event), settled, "reaching the horizon woke nobody");

    // ... and the state is what 500 dense ticks leave behind.
    for _ in 0..500 {
        dense.tick();
    }
    assert!(wakes(&dense) > settled, "dense ticking wakes every cycle");
    assert_eq!(observable(&event), observable(&dense));

    // A real deadline still runs its phases on its own cycle.
    event.advance_toward(Cycle(2_000_000));
    assert_eq!(event.now(), Cycle(1_000_000));
    assert_eq!(wakes(&event), settled + 1);
}

/// Counts its wakes and asks for the next one `period` cycles on.
struct PeriodicCounter {
    wakes: u64,
    period: u64,
}

impl apiary_accel::Accelerator for PeriodicCounter {
    fn name(&self) -> &'static str {
        "periodic-counter"
    }
    fn wake(
        &mut self,
        now: apiary_sim::Cycle,
        _os: &mut dyn apiary_accel::TileOs,
    ) -> apiary_sim::Wakeup {
        self.wakes += 1;
        apiary_sim::Wakeup::after(now, self.period)
    }
    fn as_any(&self) -> &dyn core::any::Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn core::any::Any {
        self
    }
}

#[test]
fn event_clock_wakes_only_due_tiles() {
    use apiary_sim::ClockMode;
    const CYCLES: u64 = 1_000;
    let tiles = [(NodeId(3), 7), (NodeId(9), 50)];
    let run = |clock| {
        let mut sys = System::new(SystemConfig {
            clock,
            ..SystemConfig::default()
        });
        for (node, period) in tiles {
            let counter = PeriodicCounter { wakes: 0, period };
            sys.install(node, Box::new(counter), AppId(1), FaultPolicy::FailStop)
                .expect("free");
        }
        sys.run(CYCLES);
        let wakes = tiles.map(|(node, _)| {
            let counter = sys.accel_as::<PeriodicCounter>(node).expect("installed");
            counter.wakes
        });
        (wakes, observable(&sys))
    };
    let (event, seen) = run(ClockMode::Event);
    let (dense, dense_seen) = run(ClockMode::Dense);
    for (i, (_, period)) in tiles.into_iter().enumerate() {
        // Installed due at once, first woken on cycle 1, then due every
        // `period` cycles: the other tile's deadlines wake it no more.
        assert_eq!(event[i], 1 + (CYCLES - 1) / period, "tile {i}, event clock");
        assert_eq!(dense[i], CYCLES, "tile {i}, dense clock");
    }
    assert_eq!(seen, dense_seen);
}

#[test]
fn a_board_carrying_one_packet_is_due_when_it_lands() {
    use apiary_sim::{ClockMode, Cycle};
    let build = |clock| {
        System::new(SystemConfig {
            clock,
            ..SystemConfig::default()
        })
    };
    let mut event = build(ClockMode::Event);
    let mut dense = build(ClockMode::Dense);
    event.run(50);
    dense.run(50);
    assert!(
        event.next_event_due() > Cycle(1_000),
        "nothing is scheduled soon"
    );
    // 0 -> 5 on the soft 4x4: two hops of hop latency 1, and 40 payload
    // bytes behind the 16-byte header make four 16-byte flits.
    for sys in [&mut event, &mut dense] {
        let msg =
            apiary_noc::Message::new(NodeId(0), NodeId(5), TrafficClass::Request, vec![7u8; 40]);
        sys.noc_mut().try_inject(NodeId(0), msg).expect("room");
    }
    let lands = Cycle(50 + 1 + 4 + 2 * 2);
    assert_eq!(event.noc().quiet_until(), Some(lands));
    assert_eq!(event.next_event_due(), lands, "due when the tail lands");
    // One event step crosses the flight and runs the phases on its last
    // cycle; from there on every event step lands where the dense twin is.
    let phases = event.phase_cycles();
    let mut steps = 0;
    while event.now() < Cycle(5_000) {
        event.advance_toward(Cycle(5_000));
        while dense.now() < event.now() {
            dense.advance_toward(event.now());
        }
        if steps == 0 {
            assert_eq!(event.now(), lands);
            assert_eq!(event.phase_cycles(), phases + 1);
        }
        assert_eq!(event.check_invariants(), Ok(()));
        assert_eq!(observable(&event), observable(&dense), "step {steps}");
        steps += 1;
    }
    assert_eq!(event.noc().stats().delivered, 1);
    assert!(
        event.phase_cycles() < dense.phase_cycles(),
        "the event clock skipped"
    );
}

/// Drives an event-clock board and a dense twin side by side to `until`,
/// holding them to each other after every event step; returns what each
/// tile's inbox received as `(node, tag, delivered_at)`.
fn lockstep(event: &mut System, dense: &mut System, until: Cycle) -> Vec<(u16, u64, u64)> {
    while event.now() < until {
        event.advance_toward(until);
        while dense.now() < event.now() {
            dense.advance_toward(event.now());
        }
        assert_eq!(event.check_invariants(), Ok(()));
        assert_eq!(observable(event), observable(dense), "at {:?}", event.now());
    }
    let mut got = [event, dense].map(|sys| {
        let mut got = Vec::new();
        for n in 0..sys.noc().mesh().nodes() as u16 {
            while let Some(d) = sys.tile_mut(NodeId(n)).monitor.recv() {
                got.push((n, d.msg.tag, d.delivered_at.as_u64()));
            }
        }
        got
    });
    assert_eq!(got[0], got[1], "the clocks delivered differently");
    std::mem::take(&mut got[0])
}

/// `board_tenants`' flows in flight together cross no output port twice,
/// so the board is not stepped while they fly: the NoC is quiet until the
/// first landing and the machine is due then. A second source aimed at a
/// node already receiving makes the mesh be stepped.
#[test]
fn tenants_on_disjoint_routes_are_not_stepped() {
    use apiary_sim::ClockMode;
    use TrafficClass::{Bulk, Request};
    let build = |clock| {
        System::new(SystemConfig {
            clock,
            ..SystemConfig::default()
        })
    };
    let send = |sys: &mut System, flows: &[(u16, u16, TrafficClass, usize, u64)]| {
        for &(src, dst, class, bytes, tag) in flows {
            let mut msg =
                apiary_noc::Message::new(NodeId(src), NodeId(dst), class, vec![7u8; bytes]);
            msg.tag = tag;
            sys.noc_mut().try_inject(NodeId(src), msg).expect("room");
        }
    };
    let mut event = build(ClockMode::Event);
    let mut dense = build(ClockMode::Dense);
    event.run(50);
    dense.run(50);
    // The MAC to echo, the KV client to its store, the video client to the
    // encoder, the memory client to the service, which answers on two VCs.
    // With 16-byte flits behind a 16-byte header and two cycles a hop, the
    // tails land at 50 + F + 1 + 2H; node 15's Request reply streams first.
    let flows = [
        (0, 5, Request, 64, 1),
        (1, 6, Request, 48, 2),
        (3, 7, Bulk, 1000, 3),
        (12, 15, Request, 32, 4),
        (15, 12, Bulk, 1000, 5),
        (15, 12, Request, 40, 6),
    ];
    send(&mut event, &flows);
    send(&mut dense, &flows);
    assert_eq!(
        event.noc().quiet_until(),
        Some(Cycle(59)),
        "1 -> 6 lands first"
    );
    assert_eq!(event.next_event_due(), Cycle(59));
    // Node 15's memory service takes its request from its own inbox.
    let got = lockstep(&mut event, &mut dense, Cycle(1_000));
    let landed = [
        (5, 1, 60),
        (6, 2, 59),
        (7, 3, 117),
        (12, 6, 61),
        (12, 5, 125),
    ];
    assert_eq!(got, landed);

    // 13 -> 15 wants the East link out of 13 and the ejection port at 15,
    // which 12 -> 15 holds: the mesh is stepped until it is empty.
    let flows = [(12, 15, Request, 32, 7), (13, 15, Request, 32, 8)];
    let delivered = event.noc().stats().delivered;
    send(&mut event, &flows[..1]);
    send(&mut dense, &flows[..1]);
    assert!(event.noc().quiet_until().is_some(), "one packet flies");
    send(&mut event, &flows[1..]);
    send(&mut dense, &flows[1..]);
    assert_eq!(event.noc().quiet_until(), None, "a shared port is stepped");
    assert_eq!(event.next_event_due(), event.now() + 1);
    lockstep(&mut event, &mut dense, Cycle(2_000));
    assert_eq!(event.noc().stats().delivered, delivered + 2);
}

/// The machine's time is its NoC's: a tick moves both one cycle, and a
/// skip carries both to its target.
#[test]
fn the_noc_keeps_the_machine_clock() {
    let mut sys = small_system();
    sys.tick();
    assert_eq!((sys.now(), sys.noc().now()), (Cycle(1), Cycle(1)));
    sys.skip_to(Cycle(100));
    assert_eq!((sys.now(), sys.noc().now()), (Cycle(100), Cycle(100)));
}

/// Simulated time is monotonic, in release builds too.
#[test]
#[should_panic(expected = "clock moved backwards")]
fn a_skip_never_moves_the_clock_backwards() {
    let mut sys = small_system();
    sys.skip_to(Cycle(10));
    sys.skip_to(Cycle(5));
}

/// Every public `&mut self` entry of `System` either steps the clock or
/// drops the memoised kernel deadline through `touched()`, itself or by
/// calling an entry that does. A method added without it would let the
/// event clock sleep on a deadline its caller just moved.
#[test]
fn every_mutable_entry_steps_the_clock_or_calls_touched() {
    // `System`'s `impl` blocks: `src/system.rs` and its child modules.
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("src");
    let mut paths = vec![root.join("system.rs")];
    for entry in std::fs::read_dir(root.join("system")).expect("src/system/") {
        paths.push(entry.expect("directory entry").path());
    }
    let src: String = paths
        .iter()
        .map(|p| std::fs::read_to_string(p).expect("readable source"))
        .collect::<Vec<_>>()
        .join("\n");
    // (name, body) of each `pub fn` that takes `&mut self`. A body ends at
    // the method's closing brace, four spaces in.
    let mut entries: Vec<(&str, &str)> = Vec::new();
    for (at, _) in src.match_indices("\n    pub fn ") {
        let rest = &src[at + "\n    pub fn ".len()..];
        let open = rest.find('{').expect("a body");
        let name = &rest[..rest.find(['(', '<']).expect("a parameter list")];
        if rest[..open].contains("&mut self") {
            let close = rest.find("\n    }\n").expect("a closing brace");
            entries.push((name, &rest[open..close]));
        }
    }
    let steps = [
        "self.noc.step()",
        "self.jump_to(",
        "touched()",
        "Machine::advance_toward(self",
        "Machine::run_until(self",
        "Machine::drive(self",
    ];
    let mut safe: Vec<&str> = Vec::new();
    loop {
        let before = safe.len();
        for &(name, body) in &entries {
            let direct = steps.iter().any(|s| body.contains(s));
            let delegates = || safe.iter().any(|s| body.contains(&format!("self.{s}(")));
            if !safe.contains(&name) && (direct || delegates()) {
                safe.push(name);
            }
        }
        if safe.len() == before {
            break;
        }
    }
    assert!(entries.len() >= 25, "the scan found System's methods");
    for (name, _) in entries {
        assert!(
            safe.contains(&name),
            "System::{name} takes `&mut self` but neither steps the clock nor calls \
             `touched()`: the memoised kernel deadline would survive whatever it changes"
        );
    }
}

const MEMO_CLIENT: NodeId = NodeId(0);
const MEMO_SERVER: NodeId = NodeId(5);
const MEMO_SERVICE: apiary_cap::ServiceId = apiary_cap::ServiceId(9);

/// Builds an event-clock system and its dense twin, lets both settle, has
/// the event one cross a step that runs no kernel phase (so it holds a
/// memoised deadline), applies `entry` to both and demands the same state
/// on every one of the next cycles and at a few later ones: a memo that
/// outlived `entry` would sleep through the work `entry` scheduled.
fn wakes_like_its_dense_twin(entry: impl Fn(&mut System, apiary_cap::CapRef)) {
    use apiary_sim::{ClockMode, Cycle};
    let build = |clock| {
        let mut sys = System::new(SystemConfig {
            clock,
            supervisor: apiary_core::SupervisorConfig {
                enabled: true,
                ..Default::default()
            },
            ..SystemConfig::default()
        });
        sys.install(
            MEMO_CLIENT,
            Box::new(idle()),
            AppId(1),
            FaultPolicy::FailStop,
        )
        .expect("free");
        let factory = Box::new(|| Box::new(echo(3)) as Box<dyn apiary_accel::Accelerator>);
        sys.deploy_service(
            MEMO_SERVICE,
            MEMO_SERVER,
            AppId(1),
            FaultPolicy::FailStop,
            256,
            factory,
        )
        .expect("free");
        let cap = sys.attach_client(MEMO_CLIENT, MEMO_SERVICE).expect("wired");
        (sys, cap)
    };
    let (mut event, cap) = build(ClockMode::Event);
    let (mut dense, _) = build(ClockMode::Dense);
    event.run(50);
    dense.run(50);
    let phases = event.phase_cycles();
    event.advance_toward(Cycle(60));
    dense.run(10);
    assert_eq!(event.now(), Cycle(60));
    assert_eq!(event.phase_cycles(), phases, "the step ran no phase");
    entry(&mut event, cap);
    entry(&mut dense, cap);
    assert_eq!(event.check_invariants(), Ok(()));
    let see = |sys: &System| format!("{} {:?}", observable(sys), sys.incidents());
    for end in (61..=200).chain([1_000, 5_000, 50_000]) {
        while event.now() < Cycle(end) {
            event.advance_toward(Cycle(end));
        }
        while dense.now() < Cycle(end) {
            dense.advance_toward(Cycle(end));
        }
        assert_eq!(event.check_invariants(), Ok(()));
        assert_eq!(see(&event), see(&dense), "diverged by cycle {end}");
    }
    assert!(
        event.phase_cycles() < dense.phase_cycles(),
        "the event clock skipped"
    );
}

#[test]
fn a_send_through_tile_mut_wakes_the_board_on_time() {
    wakes_like_its_dense_twin(|sys, cap| client_send(sys, MEMO_CLIENT, cap, 1, vec![1, 2, 3]));
}

#[test]
fn a_reconfigure_wakes_the_board_on_time() {
    wakes_like_its_dense_twin(|sys, _| {
        sys.reconfigure(
            NodeId(6),
            Box::new(echo(1)),
            AppId(1),
            FaultPolicy::FailStop,
            300,
        )
        .expect("idle ICAP");
    });
}

#[test]
fn a_fail_stop_wakes_the_board_on_time() {
    // The supervisor detects the stopped service on the very next cycle.
    wakes_like_its_dense_twin(|sys, _| sys.fail_stop(MEMO_SERVER));
}

#[test]
fn an_attach_client_wakes_the_board_on_time() {
    wakes_like_its_dense_twin(|sys, _| {
        sys.install(NodeId(2), Box::new(idle()), AppId(1), FaultPolicy::FailStop)
            .expect("free");
        let cap = sys.attach_client(NodeId(2), MEMO_SERVICE).expect("wired");
        client_send(sys, NodeId(2), cap, 2, vec![4]);
    });
}

#[test]
fn an_injection_through_noc_mut_wakes_the_board_on_time() {
    wakes_like_its_dense_twin(|sys, _| {
        let msg = apiary_noc::Message::new(
            MEMO_CLIENT,
            MEMO_SERVER,
            TrafficClass::Request,
            vec![9u8; 40],
        );
        sys.noc_mut()
            .try_inject(MEMO_CLIENT, msg)
            .expect("queue has room");
    });
}
