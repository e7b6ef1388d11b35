//! Cross-crate integration tests: full systems exercising several
//! subsystems at once (network + kernel + accelerators + memory).

use apiary::accel::apps::compress::compressor;
use apiary::accel::apps::echo::{echo, EchoAccel};
use apiary::accel::apps::idle::idle;
use apiary::accel::codec::lz;
use apiary::accel::{Accelerator, TileOs};
use apiary::core::{AppId, FaultPolicy, System, SystemConfig};
use apiary::monitor::wire;
use apiary::net::{EthernetTile, NetConfig, RequestGen, Workload};
use apiary::noc::{Delivered, NodeId, TrafficClass};
use apiary::sim::{Cycle, Machine, Wakeup};

// ---------------------------------------------------------------------
// Compressor: payload bytes arrive intact across the whole stack.
// ---------------------------------------------------------------------

#[test]
fn compressed_reply_decompresses_to_the_payload_end_to_end() {
    let mut sys = System::new(SystemConfig::default());
    let client = NodeId(0);
    let server = NodeId(10);
    sys.install(client, Box::new(idle()), AppId(1), FaultPolicy::FailStop)
        .expect("free");
    sys.install(
        server,
        Box::new(compressor()),
        AppId(1),
        FaultPolicy::FailStop,
    )
    .expect("free");
    let cap = sys.connect(client, server, false).expect("same app");
    sys.connect(server, client, false).expect("reply path");

    let payload = b"the bytes to be compressed, crossing the NoC, crossing the NoC".to_vec();
    let now = sys.now();
    sys.tile_mut(client)
        .monitor
        .send(
            cap,
            wire::KIND_REQUEST,
            9,
            TrafficClass::Request,
            payload.clone(),
            now,
        )
        .expect("send accepted");
    assert!(sys.run_until_idle(100_000));
    let d = sys
        .tile_mut(client)
        .monitor
        .recv()
        .expect("compressed reply");
    assert_eq!(d.msg.kind, wire::KIND_RESPONSE);
    assert_eq!(d.msg.tag, 9);
    assert_eq!(
        lz::decompress(&d.msg.payload).expect("a valid stream"),
        payload
    );
}

// ---------------------------------------------------------------------
// Network service + reconfiguration: the MAC keeps serving clients while
// an unrelated tile is reconfigured.
// ---------------------------------------------------------------------

#[test]
fn mac_clients_survive_unrelated_reconfiguration() {
    let mut sys = System::new(SystemConfig::default());
    let mac_node = NodeId(0);
    let svc_node = NodeId(5);
    let churn_node = NodeId(9);

    let mut mac = EthernetTile::new(NetConfig::default());
    mac.add_client(
        RequestGen::new(
            1,
            80,
            64,
            Workload::Closed {
                outstanding: 2,
                think_cycles: 0,
            },
            5,
        )
        .with_max_requests(40),
    );
    sys.install(
        mac_node,
        Box::new(mac),
        apiary::core::process::OS_APP,
        FaultPolicy::FailStop,
    )
    .expect("free");
    sys.install(
        svc_node,
        Box::new(echo(16)),
        AppId(1),
        FaultPolicy::FailStop,
    )
    .expect("free");
    sys.install(
        churn_node,
        Box::new(echo(1)),
        AppId(2),
        FaultPolicy::FailStop,
    )
    .expect("free");
    let flow = sys.connect(mac_node, svc_node, false).expect("OS app");
    sys.connect(svc_node, mac_node, false).expect("reply path");
    sys.accel_as_mut::<EthernetTile>(mac_node)
        .expect("installed")
        .bind_flow(80, flow);

    // Kick off a reconfiguration of the unrelated tile mid-run.
    let mut reconfigured = false;
    for i in 0..5_000_000u64 {
        sys.tick();
        if i == 500 && !reconfigured {
            sys.reconfigure(
                churn_node,
                Box::new(echo(3)),
                AppId(2),
                FaultPolicy::FailStop,
                64 << 10,
            )
            .expect("reconfigurable");
            reconfigured = true;
        }
        if sys
            .accel_as::<EthernetTile>(mac_node)
            .expect("installed")
            .all_done()
        {
            break;
        }
    }
    let mac = sys.accel_as::<EthernetTile>(mac_node).expect("installed");
    assert_eq!(mac.client(0).stats.completed, 40);
    assert_eq!(mac.client(0).stats.errors, 0);
    // The clients may finish before the bitstream does; let it land.
    sys.run(20_000);
    let churn = sys.accel_as::<EchoAccel>(churn_node).expect("echo");
    assert_eq!(churn.service().cost_cycles, 3, "the new bitstream landed");
}

// ---------------------------------------------------------------------
// An accelerator that uses the memory service from inside its own logic:
// write the request payload to DRAM, read it back, reply with the copy.
// Exercises the full monitor-checked, NoC-routed memory path driven by
// accelerator code.
// ---------------------------------------------------------------------

enum MemEchoState {
    Idle,
    Writing { req: Delivered },
    Reading { req: Delivered, len: u64 },
}

struct MemEcho {
    state: MemEchoState,
    served: u64,
}

impl MemEcho {
    fn new() -> MemEcho {
        MemEcho {
            state: MemEchoState::Idle,
            served: 0,
        }
    }
}

impl Accelerator for MemEcho {
    fn name(&self) -> &'static str {
        "mem-echo"
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }

    /// Every state waits on a message and a wake consumes at most one, so
    /// `OnMessage` is exact: the driver re-wakes while the inbox is non-empty.
    fn wake(&mut self, _now: Cycle, os: &mut dyn TileOs) -> Wakeup {
        let mem = os.cap_env().get("mem").expect("granted at setup");
        match std::mem::replace(&mut self.state, MemEchoState::Idle) {
            MemEchoState::Idle => {
                if let Some(req) = os.recv() {
                    if req.msg.kind == wire::KIND_REQUEST {
                        os.mem_write(mem, 0, &req.msg.payload, 1)
                            .expect("segment is large enough");
                        self.state = MemEchoState::Writing { req };
                    }
                }
            }
            MemEchoState::Writing { req } => {
                // Wait for the write ack.
                match os.recv() {
                    Some(d) if d.msg.kind == wire::KIND_MEM_REPLY => {
                        let len = req.msg.payload.len() as u64;
                        os.mem_read(mem, 0, len, 2).expect("in bounds");
                        self.state = MemEchoState::Reading { req, len };
                    }
                    _ => self.state = MemEchoState::Writing { req },
                }
            }
            MemEchoState::Reading { req, len } => match os.recv() {
                Some(d) if d.msg.kind == wire::KIND_MEM_REPLY => {
                    assert_eq!(d.msg.payload.len() as u64, len);
                    let _ = os.reply(
                        &req,
                        wire::KIND_RESPONSE,
                        TrafficClass::Request,
                        d.msg.payload,
                    );
                    self.served += 1;
                }
                _ => self.state = MemEchoState::Reading { req, len },
            },
        }
        Wakeup::OnMessage
    }
}

#[test]
fn accelerator_driven_memory_roundtrip() {
    let mut sys = System::new(SystemConfig::default());
    let client = NodeId(0);
    let server = NodeId(6);
    sys.install(client, Box::new(idle()), AppId(1), FaultPolicy::FailStop)
        .expect("free");
    sys.install(
        server,
        Box::new(MemEcho::new()),
        AppId(1),
        FaultPolicy::FailStop,
    )
    .expect("free");
    let cap = sys.connect(client, server, false).expect("same app");
    sys.connect(server, client, false).expect("reply path");
    let mem_cap = sys.grant_memory(server, 8192).expect("space");
    sys.grant_env(server, "mem", mem_cap);

    let payload: Vec<u8> = (0..200u8).collect();
    let now = sys.now();
    sys.tile_mut(client)
        .monitor
        .send(
            cap,
            wire::KIND_REQUEST,
            7,
            TrafficClass::Request,
            payload.clone(),
            now,
        )
        .expect("send accepted");
    assert!(sys.run_until_idle(1_000_000));
    let d = sys.tile_mut(client).monitor.recv().expect("reply");
    assert_eq!(d.msg.payload, payload, "bytes round-tripped through DRAM");
    assert_eq!(d.msg.tag, 7);

    // The memory service actually saw the traffic.
    let memsvc = sys
        .accel_as::<apiary::core::memsvc::MemoryService>(sys.mem_node())
        .expect("boot service");
    assert_eq!(memsvc.writes, 1);
    assert_eq!(memsvc.reads, 1);
}

// ---------------------------------------------------------------------
// Accounting: the message layer is observable without accelerator help.
// ---------------------------------------------------------------------

#[test]
fn monitor_traces_capture_message_flow() {
    let mut sys = System::new(SystemConfig::default());
    let client = NodeId(0);
    let server = NodeId(5);
    sys.install(client, Box::new(idle()), AppId(1), FaultPolicy::FailStop)
        .expect("free");
    sys.install(server, Box::new(echo(2)), AppId(1), FaultPolicy::FailStop)
        .expect("free");
    let cap = sys.connect(client, server, false).expect("same app");
    sys.connect(server, client, false).expect("reply path");

    let now = sys.now();
    sys.tile_mut(client)
        .monitor
        .send(
            cap,
            wire::KIND_REQUEST,
            3,
            TrafficClass::Request,
            vec![1],
            now,
        )
        .expect("send accepted");
    assert!(sys.run_until_idle(100_000));
    let reply = sys.tile_mut(client).monitor.recv().expect("reply");
    assert_eq!(reply.msg.tag, 3);

    // The request and its reply each cross two monitors: one sent and one
    // received on each tile, nothing refused.
    for n in [client, server] {
        let s = sys.tile(n).monitor.stats();
        assert_eq!((s.sent, s.received), (1, 1), "tile {n}: {s:?}");
        assert_eq!(s.denied + s.rate_limited + s.backpressured + s.dropped, 0);
    }
}
