//! Dense-vs-event clock equivalence under random workloads.
//!
//! The event core's contract (`DESIGN.md` §"Event-driven clock") is that
//! skipping idle cycles is an invisible optimisation: every statistic a
//! workload can observe — counts, latencies, end cycles — must match a
//! dense per-cycle run byte for byte. These tests generate random
//! client/server workloads (window sizes, think times, payload sizes,
//! request timeouts, service costs), run each under both clocks, and
//! compare the resulting [`ExperimentReport`] digests. Each machine-level
//! test goes through one [`agree`], generic over [`Machine`], which also
//! holds the machine's laws at the end of either run.
//!
//! The clock is a field of the machine (`SystemConfig::clock`), so the
//! tests here share nothing: they run in parallel at the default test
//! thread count, and `both_clocks_in_one_process` steps an event machine
//! and a dense one side by side on one thread.

use apiary_accel::apps::echo::echo;
use apiary_accel::apps::idle::idle;
use apiary_bench::harness::Run;
use apiary_bench::scenarios::{drive, Clients, MonitorClient};
use apiary_bench::{ExperimentReport, Json};
use apiary_cluster::ClusterSystem;
use apiary_core::{AppId, FaultPolicy, System, SystemConfig};
use apiary_monitor::{wire, TileState};
use apiary_noc::{NodeId, TrafficClass};
use apiary_sim::{ClockMode, Cycle, Machine};
use proptest::prelude::*;
use std::ops::ControlFlow;

#[derive(Debug, Clone)]
struct ClientParams {
    payload: usize,
    outstanding: u32,
    think: u64,
    max_requests: u64,
    timeout: u64,
}

#[derive(Debug, Clone)]
struct Params {
    echo_cost: u64,
    /// The cycle on which the operator kills the first client's server.
    kill_at: u64,
    clients: Vec<ClientParams>,
}

fn arb_client() -> impl Strategy<Value = ClientParams> {
    (
        1usize..200,
        1u32..6,
        0u64..40,
        1u64..50,
        // 0 = wait forever; small timeouts exercise abandonment racing
        // the reply, large ones never fire on an echo service.
        prop_oneof![Just(0u64), 60u64..5_000],
    )
        .prop_map(
            |(payload, outstanding, think, max_requests, timeout)| ClientParams {
                payload,
                outstanding,
                think,
                max_requests,
                timeout,
            },
        )
}

fn arb_params() -> impl Strategy<Value = Params> {
    // Kills land mid-stream, between requests, and after every client has
    // finished (when only the deadline can stop the clock).
    (
        0u64..80,
        1u64..4_000,
        prop::collection::vec(arb_client(), 1..3),
    )
        .prop_map(|(echo_cost, kill_at, clients)| Params {
            echo_cost,
            kill_at,
            clients,
        })
}

/// A system on clock `mode` with the workload's echo servers installed and
/// its clients wired, nothing sent yet.
fn build_system(mode: ClockMode, p: &Params) -> (System, Vec<MonitorClient>) {
    let spots = [(NodeId(0), NodeId(5)), (NodeId(3), NodeId(6))];
    let mut sys = System::new(SystemConfig {
        clock: mode,
        ..SystemConfig::default()
    });
    let mut clients: Vec<MonitorClient> = Vec::new();
    for (i, cp) in p.clients.iter().enumerate() {
        let (cn, sn) = spots[i];
        let app = AppId(i as u32 + 1);
        sys.install(cn, Box::new(idle()), app, FaultPolicy::FailStop)
            .expect("client slot free");
        sys.install(sn, Box::new(echo(p.echo_cost)), app, FaultPolicy::FailStop)
            .expect("server slot free");
        let cap = sys.connect(cn, sn, false).expect("same app");
        sys.connect(sn, cn, false).expect("reply path");
        let mut c = MonitorClient::new(cn, cap, cp.payload).max_requests(cp.max_requests);
        c.outstanding = cp.outstanding;
        c.think = cp.think;
        c.timeout = cp.timeout;
        c.tag_base = (i as u64) << 48;
        clients.push(c);
    }
    (sys, clients)
}

/// Everything a client can observe, as JSON.
fn client_metrics(sys: &System, c: &MonitorClient) -> Json {
    Json::obj()
        .set("issued", c.issued)
        .set("completed", c.completed)
        .set("errors", c.errors)
        .set("refused", c.refused)
        .set("lost", c.lost)
        .set("unread", sys.tile(c.node).monitor.inbox_len())
        .set("rtt_p50", c.rtt.p50())
        .set("rtt_p99", c.rtt.p99())
}

/// Runs `scenario` once under each clock, requires the machine it returns
/// to keep its laws, and demands that the two digests it returns be equal.
fn agree<M: Machine>(what: &str, scenario: impl Fn(ClockMode) -> (M, String)) {
    let [event, dense] = [ClockMode::Event, ClockMode::Dense].map(|clock| {
        let (m, digest) = scenario(clock);
        if let Err(law) = m.check_invariants() {
            panic!("{what} under {clock:?} broke a law: {law}");
        }
        digest
    });
    assert_eq!(event, dense, "{what} diverged between clocks");
}

/// Runs the workload under `mode` and returns the machine and a
/// deterministic digest of everything a client can observe.
fn run_system(mode: ClockMode, p: &Params) -> (System, String) {
    let (mut sys, mut clients) = build_system(mode, p);
    let mut refs: Vec<&mut MonitorClient> = clients.iter_mut().collect();

    // An operator action in `Machine::drive`'s `look`: the first client's
    // server is killed on a scheduled cycle (a deadline no client knows
    // about), reconfigured the moment the tile reads fail-stopped, and its
    // reply path re-wired the moment the fresh accelerator comes up
    // (conditions polled after every step). Requests the kill swallowed
    // time out or hang until `drive` gives up, whichever the client is set
    // to do.
    let (cn, sn) = (NodeId(0), NodeId(5));
    let kill_at = Cycle(p.kill_at);
    let mut reconfigured_at = None;
    let mut rewired_at = None;
    let budget = 100_000 - sys.now().as_u64();
    sys.drive(&mut Clients(&mut refs), budget, |sys, _| {
        if reconfigured_at.is_none() && sys.now() >= kill_at {
            sys.inject_fault(sn, 0xDEAD);
        }
        let state = sys.tile(sn).monitor.state();
        if reconfigured_at.is_none() && state == TileState::FailStopped {
            sys.reconfigure(
                sn,
                Box::new(echo(p.echo_cost)),
                AppId(1),
                FaultPolicy::FailStop,
                64 * (1 + p.echo_cost),
            )
            .expect("the tile just fail-stopped");
            reconfigured_at = Some(sys.now().as_u64());
        } else if reconfigured_at.is_some() && state == TileState::Running {
            sys.connect(sn, cn, false).expect("re-wire reply path");
            rewired_at = Some(sys.now().as_u64());
            return ControlFlow::Break(());
        }
        ControlFlow::Continue(if sys.now() < kill_at {
            kill_at
        } else {
            Cycle::MAX
        })
    });
    let rewired_at = rewired_at.expect("the tile never came back");
    let consumed = drive(&mut sys, &mut refs, 400_000);
    let mut metrics = Json::obj()
        .set(
            "reconfigured_at",
            reconfigured_at.expect("set before the re-wire"),
        )
        .set("rewired_at", rewired_at)
        .set("cycles_consumed", consumed)
        .set("end_cycle", sys.now().as_u64());

    // A second burst that nobody pumps, one window per client straight
    // through its monitor, and then the three undriven run loops in turn.
    // Each must stop on the same cycle under both clocks: `run` with the
    // burst still in flight, `run_until` the moment the fabric drains (the
    // echo servers are still computing), `run_until_idle` once the replies
    // have settled or its budget, sometimes shorter than the settle window,
    // runs out.
    let now = sys.now();
    for (c, cp) in clients.iter().zip(&p.clients) {
        for k in 0..cp.outstanding {
            let sent = sys.tile_mut(c.node).monitor.send(
                c.cap,
                wire::KIND_REQUEST,
                c.tag_base + (1 << 32) + u64::from(k),
                TrafficClass::Request,
                vec![0xA5; cp.payload],
                now,
            );
            sent.expect("an idle monitor takes one window");
        }
    }
    sys.run(4);
    assert!(!sys.quiescent(), "the burst is still on its way");
    metrics = metrics.set("run_end", sys.now().as_u64());
    let drained = Machine::run_until(&mut sys, 100_000, Machine::quiescent);
    metrics = metrics
        .set("run_until_fired", drained)
        .set("run_until_end", sys.now().as_u64());
    let settled = sys.run_until_idle(3_000 + 100 * p.echo_cost);
    metrics = metrics
        .set("run_until_idle_settled", settled)
        .set("run_until_idle_end", sys.now().as_u64());

    for (i, c) in clients.iter().enumerate() {
        metrics = metrics.set(format!("client{i}"), client_metrics(&sys, c));
    }
    let digest = ExperimentReport::new(
        "PROP",
        "dense-vs-event equivalence",
        sys.now().as_u64(),
        metrics,
        String::new(),
    )
    .to_json();
    (sys, digest)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn dense_and_event_clocks_agree(p in arb_params()) {
        agree("a driven board and its undriven tail", |mode| run_system(mode, &p));
    }
}

/// An event machine and a dense machine on the same workload, stepped
/// alternately on one thread in slices short enough to cut requests in
/// half: neither clock leaks into the other machine, and the two end in
/// the same state. With a process-wide clock mode this could not be
/// written: both machines would have stepped by whichever was set last.
#[test]
fn both_clocks_in_one_process() {
    let client = |payload, outstanding, think, max_requests, timeout| ClientParams {
        payload,
        outstanding,
        think,
        max_requests,
        timeout,
    };
    let p = Params {
        echo_cost: 23,
        kill_at: 0, // no operator here: `drive` alone
        clients: vec![client(96, 3, 11, 40, 0), client(17, 2, 0, 35, 900)],
    };
    let (mut event, mut event_clients) = build_system(ClockMode::Event, &p);
    let (mut dense, mut dense_clients) = build_system(ClockMode::Dense, &p);
    assert_eq!(event.config().clock, ClockMode::Event);
    assert_eq!(dense.config().clock, ClockMode::Dense);

    const SLICE: u64 = 37;
    let mut slices = 0;
    while !(event_clients.iter().all(|c| c.done()) && dense_clients.iter().all(|c| c.done())) {
        let mut refs: Vec<&mut MonitorClient> = event_clients.iter_mut().collect();
        drive(&mut event, &mut refs, SLICE);
        let mut refs: Vec<&mut MonitorClient> = dense_clients.iter_mut().collect();
        drive(&mut dense, &mut refs, SLICE);
        assert_eq!(event.now(), dense.now(), "slice {slices} ended apart");
        slices += 1;
        assert!(slices < 10_000, "workload did not finish");
    }
    assert!(slices > 10, "the slices must interleave the two machines");

    let digest = |sys: &System, clients: &[MonitorClient]| {
        let mut metrics = Json::obj()
            .set("end_cycle", sys.now().as_u64())
            .set("noc", format!("{:?}", sys.noc().stats()));
        for (i, c) in clients.iter().enumerate() {
            metrics = metrics.set(format!("client{i}"), client_metrics(sys, c));
        }
        metrics.render()
    };
    assert_eq!(
        digest(&event, &event_clients),
        digest(&dense, &dense_clients)
    );
}

/// The cluster path (fabric ARQ, gossip, request timeouts, chaos windows)
/// must agree too — E17's link-cut cell end to end under both clocks.
#[test]
fn cluster_cell_clocks_agree() {
    use apiary_bench::experiments::e17_cluster_scaleout::{run_one, Chaos};
    let run = |clock| format!("{:?}", run_one(Run { clock }, 2, Chaos::CutLink, 6_000));
    let event = run(ClockMode::Event);
    let dense = run(ClockMode::Dense);
    assert_eq!(event, dense, "cluster cell diverged between clocks");
}

/// A live migration (quiesce deadline, fabric snapshot transfer, ICAP
/// restore, republish) lands on identical cycles under both clocks.
#[test]
fn live_migration_clocks_agree() {
    use apiary_accel::apps::kv::{kv_store, KvStoreAccel};
    use apiary_cap::ServiceId;
    use apiary_cluster::ClusterConfig;

    agree("a live migration", |clock| {
        let mut c = ClusterSystem::new(ClusterConfig {
            boards: 2,
            system: SystemConfig {
                clock,
                ..SystemConfig::default()
            },
            ..ClusterConfig::default()
        });
        c.deploy_replica(
            0,
            "kv",
            ServiceId(40),
            NodeId(5),
            AppId(1),
            FaultPolicy::FailStop,
            4096,
            Box::new(|| Box::new(kv_store())),
        )
        .expect("deploy kv");
        let accel = c
            .board_mut(0)
            .accel_as_mut::<KvStoreAccel>(NodeId(5))
            .expect("installed");
        for i in 0..80u32 {
            let key = i.to_le_bytes();
            accel.service_mut().insert(7, &key, &[0xAB; 32]);
        }
        c.run(2_000);
        c.migrate_replica("kv", 0, 1, NodeId(5))
            .expect("migration starts");
        c.run(30_000);
        let kv_len = c
            .board(1)
            .accel_as::<KvStoreAccel>(NodeId(5))
            .map_or(0, |a| a.service().len());
        let digest = format!("{:?} kv_len={kv_len}", c.migration_outcomes());
        (c, digest)
    });
}

/// The serverless plane (bitstream fetch timers, queue deadlines,
/// autoscale boundaries, scale-to-zero reclaims) must agree too: a burst,
/// an idle window deep enough to reclaim, and a cold re-invoke land on
/// identical cycles under both clocks.
#[test]
fn serverless_plane_clocks_agree() {
    use apiary_cluster::ClusterConfig;
    use apiary_faas::{FaasConfig, FaasSystem, FunctionSpec};
    use apiary_resources::Area;
    use std::rc::Rc;

    agree("the serverless plane", |clock| {
        let mut s = FaasSystem::new(FaasConfig {
            cluster: ClusterConfig {
                boards: 2,
                system: SystemConfig {
                    clock,
                    ..SystemConfig::default()
                },
                ..ClusterConfig::default()
            },
            autoscale_interval: 1_000,
            idle_intervals_to_zero: 2,
            ..FaasConfig::default()
        });
        for (name, luts, bytes) in [("f", 60_000u64, 4_096u64), ("g", 90_000, 6_000)] {
            s.register(FunctionSpec {
                name: name.to_string(),
                footprint: Area::logic(luts, luts),
                bitstream_bytes: bytes,
                app: AppId(1),
                factory: Rc::new(|| Box::new(echo(40))),
            });
        }
        for i in 0u32..20 {
            s.invoke((i % 3 == 0) as usize, i % 2, (i % 2) as u16, vec![0u8; 24]);
            s.run(211);
        }
        s.run_until(200_000, |s| s.quiescent());
        s.run(8_000); // idle across reclaim boundaries → scale to zero
        s.invoke(0, 0, 0, vec![0u8; 24]); // cold re-invoke
        s.run_until(200_000, |s| s.quiescent());
        let digest = format!(
            "{:?}|{:?}|{}|{}|{:?}",
            s.stats(0),
            s.stats(1),
            s.cold_latency.histogram().p99(),
            s.warm_latency.histogram().p99(),
            s.now()
        );
        (s, digest)
    });
}

// ---------------------------------------------------------------------
// Random op sequences against a 4-board cluster.
// ---------------------------------------------------------------------

/// One step of a cluster scenario. Boards, names and sizes are drawn small
/// so sequences collide: submits race cuts, kills and migrations.
#[derive(Debug, Clone)]
enum ClusterOp {
    /// Submit to `NAMES[name]` from `origin`.
    Submit {
        origin: u16,
        name: usize,
        payload: usize,
    },
    /// `run`, collecting completions.
    Advance(u64),
    CutLink(u16),
    RestoreLink(u16),
    /// Board 3 dies (repeat kills are no-ops).
    KillBoard,
    /// Move "kv" from wherever it last went to `dst`.
    Migrate {
        dst: u16,
    },
    PoolDeploy(u16),
    PoolTeardown(u16),
    /// Reach into a board and send from a client tile to a local echo.
    Poke {
        board: u16,
        payload: usize,
    },
}

const NAMES: [&str; 3] = ["svc", "kv", "fn"];

fn arb_cluster_op() -> impl Strategy<Value = ClusterOp> {
    // `prop_oneof!` picks uniformly, so the draw below sets the mix: mostly
    // submits and short advances (requests overlap), chaos now and then,
    // the kill rarely (it is permanent).
    (0u32..40, 0u16..4, 0usize..3, 1usize..96, 1u64..400).prop_map(
        |(kind, board, name, payload, cycles)| match kind {
            0..=15 => ClusterOp::Submit {
                origin: board,
                name,
                payload,
            },
            16..=24 => ClusterOp::Advance(cycles),
            25 => ClusterOp::Advance(cycles * 8),
            26..=27 => ClusterOp::CutLink(board),
            28..=30 => ClusterOp::RestoreLink(board),
            31 => ClusterOp::KillBoard,
            32..=33 => ClusterOp::Migrate { dst: board },
            34..=35 => ClusterOp::PoolDeploy(board),
            36 => ClusterOp::PoolTeardown(board),
            _ => ClusterOp::Poke { board, payload },
        },
    )
}

/// Runs `ops` under `mode`, holding the laws after each; returns the
/// cluster and everything observable: the result of every op, completions
/// in order, every counter, every board's clock and the merged traces.
fn run_cluster_ops(mode: ClockMode, ops: &[ClusterOp]) -> (ClusterSystem, String) {
    use apiary_accel::apps::kv::kv_store;
    use apiary_cap::ServiceId;
    use apiary_cluster::ClusterConfig;
    use apiary_monitor::wire::KIND_REQUEST;
    use apiary_noc::TrafficClass;
    use std::fmt::Write;

    const POKE_CLIENT: NodeId = NodeId(2);
    const POKE_SERVER: NodeId = NodeId(9);
    const SVC_NODE: NodeId = NodeId(5);
    const KV_NODE: NodeId = NodeId(6);
    const FN_NODE: NodeId = NodeId(10);

    let mut cfg = ClusterConfig {
        boards: 4,
        ..ClusterConfig::default()
    };
    cfg.system.clock = mode;
    cfg.system.monitor.trace_depth = 512;
    let mut c = ClusterSystem::new(cfg);
    let mut poke_caps = Vec::new();
    for b in 0..4 {
        c.deploy_replica(
            b,
            "svc",
            ServiceId(40),
            SVC_NODE,
            AppId(1),
            FaultPolicy::FailStop,
            4096,
            Box::new(|| Box::new(echo(30))),
        )
        .expect("svc tile free");
        let sys = c.board_mut(b);
        sys.install(
            POKE_CLIENT,
            Box::new(idle()),
            AppId(2),
            FaultPolicy::FailStop,
        )
        .expect("client slot free");
        sys.install(
            POKE_SERVER,
            Box::new(echo(5)),
            AppId(2),
            FaultPolicy::FailStop,
        )
        .expect("server slot free");
        poke_caps.push(
            sys.connect(POKE_CLIENT, POKE_SERVER, false)
                .expect("same app"),
        );
        sys.connect(POKE_SERVER, POKE_CLIENT, false)
            .expect("reply path");
    }
    c.deploy_replica(
        0,
        "kv",
        ServiceId(41),
        KV_NODE,
        AppId(1),
        FaultPolicy::FailStop,
        4096,
        Box::new(|| Box::new(kv_store())),
    )
    .expect("kv tile free");
    c.run(1_500); // gossip spreads the bindings
    if let Err(law) = c.check_invariants() {
        panic!("after setup: {law}");
    }

    let mut log = String::new();
    let mut kv_home = 0u16;
    let mut next_tag = 1u64 << 32;
    for op in ops {
        match *op {
            ClusterOp::Submit {
                origin,
                name,
                payload,
            } => {
                next_tag += 1;
                let r = c.submit(origin, NAMES[name], next_tag, vec![0x5A; payload]);
                let _ = write!(log, "submit:{r:?};");
            }
            ClusterOp::Advance(n) => {
                c.run(n);
                let _ = write!(log, "done:{:?};", c.take_completions());
            }
            ClusterOp::CutLink(b) => c.cut_link(b, None),
            ClusterOp::RestoreLink(b) => c.restore_link(b, None),
            ClusterOp::KillBoard => c.kill_board(3),
            ClusterOp::Migrate { dst } => {
                let r = c.migrate_replica("kv", kv_home, dst, KV_NODE);
                if r.is_ok() {
                    kv_home = dst;
                }
                let _ = write!(log, "migrate:{};", r.is_ok());
            }
            ClusterOp::PoolDeploy(b) => {
                let r = c.pool_deploy(
                    b,
                    "fn",
                    ServiceId(60 + b as u32),
                    FN_NODE,
                    AppId(1),
                    FaultPolicy::FailStop,
                    2048,
                    Box::new(|| Box::new(echo(12))),
                );
                let _ = write!(log, "deploy:{:?};", r.ok());
            }
            ClusterOp::PoolTeardown(b) => {
                let r = c.pool_teardown(b, "fn");
                let _ = write!(log, "teardown:{:?};", r.ok());
            }
            ClusterOp::Poke { board, payload } => {
                next_tag += 1;
                let sys = c.board_mut(board);
                let now = sys.now();
                let monitor = &mut sys.tile_mut(POKE_CLIENT).monitor;
                let mut echoed = 0;
                while monitor.recv().is_some() {
                    echoed += 1;
                }
                let sent = monitor.send(
                    poke_caps[board as usize],
                    KIND_REQUEST,
                    next_tag,
                    TrafficClass::Request,
                    vec![0xA5; payload],
                    now,
                );
                let _ = write!(log, "poke:{echoed},{};", sent.is_ok());
            }
        }
        if let Err(law) = c.check_invariants() {
            panic!("after {op:?}: {law}");
        }
    }
    // Let in-flight work land so late divergence shows too.
    c.run(6_000);

    let done = c.take_completions();
    let e2e = c.end_to_end.histogram();
    let _ = write!(
        log,
        "\nend:{:?} done:{done:?} local={} remote={} timeouts={} refused={} stale={} dead_drops={} \
         revoked={} mig_failed={} mig={:?} fabric={:?} picks={} e2e=({},{},{})",
        c.now(),
        c.local_submitted,
        c.remote_submitted,
        c.timeouts,
        c.refused,
        c.stale_replies,
        c.dead_board_drops,
        c.caps_revoked,
        c.migrations_failed,
        c.migration_outcomes(),
        c.fabric().stats(),
        c.balancer().picks,
        e2e.count(),
        e2e.p50(),
        e2e.p99(),
    );
    for b in 0..4 {
        let sys = c.board(b);
        let _ = write!(
            log,
            "\nboard{b}: now={:?} alive={} noc={:?} dir={:?}",
            sys.now(),
            c.alive(b),
            sys.noc().stats(),
            c.directory(b).gossip_frame(b),
        );
        for n in 0..sys.noc().mesh().nodes() as u16 {
            let _ = write!(log, " {:?}", sys.tile(NodeId(n)).monitor.stats());
        }
        let _ = write!(log, "\ntrace{b}: {:?}", sys.merged_trace());
    }
    (c, log)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Component-sparse stepping (only due boards, links and timeouts) is
    /// invisible: any op sequence ends in the state dense ticking reaches.
    #[test]
    fn cluster_ops_agree_across_clocks(ops in prop::collection::vec(arb_cluster_op(), 40..160)) {
        agree("a cluster op sequence", |mode| run_cluster_ops(mode, &ops));
    }
}
