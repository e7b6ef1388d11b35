//! End-to-end cluster tests: remote invocation, gossip convergence,
//! determinism, board-kill failover, link cuts, and reconfiguration churn.
//! The lockstep invariants are checked after every cycle these tests drive.

use apiary_accel::apps::echo::echo;
use apiary_accel::apps::kv::{kv_store, KvStoreAccel};
use apiary_cap::ServiceId;
use apiary_cluster::{ClusterClient, ClusterConfig, ClusterSystem, FabricConfig, Topology};
use apiary_core::{AppId, FaultPolicy};
use apiary_net::Workload;
use apiary_noc::NodeId;
use apiary_sim::{until, Cycle, Load, Machine};

const KV: ServiceId = ServiceId(40);
const REPLICA_NODE: NodeId = NodeId(5);
const BITSTREAM: u64 = 4096; // 1024 cycles over the default 4 B/cycle ICAP.

fn cluster(boards: u16) -> ClusterSystem {
    ClusterSystem::new(ClusterConfig {
        boards,
        ..ClusterConfig::default()
    })
}

fn deploy_echo(c: &mut ClusterSystem, board: u16, cost: u64) {
    let displaced = c
        .deploy_replica(
            board,
            "kv",
            KV,
            REPLICA_NODE,
            AppId(1),
            FaultPolicy::FailStop,
            BITSTREAM,
            Box::new(move || Box::new(echo(cost))),
        )
        .expect("deploy");
    assert_eq!(displaced, None, "nothing displaced on a fresh board");
}

fn client(id: u32, origin: u16, mean_interarrival: f64) -> ClusterClient {
    ClusterClient::new(
        id,
        origin,
        "kv",
        64,
        Workload::Open { mean_interarrival },
        1_000 + id as u64,
    )
}

fn run(c: &mut ClusterSystem, clients: &mut [ClusterClient], cycles: u64) {
    for _ in 0..cycles {
        c.tick();
        clients.pump(c);
        assert_eq!(c.check_invariants(), Ok(()));
    }
}

#[test]
#[should_panic(expected = "at least one board")]
fn zero_boards_rejected() {
    cluster(0);
}

#[test]
#[should_panic(expected = "gossip_interval")]
fn zero_gossip_interval_rejected() {
    // Used to divide by zero under the event clock and silently never
    // gossip under the dense one.
    ClusterSystem::new(ClusterConfig {
        gossip_interval: 0,
        ..ClusterConfig::default()
    });
}

#[test]
#[should_panic(expected = "lease 4000 must exceed gossip_interval × boards = 4000")]
fn lease_within_one_gossip_cycle_rejected() {
    // Eight boards push a snapshot each every 500 cycles: a lease of 4000
    // lapses before a renewal is sure to have gossiped round.
    ClusterSystem::new(ClusterConfig {
        boards: 8,
        lease: 4_000,
        ..ClusterConfig::default()
    });
}

#[test]
#[should_panic(expected = "outside the 16-node mesh")]
fn gateway_outside_the_mesh_rejected() {
    ClusterSystem::new(ClusterConfig {
        gateway: NodeId(16),
        ..ClusterConfig::default()
    });
}

#[test]
#[should_panic(expected = "memory-service node")]
fn gateway_on_the_memory_node_rejected() {
    ClusterSystem::new(ClusterConfig {
        gateway: NodeId(15),
        ..ClusterConfig::default()
    });
}

/// The event clock under load and chaos: every executed cycle leaves all
/// live boards on the cluster's cycle with exact cached deadlines, and the
/// deadline queue never lets a timeout slip. (`Machine::drive` calls its
/// `look`, which holds the laws here, after every step; debug builds also
/// check every board and link a cycle passes over.)
#[test]
fn event_clock_keeps_the_lockstep_invariants() {
    for topology in [Topology::Star, Topology::FullMesh] {
        let mut c = ClusterSystem::new(ClusterConfig {
            boards: 4,
            fabric: FabricConfig {
                topology,
                ..FabricConfig::default()
            },
            ..ClusterConfig::default()
        });
        for b in 0..4 {
            deploy_echo(&mut c, b, 60);
        }
        let mut clients: Vec<ClusterClient> =
            (0..4).map(|b| client(b as u32 + 1, b, 180.0)).collect();
        let mut executed = 0u64;
        let mut go = |c: &mut ClusterSystem, clients: &mut [ClusterClient], cycles: u64| {
            c.drive(clients, cycles, |c, _| {
                assert_eq!(c.check_invariants(), Ok(()));
                executed += 1;
                until(false)
            });
        };
        go(&mut c, &mut clients, 8_000);
        c.cut_link(1, None);
        go(&mut c, &mut clients, 3_000);
        c.restore_link(1, None);
        go(&mut c, &mut clients, 6_000);
        c.kill_board(3);
        go(&mut c, &mut clients, 15_000);
        assert_eq!(c.now().as_u64(), 32_000);
        assert!(executed < 32_000, "the event clock skipped idle cycles");
        assert!(c.timeouts > 0, "requests to the dead board timed out");
        let done: u64 = clients.iter().map(|cl| cl.gen.stats.completed).sum();
        assert!(done > 300, "traffic flowed: {done}");
    }
}

#[test]
fn remote_invocation_round_trip() {
    let mut c = cluster(2);
    // The only replica lives on board 1; the client enters at board 0, so
    // every request crosses the fabric.
    deploy_echo(&mut c, 1, 20);
    let mut clients = [client(1, 0, 400.0)];
    run(&mut c, &mut clients, 30_000);

    let stats = &clients[0].gen.stats;
    assert!(stats.completed > 20, "completions: {stats:?}");
    assert!(c.remote_submitted > 20);
    assert_eq!(c.local_submitted, 0, "no local replica exists");
    // Every request that succeeded came back over the fabric.
    assert!(c.fabric_back.histogram().count() >= stats.completed - stats.errors);
    // Per-hop breakdown: both fabric hops cost at least the link
    // propagation delay; on-board time is measured separately.
    assert!(c.fabric_out.histogram().count() > 0);
    assert!(c.fabric_out.histogram().min() >= 200);
    assert!(c.fabric_back.histogram().min() >= 200);
    assert!(c.on_board.histogram().count() > 0);
    assert!(c.end_to_end.histogram().count() > 0);
    let e2e_p50 = c.end_to_end.histogram().p50();
    assert!(
        e2e_p50 >= c.fabric_out.histogram().p50() + c.fabric_back.histogram().p50(),
        "end-to-end covers both hops"
    );
    // One remote capability was minted at the origin for (board 1, kv).
    assert_eq!(c.remote_cap_count(0), 1);
}

#[test]
fn gossip_converges_to_every_replica() {
    let mut c = cluster(4);
    for b in 0..4 {
        deploy_echo(&mut c, b, 20);
    }
    // No traffic, just gossip rounds.
    c.run(8_000);
    for b in 0..4 {
        let live: Vec<_> = c.directory(b).lookup_all(c.now(), "kv").collect();
        assert_eq!(live.len(), 4, "board {b} sees all replicas");
    }
}

fn fingerprint(boards: u16, cycles: u64) -> String {
    let mut c = cluster(boards);
    for b in 0..boards {
        deploy_echo(&mut c, b, 60);
    }
    let mut clients: Vec<ClusterClient> = (0..boards)
        .map(|b| client(b as u32 + 1, b, 150.0))
        .collect();
    run(&mut c, &mut clients, cycles);
    let mut s = String::new();
    use std::fmt::Write;
    let _ = write!(
        s,
        "local={} remote={} timeouts={} stale={} refused={} revoked={} picks={} e2e=({},{},{})",
        c.local_submitted,
        c.remote_submitted,
        c.timeouts,
        c.stale_replies,
        c.refused,
        c.caps_revoked,
        c.balancer().picks,
        c.end_to_end.histogram().count(),
        c.end_to_end.histogram().p50(),
        c.end_to_end.histogram().p99(),
    );
    let gw = ClusterConfig::default().gateway;
    for b in 0..boards {
        let _ = write!(s, " t{}={:?}", b, c.board(b).tile(gw).monitor.stats());
    }
    for cl in &clients {
        let _ = write!(
            s,
            " c{}=({},{},{},{})",
            cl.gen.client_id,
            cl.gen.stats.issued,
            cl.gen.stats.completed,
            cl.gen.stats.errors,
            cl.gen.stats.retries,
        );
    }
    s
}

#[test]
fn same_seed_replays_byte_identically() {
    let a = fingerprint(3, 12_000);
    let b = fingerprint(3, 12_000);
    assert_eq!(a, b);
}

#[test]
fn board_kill_fails_over_via_directory() {
    let mut c = cluster(4);
    for b in 0..4 {
        deploy_echo(&mut c, b, 60);
    }
    // Clients on the three boards that will survive.
    let mut clients: Vec<ClusterClient> = (0..3).map(|b| client(b as u32 + 1, b, 200.0)).collect();
    run(&mut c, &mut clients, 10_000);
    let before: u64 = clients.iter().map(|cl| cl.gen.stats.completed).sum();
    assert!(before > 0);

    c.kill_board(3);
    run(&mut c, &mut clients, 30_000);

    // Lease expiry removed the dead board everywhere and revoked any
    // remote caps minted against it.
    for b in 0..3 {
        let live: Vec<_> = c.directory(b).lookup_all(c.now(), "kv").collect();
        assert_eq!(live.len(), 3, "board {b} dropped the dead replica");
        assert!(live.iter().all(|e| e.home != 3));
    }
    assert!(c.caps_revoked > 0, "dead board's remote caps were revoked");
    // Traffic kept completing after the kill: requests that timed out
    // against board 3 were retried onto live replicas.
    let after: u64 = clients.iter().map(|cl| cl.gen.stats.completed).sum();
    assert!(
        after > before + 50,
        "completions kept flowing: {before} -> {after}"
    );
    assert!(
        c.timeouts > 0,
        "requests in flight to the dead board timed out"
    );
}

#[test]
fn transient_link_cut_retransmits_and_recovers() {
    let mut c = cluster(2);
    deploy_echo(&mut c, 1, 20);
    let mut clients = [client(1, 0, 300.0)];
    run(&mut c, &mut clients, 6_000);

    c.cut_link(1, None);
    run(&mut c, &mut clients, 3_000);
    c.restore_link(1, None);
    run(&mut c, &mut clients, 20_000);

    assert!(
        c.fabric().stats().retransmissions > 0,
        "ARQ resent frames lost to the cut"
    );
    assert!(c.fabric().stats().cut_drops > 0);
    let stats = &clients[0].gen.stats;
    assert!(
        stats.completed > stats.errors,
        "most traffic survived the cut: {stats:?}"
    );
}

#[test]
fn reconfigure_withdraws_then_republishes() {
    let mut c = cluster(2);
    deploy_echo(&mut c, 1, 20);
    c.run(2_000); // let gossip spread the binding
    assert_eq!(c.directory(0).lookup_all(c.now(), "kv").count(), 1);

    c.reconfigure_replica(1, "kv", Box::new(|| Box::new(echo(10))), BITSTREAM)
        .expect("replica is known");
    // Withdrawn at the home board immediately…
    assert!(c.directory(1).lookup_local(c.now(), "kv").is_none());
    // …and at peers once gossip carries the tombstone.
    c.run(1_000);
    assert!(
        c.directory(0).lookup_all(c.now(), "kv").next().is_none(),
        "tombstone propagated"
    );
    // Republished (new version, fresh lease) once the bitstream lands.
    c.run(4_000);
    assert_eq!(c.directory(1).lookup_all(c.now(), "kv").count(), 1);
    assert_eq!(c.directory(0).lookup_all(c.now(), "kv").count(), 1);
}

#[test]
fn churn_during_remote_invocation_recovers() {
    // Regression: reconfiguring the tile under live remote traffic must
    // not wedge the cluster — in-flight invocations error or time out,
    // clients retry, and completions resume after republish.
    let mut c = cluster(2);
    deploy_echo(&mut c, 1, 20);
    c.run(2_000); // gossip warm-up before clients arrive
    let mut clients = [client(1, 0, 250.0)];
    run(&mut c, &mut clients, 8_000);
    let before = clients[0].gen.stats.completed;
    assert!(before > 0);

    c.reconfigure_replica(1, "kv", Box::new(|| Box::new(echo(10))), BITSTREAM)
        .expect("replica is known");
    run(&mut c, &mut clients, 40_000);

    let stats = &clients[0].gen.stats;
    assert!(
        stats.completed > before + 30,
        "service resumed after churn: {before} -> {}",
        stats.completed
    );
    assert!(
        stats.errors > 0 || c.timeouts > 0 || clients[0].no_replica > 0,
        "the churn window was actually observed"
    );
    // The machine drains: no stuck pending requests or fabric frames.
    clients[0].gen.max_requests = 0;
    for _ in 0..30_000 {
        c.tick();
        clients.pump(&mut c);
        if c.quiescent() {
            break;
        }
    }
    assert!(c.quiescent(), "cluster drains after churn");
}

#[test]
fn a_rehomed_replica_is_reconfigured_and_torn_down_where_it_lives() {
    // Regression: the cluster kept its own copy of a replica's node beside
    // the supervisor's spec, and after the supervisor re-homed the replica
    // the copy still named the vacated tile. A reconfiguration then loaded
    // the new bitstream there, orphaned and unsupervised, while the
    // gateway stayed bound to the old instance; a teardown returned the
    // vacated tile and left the live one in use.
    let mut c = supervised(0);
    c.board_mut(1).fail_stop(REPLICA_NODE);
    run(&mut c, &mut [], 3_000);
    assert_eq!(c.board(1).service_home(KV), Some(SPARE), "re-homed");
    assert!(c.board(1).tile(REPLICA_NODE).accel.is_none());

    c.reconfigure_replica(1, "kv", Box::new(|| Box::new(echo(10))), BITSTREAM)
        .expect("replica is known");
    assert!(
        c.board(1).reconfiguring(SPARE),
        "the live tile reconfigures"
    );
    assert!(!c.board(1).reconfiguring(REPLICA_NODE));
    run(&mut c, &mut [], 4_000);
    let entry: Vec<_> = c.directory(0).lookup_all(c.now(), "kv").collect();
    assert_eq!(entry.len(), 1);
    assert_eq!(entry[0].node, SPARE, "republished where it lives");
    assert!(c.board(1).tile(REPLICA_NODE).accel.is_none(), "no orphan");

    // The new accelerator is the one that serves.
    let served = |c: &ClusterSystem| c.board(1).tile(SPARE).monitor.stats().sent;
    let before = served(&c);
    let mut clients = [client(1, 0, 300.0)];
    run(&mut c, &mut clients, 6_000);
    assert!(clients[0].gen.stats.completed > clients[0].gen.stats.errors);
    assert!(served(&c) > before, "replies came from the new instance");

    clients[0].gen.max_requests = 0;
    run(&mut c, &mut clients, 8_000);
    let freed = c.pool_teardown(1, "kv").expect("the replica is known");
    assert_eq!(freed, SPARE, "the live tile is freed");
    assert!(c.board(1).tile(SPARE).accel.is_none());
    assert_eq!(c.board(1).service_home(KV), None);
    run(&mut c, &mut [], 100);
}

/// A supervised two-board cluster whose board 1 serves "kv" at
/// `REPLICA_NODE`, with `SPARE` as the supervisor's one spare tile.
fn supervised(max_restarts: u32) -> ClusterSystem {
    let mut cfg = ClusterConfig {
        boards: 2,
        ..ClusterConfig::default()
    };
    cfg.system.supervisor.enabled = true;
    cfg.system.supervisor.max_restarts = max_restarts;
    cfg.system.supervisor.spare_nodes = vec![SPARE];
    let mut c = ClusterSystem::new(cfg);
    deploy_echo(&mut c, 1, 20);
    run(&mut c, &mut [], 2_000);
    c
}

const SPARE: NodeId = NodeId(6);

#[test]
fn a_rehomed_replica_is_republished_where_it_lives() {
    // Regression: after the supervisor re-homed a published replica
    // without a reconfigure, its directory entry kept the vacated node, and
    // the balancer kept counting in-flight work against it.
    let mut c = supervised(0);
    c.board_mut(1).fail_stop(REPLICA_NODE);
    run(&mut c, &mut [], 3_000);
    assert_eq!(c.board(1).service_home(KV), Some(SPARE), "re-homed");
    let gossip = ClusterConfig::default().gossip_interval;
    run(&mut c, &mut [], gossip);
    let local = c
        .directory(1)
        .lookup_local(c.now(), "kv")
        .expect("still published");
    assert_eq!(local.node, SPARE, "the home board's entry moved");
    run(&mut c, &mut [], 2 * gossip);
    let seen: Vec<_> = c.directory(0).lookup_all(c.now(), "kv").collect();
    assert_eq!(seen.len(), 1);
    assert_eq!(seen[0].node, SPARE, "gossip carried the move");
}

#[test]
fn a_reconfigured_replica_restarts_as_its_new_accelerator() {
    // Regression: `reconfigure_replica` loaded the new factory but left the
    // supervisor's spec on the deployed image, so the first restart brought
    // the old accelerator back.
    let mut c = supervised(1);
    c.reconfigure_replica(1, "kv", Box::new(|| Box::new(kv_store())), 2 * BITSTREAM)
        .expect("replica is known");
    run(&mut c, &mut [], 4_000);
    let is_kv = |c: &ClusterSystem| c.board(1).accel_as::<KvStoreAccel>(REPLICA_NODE).is_some();
    assert!(is_kv(&c), "the new accelerator is online");
    let image = &c.board(1).service_spec(KV).expect("supervised").image;
    assert_eq!(
        image.bitstream_bytes,
        2 * BITSTREAM,
        "the spec took the new image"
    );

    c.board_mut(1).fail_stop(REPLICA_NODE);
    run(&mut c, &mut [], 4_000);
    assert_eq!(
        c.board(1).service_home(KV),
        Some(REPLICA_NODE),
        "restarted in place"
    );
    assert!(is_kv(&c), "the restart loaded the new accelerator");
}

/// E17's cut-link cell, with the cut held long past `request_timeout` so
/// requests to the cut board time out and retry, and their invocations
/// arrive after the retry went elsewhere. Every hop measured from a pending
/// request's record ends while it is pending, so none can outlast the
/// timeout; the on-board hop is measured from its ingress record instead.
#[test]
fn hops_are_measured_only_while_their_request_is_pending() {
    let request_timeout = 8_000;
    let mut c = ClusterSystem::new(ClusterConfig {
        boards: 8,
        request_timeout,
        ..ClusterConfig::default()
    });
    for b in 0..8 {
        deploy_echo(&mut c, b, 60);
    }
    c.run(2_000);
    let mut clients: Vec<ClusterClient> = (0..8).map(|i| client(i + 1, i as u16, 80.0)).collect();
    let go = |c: &mut ClusterSystem, clients: &mut [ClusterClient], cycles: u64| {
        c.drive(clients, cycles, |c, _| {
            assert_eq!(c.check_invariants(), Ok(()));
            until(false)
        });
    };
    go(&mut c, &mut clients, 6_000);
    c.cut_link(7, None);
    go(&mut c, &mut clients, 3 * request_timeout);
    c.restore_link(7, None);
    go(&mut c, &mut clients, 6_000);
    for cl in &mut clients {
        cl.gen.max_requests = cl.gen.stats.issued;
    }
    go(&mut c, &mut clients, 3 * request_timeout);
    assert!(c.quiescent(), "the cluster drained");
    assert!(c.timeouts > 0, "requests to the cut board timed out");

    for (hop, lt) in [
        ("fabric out", &c.fabric_out),
        ("fabric back", &c.fabric_back),
        ("end to end", &c.end_to_end),
    ] {
        let max = lt.histogram().max();
        assert!(
            max < request_timeout,
            "{hop} max {max} outlasts the timeout"
        );
    }
    assert!(c.fabric_out.histogram().count() <= c.remote_submitted);
}

// ---------------------------------------------------------------------
// Checkpoint/restore plane: live migration.
// ---------------------------------------------------------------------

const TENANT: u64 = 7;

fn deploy_kv(c: &mut ClusterSystem, board: u16) {
    c.deploy_replica(
        board,
        "kv",
        KV,
        REPLICA_NODE,
        AppId(1),
        FaultPolicy::FailStop,
        BITSTREAM,
        Box::new(|| Box::new(kv_store())),
    )
    .expect("deploy kv");
}

fn preload_kv(c: &mut ClusterSystem, board: u16, entries: usize) {
    let accel = c
        .board_mut(board)
        .accel_as_mut::<KvStoreAccel>(REPLICA_NODE)
        .expect("kv replica installed");
    for i in 0..entries {
        let key = format!("key-{i:04}");
        let val = format!("value-{i:04}-{}", "x".repeat(24));
        accel
            .service_mut()
            .insert(TENANT, key.as_bytes(), val.as_bytes());
    }
}

fn kv_retention(c: &ClusterSystem, board: u16, entries: usize) -> usize {
    let accel = c
        .board(board)
        .accel_as::<KvStoreAccel>(REPLICA_NODE)
        .expect("kv replica installed");
    (0..entries)
        .filter(|i| {
            let key = format!("key-{i:04}");
            let val = format!("value-{i:04}-{}", "x".repeat(24));
            accel.service().get(TENANT, key.as_bytes()) == Some(val.as_bytes())
        })
        .count()
}

#[test]
fn live_migration_moves_state_without_cap_churn() {
    let mut c = cluster(2);
    deploy_kv(&mut c, 0);
    preload_kv(&mut c, 0, 50);
    c.run(2_000); // gossip spreads the binding

    // A client on board 1 invokes remotely, minting a remote cap for
    // (board 0, kv).
    let mut clients = [client(1, 1, 300.0)];
    run(&mut c, &mut clients, 6_000);
    let before = clients[0].gen.stats.completed;
    assert!(before > 0, "traffic flowed pre-migration");
    assert_eq!(c.remote_cap_count(1), 1);

    c.migrate_replica("kv", 0, 1, REPLICA_NODE)
        .expect("replica known and both boards alive");
    run(&mut c, &mut clients, 20_000);

    let outcomes = c.migration_outcomes();
    assert_eq!(outcomes.len(), 1, "migration completed");
    let o = &outcomes[0];
    assert!(o.warm, "state restored from the snapshot");
    assert!(o.state_bytes > 0);
    assert!(o.blackout() > 0);
    assert_eq!((o.src, o.dst), (0, 1));
    assert_eq!(c.migrations_in_flight(), 0);
    assert_eq!(c.migrations_failed, 0);

    // Every preloaded entry survived the move.
    assert_eq!(kv_retention(&c, 1, 50), 50, "full retention across boards");
    // The stale remote cap was revoked at finalize; traffic resumed
    // against the new home without the client re-attaching.
    assert_eq!(c.remote_cap_count(1), 0, "old remote cap revoked");
    let after = clients[0].gen.stats.completed;
    assert!(
        after > before,
        "service answers post-migration: {before} -> {after}"
    );
    // The source board no longer serves the name.
    assert!(c.board(0).service_home(KV).is_none());
    assert_eq!(c.board(1).service_home(KV), Some(REPLICA_NODE));
}

#[test]
fn migration_blackout_scales_with_state_size() {
    let blackout = |entries: usize| -> u64 {
        let mut c = cluster(2);
        deploy_kv(&mut c, 0);
        preload_kv(&mut c, 0, entries);
        c.run(2_000);
        c.migrate_replica("kv", 0, 1, REPLICA_NODE)
            .expect("migration starts");
        c.run(30_000);
        let outcomes = c.migration_outcomes();
        assert_eq!(outcomes.len(), 1, "{entries}-entry migration completed");
        assert!(outcomes[0].warm);
        outcomes[0].blackout()
    };
    let small = blackout(10);
    let large = blackout(400);
    assert!(
        large > small,
        "blackout grows with state: {small} vs {large}"
    );
}

/// One 64 B invoke across a 2-board star wakes the cluster only where
/// something happens at a board: the invoke reaching board 1, that board's
/// own events, and the reply reaching board 0. The fabric's sends, switch
/// hops and acks are caught up inside it and wake nothing (they took seven
/// more wakes when every fabric event was a cluster step: both sends, both
/// switch arrivals and three acks).
#[test]
fn one_remote_invoke_wakes_the_cluster_only_to_deliver() {
    // Gossip rarely enough that no round falls inside the measurement.
    let mut c = ClusterSystem::new(ClusterConfig {
        boards: 2,
        gossip_interval: 50_000,
        lease: 200_000,
        ..ClusterConfig::default()
    });
    deploy_echo(&mut c, 1, 20);
    // The replica's bitstream loads, the first round tells board 0 about
    // it, and the round's own frames and acks settle.
    assert_eq!(c.run_checked(60_000), Ok(()));
    assert_eq!(c.fabric().next_activity(c.now()), Cycle::MAX);
    c.submit(0, "kv", 1 << 32, vec![0; 64])
        .expect("a remote replica");
    let start = c.now();
    let mut wakes = Vec::new();
    while !c.has_completions() {
        c.advance_toward(Cycle::MAX);
        assert_eq!(c.check_invariants(), Ok(()));
        wakes.push(c.now() - start);
    }
    // The invoke leaves on the next cycle and crosses two hops of 8 cycles'
    // serialisation (85 bytes in a 127-byte frame at 16 B/cycle) plus 200
    // of propagation each: 1 + 2 × 208 = 417. Board 1's gateway, NoC and
    // echo take 418..=459; the reply leaves at 460 and lands at 876.
    assert_eq!(wakes, [417, 418, 428, 448, 449, 459, 876]);
}
