//! Supervisor tests: failed services restart, migrate, and rewire.

use apiary_accel::apps::echo::echo;
use apiary_accel::apps::idle::idle;
use apiary_cap::ServiceId;
use apiary_core::supervisor::RecoveryTarget;
use apiary_core::{AppId, FaultPolicy, SupervisorConfig, System, SystemConfig};
use apiary_monitor::{wire, TileState};
use apiary_noc::{NodeId, TrafficClass};
use apiary_sim::Machine;

const SVC: ServiceId = ServiceId(42);
const CLIENT: NodeId = NodeId(0);
const HOME: NodeId = NodeId(5);
const SPARE: NodeId = NodeId(9);
const BITSTREAM: u64 = 4096; // 1024 cycles at the default 4 B/cycle ICAP.

fn supervised_system(sup: SupervisorConfig) -> (System, apiary_cap::CapRef) {
    let mut sys = System::new(SystemConfig {
        supervisor: sup,
        ..SystemConfig::default()
    });
    sys.install(CLIENT, Box::new(idle()), AppId(1), FaultPolicy::FailStop)
        .expect("free");
    sys.deploy_service(
        SVC,
        HOME,
        AppId(1),
        FaultPolicy::FailStop,
        BITSTREAM,
        Box::new(|| Box::new(echo(1))),
    )
    .expect("free");
    let cap = sys.attach_client(CLIENT, SVC).expect("wired");
    (sys, cap)
}

fn request(sys: &mut System, cap: apiary_cap::CapRef, tag: u64) {
    let now = sys.now();
    sys.tile_mut(CLIENT)
        .monitor
        .send(
            cap,
            wire::KIND_REQUEST,
            tag,
            TrafficClass::Request,
            vec![7],
            now,
        )
        .expect("send accepted");
}

fn response(sys: &mut System) -> Option<apiary_noc::Delivered> {
    sys.tile_mut(CLIENT).monitor.recv()
}

#[test]
fn fault_triggers_in_place_restart_with_mttr() {
    let (mut sys, cap) = supervised_system(SupervisorConfig {
        enabled: true,
        ..SupervisorConfig::default()
    });
    request(&mut sys, cap, 1);
    assert!(sys.run_until_idle(50_000));
    assert_eq!(
        response(&mut sys).expect("served").msg.kind,
        wire::KIND_RESPONSE
    );

    sys.inject_fault(HOME, 0xBEEF);
    assert_eq!(sys.tile(HOME).monitor.state(), TileState::FailStopped);
    // Backoff (256) + bitstream (1024) + detection slack.
    sys.run_checked(5_000).unwrap();
    assert_eq!(sys.tile(HOME).monitor.state(), TileState::Running);
    assert_eq!(sys.tile(HOME).accel_name(), "echo");

    let incidents = sys.incidents();
    assert_eq!(incidents.len(), 1);
    let inc = &incidents[0];
    assert_eq!(inc.code, 0xBEEF);
    assert_eq!(inc.target, RecoveryTarget::InPlace(HOME));
    let mttr = inc.mttr().expect("recovered");
    assert!(
        (1_280..5_000).contains(&mttr),
        "MTTR covers backoff + bitstream, got {mttr}"
    );

    // The client's original capability still reaches the reborn service.
    request(&mut sys, cap, 2);
    assert!(sys.run_until_idle(50_000));
    let d = response(&mut sys).expect("served after recovery");
    assert_eq!(d.msg.kind, wire::KIND_RESPONSE);
    assert_eq!(d.msg.tag, 2);
}

#[test]
fn requests_during_outage_fail_then_heal() {
    let (mut sys, cap) = supervised_system(SupervisorConfig {
        enabled: true,
        ..SupervisorConfig::default()
    });
    sys.inject_fault(HOME, 1);
    // Mid-outage request: the sealed monitor answers with an error.
    sys.run_checked(10).unwrap();
    request(&mut sys, cap, 1);
    assert!(sys.run_until_idle(50_000));
    let d = response(&mut sys).expect("error reply");
    assert_eq!(d.msg.kind, wire::KIND_ERROR);
    // After recovery the same capability works again.
    request(&mut sys, cap, 2);
    assert!(sys.run_until_idle(50_000));
    assert_eq!(
        response(&mut sys).expect("served").msg.kind,
        wire::KIND_RESPONSE
    );
}

#[test]
fn exhausted_restarts_escalate_to_spare_migration() {
    let (mut sys, cap) = supervised_system(SupervisorConfig {
        enabled: true,
        max_restarts: 1,
        spare_nodes: vec![SPARE],
        ..SupervisorConfig::default()
    });
    // First fault: in-place restart.
    sys.inject_fault(HOME, 1);
    sys.run_checked(5_000).unwrap();
    assert_eq!(sys.service_home(SVC), Some(HOME));

    // Second fault: restarts exhausted, migrate to the spare.
    sys.inject_fault(HOME, 2);
    sys.run_checked(10_000).unwrap();
    assert_eq!(sys.service_home(SVC), Some(SPARE));
    assert_eq!(sys.tile(SPARE).accel_name(), "echo");
    assert_eq!(sys.tile(SPARE).monitor.state(), TileState::Running);
    let incidents = sys.incidents();
    assert_eq!(incidents.len(), 2);
    assert_eq!(incidents[1].target, RecoveryTarget::Migrate(SPARE));
    assert!(incidents[1].mttr().is_some());

    // The dead home tile is decommissioned: sealed, empty, no authority.
    assert_eq!(sys.tile(HOME).monitor.state(), TileState::FailStopped);
    assert!(sys.tile(HOME).accel.is_none());
    assert_eq!(sys.tile(HOME).monitor.caps().live(), 0);

    // The client's capability follows the service to its new home.
    request(&mut sys, cap, 9);
    assert!(sys.run_until_idle(50_000));
    let d = response(&mut sys).expect("served from the spare");
    assert_eq!(d.msg.kind, wire::KIND_RESPONSE);
    assert_eq!(d.msg.src, SPARE);
}

#[test]
fn no_spares_abandons_the_service() {
    let (mut sys, cap) = supervised_system(SupervisorConfig {
        enabled: true,
        max_restarts: 0,
        spare_nodes: vec![],
        ..SupervisorConfig::default()
    });
    sys.inject_fault(HOME, 3);
    sys.run_checked(10_000).unwrap();
    assert_eq!(sys.tile(HOME).monitor.state(), TileState::FailStopped);
    let incidents = sys.incidents();
    assert_eq!(incidents.len(), 1);
    assert!(incidents[0].abandoned());
    assert!(sys.mttr_samples().is_empty());
    // Requests keep failing; nothing ever hangs.
    request(&mut sys, cap, 1);
    assert!(sys.run_until_idle(50_000));
    assert_eq!(
        response(&mut sys).expect("error").msg.kind,
        wire::KIND_ERROR
    );
}

#[test]
fn supervisor_disabled_leaves_failures_alone() {
    let (mut sys, _cap) = supervised_system(SupervisorConfig::default());
    sys.inject_fault(HOME, 1);
    sys.run_checked(20_000).unwrap();
    assert_eq!(sys.tile(HOME).monitor.state(), TileState::FailStopped);
    assert!(sys.incidents().is_empty());
}

// ---------------------------------------------------------------------
// Checkpoint plane: periodic snapshots make the restart ladder warm.
// ---------------------------------------------------------------------

use apiary_accel::apps::kv::{kv_store, KvStoreAccel};

const TENANT: u64 = 3;

fn supervised_kv(interval: u64) -> System {
    let mut sys = System::new(SystemConfig {
        supervisor: SupervisorConfig {
            enabled: true,
            checkpoint_interval: interval,
            ..SupervisorConfig::default()
        },
        ..SystemConfig::default()
    });
    sys.deploy_service(
        SVC,
        HOME,
        AppId(1),
        FaultPolicy::FailStop,
        BITSTREAM,
        Box::new(|| Box::new(kv_store())),
    )
    .expect("free");
    sys
}

fn put(sys: &mut System, key: &[u8], val: &[u8]) {
    sys.accel_as_mut::<KvStoreAccel>(HOME)
        .expect("kv installed")
        .service_mut()
        .insert(TENANT, key, val);
}

fn got(sys: &System, key: &[u8]) -> bool {
    sys.accel_as::<KvStoreAccel>(HOME)
        .is_some_and(|a| a.service().get(TENANT, key).is_some())
}

#[test]
fn periodic_checkpoints_make_restart_warm_with_bounded_staleness() {
    let mut sys = supervised_kv(1_000);
    put(&mut sys, b"early", b"survives");
    // A few intervals elapse; the supervisor snapshots the service.
    sys.run_checked(3_500).unwrap();
    assert!(sys.checkpoint_store().taken >= 2, "checkpoints were taken");
    // A write after the last checkpoint is inside the staleness window.
    put(&mut sys, b"late", b"lost");
    sys.inject_fault(HOME, 0xDEAD);
    sys.run_checked(6_000).unwrap();

    let incidents = sys.incidents();
    assert_eq!(incidents.len(), 1);
    assert!(incidents[0].mttr().is_some(), "recovered");
    assert!(incidents[0].warm, "restart restored the checkpoint");
    assert_eq!(sys.checkpoint_store().warm_restores, 1);
    assert!(got(&sys, b"early"), "pre-checkpoint writes survive");
    assert!(
        !got(&sys, b"late"),
        "at most one interval of writes is lost — never resurrected"
    );
}

#[test]
fn without_checkpoints_restart_is_cold() {
    let mut sys = supervised_kv(0);
    put(&mut sys, b"early", b"gone");
    sys.run_checked(3_500).unwrap();
    assert_eq!(sys.checkpoint_store().taken, 0);
    sys.inject_fault(HOME, 0xDEAD);
    sys.run_checked(6_000).unwrap();
    let incidents = sys.incidents();
    assert!(incidents[0].mttr().is_some(), "recovered");
    assert!(!incidents[0].warm, "factory-fresh restart");
    assert!(!got(&sys, b"early"), "cold restart loses everything");
}

#[test]
fn migration_to_spare_restores_the_checkpoint() {
    let mut sys = System::new(SystemConfig {
        supervisor: SupervisorConfig {
            enabled: true,
            max_restarts: 0,
            spare_nodes: vec![SPARE],
            checkpoint_interval: 1_000,
            ..SupervisorConfig::default()
        },
        ..SystemConfig::default()
    });
    sys.deploy_service(
        SVC,
        HOME,
        AppId(1),
        FaultPolicy::FailStop,
        BITSTREAM,
        Box::new(|| Box::new(kv_store())),
    )
    .expect("free");
    put(&mut sys, b"k", b"v");
    sys.run_checked(2_500).unwrap();
    sys.inject_fault(HOME, 7);
    sys.run_checked(10_000).unwrap();
    assert_eq!(sys.service_home(SVC), Some(SPARE));
    let incidents = sys.incidents();
    assert_eq!(incidents[0].target, RecoveryTarget::Migrate(SPARE));
    assert!(incidents[0].warm, "spare migration restored the checkpoint");
    let kv = sys.accel_as::<KvStoreAccel>(SPARE).expect("on the spare");
    assert_eq!(kv.service().get(TENANT, b"k"), Some(&b"v"[..]));
}

#[test]
fn non_preemptible_service_is_excused_from_checkpoints() {
    let mut sys = System::new(SystemConfig {
        supervisor: SupervisorConfig {
            enabled: true,
            checkpoint_interval: 500,
            ..SupervisorConfig::default()
        },
        ..SystemConfig::default()
    });
    sys.deploy_service(
        SVC,
        HOME,
        AppId(1),
        FaultPolicy::FailStop,
        BITSTREAM,
        Box::new(|| Box::new(apiary_accel::apps::flood::flooder(64))),
    )
    .expect("free");
    sys.run_checked(5_000).unwrap();
    assert_eq!(
        sys.checkpoint_store().taken,
        0,
        "a service that cannot externalize state is excused"
    );
    assert!(sys.checkpoint_store().is_empty());
}
