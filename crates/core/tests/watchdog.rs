//! Watchdog tests: silently hung accelerators are detected and contained.

use apiary_accel::apps::faulty::HangAccel;
use apiary_accel::apps::idle::idle;
use apiary_core::fault::{FaultAction, WATCHDOG_FAULT};
use apiary_core::{AppId, FaultPolicy, System, SystemConfig};
use apiary_monitor::{wire, Monitor, MonitorConfig, TileState};
use apiary_noc::{NodeId, TrafficClass};
use apiary_sim::Machine;

fn watchdog_system(policy: FaultPolicy) -> (System, apiary_cap::CapRef, NodeId) {
    let client = NodeId(0);
    let server = NodeId(5);
    let mut sys = System::new(SystemConfig::default());
    sys.install(client, Box::new(idle()), AppId(1), FaultPolicy::FailStop)
        .expect("free");
    // Hangs silently on its 3rd request.
    sys.install(server, Box::new(HangAccel::new(3)), AppId(1), policy)
        .expect("free");
    // Arm the watchdog on the server tile before wiring.
    sys.tile_mut(server).monitor = Monitor::new(
        server,
        MonitorConfig {
            watchdog_cycles: Some(500),
            ..MonitorConfig::default()
        },
    );
    let cap = sys.connect(client, server, false).expect("same app");
    sys.connect(server, client, false).expect("reply path");
    (sys, cap, server)
}

fn send(sys: &mut System, cap: apiary_cap::CapRef, tag: u64) {
    let now = sys.now();
    sys.tile_mut(NodeId(0))
        .monitor
        .send(
            cap,
            wire::KIND_REQUEST,
            tag,
            TrafficClass::Request,
            vec![1],
            now,
        )
        .expect("send accepted");
}

#[test]
fn silent_hang_is_detected_and_fail_stopped() {
    let (mut sys, cap, server) = watchdog_system(FaultPolicy::FailStop);
    // Two good requests.
    for tag in 0..2 {
        send(&mut sys, cap, tag);
        sys.run_until_idle(100_000);
        assert!(sys.tile_mut(NodeId(0)).monitor.recv().is_some());
    }
    // The third wedges the accelerator; it never recvs, never faults.
    send(&mut sys, cap, 2);
    sys.run(5_000);
    assert_eq!(sys.tile(server).monitor.state(), TileState::FailStopped);
    let rec = sys.tile(server).faults[0];
    assert_eq!(rec.code, WATCHDOG_FAULT);
    assert_eq!(rec.action, FaultAction::FailStopped);

    // Subsequent traffic gets the standard error reply.
    send(&mut sys, cap, 3);
    sys.run_until_idle(100_000);
    let d = sys.tile_mut(NodeId(0)).monitor.recv().expect("error reply");
    assert_eq!(d.msg.kind, wire::KIND_ERROR);
    assert_eq!(d.msg.payload[0], wire::err::TARGET_FAILED);
}

#[test]
fn preempt_policy_falls_back_to_fail_stop_for_non_preemptible_hang() {
    // HangAccel externalizes no state (`save()` is None), so the Preempt
    // policy cannot swap its context out: the kernel must fall back to
    // fail-stop rather than leave the wedged tile running.
    let (mut sys, cap, server) = watchdog_system(FaultPolicy::Preempt);
    for tag in 0..2 {
        send(&mut sys, cap, tag);
        sys.run_until_idle(100_000);
        assert!(sys.tile_mut(NodeId(0)).monitor.recv().is_some());
    }
    send(&mut sys, cap, 2);
    sys.run(5_000);
    assert_eq!(sys.tile(server).monitor.state(), TileState::FailStopped);
    let rec = sys.tile(server).faults[0];
    assert_eq!(rec.code, WATCHDOG_FAULT);
    assert_eq!(
        rec.action,
        FaultAction::FailStopped,
        "non-preemptible hang must degrade to fail-stop, not stay wedged"
    );
    // And the failure is visible to clients, exactly as under FailStop.
    send(&mut sys, cap, 3);
    sys.run_until_idle(100_000);
    let d = sys.tile_mut(NodeId(0)).monitor.recv().expect("error reply");
    assert_eq!(d.msg.kind, wire::KIND_ERROR);
    assert_eq!(d.msg.payload[0], wire::err::TARGET_FAILED);
}

#[test]
fn watchdog_does_not_fire_on_healthy_tiles() {
    let client = NodeId(0);
    let server = NodeId(5);
    let mut sys = System::new(SystemConfig::default());
    sys.install(client, Box::new(idle()), AppId(1), FaultPolicy::FailStop)
        .expect("free");
    sys.install(
        server,
        Box::new(apiary_accel::apps::echo::echo(4)),
        AppId(1),
        FaultPolicy::FailStop,
    )
    .expect("free");
    sys.tile_mut(server).monitor = Monitor::new(
        server,
        MonitorConfig {
            watchdog_cycles: Some(500),
            ..MonitorConfig::default()
        },
    );
    let cap = sys.connect(client, server, false).expect("same app");
    sys.connect(server, client, false).expect("reply path");
    for tag in 0..20 {
        send(&mut sys, cap, tag);
        sys.run_until_idle(100_000);
        assert!(sys.tile_mut(NodeId(0)).monitor.recv().is_some());
    }
    assert_eq!(sys.tile(server).monitor.state(), TileState::Running);
    assert!(sys.tile(server).faults.is_empty());
}

#[test]
fn watchdog_ignores_failstopped_tiles() {
    let (mut sys, cap, server) = watchdog_system(FaultPolicy::FailStop);
    sys.fail_stop(server);
    send(&mut sys, cap, 0);
    sys.run(5_000);
    // Exactly the manual record; the watchdog added nothing (NACKed
    // messages never sit in the inbox).
    assert_eq!(sys.tile(server).faults.len(), 1);
}
