//! E8 — Fault handling: fail-stop vs preemption (§4.4).
//!
//! A service that faults mid-stream is driven under steady load with the
//! two policies the paper defines:
//!
//! - **fail-stop** (concurrent accelerator): the monitor seals the tile;
//!   every request until the kernel reconfigures the tile bounces with
//!   `TARGET_FAILED`. Recovery = partial reconfiguration time.
//! - **preempt** (preemptible accelerator): the kernel swaps the faulted
//!   context out and back; recovery = state save/restore time, and the
//!   tile's data survives.
//!
//! Either way, a bystander application on another tile must be untouched —
//! the containment property itself.

use crate::harness::Run;
use crate::report::{table, ExperimentReport, Json, Row};
use crate::scenarios::{drive, Clients, MonitorClient};
use apiary_accel::apps::echo::echo;
use apiary_accel::apps::faulty::faulty;
use apiary_accel::apps::idle::idle;
use apiary_core::fault::FaultAction;
use apiary_core::{AppId, FaultPolicy, SystemConfig};
use apiary_monitor::TileState;
use apiary_noc::NodeId;
use apiary_sim::{until, Machine};
use core::fmt::Write;

struct Outcome {
    ok_before_recovery: u64,
    errors: u64,
    recovery_cycles: u64,
    bystander_ok: u64,
    victim_alive_after: bool,
    cycles: u64,
}

const BITSTREAM_BYTES: u64 = 512 << 10; // A tile-sized partial bitstream.

fn run_policy(run: Run, policy: FaultPolicy, requests: u64) -> Outcome {
    let client = NodeId(0);
    let victim = NodeId(5);
    let bclient = NodeId(3);
    let bystander = NodeId(6);
    let mut sys = run.system(SystemConfig::default());
    sys.install(client, Box::new(idle()), AppId(1), FaultPolicy::FailStop)
        .expect("free");
    sys.install(victim, Box::new(faulty(10)), AppId(1), policy)
        .expect("free");
    sys.install(bclient, Box::new(idle()), AppId(2), FaultPolicy::FailStop)
        .expect("free");
    sys.install(
        bystander,
        Box::new(echo(2)),
        AppId(2),
        FaultPolicy::FailStop,
    )
    .expect("free");
    let cap = sys.connect(client, victim, false).expect("same app");
    sys.connect(victim, client, false).expect("reply path");
    let bcap = sys.connect(bclient, bystander, false).expect("same app");
    sys.connect(bystander, bclient, false).expect("reply path");

    let mut vc = MonitorClient::new(client, cap, 32).max_requests(requests);
    vc.timeout = 30_000; // Abandon requests swallowed by the fault.
    let mut bc = MonitorClient::new(bclient, bcap, 32).max_requests(requests);

    // Run until the fault lands, reconfigure on fail-stop, and re-wire the
    // fresh accelerator's reply capability once it comes up (the kernel
    // re-runs the application's connection setup after reconfiguration).
    let mut recovery_cycles = 0;
    let mut reconfigured = false;
    let mut rewired = false;
    let mut clients = [&mut vc, &mut bc];
    sys.drive(&mut Clients(&mut clients), 20_000_000, |sys, clients| {
        if !reconfigured
            && policy == FaultPolicy::FailStop
            && sys.tile(victim).monitor.state() == TileState::FailStopped
        {
            let started = sys.now();
            let done = sys
                .reconfigure(
                    victim,
                    Box::new(faulty(u64::MAX)),
                    AppId(1),
                    policy,
                    BITSTREAM_BYTES,
                )
                .expect("first reconfig");
            recovery_cycles = done - started;
            reconfigured = true;
        }
        if reconfigured && !rewired && sys.tile(victim).monitor.state() == TileState::Running {
            sys.connect(victim, client, false)
                .expect("re-wire reply path");
            rewired = true;
        }
        until(clients.done())
    });
    // Preemption downtime from the fault record.
    if policy == FaultPolicy::Preempt {
        if let Some(rec) = sys.tile(victim).faults.first() {
            if let FaultAction::Preempted { downtime } = rec.action {
                recovery_cycles = downtime;
            }
        }
    }
    // Let any stragglers settle, and let an in-flight reconfiguration
    // land so the tile's final state reflects the recovery.
    drive(&mut sys, &mut clients, 2_000_000);
    if reconfigured && !rewired {
        sys.run(200_000);
    }
    Outcome {
        ok_before_recovery: vc.completed - vc.errors,
        errors: vc.errors,
        recovery_cycles,
        bystander_ok: bc.completed - bc.errors,
        victim_alive_after: sys.tile(victim).monitor.state() == TileState::Running,
        cycles: sys.now().as_u64(),
    }
}

/// Runs the experiment; returns the structured report.
pub fn report(run: Run) -> ExperimentReport {
    let requests = 200;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "E8: Fault containment — a service faults on its 10th request under load\n"
    );
    let mut sim_cycles = 0u64;
    let mut metrics = Json::obj().set("requests", requests);
    let mut rows = Vec::new();
    for (name, policy) in [
        ("fail-stop + reconfigure", FaultPolicy::FailStop),
        ("preempt (context swap)", FaultPolicy::Preempt),
    ] {
        let o = run_policy(run, policy, requests);
        sim_cycles += o.cycles;
        let key = if policy == FaultPolicy::FailStop {
            "fail_stop"
        } else {
            "preempt"
        };
        let row = Row::new()
            .both("policy", "policy", name)
            .both("ok", "ok responses", o.ok_before_recovery)
            .both("errors", "error responses", o.errors)
            .both("recovery_cycles", "recovery (cycles)", o.recovery_cycles)
            .both("bystander_ok", "bystander ok", o.bystander_ok)
            .both("tile_alive_after", "tile alive after", o.victim_alive_after);
        metrics.put(key, row.record().clone());
        rows.push(row);
    }
    let _ = writeln!(out, "{}", table(&rows));
    ExperimentReport::new(
        "E8",
        "Fault containment: fail-stop vs preemption under load",
        sim_cycles,
        metrics,
        out,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preemption_recovers_much_faster_than_reconfig() {
        let fs = run_policy(Run::EVENT, FaultPolicy::FailStop, 30);
        let pr = run_policy(Run::EVENT, FaultPolicy::Preempt, 30);
        assert!(
            fs.recovery_cycles > pr.recovery_cycles * 100,
            "fail-stop {} vs preempt {}",
            fs.recovery_cycles,
            pr.recovery_cycles
        );
        assert!(pr.victim_alive_after);
        // Fail-stop produced error replies during the outage.
        assert!(fs.errors > 0);
    }

    #[test]
    fn bystander_is_never_affected() {
        let fs = run_policy(Run::EVENT, FaultPolicy::FailStop, 30);
        assert_eq!(fs.bystander_ok, 30);
    }
}
