//! E16 — Chaos: availability under injected faults (§4.4 stressed).
//!
//! The chaos plane injects NoC faults (transient/permanent link outages,
//! router stalls, flit corruption) from a seeded schedule while tile-kill
//! events repeatedly fault the service's accelerator. Two recovery
//! policies face the same fault sequence:
//!
//! - **no-recovery**: fail-stop only; the first tile kill is permanent.
//! - **supervisor**: the kernel supervisor restarts the service in place
//!   (backoff + partial reconfiguration), escalating to migration onto a
//!   spare tile, and rewires clients after every recovery.
//!
//! Reported per `(fault rate, policy)` cell: goodput retention against a
//! fault-free baseline, the MTTR distribution of supervised recoveries,
//! and the blast radius (tiles with any fault on record). Every run must
//! drain — an injected fault may cost packets, never the network.

use crate::harness::Run;
use crate::report::{round4, rows_json, table, ExperimentReport, Json, Row};
use crate::scenarios::{drain, Clients, MonitorClient};
use apiary_accel::apps::echo::echo;
use apiary_accel::apps::idle::idle;
use apiary_cap::ServiceId;
use apiary_core::supervisor::SupervisorConfig;
use apiary_core::{AppId, FaultPolicy, System, SystemConfig};
use apiary_monitor::TileState;
use apiary_noc::{FaultPlane, FaultPlaneConfig, NodeId};
use apiary_sim::{Cycle, Machine, SimRng};
use core::ops::ControlFlow;

const SVC: ServiceId = ServiceId(16);
const CLIENT: NodeId = NodeId(0);
const HOME: NodeId = NodeId(5);
const B_CLIENT: NodeId = NodeId(3);
const B_SERVER: NodeId = NodeId(6);
const SPARES: [NodeId; 2] = [NodeId(10), NodeId(12)];
const BITSTREAM: u64 = 4096; // 1024 cycles over the default 4 B/cycle ICAP.
const KILL_CODE: u32 = 0xC4A0_0016;

/// Drives one cell: `duration` cycles of closed-loop load against a
/// supervised echo service while the chaos plane and the tile-killer run,
/// then the drain every cell must reach. Returns the machine, the driven
/// client, the tile kills injected and whether the drain came (no injected
/// fault may wedge the network; the `E16.drains` claim reads it).
fn drive_cell(
    run: Run,
    seed: u64,
    fault_rate: f64,
    recovery: bool,
    duration: u64,
) -> (System, MonitorClient, u64, bool) {
    let mut sys = run.system(SystemConfig {
        supervisor: SupervisorConfig {
            enabled: recovery,
            max_restarts: 2,
            restart_backoff: 128,
            spare_nodes: SPARES.to_vec(),
            checkpoint_interval: 0,
        },
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
    // A bystander pair on unrelated tiles loads the mesh beside the service.
    sys.install(B_CLIENT, Box::new(idle()), AppId(2), FaultPolicy::FailStop)
        .expect("free");
    sys.install(B_SERVER, Box::new(echo(1)), AppId(2), FaultPolicy::FailStop)
        .expect("free");
    let bcap = sys.connect(B_CLIENT, B_SERVER, false).expect("same app");
    sys.connect(B_SERVER, B_CLIENT, false).expect("reply path");

    if fault_rate > 0.0 {
        sys.noc_mut()
            .install_fault_plane(FaultPlane::new(FaultPlaneConfig::with_rate(
                seed, fault_rate,
            )));
    }

    // The fault-free RTT is ~20 cycles; 250 clears any stall/detour pile-up
    // while keeping a dropped request from wedging its window slot long.
    let mut vc = MonitorClient::new(CLIENT, cap, 32).window(4);
    vc.timeout = 250;
    let mut bc = MonitorClient::new(B_CLIENT, bcap, 32).window(2);
    bc.timeout = 250;

    // Tile kills arrive on a jittered schedule, independent of the NoC
    // plane's RNG, only while faults are enabled at all.
    let mut killer = SimRng::new(seed ^ 0x9E37_79B9_7F4A_7C15);
    let kill_interval = duration / 4;
    let mut next_kill = if fault_rate > 0.0 {
        kill_interval + killer.gen_range(kill_interval / 2)
    } else {
        u64::MAX
    };
    let mut kills = 0u64;

    let mut clients = [&mut vc, &mut bc];
    sys.drive(&mut Clients(&mut clients), duration, |sys, _| {
        let now = sys.now().as_u64();
        if now >= next_kill {
            if let Some(home) = sys.service_home(SVC) {
                if sys.tile(home).monitor.state() == TileState::Running {
                    sys.inject_fault(home, KILL_CODE);
                    kills += 1;
                }
            }
            next_kill = now + kill_interval + killer.gen_range(kill_interval / 2);
        }
        ControlFlow::Continue(Cycle(next_kill))
    });
    // Stop issuing and drain.
    let drained = drain(&mut sys, &mut clients);
    (sys, vc, kills, drained)
}

/// Drives one cell and writes its row, goodput retention taken against the
/// fault-free baseline's `baseline_ok` responses. Beside the row is the
/// drained machine, which holds the MTTR samples and the NoC's counters.
pub fn run_one(
    run: Run,
    seed: u64,
    fault_rate: f64,
    recovery: bool,
    duration: u64,
    baseline_ok: u64,
) -> (Row, System) {
    let (sys, vc, kills, drained) = drive_cell(run, seed, fault_rate, recovery, duration);
    let retention = (vc.completed - vc.errors) as f64 / baseline_ok.max(1) as f64;
    let incidents = sys.incidents();
    let abandoned = incidents.iter().filter(|i| i.abandoned()).count();
    let mttr = sys.mttr_samples();
    let blast_tiles = (0..sys.noc().mesh().nodes())
        .filter(|&i| !sys.tile(NodeId(i as u16)).faults.is_empty())
        .count();
    let policy = if recovery {
        "supervisor"
    } else {
        "no-recovery"
    };
    let row = Row::new()
        .both("fault_rate", "fault rate", fault_rate)
        .both("policy", "policy", policy)
        .json("goodput_retention", round4(retention))
        .text("goodput retention", format!("{:.1}%", retention * 100.0))
        .text("errors", vc.errors)
        .text("lost", vc.lost)
        .text("kills", kills)
        .json("incidents", incidents.len())
        .text(
            "incidents",
            format!("{} ({abandoned} abandoned)", incidents.len()),
        )
        .both(
            "mttr_mean",
            "mean MTTR (cyc)",
            mttr.iter().sum::<u64>() / (mttr.len() as u64).max(1),
        )
        .text("blast tiles", blast_tiles)
        .text("noc dropped", sys.noc().stats().dropped())
        .json("drained", drained);
    (row, sys)
}

/// Runs the fault-free baseline, then the sweep; returns the structured
/// report.
pub fn report(run: Run) -> ExperimentReport {
    let seed = 0xE16;
    let duration: u64 = 400_000;
    let (_, baseline, _, drained) = drive_cell(run, seed, 0.0, false, duration);
    assert!(drained, "the fault-free baseline failed to drain");
    let baseline_ok = baseline.completed - baseline.errors;
    let mut sim_cycles = duration;
    let mut rows = Vec::new();
    for rate in [0.0005, 0.002, 0.01] {
        for recovery in [false, true] {
            let (row, sys) = run_one(run, seed, rate, recovery, duration, baseline_ok);
            sim_cycles += sys.now().as_u64();
            rows.push(row);
        }
    }
    let rendered = format!(
        "E16: Chaos — goodput retention and MTTR under injected faults\n\
         ({duration} cycles of closed-loop load per cell; fault-free baseline \
         {baseline_ok} ok responses)\n\n{}",
        table(&rows)
    );
    let metrics = Json::obj()
        .set("duration_cycles", duration)
        .set("baseline_ok", baseline_ok)
        .set("runs", rows_json(&rows));
    ExperimentReport::new(
        "E16",
        "Chaos: goodput retention and MTTR under injected faults",
        sim_cycles,
        metrics,
        rendered,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn supervisor_retains_goodput_no_recovery_does_not() {
        // The lowest sweep rate is the "moderate" cell (~10% link-outage
        // duty cycle plus periodic tile kills); the others are harsher.
        crate::claims::assert_hold([&report(Run::EVENT)]);
    }

    #[test]
    fn chaos_runs_are_deterministic() {
        // A baseline of one response makes the retention column the ok
        // count itself; the row also carries kills and NoC drops.
        let cell = || {
            let (row, sys) = run_one(Run::EVENT, 7, 0.002, true, 60_000, 1);
            (row, sys.mttr_samples(), sys.noc().stats().corrupted_flits)
        };
        let (a, b) = (cell(), cell());
        assert_eq!(a.0, b.0);
        assert_eq!(a.1, b.1);
        assert_eq!(a.2, b.2);
    }
}
