//! E12 — "Can we reasonably completely avoid an on-node hosting CPU?"
//! (§6, open question 3).
//!
//! The paper's answer sketch: put rare/complex functionality on *any
//! remote CPU over the network*, keeping the FPGA host-free. This
//! experiment quantifies the trade: the same service is offered
//!
//! - **in fabric** (an accelerator tile: fast, but it costs a tile and
//!   logic area forever, §3's simplicity concern), and
//! - **on a remote CPU** behind a proxy tile (zero fabric beyond the
//!   proxy, but each call pays two wire crossings and CPU queueing).
//!
//! The latency gap is the *price of area savings*; the table sweeps the
//! invocation rate to show when remote hosting stops being acceptable
//! (queueing blows up the tail).

use crate::harness::Run;
use crate::report::{round, rows_json, table, ExperimentReport, Json, Row};
use crate::scenarios::MonitorClient;
use apiary_accel::apps::echo::echo;
use apiary_accel::apps::idle::idle;
use apiary_core::{AppId, FaultPolicy, SystemConfig};
use apiary_net::proxy::{RemoteConfig, RemoteCpuProxy};
use apiary_noc::NodeId;
use core::fmt::Write;

/// The modelled function costs ~2000 CPU cycles (or equivalent fabric
/// time when implemented as an accelerator).
const FUNC_CYCLES: u64 = 2_000;

struct Point {
    p50: u64,
    p99: u64,
    cycles: u64,
}

fn measure(run: Run, remote: bool, think: u64, window: u32, requests: u64) -> Point {
    let client = NodeId(0);
    let server = NodeId(5);
    let mut sys = run.system(SystemConfig::default());
    sys.install(client, Box::new(idle()), AppId(1), FaultPolicy::FailStop)
        .expect("free");
    if remote {
        sys.install(
            server,
            Box::new(RemoteCpuProxy::new(RemoteConfig {
                wire_latency: 500,
                cpu_cores: 1,
                cpu_cycles: FUNC_CYCLES,
            })),
            AppId(1),
            FaultPolicy::FailStop,
        )
        .expect("free");
    } else {
        sys.install(
            server,
            Box::new(echo(FUNC_CYCLES)),
            AppId(1),
            FaultPolicy::FailStop,
        )
        .expect("free");
    }
    let cap = sys.connect(client, server, false).expect("same app");
    sys.connect(server, client, false).expect("reply path");

    let mut c = MonitorClient::new(client, cap, 64)
        .window(window)
        .max_requests(requests);
    c.think = think;
    // Discard the initial window-fill burst so steady-state rates are
    // compared, not the cold start.
    c.warmup = window as u64;
    let cycles = crate::scenarios::drive(&mut sys, &mut [&mut c], 200_000_000);
    assert!(c.done(), "E12 load did not complete");
    Point {
        p50: c.rtt.p50(),
        p99: c.rtt.p99(),
        cycles,
    }
}

/// Runs the experiment; returns the structured report.
pub fn report(run: Run) -> ExperimentReport {
    let requests = 100;
    // (think, window, label): rare callers are serial; hot callers pipeline.
    let patterns: &[(u64, u32, &str)] = &[
        (20_000, 1, "very rare (serial)"),
        (10_000, 1, "rare (serial)"),
        (3_000, 1, "occasional (serial)"),
        (0, 2, "busy (pipelined x2)"),
        (0, 4, "hot (pipelined x4)"),
    ];
    let mut out = String::new();
    let _ = writeln!(
        out,
        "E12: In-fabric service vs remote-CPU service (function cost {FUNC_CYCLES} cycles)\n\
         (closed loop, window 4; 'think' is the client's idle gap between calls)\n"
    );
    let mut rows = Vec::new();
    let mut sim_cycles = 0u64;
    let mut serial_penalty = 0.0;
    for &(think, window, label) in patterns {
        let fab = measure(run, false, think, window, requests);
        let rem = measure(run, true, think, window, requests);
        sim_cycles += fab.cycles + rem.cycles;
        let penalty = rem.p50 as f64 / fab.p50 as f64;
        if window == 1 && serial_penalty == 0.0 {
            serial_penalty = penalty;
        }
        rows.push(
            Row::new()
                .both("pattern", "invocation pattern", label)
                .pair(["think", "window"], "think/window", [think, window.into()])
                .both("fabric_p50", "fabric p50", fab.p50)
                .both("fabric_p99", "fabric p99", fab.p99)
                .both("remote_p50", "remote p50", rem.p50)
                .both("remote_p99", "remote p99", rem.p99)
                .times("remote_penalty_p50", "remote penalty p50", penalty),
        );
    }
    let _ = writeln!(out, "{}", table(&rows));
    let metrics = Json::obj()
        .set("func_cycles", FUNC_CYCLES)
        .set("patterns", patterns.len())
        .set("remote_penalty_p50_serial", round(serial_penalty, 2))
        .set("points", rows_json(&rows));
    ExperimentReport::new(
        "E12",
        "In-fabric vs remote-CPU service hosting",
        sim_cycles,
        metrics,
        out,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn remote_costs_wire_when_rare() {
        let fab = measure(Run::EVENT, false, 5_000, 1, 12);
        let rem = measure(Run::EVENT, true, 5_000, 1, 12);
        // Two 500-cycle crossings, minus fabric's NoC hops.
        assert!(
            rem.p50 > fab.p50 + 800,
            "remote {} fabric {}",
            rem.p50,
            fab.p50
        );
        assert!(rem.p50 < fab.p50 + 2_000, "penalty should be bounded");
    }

    #[test]
    fn remote_tail_blows_up_when_frequent() {
        let rare = measure(Run::EVENT, true, 5_000, 1, 12);
        let hot = measure(Run::EVENT, true, 0, 4, 12);
        assert!(hot.p99 > rare.p99 * 2, "hot {} rare {}", hot.p99, rare.p99);
    }
}
