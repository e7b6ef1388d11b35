//! E3 — "What is the overhead of the per-tile monitor?" (§6, Q1).
//!
//! Two sides of the answer:
//!
//! 1. **Area**: price the monitor's feature set, then floor-plan real
//!    parts at increasing tile counts and report the fraction of the
//!    device consumed by the Apiary framework (monitors + routers + I/O
//!    shell).
//! 2. **Cycles**: sweep the monitor's per-message check pipeline depth and
//!    measure the end-to-end request latency it adds.

use crate::harness::Run;
use crate::report::{ExperimentReport, Json};
use crate::scenarios::{client_server, drive, MonitorClient};
use crate::table::TextTable;
use apiary_accel::apps::echo::echo;
use apiary_core::SystemConfig;
use apiary_monitor::{MonitorAreaModel, MonitorConfig, MonitorFeatures};
use apiary_noc::NodeId;
use apiary_resources::{FloorPlanner, PARTS};
use core::fmt::Write;

/// Runs the experiment; returns the structured report.
pub fn report(run: Run) -> ExperimentReport {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "E3: Per-tile monitor overhead (paper §6, open question 1)\n"
    );

    // Part A: monitor area by feature set.
    let model = MonitorAreaModel::default();
    let mut t = TextTable::new(&["feature set", "LUTs", "FFs", "BRAM36"]);
    for (name, f) in [
        ("minimal (caps only)", MonitorFeatures::minimal()),
        ("default", MonitorFeatures::default()),
        ("full (+trace ring)", MonitorFeatures::full()),
    ] {
        let a = model.area(&f);
        t.row(&[
            name.to_string(),
            a.luts.to_string(),
            a.ffs.to_string(),
            a.bram36.to_string(),
        ]);
    }
    let _ = writeln!(out, "Monitor area by feature set:\n{}", t.render());

    // Part B: framework fraction vs tile count, per part.
    let monitor = model.area(&MonitorFeatures::default());
    let tile_counts: &[u64] = &[4, 9, 16, 36, 64, 100];
    let mut t = TextTable::new(&[
        "part",
        "tiles",
        "framework LUTs",
        "framework %",
        "per-tile slot LUTs",
    ]);
    for part in PARTS {
        for &tiles in tile_counts {
            let planner = FloorPlanner {
                tiles,
                monitor,
                router: if part.hardened_noc {
                    FloorPlanner::HARD_ROUTER
                } else {
                    FloorPlanner::SOFT_ROUTER
                },
                io_shell: FloorPlanner::IO_SHELL,
            };
            match planner.plan(part) {
                Ok(plan) => t.row(&[
                    part.number.to_string(),
                    tiles.to_string(),
                    plan.framework.luts.to_string(),
                    format!("{:.1}%", plan.framework_fraction() * 100.0),
                    plan.tile_slot.luts.to_string(),
                ]),
                Err(_) => t.row(&[
                    part.number.to_string(),
                    tiles.to_string(),
                    "-".to_string(),
                    "does not fit".to_string(),
                    "-".to_string(),
                ]),
            }
        }
    }
    let _ = writeln!(
        out,
        "Framework share of device vs tile count:\n{}",
        t.render()
    );

    // Part C: cycle overhead of the monitor's message-path checks.
    let requests = 200;
    let mut t = TextTable::new(&["check cycles", "RTT p50", "RTT p99", "added vs 0"]);
    let mut base_p50 = 0;
    let mut deep_p50 = 0;
    let mut sim_cycles = 0u64;
    for check in [0u64, 1, 2, 4, 8] {
        let cfg = SystemConfig {
            monitor: MonitorConfig {
                check_cycles: check,
                // This sweep prices the *per-message* check pipeline; the
                // flow-verdict cache would hide it behind the first request
                // (E5 measures that effect).
                flow_cache: false,
                ..MonitorConfig::default()
            },
            ..SystemConfig::default()
        };
        let (mut sys, cap) =
            client_server(run.system(cfg), NodeId(0), NodeId(5), Box::new(echo(4)));
        let mut client = MonitorClient::new(NodeId(0), cap, 32).max_requests(requests);
        sim_cycles += drive(&mut sys, &mut [&mut client], 2_000_000);
        assert!(client.done(), "E3 load did not complete");
        let p50 = client.rtt.p50();
        if check == 0 {
            base_p50 = p50;
        }
        deep_p50 = p50;
        t.row(&[
            check.to_string(),
            p50.to_string(),
            client.rtt.p99().to_string(),
            format!("+{}", p50.saturating_sub(base_p50)),
        ]);
    }
    let _ = writeln!(
        out,
        "Message-path latency vs monitor pipeline depth (request+response each cross 2 monitors):\n{}",
        t.render()
    );
    let _ = writeln!(
        out,
        "Conclusion: a firewall-class monitor (~{} LUTs) at 64 tiles consumes under a third of a\n\
         VU9P-class device and adds ~4 cycles per one-cycle-check hop pair to request latency.",
        monitor.luts
    );
    let metrics = Json::obj()
        .set("monitor_luts_default", monitor.luts)
        .set("rtt_p50_check0", base_p50)
        .set("rtt_p50_check8", deep_p50)
        .set("added_p50_check8", deep_p50.saturating_sub(base_p50));
    ExperimentReport::new(
        "E3",
        "Per-tile monitor overhead: area and message-path cycles",
        sim_cycles,
        metrics,
        out,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deeper_checks_cost_more_latency() {
        crate::claims::assert_hold([&report(Run::EVENT)]);
    }
}
