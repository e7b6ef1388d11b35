//! E14 — Partial-reconfiguration churn (§4.1's dynamic tiles; the
//! multiplexing substrate AmorphOS/Coyote schedule over).
//!
//! Apiary defers *scheduling* of reconfiguration to prior work but its
//! tiles must make swapping cheap and contained. Three measurements:
//!
//! 1. **Swap latency** vs bitstream size through a 4 B/cycle ICAP — the
//!    fixed cost any scheduler pays.
//! 2. **ICAP serialisation**: K tiles swapped at once queue behind one
//!    configuration port.
//! 3. **Availability under churn**: a service tile is reconfigured every
//!    T cycles while a client hammers it; errors per reconfiguration show
//!    the outage a swap inflicts on live traffic (bounded, fail-stop
//!    semantics — never a hang).

use crate::harness::Run;
use crate::report::{rows_json, table, ExperimentReport, Json, Row};
use crate::scenarios::{client_server, Clients, MonitorClient};
use crate::table::TextTable;
use apiary_accel::apps::echo::echo;
use apiary_accel::apps::idle::idle;
use apiary_core::reconfig::ReconfigController;
use apiary_core::{AppId, FaultPolicy, SystemConfig};
use apiary_noc::NodeId;
use apiary_sim::{Cycle, Machine};
use core::fmt::Write;
use core::ops::ControlFlow;

/// Runs the experiment; returns the structured report.
pub fn report(run: Run) -> ExperimentReport {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "E14: Partial-reconfiguration churn (ICAP at 4 B/cycle)\n"
    );
    let mut metrics = Json::obj();

    // Part 1: swap latency vs bitstream size.
    let mut t = TextTable::new(&[
        "bitstream",
        "swap cycles",
        "swap time @250 MHz",
        "max swaps/s",
    ]);
    for (label, bytes) in [
        ("64 KiB", 64u64 << 10),
        ("256 KiB", 256 << 10),
        ("1 MiB", 1 << 20),
        ("4 MiB", 4 << 20),
    ] {
        let mut rc = ReconfigController::new(4);
        let done = rc.start(
            Cycle::ZERO,
            NodeId(1),
            Box::new(idle()),
            AppId(1),
            FaultPolicy::FailStop,
            bytes,
        );
        let cycles = done.as_u64();
        if bytes == 256 << 10 {
            metrics.put("swap_cycles_256kib", cycles);
        }
        let us = cycles as f64 * 0.004;
        t.row(&[
            label.to_string(),
            cycles.to_string(),
            format!("{us:.0} us"),
            format!("{:.0}", 1e6 / us),
        ]);
    }
    let _ = writeln!(out, "Swap latency vs bitstream size:\n{}", t.render());

    // Part 2: ICAP serialisation.
    let mut t = TextTable::new(&["simultaneous swaps", "first done", "last done"]);
    for k in [1u64, 2, 4, 8] {
        let mut rc = ReconfigController::new(4);
        let mut last = Cycle::ZERO;
        let mut first = Cycle::MAX;
        for i in 0..k {
            let done = rc.start(
                Cycle::ZERO,
                NodeId(i as u16),
                Box::new(idle()),
                AppId(1),
                FaultPolicy::FailStop,
                256 << 10,
            );
            first = first.min(done);
            last = last.max(done);
        }
        t.row(&[
            k.to_string(),
            first.as_u64().to_string(),
            last.as_u64().to_string(),
        ]);
    }
    let _ = writeln!(
        out,
        "One configuration port serialises concurrent swaps (256 KiB each):\n{}",
        t.render()
    );

    // Part 3: availability under churn.
    let requests: u64 = 400;
    let mut sim_cycles = 0u64;
    let mut rows = Vec::new();
    for period in [200_000u64, 400_000, 800_000] {
        let client = NodeId(0);
        let server = NodeId(5);
        let system = run.system(SystemConfig::default());
        let (mut sys, cap) = client_server(system, client, server, Box::new(echo(8)));

        let mut c = MonitorClient::new(client, cap, 32).max_requests(requests);
        c.think = 1_000; // Spread the load across the churn window.
        c.timeout = 100_000;
        let mut reconfigs = 0u64;
        let mut next_swap = period;
        let budget = 200_000_000 - sys.now().as_u64();
        sys.drive(&mut Clients(&mut [&mut c]), budget, |sys, load| {
            if sys.now().as_u64() >= next_swap {
                next_swap += period;
                if sys
                    .reconfigure(
                        server,
                        Box::new(echo(8)),
                        AppId(1),
                        FaultPolicy::FailStop,
                        64 << 10,
                    )
                    .is_ok()
                {
                    reconfigs += 1;
                }
            }
            // Re-wire the reply path the moment the swap lands.
            if sys.tile(server).monitor.state() == apiary_monitor::TileState::Running
                && sys.tile(server).monitor.find_endpoint_cap(client).is_none()
            {
                sys.connect(server, client, false).expect("re-wire");
            }
            if load.done() {
                ControlFlow::Break(())
            } else {
                ControlFlow::Continue(Cycle(next_swap))
            }
        });
        assert!(c.done(), "churn run stalled");
        sim_cycles += sys.now().as_u64();
        let ok = c.completed - c.errors;
        let bad = c.errors + c.lost;
        let avail = 100.0 * ok as f64 / (ok + bad) as f64;
        rows.push(
            Row::new()
                .both("period", "reconfig period (cyc)", period)
                .text("reconfigs", reconfigs)
                .text("ok", ok)
                .text("errors+lost", bad)
                .json("availability_pct", (avail * 10.0).round() / 10.0)
                .text("availability", format!("{avail:.1}%")),
        );
    }
    let _ = writeln!(
        out,
        "Service availability while its tile is repeatedly reconfigured\n\
         (64 KiB bitstream = 16384-cycle outage per swap; client sends every ~1000 cyc):\n{}",
        table(&rows)
    );
    metrics.put("availability_under_churn", rows_json(&rows));
    ExperimentReport::new(
        "E14",
        "Partial-reconfiguration churn: swap latency, ICAP serialisation, availability",
        sim_cycles,
        metrics,
        out,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn longer_periods_mean_higher_availability() {
        crate::claims::assert_hold([&report(Run::EVENT)]);
    }
}
