//! E5 — What does capability enforcement cost? (§4.5/§4.6)
//!
//! Isolation must hold *and* be affordable. This experiment shows both:
//!
//! 1. **Enforcement**: a tile with no (or a revoked) capability cannot get
//!    a single message to its target; denials are counted at the monitor.
//! 2. **Cost**: throughput of a capability-checked message stream as the
//!    check pipeline deepens, against an unchecked (`check_cycles = 0`,
//!    rate limiter off) configuration.

use crate::harness::Run;
use crate::report::{round, rows_json, table, ExperimentReport, Json, Row};
use crate::scenarios::{client_server, drive, MonitorClient};
use apiary_accel::apps::echo::echo;
use apiary_cap::{CapError, Rights};
use apiary_core::SystemConfig;
use apiary_monitor::{MonitorConfig, SendError};
use apiary_noc::{NodeId, TrafficClass};
use core::fmt::Write;

/// Runs the experiment; returns the structured report.
pub fn report(run: Run) -> ExperimentReport {
    let mut out = String::new();
    let _ = writeln!(out, "E5: Capability enforcement and its cost\n");

    // Part A: enforcement is absolute.
    let (mut sys, cap) = client_server(
        run.system(SystemConfig::default()),
        NodeId(0),
        NodeId(5),
        Box::new(echo(1)),
    );
    let now = sys.now();
    // A forged handle fails.
    let forged = apiary_cap::CapRef {
        index: 31,
        generation: 0,
    };
    let err = sys
        .tile_mut(NodeId(0))
        .monitor
        .send(forged, 1, 0, TrafficClass::Request, vec![], now)
        .expect_err("forged handle");
    let _ = writeln!(out, "Forged capability handle     -> {err}");
    // A derived, RECV-only capability cannot send.
    let weak = sys
        .tile_mut(NodeId(0))
        .monitor
        .derive_cap(cap, Rights::NONE, None);
    // The grant right is absent on plain connects, so even deriving fails:
    let _ = writeln!(
        out,
        "Derive from no-GRANT cap     -> {}",
        match weak {
            Err(e) => e.to_string(),
            Ok(_) => "unexpectedly allowed".to_string(),
        }
    );
    // Revocation cuts a live flow.
    sys.tile_mut(NodeId(0))
        .monitor
        .revoke_cap(cap)
        .expect("live");
    let err = sys
        .tile_mut(NodeId(0))
        .monitor
        .send(cap, 1, 0, TrafficClass::Request, vec![], now)
        .expect_err("revoked");
    let _ = writeln!(out, "Send through revoked cap     -> {err}");
    let denied = sys.tile(NodeId(0)).monitor.stats().denied;
    let _ = writeln!(out, "Monitor denial counter       -> {denied}\n");
    assert!(matches!(err, SendError::Cap(CapError::StaleRef)));

    // Part B: the cost of checking.
    let requests: u64 = 400;
    let mut rows = Vec::new();
    let mut base_thr = 0.0;
    let mut realistic_thr = 0.0;
    let mut sim_cycles = 0u64;
    for (name, check) in [
        ("unchecked (0-cycle)", 0u64),
        ("checked (1-cycle, realistic)", 1),
        ("checked (4-cycle)", 4),
        ("checked (8-cycle)", 8),
    ] {
        let cfg = SystemConfig {
            monitor: MonitorConfig {
                check_cycles: check,
                ..MonitorConfig::default()
            },
            ..SystemConfig::default()
        };
        let (mut sys, cap) =
            client_server(run.system(cfg), NodeId(0), NodeId(5), Box::new(echo(1)));
        let mut client = MonitorClient::new(NodeId(0), cap, 16)
            .window(4)
            .max_requests(requests);
        let cycles = drive(&mut sys, &mut [&mut client], 10_000_000);
        sim_cycles += cycles;
        assert!(client.done(), "E5 load did not complete");
        let thr = requests as f64 / cycles as f64 * 1000.0;
        if check == 0 {
            base_thr = thr;
        }
        if check == 1 {
            realistic_thr = thr;
        }
        rows.push(
            Row::new()
                .both("config", "config", name)
                .both("rtt_p50", "RTT p50 (cyc)", client.rtt.p50())
                .fixed("throughput_msg_per_kcyc", "throughput (msg/kcyc)", thr, 2)
                .pct("overhead", "overhead vs unchecked", 1.0 - thr / base_thr),
        );
    }
    let _ = writeln!(
        out,
        "Throughput cost of the capability check:\n{}",
        table(&rows)
    );
    let gap_pct = (1.0 - realistic_thr / base_thr) * 100.0;
    let _ = writeln!(
        out,
        "Checked-vs-unchecked gap: {gap_pct:.2}% — the flow-verdict cache batches the\n\
         capability check per flow, so steady-state checked throughput tracks unchecked\n\
         and interposition is effectively free next to NoC transit and service time."
    );
    let metrics = Json::obj()
        .set("denials", denied)
        .set("throughput_unchecked_msg_per_kcyc", round(base_thr, 2))
        .set("throughput_1cycle_msg_per_kcyc", round(realistic_thr, 2))
        .set(
            "overhead_1cycle_pct",
            ((1.0 - realistic_thr / base_thr) * 1000.0).round() / 10.0,
        )
        .set("checked_vs_unchecked_gap_pct", round(gap_pct, 2))
        .set("configs", rows_json(&rows));
    ExperimentReport::new(
        "E5",
        "Capability enforcement: absolute denial, near-zero cost",
        sim_cycles,
        metrics,
        out,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flow_cache_closes_the_gap() {
        // The acceptance bar for the batched-verdict path: checked
        // throughput within 2% of unchecked.
        crate::claims::assert_hold([&report(Run::EVENT)]);
    }
}
