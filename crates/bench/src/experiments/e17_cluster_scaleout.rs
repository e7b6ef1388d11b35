//! E17 — Cluster scale-out: goodput and latency across boards (DESIGN.md §5).
//!
//! A fixed open-loop offered load (eight clients, one per entry board,
//! Poisson arrivals) is driven against an echo service replicated on every
//! board of a 1/2/4/8-board cluster. One board cannot absorb the load —
//! goodput should scale with board count until the offered rate is met,
//! then plateau. Two chaos cells stress the eight-board configuration:
//!
//! - **board-kill**: one board of eight dies mid-run. Lease expiry removes
//!   its directory entries everywhere, its remote caps are revoked, and
//!   in-flight requests time out and retry onto live replicas. The cluster
//!   must retain ≥ 80% of the fault-free eight-board goodput.
//! - **link-cut**: one board's uplink drops for a window, then heals. The
//!   fabric ARQ retransmits across the cut; no request may be lost.
//!
//! Reported per cell: goodput (ok responses per kilocycle), end-to-end
//! p50/p99, and the per-hop breakdown (fabric out / on-board / fabric
//! back) that separates wire time from service time. Every cell must
//! drain — chaos may cost requests, never wedge the cluster.

use crate::harness::Run;
use crate::report::{round, round4, rows_json, table, ExperimentReport, Json, Row};
use apiary_accel::apps::echo::echo;
use apiary_cap::ServiceId;
use apiary_cluster::{ClusterClient, ClusterConfig};
use apiary_core::{AppId, FaultPolicy};
use apiary_net::Workload;
use apiary_noc::NodeId;
use apiary_sim::{until, Cycle, Machine};
use core::fmt::Write;
use core::ops::ControlFlow;
use std::collections::BTreeMap;

const SVC: ServiceId = ServiceId(17);
const REPLICA_NODE: NodeId = NodeId(5);
const BITSTREAM: u64 = 4096; // 1024 cycles over the default 4 B/cycle ICAP.
const ECHO_COST: u64 = 60; // busy cycles per request => ~16.6 req/kcycle/board
const CLIENTS: u32 = 8;
/// Per-client mean interarrival. Eight clients at 80 offer 0.1 req/cycle
/// in total — several times what one replica can serve, so goodput keeps
/// climbing until about four boards share the load.
const INTERARRIVAL: f64 = 80.0;
const WARMUP: u64 = 2_000; // bitstream load + one gossip round
const CUT_WINDOW: u64 = 3_000;
const DRAIN_LIMIT: u64 = 120_000;

/// The chaos applied to a cell, if any.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Chaos {
    /// Fault-free.
    None,
    /// Kill the highest-numbered board at `duration / 2`.
    KillBoard,
    /// Cut the highest-numbered board's uplink at `duration / 2` for
    /// `CUT_WINDOW` (3 000) cycles, then restore it.
    CutLink,
}

impl Chaos {
    fn label(self) -> &'static str {
        match self {
            Chaos::None => "none",
            Chaos::KillBoard => "kill-board",
            Chaos::CutLink => "cut-link",
        }
    }
}

/// Drives one cell: `duration` cycles of fixed open-loop load against a
/// `boards`-wide cluster with one echo replica per board, then the drain
/// every cell must reach. Returns its row (the goodput retention and drain
/// keys are the report's to append) and, beside it, the cycle the cell
/// ended on (warm-up + load + drain) and whether it drained.
pub fn run_one(run: Run, boards: u16, chaos: Chaos, duration: u64) -> (Row, u64, bool) {
    let mut c = run.cluster(ClusterConfig {
        boards,
        // At 3x overload a full queue (replica inbox + NoC + gateway
        // outbox) is worth ~5k cycles of wait; 8k separates "slow" from
        // "dead" without writing off every queued request.
        request_timeout: 8_000,
        ..ClusterConfig::default()
    });
    for b in 0..boards {
        c.deploy_replica(
            b,
            "kv",
            SVC,
            REPLICA_NODE,
            AppId(1),
            FaultPolicy::FailStop,
            BITSTREAM,
            Box::new(|| Box::new(echo(ECHO_COST))),
        )
        .expect("replica tile free");
    }
    c.run(WARMUP);

    let mut clients: Vec<ClusterClient> = (0..CLIENTS)
        .map(|i| {
            ClusterClient::new(
                i + 1,
                i as u16 % boards,
                "kv",
                64,
                Workload::Open {
                    mean_interarrival: INTERARRIVAL,
                },
                0xE17_0000 + i as u64,
            )
        })
        .collect();

    // The chaos cycles are the load's deadlines, so chaos lands on the
    // cycle a dense per-cycle check of `now == at` would see.
    let victim = boards - 1;
    let chaos_at = c.now() + duration / 2;
    let restore_at = chaos_at + CUT_WINDOW;
    c.drive(&mut clients[..], duration, |c, _| {
        match chaos {
            Chaos::KillBoard if c.now() == chaos_at => c.kill_board(victim),
            Chaos::CutLink if c.now() == chaos_at => c.cut_link(victim, None),
            Chaos::CutLink if c.now() == restore_at => c.restore_link(victim, None),
            _ => {}
        }
        let next = [chaos_at, restore_at].into_iter().find(|&t| t > c.now());
        ControlFlow::Continue(next.unwrap_or(Cycle::MAX))
    });

    // Stop issuing and drain: chaos may cost requests, never the cluster.
    for cl in &mut clients {
        cl.gen.max_requests = cl.gen.stats.issued;
    }
    let drained = c.drive(&mut clients[..], DRAIN_LIMIT, |c, _| until(c.quiescent()));

    let total = |f: fn(&ClusterClient) -> u64| clients.iter().map(f).sum::<u64>();
    let errors = total(|cl| cl.gen.stats.errors);
    let ok = total(|cl| cl.gen.stats.completed) - errors;
    let goodput = per_kcycle(ok, duration);
    let e2e = c.end_to_end.histogram();
    let out = c.fabric_out.histogram().p50();
    let on_board = c.on_board.histogram().p50();
    let back = c.fabric_back.histogram().p50();
    let fs = c.fabric().stats();
    let row = Row::new()
        .both("boards", "boards", u64::from(boards))
        .both("chaos", "chaos", chaos.label())
        .both("issued", "issued", total(|cl| cl.gen.stats.issued))
        .both("completed_ok", "ok", ok)
        .both("errors", "errors", errors)
        .json("retries", total(|cl| cl.gen.stats.retries))
        .cell(
            "goodput_per_kcycle",
            "goodput/kcyc",
            round(goodput, 3),
            format!("{goodput:.1}"),
        )
        .both("e2e_p50", "e2e p50", e2e.p50())
        .both("e2e_p99", "e2e p99", e2e.p99())
        .pair(
            ["fabric_out_p50", "fabric_back_p50"],
            "fabric p50 (out/back)",
            [out, back],
        )
        .both("on_board_p50", "on-board p50", on_board)
        .json("local_submitted", c.local_submitted)
        .json("remote_submitted", c.remote_submitted)
        .both("retransmissions", "retx", fs.retransmissions)
        .json("cut_drops", fs.cut_drops)
        .json("caps_revoked", c.caps_revoked)
        .both("timeouts", "timeouts", c.timeouts);
    (row, c.now().as_u64(), drained)
}

/// Successful responses per thousand cycles of driven load.
fn per_kcycle(ok: u64, duration: u64) -> f64 {
    ok as f64 * 1000.0 / duration.max(1) as f64
}

/// Runs the scale-out sweep, then the chaos cells; returns the structured
/// report.
pub fn report(run: Run) -> ExperimentReport {
    let duration: u64 = 80_000;
    let cells = [
        (1, Chaos::None),
        (2, Chaos::None),
        (4, Chaos::None),
        (8, Chaos::None),
        (8, Chaos::KillBoard),
        (8, Chaos::CutLink),
    ];
    let mut rows = Vec::new();
    let mut sim_cycles = 0;
    let mut fault_free_ok = BTreeMap::new();
    let mut chaos_lines = String::new();
    for (boards, chaos) in cells {
        let (row, cycles, drained) = run_one(run, boards, chaos, duration);
        sim_cycles += cycles;
        let r = row.record();
        let ok = r.u64("completed_ok");
        if chaos == Chaos::None {
            fault_free_ok.insert(boards, ok);
        }
        // Against the fault-free cell at the same board count, which the
        // sweep order runs first.
        let retention = ok as f64 / fault_free_ok[&boards].max(1) as f64;
        if chaos != Chaos::None {
            let _ = writeln!(
                chaos_lines,
                "Chaos {}: {:.1}% goodput retention, {} timeouts, {} caps revoked, {} retransmissions",
                chaos.label(),
                retention * 100.0,
                r.u64("timeouts"),
                r.u64("caps_revoked"),
                r.u64("retransmissions")
            );
        }
        // The last two keys.
        rows.push(
            row.json("goodput_retention", round4(retention))
                .json("drained", drained),
        );
    }
    let (ok1, ok8) = (fault_free_ok[&1], fault_free_ok[&8]);
    let (g1, g8) = (per_kcycle(ok1, duration), per_kcycle(ok8, duration));
    let rendered = format!(
        "E17: Cluster scale-out — goodput and latency across boards\n\
         ({duration} cycles of fixed open-loop load per cell: {CLIENTS} clients, \
         mean interarrival {INTERARRIVAL} cycles, echo cost {ECHO_COST} cycles)\n\n{}\n\
         Scale-out: {g1:.1} -> {g8:.1} ok/kcycle (1 -> 8 boards, {:.2}x)\n{chaos_lines}",
        table(&rows),
        g8 / g1.max(1e-9)
    );
    let metrics = Json::obj()
        .set("duration_cycles", duration)
        .set("clients", CLIENTS)
        .set("mean_interarrival", INTERARRIVAL)
        .set("scaleout_1_to_8", round(ok8 as f64 / ok1.max(1) as f64, 3))
        .set("runs", rows_json(&rows));
    ExperimentReport::new(
        "E17",
        "Cluster scale-out: goodput and latency across boards",
        sim_cycles,
        metrics,
        rendered,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn goodput_scales_and_chaos_retains_80_percent() {
        // Also that the kill cell exercised failover and the cut cell the
        // ARQ.
        crate::claims::assert_hold([&report(Run::EVENT)]);
    }

    #[test]
    fn same_inputs_same_cell() {
        let a = run_one(Run::EVENT, 2, Chaos::None, 6_000);
        let b = run_one(Run::EVENT, 2, Chaos::None, 6_000);
        assert_eq!(a, b);
    }
}
