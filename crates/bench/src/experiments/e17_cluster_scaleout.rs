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
use crate::report::{round3, ExperimentReport, Json};
use crate::table::TextTable;
use apiary_accel::apps::echo::echo;
use apiary_cap::ServiceId;
use apiary_cluster::{run_clients, ClusterClient, ClusterConfig};
use apiary_core::{AppId, FaultPolicy};
use apiary_net::Workload;
use apiary_noc::NodeId;
use core::fmt::Write;

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

/// One `(boards, chaos)` cell's measurements.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// Boards in the cluster.
    pub boards: u16,
    /// Chaos applied.
    pub chaos: Chaos,
    /// Requests issued across all clients (retries excluded).
    pub issued: u64,
    /// Successful (non-error) responses.
    pub completed_ok: u64,
    /// Error responses (timeouts, refusals, dead-origin submissions).
    pub errors: u64,
    /// Client-level retries.
    pub retries: u64,
    /// Requests that timed out at the cluster layer.
    pub timeouts: u64,
    /// Submissions served by a replica on the origin board.
    pub local_submitted: u64,
    /// Submissions forwarded over the fabric.
    pub remote_submitted: u64,
    /// Fabric ARQ retransmissions.
    pub retransmissions: u64,
    /// Frames dropped on downed links.
    pub cut_drops: u64,
    /// Remote caps revoked after lease expiry.
    pub caps_revoked: u64,
    /// End-to-end latency of successful requests (p50, p99).
    pub e2e: (u64, u64),
    /// Per-hop p50s: fabric out, on-board, fabric back.
    pub hops_p50: (u64, u64, u64),
    /// The post-run drain reached quiescence (must always be true).
    pub drained: bool,
    /// Simulated cycles at the end of the run (warm-up + load + drain).
    pub sim_cycles: u64,
}

impl RunOutcome {
    /// Successful responses per thousand cycles of driven load.
    pub fn goodput_per_kcycle(&self, duration: u64) -> f64 {
        self.completed_ok as f64 * 1000.0 / duration.max(1) as f64
    }
}

/// The whole experiment: the scale-out sweep plus the chaos cells.
#[derive(Debug, Clone)]
pub struct ScaleoutReport {
    /// Cycles of driven load per cell.
    pub duration: u64,
    /// Cells: boards ∈ {1, 2, 4, 8} fault-free, then the chaos cells.
    pub runs: Vec<RunOutcome>,
}

/// Drives one cell: `duration` cycles of fixed open-loop load against a
/// `boards`-wide cluster with one echo replica per board.
pub fn run_one(run: Run, boards: u16, chaos: Chaos, duration: u64) -> RunOutcome {
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
    c.tick_n(WARMUP);

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

    // The load phase runs in segments bounded by the chaos boundaries so
    // the event clock treats them as wakeup deadlines: chaos lands on the
    // same cycle it would under a dense per-cycle check of `now >= at`.
    let victim = boards - 1;
    let end_load = c.now().as_u64() + duration;
    run_clients(&mut c, &mut clients, duration / 2, |_, _| false);
    let mut restore_at = u64::MAX;
    match chaos {
        Chaos::None => {}
        Chaos::KillBoard => c.kill_board(victim),
        Chaos::CutLink => {
            c.cut_link(victim, None);
            restore_at = c.now().as_u64() + CUT_WINDOW;
        }
    }
    if restore_at <= end_load {
        let win = restore_at - c.now().as_u64();
        run_clients(&mut c, &mut clients, win, |_, _| false);
        c.restore_link(victim, None);
    }
    let rest = end_load - c.now().as_u64();
    run_clients(&mut c, &mut clients, rest, |_, _| false);

    // Stop issuing and drain: chaos may cost requests, never the cluster.
    for cl in &mut clients {
        cl.gen.max_requests = cl.gen.stats.issued;
    }
    let drained = run_clients(&mut c, &mut clients, DRAIN_LIMIT, |c, _| c.quiescent());

    let issued: u64 = clients.iter().map(|cl| cl.gen.stats.issued).sum();
    let completed: u64 = clients.iter().map(|cl| cl.gen.stats.completed).sum();
    let errors: u64 = clients.iter().map(|cl| cl.gen.stats.errors).sum();
    let retries: u64 = clients.iter().map(|cl| cl.gen.stats.retries).sum();
    let fs = c.fabric().stats();
    RunOutcome {
        boards,
        chaos,
        issued,
        completed_ok: completed - errors,
        errors,
        retries,
        timeouts: c.timeouts,
        local_submitted: c.local_submitted,
        remote_submitted: c.remote_submitted,
        retransmissions: fs.retransmissions,
        cut_drops: fs.cut_drops,
        caps_revoked: c.caps_revoked,
        e2e: (
            c.end_to_end.histogram().p50(),
            c.end_to_end.histogram().p99(),
        ),
        hops_p50: (
            c.fabric_out.histogram().p50(),
            c.on_board.histogram().p50(),
            c.fabric_back.histogram().p50(),
        ),
        drained,
        sim_cycles: c.now().as_u64(),
    }
}

/// Executes the sweep.
pub fn execute(run: Run) -> ScaleoutReport {
    let duration: u64 = if run.quick { 25_000 } else { 80_000 };
    let mut runs = Vec::new();
    for boards in [1u16, 2, 4, 8] {
        runs.push(run_one(run, boards, Chaos::None, duration));
    }
    runs.push(run_one(run, 8, Chaos::KillBoard, duration));
    runs.push(run_one(run, 8, Chaos::CutLink, duration));
    for o in &runs {
        assert!(
            o.drained,
            "cell ({} boards, {}) failed to drain",
            o.boards,
            o.chaos.label()
        );
    }
    ScaleoutReport { duration, runs }
}

impl ScaleoutReport {
    /// The fault-free cell at `boards`.
    pub fn fault_free(&self, boards: u16) -> &RunOutcome {
        self.runs
            .iter()
            .find(|o| o.boards == boards && o.chaos == Chaos::None)
            .expect("fault-free cell present")
    }

    /// Goodput retention of a chaos cell against the fault-free cell at
    /// the same board count.
    pub fn retention(&self, o: &RunOutcome) -> f64 {
        o.completed_ok as f64 / self.fault_free(o.boards).completed_ok.max(1) as f64
    }

    /// Human-readable report.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "E17: Cluster scale-out — goodput and latency across boards\n\
             ({} cycles of fixed open-loop load per cell: {} clients, \
             mean interarrival {} cycles, echo cost {} cycles)\n",
            self.duration, CLIENTS, INTERARRIVAL, ECHO_COST
        );
        let mut t = TextTable::new(&[
            "boards",
            "chaos",
            "issued",
            "ok",
            "errors",
            "goodput/kcyc",
            "e2e p50",
            "e2e p99",
            "fabric p50 (out/back)",
            "on-board p50",
            "retx",
            "timeouts",
        ]);
        for o in &self.runs {
            t.row_owned(vec![
                o.boards.to_string(),
                o.chaos.label().to_string(),
                o.issued.to_string(),
                o.completed_ok.to_string(),
                o.errors.to_string(),
                format!("{:.1}", o.goodput_per_kcycle(self.duration)),
                o.e2e.0.to_string(),
                o.e2e.1.to_string(),
                format!("{}/{}", o.hops_p50.0, o.hops_p50.2),
                o.hops_p50.1.to_string(),
                o.retransmissions.to_string(),
                o.timeouts.to_string(),
            ]);
        }
        out.push_str(&t.render());
        let g1 = self.fault_free(1).goodput_per_kcycle(self.duration);
        let g8 = self.fault_free(8).goodput_per_kcycle(self.duration);
        let _ = writeln!(
            out,
            "\nScale-out: {:.1} -> {:.1} ok/kcycle (1 -> 8 boards, {:.2}x)",
            g1,
            g8,
            g8 / g1.max(1e-9)
        );
        for o in self.runs.iter().filter(|o| o.chaos != Chaos::None) {
            let _ = writeln!(
                out,
                "Chaos {}: {:.1}% goodput retention, {} timeouts, {} caps revoked, {} retransmissions",
                o.chaos.label(),
                self.retention(o) * 100.0,
                o.timeouts,
                o.caps_revoked,
                o.retransmissions
            );
        }
        out
    }
}

/// Builds the structured report.
pub fn report(run: Run) -> ExperimentReport {
    let r = execute(run);
    let sim_cycles: u64 = r.runs.iter().map(|o| o.sim_cycles).sum();
    let mut metrics = Json::obj()
        .set("duration_cycles", r.duration)
        .set("clients", CLIENTS as u64)
        .set("mean_interarrival", INTERARRIVAL)
        .set(
            "scaleout_1_to_8",
            round3(
                r.fault_free(8).completed_ok as f64 / r.fault_free(1).completed_ok.max(1) as f64,
            ),
        );
    let mut cells = Vec::new();
    for o in &r.runs {
        cells.push(
            Json::obj()
                .set("boards", o.boards as u64)
                .set("chaos", o.chaos.label())
                .set("issued", o.issued)
                .set("completed_ok", o.completed_ok)
                .set("errors", o.errors)
                .set("retries", o.retries)
                .set("timeouts", o.timeouts)
                .set(
                    "goodput_per_kcycle",
                    round3(o.goodput_per_kcycle(r.duration)),
                )
                .set("e2e_p50", o.e2e.0)
                .set("e2e_p99", o.e2e.1)
                .set("fabric_out_p50", o.hops_p50.0)
                .set("on_board_p50", o.hops_p50.1)
                .set("fabric_back_p50", o.hops_p50.2)
                .set("local_submitted", o.local_submitted)
                .set("remote_submitted", o.remote_submitted)
                .set("retransmissions", o.retransmissions)
                .set("cut_drops", o.cut_drops)
                .set("caps_revoked", o.caps_revoked)
                .set(
                    "goodput_retention",
                    (r.retention(o) * 10_000.0).round() / 10_000.0,
                )
                .set("drained", o.drained),
        );
    }
    metrics.put("runs", Json::Arr(cells));
    ExperimentReport::new(
        "E17",
        "Cluster scale-out: goodput and latency across boards",
        sim_cycles,
        metrics,
        r.render(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn goodput_scales_and_chaos_retains_80_percent() {
        let r = execute(Run::QUICK);
        let (g1, g2, g4) = (
            r.fault_free(1).completed_ok,
            r.fault_free(2).completed_ok,
            r.fault_free(4).completed_ok,
        );
        assert!(g2 as f64 > g1 as f64 * 1.2, "2 boards beat 1: {g1} -> {g2}");
        assert!(g4 as f64 > g2 as f64 * 1.2, "4 boards beat 2: {g2} -> {g4}");
        for o in r.runs.iter().filter(|o| o.chaos != Chaos::None) {
            assert!(
                r.retention(o) >= 0.8,
                "chaos {} retained {:.1}%",
                o.chaos.label(),
                r.retention(o) * 100.0
            );
        }
        // The kill cell actually exercised failover machinery.
        let kill = r
            .runs
            .iter()
            .find(|o| o.chaos == Chaos::KillBoard)
            .expect("kill cell");
        assert!(kill.timeouts > 0, "in-flight requests to the dead board");
        assert!(kill.caps_revoked > 0, "lease expiry revoked its caps");
        // The cut cell exercised the ARQ.
        let cut = r
            .runs
            .iter()
            .find(|o| o.chaos == Chaos::CutLink)
            .expect("cut cell");
        assert!(cut.cut_drops > 0 && cut.retransmissions > 0);
    }

    #[test]
    fn same_inputs_same_cell() {
        let a = run_one(Run::QUICK, 2, Chaos::None, 6_000);
        let b = run_one(Run::QUICK, 2, Chaos::None, 6_000);
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }
}
