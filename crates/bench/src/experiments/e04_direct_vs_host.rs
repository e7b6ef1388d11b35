//! E4 — Direct-attached vs host-mediated (§1's motivating claim).
//!
//! The same request stream — closed-loop clients, same wire, same
//! accelerator compute cost — is served three ways:
//!
//! - **Apiary (direct)**: frames hit the FPGA's MAC tile and are steered
//!   over the NoC to the accelerator; no CPU anywhere.
//! - **Coyote-like (hosted, spatial)**: every request crosses the host
//!   CPU and PCIe in both directions.
//! - **AmorphOS-like (hosted, time-sliced)**: as Coyote, plus waiting for
//!   the application's fabric time slice.
//!
//! Reported: client-observed RTT (p50/p99) and the energy proxy per
//! request. Expectation from the paper: direct wins on latency, tail, and
//! energy; the gap narrows as compute dominates.

use crate::harness::Run;
use crate::report::{round2, rows_json, table, ExperimentReport, Json, Row};
use apiary_accel::apps::echo::echo;
use apiary_core::{AppId, FaultPolicy, SystemConfig};
use apiary_host::{EnergyModel, HostConfig, HostMode, HostSim};
use apiary_net::{EthernetTile, NetConfig, RequestGen, Workload};
use apiary_noc::NodeId;
use apiary_sim::Machine;
use core::fmt::Write;

/// Direct-attached measurement: RTT histogram + FPGA busy cycles +
/// NoC bytes + simulated cycles driven.
fn run_direct(run: Run, compute: u64, requests: u64) -> (apiary_sim::Histogram, u64, u64, u64) {
    let mut sys = run.system(SystemConfig::default());
    let mac_node = NodeId(0);
    let svc_node = NodeId(5);
    let mut mac = EthernetTile::new(NetConfig::default());
    mac.add_client(
        RequestGen::new(
            1,
            80,
            64,
            Workload::Closed {
                outstanding: 1,
                think_cycles: 0,
            },
            42,
        )
        .with_max_requests(requests),
    );
    sys.install(
        mac_node,
        Box::new(mac),
        apiary_core::process::OS_APP,
        FaultPolicy::FailStop,
    )
    .expect("free");
    sys.install(
        svc_node,
        Box::new(echo(compute)),
        AppId(1),
        FaultPolicy::FailStop,
    )
    .expect("free");
    let cap = sys.connect(mac_node, svc_node, false).expect("OS app");
    sys.connect(svc_node, mac_node, false).expect("reply path");
    sys.accel_as_mut::<EthernetTile>(mac_node)
        .expect("installed")
        .bind_flow(80, cap);

    let finished = Machine::run_until(&mut sys, 200_000_000, |s| {
        s.accel_as::<EthernetTile>(mac_node)
            .expect("installed")
            .all_done()
    });
    debug_assert!(finished);
    let mac = sys.accel_as::<EthernetTile>(mac_node).expect("installed");
    let stats = mac.client(0).stats.clone();
    assert_eq!(stats.completed, requests, "direct path did not finish");
    // FPGA busy cycles: compute per request; NoC bytes: request+response.
    let fpga_busy = compute * requests;
    let noc_bytes = requests * (64 + 64 + 32); // payloads + headers.
    (stats.rtt, fpga_busy, noc_bytes, sys.now().as_u64())
}

fn run_host(compute: u64, requests: u64, mode: HostMode) -> (apiary_sim::Histogram, u64, u64) {
    let cfg = HostConfig {
        fpga_compute_cycles: compute,
        mode,
        ..HostConfig::default()
    };
    let mut sim = HostSim::new(cfg, 7);
    let apps = match mode {
        HostMode::AmorphOs { apps, .. } => apps,
        HostMode::Coyote => 1,
    };
    sim.run_closed_loop(requests, 1, apps);
    let s = sim.stats().clone();
    (s.rtt, s.cpu_busy_cycles, s.fpga_busy_cycles)
}

/// Runs the experiment; returns the structured report.
pub fn report(run: Run) -> ExperimentReport {
    let requests: u64 = 300;
    let computes: &[u64] = &[64, 256, 1024, 4096, 16384];
    let energy = EnergyModel::new();
    let amorphos = HostMode::AmorphOs {
        slice_period: 50_000,
        switch_cost: 10_000,
        apps: 4,
    };

    let mut out = String::new();
    let _ = writeln!(
        out,
        "E4: Direct-attached Apiary vs host-mediated baselines\n\
         (closed loop, 1 client, 64 B requests, {} requests per point)\n",
        requests
    );
    let mut sim_cycles = 0u64;
    let mut points = Vec::new();
    for &compute in computes {
        let (d_rtt, d_fpga, d_noc, cyc) = run_direct(run, compute, requests);
        sim_cycles += cyc;
        let (c_rtt, c_cpu, c_fpga) = run_host(compute, requests, HostMode::Coyote);
        let (a_rtt, _, _) = run_host(compute, requests, amorphos);
        let direct_energy = energy.direct_energy(d_fpga, d_noc) / requests as f64;
        let host_energy = energy.host_energy(c_cpu, c_fpga, requests * 128) / requests as f64;
        let speedup = c_rtt.p50() as f64 / d_rtt.p50() as f64;
        let energy_ratio = host_energy / direct_energy;
        points.push(
            Row::new()
                .both("compute", "compute (cyc)", compute)
                .both("direct_p50", "direct p50", d_rtt.p50())
                .both("direct_p99", "direct p99", d_rtt.p99())
                .both("coyote_p50", "coyote p50", c_rtt.p50())
                .both("coyote_p99", "coyote p99", c_rtt.p99())
                .both("amorphos_p50", "amorphos p50", a_rtt.p50())
                .json("speedup_vs_coyote", round2(speedup))
                .text("speedup v coyote", format!("{speedup:.2}x"))
                .json("energy_ratio", round2(energy_ratio))
                .text("energy ratio (host/direct)", format!("{energy_ratio:.2}x")),
        );
    }
    let _ = writeln!(out, "{}", table(&points));
    let _ = writeln!(
        out,
        "All latencies in 250 MHz cycles (4 ns each). The direct path saves the CPU\n\
         mediation (~850 CPU cycles/request) and two PCIe crossings; the advantage is\n\
         largest for small compute and persists (energy) even when compute dominates."
    );
    let metrics = Json::obj()
        .set("requests_per_point", requests)
        .set("compute_points", computes.len())
        .set("points", rows_json(&points));
    ExperimentReport::new(
        "E4",
        "Direct-attached vs host-mediated request serving",
        sim_cycles,
        metrics,
        out,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn direct_beats_coyote_at_small_compute() {
        let requests = 20;
        let (d, _, _, _) = run_direct(Run::EVENT, 256, requests);
        let (c, _, _) = run_host(256, requests, HostMode::Coyote);
        assert!(
            c.p50() > d.p50(),
            "coyote p50 {} should exceed direct p50 {}",
            c.p50(),
            d.p50()
        );
    }

    #[test]
    fn amorphos_is_worst() {
        let requests = 20;
        let (c, _, _) = run_host(256, requests, HostMode::Coyote);
        let (a, _, _) = run_host(
            256,
            requests,
            HostMode::AmorphOs {
                slice_period: 50_000,
                switch_cost: 10_000,
                apps: 4,
            },
        );
        assert!(a.mean() > c.mean());
    }
}
