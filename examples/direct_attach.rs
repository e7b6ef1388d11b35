//! Direct-attached networking (§1): external clients reach an accelerator
//! through the FPGA's own MAC tile, no CPU anywhere — then the same load
//! is replayed against a Coyote-style host-mediated model for contrast.
//!
//! Run with: `cargo run --example direct_attach`

use apiary::accel::apps::echo::echo;
use apiary::core::{AppId, FaultPolicy, System, SystemConfig};
use apiary::host::{EnergyModel, HostConfig, HostSim};
use apiary::net::{EthernetTile, NetConfig, RequestGen, Workload};
use apiary::noc::NodeId;
use apiary::sim::Machine;

const REQUESTS: u64 = 100;
const COMPUTE: u64 = 512;

fn main() {
    // --- Direct-attached path -------------------------------------------
    let mut sys = System::new(SystemConfig::default());
    let mac_node = NodeId(0);
    let svc_node = NodeId(5);

    let mut mac = EthernetTile::new(NetConfig::default());
    // Two external clients on the far end of the wire.
    for (id, seed) in [(1u32, 11u64), (2, 22)] {
        mac.add_client(
            RequestGen::new(
                id,
                80,
                64,
                Workload::Closed {
                    outstanding: 1,
                    think_cycles: 0,
                },
                seed,
            )
            .with_max_requests(REQUESTS / 2),
        );
    }
    sys.install(
        mac_node,
        Box::new(mac),
        apiary::core::process::OS_APP,
        FaultPolicy::FailStop,
    )
    .expect("free");
    sys.install(
        svc_node,
        Box::new(echo(COMPUTE)),
        AppId(1),
        FaultPolicy::FailStop,
    )
    .expect("free");
    let flow = sys.connect(mac_node, svc_node, false).expect("OS app");
    sys.connect(svc_node, mac_node, false).expect("reply path");
    sys.accel_as_mut::<EthernetTile>(mac_node)
        .expect("installed")
        .bind_flow(80, flow);

    Machine::run_until(&mut sys, 50_000_000, |s| {
        s.accel_as::<EthernetTile>(mac_node)
            .expect("installed")
            .all_done()
    });
    let mac = sys.accel_as::<EthernetTile>(mac_node).expect("installed");
    let mut direct_rtt = apiary::sim::Histogram::new();
    for c in mac.clients() {
        direct_rtt.merge(&c.stats.rtt);
    }
    println!("Direct-attached Apiary ({REQUESTS} requests, {COMPUTE}-cycle service):");
    println!("  client RTT: {}", direct_rtt.summary());

    // --- Host-mediated baseline -----------------------------------------
    let cfg = HostConfig {
        fpga_compute_cycles: COMPUTE,
        ..HostConfig::default()
    };
    let mut host = HostSim::new(cfg);
    host.run_closed_loop(REQUESTS, 2, 1);
    let hs = host.stats();
    println!("\nCoyote-like host-mediated baseline (same load):");
    println!("  client RTT: {}", hs.rtt.summary());
    println!(
        "  CPU burned {} cycles mediating ({} cycles/request)",
        hs.cpu_busy_cycles,
        hs.cpu_busy_cycles / REQUESTS
    );

    // --- Comparison -------------------------------------------------------
    let energy = EnergyModel::new();
    let direct_e = energy.direct_energy(COMPUTE * REQUESTS, REQUESTS * 160);
    let host_e = energy.host_energy(hs.cpu_busy_cycles, hs.fpga_busy_cycles, REQUESTS * 128);
    println!("\nComparison:");
    println!(
        "  p50 speedup: {:.2}x   p99 speedup: {:.2}x   energy: {:.2}x",
        hs.rtt.p50() as f64 / direct_rtt.p50() as f64,
        hs.rtt.p99() as f64 / direct_rtt.p99() as f64,
        host_e / direct_e
    );
    println!("  (cycles are 4 ns at 250 MHz; energy is the documented activity proxy)");
}
