//! E9 — NoC scaling (§3 scalability goal, §4.3 physical interconnect).
//!
//! The NoC is the one physical interface every tile shares; Apiary scales
//! only if the NoC does. We sweep mesh size and traffic pattern, raising
//! offered load until latency diverges, and report throughput at
//! saturation:
//!
//! - **uniform random**: every node sends to every node — the canonical
//!   bisection-limited pattern;
//! - **hotspot**: everyone hammers one service tile — the §2 shared-service
//!   shape and the worst case for endpoint queues;
//! - **neighbour**: nearest-neighbour pipelines — the composition shape,
//!   nearly contention-free.

use crate::harness::Run;
use crate::report::{ExperimentReport, Json};
use crate::table::TextTable;
use apiary_noc::{Message, Noc, NocConfig, NodeId, TrafficClass};
use apiary_sim::SimRng;
use core::fmt::Write;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Pattern {
    Uniform,
    Hotspot,
    Neighbor,
}

impl Pattern {
    fn dest(&self, src: u16, nodes: u16, rng: &mut SimRng) -> u16 {
        match self {
            Pattern::Uniform => {
                let mut d = rng.gen_range(nodes as u64) as u16;
                if d == src {
                    d = (d + 1) % nodes;
                }
                d
            }
            Pattern::Hotspot => 0,
            Pattern::Neighbor => (src + 1) % nodes,
        }
    }

    fn name(&self) -> &'static str {
        match self {
            Pattern::Uniform => "uniform",
            Pattern::Hotspot => "hotspot",
            Pattern::Neighbor => "neighbour",
        }
    }
}

struct Point {
    delivered_per_node_cycle: f64,
    p50: u64,
    p99: u64,
    cycles: u64,
}

/// Drives the raw NoC at a Bernoulli injection rate (messages per node per
/// cycle) for `cycles`, then drains.
fn measure(size: u8, pattern: Pattern, rate: f64, cycles: u64, seed: u64) -> Point {
    let mut noc = Noc::new(NocConfig::soft(size, size));
    let nodes = noc.mesh().nodes() as u16;
    let mut rng = SimRng::new(seed);
    // One-flit payloads isolate routing behaviour from serialisation.
    let payload = 8usize;
    for _ in 0..cycles {
        for src in 0..nodes {
            if rng.gen_bool(rate) {
                let dst = pattern.dest(src, nodes, &mut rng);
                if src == dst {
                    continue;
                }
                let msg = Message::new(
                    NodeId(src),
                    NodeId(dst),
                    TrafficClass::Request,
                    vec![0; payload],
                );
                let _ = noc.try_inject(NodeId(src), msg);
            }
        }
        noc.step();
        for n in 0..nodes {
            noc.drain_eject(NodeId(n));
        }
    }
    let measured_cycles = noc.stats().cycles;
    noc.run_until_quiescent(5_000_000);
    for n in 0..nodes {
        noc.drain_eject(NodeId(n));
    }
    let st = noc.stats();
    Point {
        delivered_per_node_cycle: st.delivered as f64 / (measured_cycles as f64 * nodes as f64),
        p50: st.latency.p50(),
        p99: st.latency.p99(),
        cycles: st.cycles,
    }
}

/// Runs the experiment; returns the structured report.
pub fn report(run: Run) -> ExperimentReport {
    let cycles = if run.quick { 3_000 } else { 20_000 };
    let sizes: &[u8] = if run.quick { &[2, 4] } else { &[2, 4, 6, 8] };
    let rates: &[f64] = if run.quick {
        &[0.02, 0.10, 0.30]
    } else {
        &[0.01, 0.02, 0.05, 0.10, 0.20, 0.30, 0.50]
    };
    let mut out = String::new();
    let _ = writeln!(
        out,
        "E9: NoC scaling — delivered throughput and latency vs offered load\n\
         (single-flit messages, soft NoC, XY routing, 3 VCs)\n"
    );
    let mut sim_cycles = 0u64;
    let mut metrics = Json::obj().set("cycles_per_point", cycles).set(
        "mesh_sizes",
        sizes.iter().map(|&s| s as u64).collect::<Vec<_>>(),
    );
    for pattern in [Pattern::Uniform, Pattern::Hotspot, Pattern::Neighbor] {
        let mut t = TextTable::new(&[
            "mesh",
            "offered (msg/node/cyc)",
            "delivered (msg/node/cyc)",
            "p50",
            "p99",
        ]);
        let mut peak = 0.0f64;
        for &size in sizes {
            for &rate in rates {
                let p = measure(size, pattern, rate, cycles, 99);
                sim_cycles += p.cycles;
                peak = peak.max(p.delivered_per_node_cycle);
                t.row_owned(vec![
                    format!("{size}x{size}"),
                    format!("{rate:.2}"),
                    format!("{:.3}", p.delivered_per_node_cycle),
                    p.p50.to_string(),
                    p.p99.to_string(),
                ]);
            }
        }
        metrics.put(
            format!("peak_delivered_{}", pattern.name()),
            (peak * 1000.0).round() / 1000.0,
        );
        let _ = writeln!(out, "pattern: {}\n{}", pattern.name(), t.render());
    }
    let _ = writeln!(
        out,
        "Reading: neighbour traffic scales linearly with mesh size; uniform traffic\n\
         saturates at the bisection; hotspot throughput is capped by the single\n\
         ejection port regardless of mesh size — shared services need replication\n\
         (E10) or admission control (E6), not a bigger network."
    );
    ExperimentReport::new(
        "E9",
        "NoC scaling: throughput and latency vs offered load",
        sim_cycles,
        metrics,
        out,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn neighbour_beats_uniform_beats_hotspot_at_high_load() {
        let n = measure(4, Pattern::Neighbor, 0.3, 3_000, 7);
        let u = measure(4, Pattern::Uniform, 0.3, 3_000, 7);
        let h = measure(4, Pattern::Hotspot, 0.3, 3_000, 7);
        assert!(n.delivered_per_node_cycle > u.delivered_per_node_cycle);
        assert!(u.delivered_per_node_cycle > h.delivered_per_node_cycle);
    }

    #[test]
    fn latency_rises_with_load() {
        let low = measure(4, Pattern::Uniform, 0.01, 3_000, 8);
        let high = measure(4, Pattern::Uniform, 0.5, 3_000, 8);
        assert!(high.p99 > low.p99 * 2, "{} vs {}", high.p99, low.p99);
    }

    #[test]
    fn hotspot_caps_at_ejection_rate() {
        // Total hotspot delivery can never exceed ~1 message per cycle
        // (single ejection port at the hot node).
        let h = measure(4, Pattern::Hotspot, 0.5, 3_000, 9);
        let total_per_cycle = h.delivered_per_node_cycle * 16.0;
        assert!(total_per_cycle <= 1.05, "{total_per_cycle}");
    }

    #[test]
    fn report_renders() {
        let out = report(Run::QUICK).rendered;
        assert!(out.contains("pattern: uniform"));
        assert!(out.contains("pattern: hotspot"));
        assert!(out.contains("pattern: neighbour"));
    }
}
