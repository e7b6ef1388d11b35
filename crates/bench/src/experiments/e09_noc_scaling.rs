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
use crate::scenarios::drive_mesh;
use crate::table::TextTable;
use apiary_noc::{NocConfig, NocStats};
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

/// Drives the raw NoC at a Bernoulli injection rate (messages per node per
/// cycle) for `cycles`, then drains. Returns the mesh's statistics and the
/// messages delivered per node per cycle driven.
fn measure(size: u8, pattern: Pattern, rate: f64, cycles: u64, seed: u64) -> (NocStats, f64) {
    let draw = |src, nodes, rng: &mut SimRng| {
        let dst = rng.gen_bool(rate).then(|| pattern.dest(src, nodes, rng))?;
        // One-flit payloads isolate routing behaviour from serialisation.
        (dst != src).then_some((dst, 8))
    };
    let (st, measured) = drive_mesh(NocConfig::soft(size, size), cycles, seed, draw);
    let nodes = size as usize * size as usize;
    let per_node = st.delivered as f64 / (measured as f64 * nodes as f64);
    (st, per_node)
}

/// Runs the experiment; returns the structured report.
pub fn report(_run: Run) -> ExperimentReport {
    let cycles = 20_000;
    let sizes: &[u8] = &[2, 4, 6, 8];
    let rates: &[f64] = &[0.01, 0.02, 0.05, 0.10, 0.20, 0.30, 0.50];
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
                let (st, per_node) = measure(size, pattern, rate, cycles, 99);
                sim_cycles += st.cycles;
                peak = peak.max(per_node);
                t.row(&[
                    format!("{size}x{size}"),
                    format!("{rate:.2}"),
                    format!("{per_node:.3}"),
                    st.latency.p50().to_string(),
                    st.latency.p99().to_string(),
                ]);
            }
        }
        metrics.put(
            format!("peak_delivered_{}", pattern.name()),
            (peak * 1000.0).round() / 1000.0,
        );
        let _ = writeln!(out, "pattern: {}\n{}", pattern.name(), t.render());
    }
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
        assert!(n.1 > u.1 && u.1 > h.1);
    }

    #[test]
    fn latency_rises_with_load() {
        let low = measure(4, Pattern::Uniform, 0.01, 3_000, 8);
        let high = measure(4, Pattern::Uniform, 0.5, 3_000, 8);
        let (high, low) = (high.0.latency.p99(), low.0.latency.p99());
        assert!(high > low * 2, "{high} vs {low}");
    }

    #[test]
    fn hotspot_caps_at_ejection_rate() {
        // Total hotspot delivery can never exceed ~1 message per cycle
        // (single ejection port at the hot node).
        let h = measure(4, Pattern::Hotspot, 0.5, 3_000, 9);
        let total_per_cycle = h.1 * 16.0;
        assert!(total_per_cycle <= 1.05, "{total_per_cycle}");
    }
}
