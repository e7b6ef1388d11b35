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
use crate::report::{round, rows_json, table, ExperimentReport, Json, Row};
use crate::scenarios::drive_mesh;
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

/// Payload bytes per message. Small payloads isolate routing behaviour from
/// serialisation: 8 B behind the soft NoC's 16 B header is two 16 B flits.
const PAYLOAD: usize = 8;

/// Drives the raw NoC at a Bernoulli injection rate (messages per node per
/// cycle) for `cycles`, then drains. Returns the mesh's statistics and the
/// messages delivered per node per cycle driven.
fn measure(size: u8, pattern: Pattern, rate: f64, cycles: u64, seed: u64) -> (NocStats, f64) {
    let draw = |src, nodes, rng: &mut SimRng| {
        let dst = rng.gen_bool(rate).then(|| pattern.dest(src, nodes, rng))?;
        (dst != src).then_some((dst, PAYLOAD))
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
         (two-flit messages: 8 B payload + 16 B header in 16 B flits; soft NoC, XY routing, 3 VCs)\n"
    );
    let mut sim_cycles = 0u64;
    let mut metrics = Json::obj().set("cycles_per_point", cycles).set(
        "mesh_sizes",
        sizes.iter().map(|&s| s as u64).collect::<Vec<_>>(),
    );
    for pattern in [Pattern::Uniform, Pattern::Hotspot, Pattern::Neighbor] {
        let mut rows = Vec::new();
        let mut peak = 0.0f64;
        for &size in sizes {
            for &rate in rates {
                let (st, per_node) = measure(size, pattern, rate, cycles, 99);
                sim_cycles += st.cycles;
                peak = peak.max(per_node);
                rows.push(
                    Row::new()
                        .cell("mesh", "mesh", u32::from(size), format!("{size}x{size}"))
                        .fixed("offered", "offered (msg/node/cyc)", rate, 2)
                        .fixed("delivered", "delivered (msg/node/cyc)", per_node, 3)
                        .both("p50", "p50", st.latency.p50())
                        .both("p99", "p99", st.latency.p99()),
                );
            }
        }
        let name = pattern.name();
        metrics.put(format!("peak_delivered_{name}"), round(peak, 3));
        metrics.put(format!("points_{name}"), rows_json(&rows));
        let _ = writeln!(out, "pattern: {name}\n{}", table(&rows));
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
        // The hot node's one ejection port takes a flit per cycle and a
        // message is `flits` flits, so over every cycle stepped, the drain
        // included, delivery stays under 1/flits messages per cycle.
        let cfg = NocConfig::soft(4, 4);
        let flits = (cfg.header_bytes + PAYLOAD).div_ceil(cfg.flit_bytes) as f64;
        let (st, _) = measure(4, Pattern::Hotspot, 0.5, 3_000, 9);
        let total_per_cycle = st.delivered as f64 / st.cycles as f64;
        assert!(total_per_cycle <= 1.05 / flits, "{total_per_cycle}");
    }
}
