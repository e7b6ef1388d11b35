//! E13 — NoC design ablations (DESIGN.md §4's design choices, measured).
//!
//! Four knobs of the interconnect, one at a time, under moderate uniform
//! load on a 4x4 mesh:
//!
//! - **VC buffer depth** — deeper buffers absorb bursts (credit stalls
//!   fall) at BRAM cost;
//! - **flit width** — wider links serialise big messages faster; this is
//!   most of what a hardened NoC buys;
//! - **per-hop pipeline latency** — the soft-logic router tax;
//! - **soft vs hardened preset** — the §4.3 argument for hardened NoCs in
//!   one row.

use crate::harness::Run;
use crate::report::{rows_json, table, ExperimentReport, Json, Row};
use crate::scenarios::drive_mesh;
use apiary_noc::{NocConfig, NocStats};
use core::fmt::Write;

/// Uniform random traffic, mixed message sizes, fixed offered load.
fn measure(cfg: NocConfig, cycles: u64, seed: u64) -> (NocStats, u64) {
    drive_mesh(cfg, cycles, seed, |src, nodes, rng| {
        if !rng.gen_bool(0.04) {
            return None;
        }
        let mut dst = rng.gen_range(nodes as u64) as u16;
        if dst == src {
            dst = (dst + 1) % nodes;
        }
        // Mixed sizes: mostly small control-ish, some bulk.
        Some((dst, if rng.gen_bool(0.2) { 512 } else { 32 }))
    })
}

/// Runs the experiment; returns the structured report.
pub fn report(_run: Run) -> ExperimentReport {
    let cycles = 30_000;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "E13: NoC design ablations (4x4 mesh, uniform traffic, mixed 32 B/512 B messages)\n"
    );

    let base = NocConfig::soft(4, 4);
    let mut sim_cycles = 0u64;
    let mut rows = Vec::new();
    let mut add = |name: String, cfg: NocConfig| {
        let (st, measured) = measure(cfg, cycles, 1234);
        sim_cycles += st.cycles;
        rows.push(
            Row::new()
                .both("variant", "variant", name)
                .both("p50", "p50", st.latency.p50())
                .both("p99", "p99", st.latency.p99())
                .text(
                    "delivered msg/cyc",
                    format!("{:.3}", st.delivered as f64 / measured as f64),
                ),
        );
    };

    for depth in [1usize, 2, 4, 8] {
        add(
            format!("vc_buffer = {depth}"),
            NocConfig {
                vc_buffer: depth,
                ..base
            },
        );
    }
    for flit in [8usize, 16, 32, 64] {
        add(
            format!("flit_bytes = {flit}"),
            NocConfig {
                flit_bytes: flit,
                ..base
            },
        );
    }
    for hop in [0u64, 1, 2, 4] {
        add(
            format!("hop_latency = {hop}"),
            NocConfig {
                hop_latency: hop,
                ..base
            },
        );
    }
    add("preset: soft".to_string(), base);
    add("preset: hardened".to_string(), NocConfig::hardened(4, 4));
    let _ = writeln!(out, "{}", table(&rows));
    let p50 = |variant: &str| {
        rows.iter()
            .map(Row::record)
            .find(|v| v.get("variant") == Some(&Json::from(variant)))
            .map_or(0, |v| v.u64("p50"))
    };
    let metrics = Json::obj()
        .set("soft_p50", p50("preset: soft"))
        .set("hardened_p50", p50("preset: hardened"))
        .set("variants", rows_json(&rows));
    ExperimentReport::new(
        "E13",
        "NoC design ablations: buffers, flit width, hop latency, presets",
        sim_cycles,
        metrics,
        out,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wider_flits_cut_latency() {
        let narrow = measure(
            NocConfig {
                flit_bytes: 8,
                ..NocConfig::soft(4, 4)
            },
            4_000,
            7,
        );
        let wide = measure(
            NocConfig {
                flit_bytes: 64,
                ..NocConfig::soft(4, 4)
            },
            4_000,
            7,
        );
        assert!(
            wide.0.latency.p50() < narrow.0.latency.p50(),
            "wide {} narrow {}",
            wide.0.latency.p50(),
            narrow.0.latency.p50()
        );
    }

    #[test]
    fn hop_latency_is_a_flat_tax() {
        let fast = measure(
            NocConfig {
                hop_latency: 0,
                ..NocConfig::soft(4, 4)
            },
            4_000,
            8,
        );
        let slow = measure(
            NocConfig {
                hop_latency: 4,
                ..NocConfig::soft(4, 4)
            },
            4_000,
            8,
        );
        assert!(slow.0.latency.p50() > fast.0.latency.p50());
    }

    #[test]
    fn hardened_beats_soft() {
        let soft = measure(NocConfig::soft(4, 4), 4_000, 9);
        let hard = measure(NocConfig::hardened(4, 4), 4_000, 9);
        let (hard, soft) = (&hard.0.latency, &soft.0.latency);
        assert!(hard.p50() < soft.p50());
        assert!(hard.p99() <= soft.p99());
    }
}
