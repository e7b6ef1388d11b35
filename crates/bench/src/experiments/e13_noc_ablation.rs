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
use crate::report::{ExperimentReport, Json};
use crate::table::TextTable;
use apiary_noc::{Message, Noc, NocConfig, NodeId, TrafficClass};
use apiary_sim::SimRng;
use core::fmt::Write;

struct Point {
    p50: u64,
    p99: u64,
    delivered_per_cycle: f64,
    cycles: u64,
}

/// Uniform random traffic, mixed message sizes, fixed offered load.
fn measure(cfg: NocConfig, cycles: u64, seed: u64) -> Point {
    let mut noc = Noc::new(cfg);
    let nodes = noc.mesh().nodes() as u16;
    let mut rng = SimRng::new(seed);
    for _ in 0..cycles {
        for src in 0..nodes {
            if rng.gen_bool(0.04) {
                let mut dst = rng.gen_range(nodes as u64) as u16;
                if dst == src {
                    dst = (dst + 1) % nodes;
                }
                // Mixed sizes: mostly small control-ish, some bulk.
                let bytes = if rng.gen_bool(0.2) { 512 } else { 32 };
                let _ = noc.try_inject(
                    NodeId(src),
                    Message::new(
                        NodeId(src),
                        NodeId(dst),
                        TrafficClass::Request,
                        vec![0; bytes],
                    ),
                );
            }
        }
        noc.step();
        for n in 0..nodes {
            noc.drain_eject(NodeId(n));
        }
    }
    let measured = noc.stats().cycles;
    noc.run_until_quiescent(5_000_000);
    let st = noc.stats();
    Point {
        p50: st.latency.p50(),
        p99: st.latency.p99(),
        delivered_per_cycle: st.delivered as f64 / measured as f64,
        cycles: st.cycles,
    }
}

/// Runs the experiment; returns the structured report.
pub fn report(run: Run) -> ExperimentReport {
    let cycles = if run.quick { 4_000 } else { 30_000 };
    let mut out = String::new();
    let _ = writeln!(
        out,
        "E13: NoC design ablations (4x4 mesh, uniform traffic, mixed 32 B/512 B messages)\n"
    );

    let base = NocConfig::soft(4, 4);
    let mut t = TextTable::new(&["variant", "p50", "p99", "delivered msg/cyc"]);
    let mut sim_cycles = 0u64;
    let mut variants = Vec::new();
    let mut add = |name: String, cfg: NocConfig, t: &mut TextTable| {
        let p = measure(cfg, cycles, 1234);
        sim_cycles += p.cycles;
        variants.push(
            Json::obj()
                .set("variant", name.clone())
                .set("p50", p.p50)
                .set("p99", p.p99),
        );
        t.row_owned(vec![
            name,
            p.p50.to_string(),
            p.p99.to_string(),
            format!("{:.3}", p.delivered_per_cycle),
        ]);
    };

    for depth in [1usize, 2, 4, 8] {
        add(
            format!("vc_buffer = {depth}"),
            NocConfig {
                vc_buffer: depth,
                ..base
            },
            &mut t,
        );
    }
    for flit in [8usize, 16, 32, 64] {
        add(
            format!("flit_bytes = {flit}"),
            NocConfig {
                flit_bytes: flit,
                ..base
            },
            &mut t,
        );
    }
    for hop in [0u64, 1, 2, 4] {
        add(
            format!("hop_latency = {hop}"),
            NocConfig {
                hop_latency: hop,
                ..base
            },
            &mut t,
        );
    }
    add("preset: soft".to_string(), base, &mut t);
    add(
        "preset: hardened".to_string(),
        NocConfig::hardened(4, 4),
        &mut t,
    );
    let _ = writeln!(out, "{}", t.render());
    let _ = writeln!(
        out,
        "Reading: buffer depth mainly trims the tail (credit stalls); flit width cuts\n\
         serialisation of bulk messages (the dominant term for 512 B payloads); hop\n\
         pipeline latency is a flat per-hop tax. The hardened preset combines wide\n\
         flits and zero-bubble hops — the quantitative case for §4.3's preference\n\
         for hardened NoCs."
    );
    let soft_p50 = variants
        .iter()
        .find(|v| v.get("variant") == Some(&Json::Str("preset: soft".into())))
        .and_then(|v| v.get("p50").cloned())
        .unwrap_or(Json::Null);
    let hard_p50 = variants
        .iter()
        .find(|v| v.get("variant") == Some(&Json::Str("preset: hardened".into())))
        .and_then(|v| v.get("p50").cloned())
        .unwrap_or(Json::Null);
    let metrics = Json::obj()
        .set("soft_p50", soft_p50)
        .set("hardened_p50", hard_p50)
        .set("variants", Json::Arr(variants));
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
            wide.p50 < narrow.p50,
            "wide {} narrow {}",
            wide.p50,
            narrow.p50
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
        assert!(slow.p50 > fast.p50);
    }

    #[test]
    fn hardened_beats_soft() {
        let soft = measure(NocConfig::soft(4, 4), 4_000, 9);
        let hard = measure(NocConfig::hardened(4, 4), 4_000, 9);
        assert!(hard.p50 < soft.p50);
        assert!(hard.p99 <= soft.p99);
    }

    #[test]
    fn report_renders() {
        let out = report(Run::QUICK).rendered;
        assert!(out.contains("vc_buffer = 1"));
        assert!(out.contains("preset: hardened"));
    }
}
