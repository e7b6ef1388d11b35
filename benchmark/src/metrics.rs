//! The metric tables: the single source for `BENCHMARK.json`
//! (`apiary-benchmark manifest` prints it), for the result lines, and for
//! the bounds `compare` applies.

use crate::json::Json;
use crate::workloads::WORKLOADS;

/// How long one run measures, in seconds (`run_seconds`).
pub const RUN_SECONDS: u64 = 30;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// An end-to-end metric: what a user of the system sees.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
    /// `true` for the simulated clock: exact for a fixed seed.
    pub simulated: bool,
}

use Better::{Higher, Lower};

/// Host-clock metrics come from medians over the repetitions of a run;
/// simulated metrics repeat exactly for a fixed seed, and their bounds
/// cover the seed-to-seed spread measured when the sizes were frozen
/// (README.md, "Bounds").
pub const END_TO_END: [EndToEnd; 9] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
        simulated: false,
    },
    EndToEnd {
        name: "host_ops_per_s",
        unit: "1/s",
        better: Higher,
        bound: 0.20,
        simulated: false,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Lower,
        bound: 0.15,
        simulated: false,
    },
    EndToEnd {
        name: "sim_cycles",
        unit: "cycles",
        better: Lower,
        bound: 0.01,
        simulated: true,
    },
    EndToEnd {
        name: "sim_goodput_per_kcycle",
        unit: "1/kcycle",
        better: Higher,
        bound: 0.03,
        simulated: true,
    },
    EndToEnd {
        name: "sim_p50_cycles",
        unit: "cycles",
        better: Lower,
        bound: 0.08,
        simulated: true,
    },
    EndToEnd {
        name: "sim_p99_cycles",
        unit: "cycles",
        better: Lower,
        bound: 0.15,
        simulated: true,
    },
    EndToEnd {
        name: "slo_ok_share",
        unit: "share",
        better: Higher,
        bound: 0.03,
        simulated: true,
    },
    EndToEnd {
        name: "ok_share",
        unit: "share",
        better: Higher,
        bound: 0.03,
        simulated: true,
    },
];

/// Where a per-layer metric's value comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// A count the workload read from the crates' public statistics.
    Count,
    /// Self time of the named span, median over the traced repetitions.
    Span(&'static str),
    /// A probe of `probes::run_all`.
    Probe,
    /// Computed in `report` from the other sources.
    Derived,
}

/// A metric of a single layer (layer = crate name, the prefix of `name`).
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub source: Source,
    /// The end-to-end metric and workload this should move.
    pub moves: &'static str,
}

const fn count(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        source: Source::Count,
        moves,
    }
}

const fn span(name: &'static str, span: &'static str, moves: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit: "s",
        better: Lower,
        source: Source::Span(span),
        moves,
    }
}

const fn probe(name: &'static str, moves: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit: "ns",
        better: Lower,
        source: Source::Probe,
        moves,
    }
}

const fn derived(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        source: Source::Derived,
        moves,
    }
}

const NONE: &str = "none predicted";

pub const PER_LAYER: &[PerLayer] = &[
    // noc
    count("noc.flit_hops", "count", Lower, "sim_cycles @ noc_uniform"),
    count(
        "noc.delivered",
        "count",
        Higher,
        "sim_goodput_per_kcycle @ noc_uniform",
    ),
    count(
        "noc.inject_rejected",
        "count",
        Lower,
        "ok_share @ noc_uniform",
    ),
    count("noc.dropped", "count", Lower, "ok_share @ noc_uniform"),
    count(
        "noc.link_util_max",
        "share",
        Lower,
        "sim_p99_cycles @ noc_uniform",
    ),
    count(
        "noc.latency_p99_cycles",
        "cycles",
        Lower,
        "sim_p99_cycles @ board_tenants",
    ),
    span(
        "noc.inject_busy_s",
        "noc.inject",
        "host_ops_per_s @ noc_uniform",
    ),
    span(
        "noc.step_busy_s",
        "noc.step",
        "host_ops_per_s @ noc_uniform",
    ),
    span(
        "noc.eject_busy_s",
        "noc.eject",
        "host_ops_per_s @ noc_uniform",
    ),
    derived(
        "noc.step_ns_per_flit_hop",
        "ns",
        Lower,
        "host_ops_per_s @ noc_uniform (about 1:1), no move elsewhere",
    ),
    probe(
        "noc.sparse_step_ns_per_cycle",
        "host_ops_per_s @ board_tenants, cluster_rpc",
    ),
    // monitor
    count(
        "monitor.sent",
        "count",
        Higher,
        "sim_goodput_per_kcycle @ board_tenants",
    ),
    count(
        "monitor.received",
        "count",
        Higher,
        "sim_goodput_per_kcycle @ board_tenants",
    ),
    count("monitor.denied", "count", Lower, "ok_share @ board_tenants"),
    count(
        "monitor.rate_limited",
        "count",
        Lower,
        "ok_share @ board_tenants",
    ),
    count(
        "monitor.backpressured",
        "count",
        Lower,
        "sim_p99_cycles @ board_tenants",
    ),
    count(
        "monitor.nacks_sent",
        "count",
        Lower,
        "ok_share @ board_tenants",
    ),
    count(
        "monitor.flow_hit_share",
        "share",
        Higher,
        "sim_p50_cycles @ board_tenants",
    ),
    probe("monitor.send_hit_ns", "host_ops_per_s @ board_tenants"),
    probe("monitor.send_miss_ns", "host_ops_per_s @ board_tenants"),
    // cap
    probe("cap.check_ns", "host_ops_per_s @ board_tenants (small)"),
    probe(
        "cap.derive_revoke_ns",
        "host_ops_per_s @ faas_storm (reclaim path)",
    ),
    // mem
    count(
        "mem.dram_accesses",
        "count",
        Lower,
        "sim_cycles @ board_tenants",
    ),
    count(
        "mem.dram_row_hit_share",
        "share",
        Higher,
        "sim_p99_cycles @ board_tenants",
    ),
    count(
        "mem.alloc_failures",
        "count",
        Lower,
        "ok_share @ board_tenants",
    ),
    count(
        "mem.rtt_p99_cycles",
        "cycles",
        Lower,
        "sim_p99_cycles @ board_tenants",
    ),
    probe("mem.dram_access_ns", "host_ops_per_s @ board_tenants"),
    probe("mem.segment_alloc_free_ns", "setup_s @ board_tenants"),
    // accel
    count(
        "accel.kv_rtt_p99_cycles",
        "cycles",
        Lower,
        "sim_p50_cycles @ board_tenants",
    ),
    count(
        "accel.video_rtt_p99_cycles",
        "cycles",
        Lower,
        "slo_ok_share @ board_tenants",
    ),
    probe("accel.kv_op_ns", "host_ops_per_s @ board_tenants"),
    probe("accel.video_encode_ns", "host_ops_per_s @ board_tenants"),
    probe("accel.lz_compress_ns", "host_ops_per_s @ board_tenants"),
    // net
    count(
        "net.mac_rtt_p99_cycles",
        "cycles",
        Lower,
        "sim_p99_cycles @ board_tenants",
    ),
    count(
        "net.mac_no_flow_drops",
        "count",
        Lower,
        "ok_share @ board_tenants",
    ),
    count(
        "net.mac_send_refused",
        "count",
        Lower,
        "ok_share @ board_tenants",
    ),
    count(
        "net.client_retries",
        "count",
        Lower,
        "sim_p99_cycles @ cluster_rpc",
    ),
    count(
        "net.client_gave_up",
        "count",
        Lower,
        "ok_share @ cluster_rpc",
    ),
    probe("net.arq_ns_per_packet", "host_ops_per_s @ cluster_rpc"),
    probe(
        "net.wire_ns_per_frame",
        "host_ops_per_s @ board_tenants, cluster_rpc",
    ),
    // core
    span(
        "core.advance_busy_s",
        "core.advance",
        "host_ops_per_s @ board_tenants",
    ),
    span(
        "core.driver_busy_s",
        "bench.driver",
        "host_ops_per_s @ every workload (the benchmark's own share)",
    ),
    count("core.incidents", "count", Lower, "ok_share @ board_tenants"),
    // cluster
    count(
        "cluster.local_submitted",
        "count",
        Higher,
        "sim_p50_cycles @ cluster_rpc",
    ),
    count(
        "cluster.remote_submitted",
        "count",
        Lower,
        "sim_p50_cycles @ cluster_rpc",
    ),
    count("cluster.timeouts", "count", Lower, "ok_share @ cluster_rpc"),
    count("cluster.refused", "count", Lower, "ok_share @ cluster_rpc"),
    count(
        "cluster.stale_replies",
        "count",
        Lower,
        "sim_p99_cycles @ cluster_rpc",
    ),
    count(
        "cluster.fabric_delivered",
        "count",
        Lower,
        "host_ops_per_s @ cluster_rpc",
    ),
    count(
        "cluster.fabric_retransmissions",
        "count",
        Lower,
        "sim_p99_cycles @ cluster_rpc",
    ),
    count(
        "cluster.fabric_cut_drops",
        "count",
        Lower,
        "sim_p99_cycles @ cluster_rpc",
    ),
    count(
        "cluster.fabric_acks_coalesced",
        "count",
        Higher,
        "host_ops_per_s @ cluster_rpc",
    ),
    count(
        "cluster.fabric_out_p50_cycles",
        "cycles",
        Lower,
        "sim_p50_cycles @ cluster_rpc (hop p50s sum to it)",
    ),
    count(
        "cluster.on_board_p50_cycles",
        "cycles",
        Lower,
        "sim_p50_cycles @ cluster_rpc (hop p50s sum to it)",
    ),
    count(
        "cluster.fabric_back_p50_cycles",
        "cycles",
        Lower,
        "sim_p50_cycles @ cluster_rpc (hop p50s sum to it)",
    ),
    count(
        "cluster.board_cycles",
        "cycles",
        Lower,
        "sim_cycles @ cluster_rpc, faas_storm",
    ),
    span(
        "cluster.submit_busy_s",
        "cluster.submit",
        "host_ops_per_s @ cluster_rpc",
    ),
    span(
        "cluster.advance_busy_s",
        "cluster.advance",
        "host_ops_per_s @ cluster_rpc",
    ),
    span(
        "cluster.completions_busy_s",
        "cluster.completions",
        "host_ops_per_s @ cluster_rpc",
    ),
    derived(
        "cluster.ns_per_board_cycle",
        "ns",
        Lower,
        "host_ops_per_s @ cluster_rpc (about 1:1) and @ faas_storm (partial)",
    ),
    probe(
        "cluster.fabric_ns_per_msg",
        "host_ops_per_s @ cluster_rpc, faas_storm",
    ),
    probe(
        "cluster.msg_codec_ns",
        "host_ops_per_s @ cluster_rpc, faas_storm",
    ),
    // faas
    count(
        "faas.invocations",
        "count",
        Higher,
        "sim_goodput_per_kcycle @ faas_storm",
    ),
    count(
        "faas.cold_share",
        "share",
        Lower,
        "sim_p99_cycles, slo_ok_share @ faas_storm",
    ),
    count("faas.shed", "count", Lower, "ok_share @ faas_storm"),
    count("faas.expired", "count", Lower, "ok_share @ faas_storm"),
    count(
        "faas.completed_err",
        "count",
        Lower,
        "ok_share @ faas_storm",
    ),
    count(
        "faas.deploys",
        "count",
        Lower,
        "sim_p99_cycles @ faas_storm",
    ),
    count(
        "faas.reclaims",
        "count",
        Lower,
        "sim_p99_cycles @ faas_storm",
    ),
    count(
        "faas.cache_hit_share",
        "share",
        Higher,
        "sim_p99_cycles @ faas_storm",
    ),
    count(
        "faas.cache_evictions",
        "count",
        Lower,
        "sim_p99_cycles @ faas_storm",
    ),
    count(
        "faas.mean_area_util",
        "share",
        Higher,
        "sim_goodput_per_kcycle @ faas_storm",
    ),
    count(
        "faas.cold_p99_cycles",
        "cycles",
        Lower,
        "sim_p99_cycles, slo_ok_share @ faas_storm",
    ),
    count(
        "faas.warm_p99_cycles",
        "cycles",
        Lower,
        "sim_p99_cycles @ faas_storm",
    ),
    span(
        "faas.invoke_busy_s",
        "faas.invoke",
        "host_ops_per_s @ faas_storm",
    ),
    span(
        "faas.step_busy_s",
        "faas.step",
        "host_ops_per_s @ faas_storm (includes the cluster underneath)",
    ),
    span(
        "faas.finished_busy_s",
        "faas.finished",
        "host_ops_per_s @ faas_storm",
    ),
    probe("faas.admit_ns", "host_ops_per_s @ faas_storm"),
    probe("faas.cache_lookup_insert_ns", "host_ops_per_s @ faas_storm"),
    // sim
    probe("sim.eventq_ns_per_event", NONE),
    probe(
        "sim.histogram_record_ns",
        "host_ops_per_s @ every workload (small)",
    ),
    probe(
        "sim.payload_clone_ns",
        "host_ops_per_s @ every workload (small)",
    ),
    // bench: guards on the measurement itself
    derived(
        "bench.driver_share",
        "share",
        Lower,
        "guards host_ops_per_s: must stay under 0.10",
    ),
    derived(
        "bench.trace_overhead_share",
        "share",
        Lower,
        "guards the *_busy_s spans",
    ),
    derived(
        "bench.max_inject_lag_cycles",
        "cycles",
        Lower,
        "guards sim_p99_cycles: must be 0",
    ),
    count(
        "bench.tenant_finish_spread",
        "share",
        Lower,
        "guards board_tenants: tenants finish within 0.10 of each other",
    ),
    derived("bench.failed_share", "share", Lower, "1 - ok_share"),
    derived("bench.slo_miss_share", "share", Lower, "1 - slo_ok_share"),
];

/// `BENCHMARK.json`, generated so it cannot drift from the tables.
pub fn manifest() -> Json {
    let workloads = WORKLOADS
        .iter()
        .map(|w| Json::obj().set("name", w.name).set("why", w.why))
        .collect::<Vec<_>>();
    let end_to_end = END_TO_END
        .iter()
        .map(|m| {
            Json::obj()
                .set("name", m.name)
                .set("unit", m.unit)
                .set("better", m.better.as_str())
                .set("bound", m.bound)
        })
        .collect::<Vec<_>>();
    let per_layer = PER_LAYER
        .iter()
        .map(|m| {
            Json::obj()
                .set("name", m.name)
                .set("unit", m.unit)
                .set("better", m.better.as_str())
        })
        .collect::<Vec<_>>();
    let command = [
        "cargo",
        "run",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        "benchmark/Cargo.toml",
        "--",
        "run",
    ]
    .map(Json::from)
    .to_vec();
    Json::obj()
        .set("command", command)
        .set("paths", vec![Json::from("benchmark")])
        .set("run_seconds", RUN_SECONDS)
        .set("workloads", workloads)
        .set("end_to_end", end_to_end)
        .set("per_layer", per_layer)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn name_ok(n: &str) -> bool {
        n.len() <= 64
            && n.starts_with(|c: char| c.is_ascii_alphanumeric())
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn tables_meet_the_manifest_contract() {
        let mut names = BTreeSet::new();
        for w in &WORKLOADS {
            assert!(name_ok(w.name) && names.insert(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        for m in &END_TO_END {
            assert!(name_ok(m.name) && names.insert(m.name), "{}", m.name);
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        for m in PER_LAYER {
            assert!(name_ok(m.name) && names.insert(m.name), "{}", m.name);
            assert!(!m.moves.is_empty(), "{} names no end-to-end metric", m.name);
        }
        for unit in END_TO_END
            .iter()
            .map(|m| m.unit)
            .chain(PER_LAYER.iter().map(|m| m.unit))
        {
            assert!(unit.len() <= 16, "{unit}");
            assert!(
                unit.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{unit}"
            );
        }
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!(PER_LAYER.len() <= 128);
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Lower));
        // setup_s has the largest bound.
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        assert!(manifest().render_pretty().len() < 64 << 10);
    }

    /// The committed `BENCHMARK.json` is exactly what `manifest` prints.
    #[test]
    fn committed_manifest_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(committed, manifest().render_pretty());
    }
}
