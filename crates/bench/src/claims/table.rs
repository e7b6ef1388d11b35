//! Every claim of the evaluation, in experiment order. Each experiment has
//! at least one (a unit test holds the table to that), and one row per
//! sentence, so a failure names the sentence that broke.

use super::{above, at_least, at_most, below, non_decreasing, non_increasing, Claim};
use crate::report::Json;

/// The object of `metrics[key]` whose fields equal every `(field, value)`.
fn cell<'a>(metrics: &'a Json, key: &str, fields: &[(&str, Json)]) -> &'a Json {
    let mut cells = metrics.arr(key).iter();
    cells
        .find(|o| fields.iter().all(|(k, v)| o.get(k) == Some(v)))
        .unwrap_or_else(|| panic!("no {key} cell with {fields:?}"))
}

/// The object of `metrics[key]` whose `field` is `value`.
fn named<'a>(metrics: &'a Json, key: &str, field: &str, value: &str) -> &'a Json {
    cell(metrics, key, &[(field, value.into())])
}

/// `field` of every object of `metrics[key]`, in order.
fn column(metrics: &Json, key: &str, field: &str) -> Vec<f64> {
    metrics.arr(key).iter().map(|o| o.num(field)).collect()
}

/// The smallest of `xs`.
fn least(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(f64::INFINITY, f64::min)
}

/// E13's `field` for the variants `knob = v`, one per value, in order.
fn e13(m: &Json, field: &str, knob: &str, values: &[u64]) -> Vec<f64> {
    let variant = |v| named(m, "variants", "variant", &format!("{knob} = {v}")).num(field);
    values.iter().map(variant).collect()
}

/// E16's cell at `rate` under `policy`.
fn e16<'a>(m: &'a Json, rate: f64, policy: &str) -> &'a Json {
    let fields = [("fault_rate", rate.into()), ("policy", policy.into())];
    cell(m, "runs", &fields)
}

/// E17's cell with `boards` boards under `chaos`.
fn e17<'a>(m: &'a Json, boards: u64, chaos: &str) -> &'a Json {
    let fields = [("boards", boards.into()), ("chaos", chaos.into())];
    cell(m, "runs", &fields)
}

/// E19's recovery cell with two kills, checkpointing every `interval` (0: never).
fn e19(m: &Json, interval: u64) -> &Json {
    let fields = [
        ("kills", 2u64.into()),
        ("checkpoint_interval", interval.into()),
    ];
    cell(m, "recovery", &fields)
}

const SEGMENTS: &str = "§4.6: segments, not pages";
const NOC: &str = "§3, §4.3: the NoC";
const MEMORY: &str = "§4.6: the memory service";
const TILES: &str = "§4.1: dynamically reconfigured tiles";
const FAULTS: &str = "§4.4: fail-stop contains faults";
const CLUSTER: &str = "§3: scalability beyond one device";
const FAAS: &str = "§4.1: dynamic tiles at cluster scale";
const CHECKPOINT: &str = "§4.2, §4.4: preemption beyond fail-stop";

/// Every claim, in experiment order.
pub const CLAIMS: &[Claim] = &[
    Claim {
        id: "E1.growth",
        answers: "§2, Table 1",
        statement: "from one generation to the next the smallest parts grew about 50 % and \
                    the largest at least 3x",
        checks: |m| {
            let (small, large) = (m.num("growth_smallest"), m.num("growth_largest"));
            vec![
                at_least("smallest", small, 1.4),
                at_most("smallest", small, 1.6),
                at_least("largest", large, 3.0),
            ]
        },
    },
    Claim {
        id: "E2.no-cross-app",
        answers: "§4.1, Figure 1",
        statement: "the built architecture grants endpoint capabilities, none across \
                    applications",
        checks: |m| {
            let (caps, cross) = (m.num("endpoint_caps"), m.num("cross_app_caps"));
            vec![
                above("endpoint caps", caps, 0.0),
                at_most("cross-app caps", cross, 0.0),
            ]
        },
    },
    Claim {
        id: "E3.check-latency",
        answers: "§6 Q1: the overhead of the per-tile monitor",
        statement: "a deeper monitor check costs message latency: p50 at 8 check cycles \
                    above p50 at 0",
        checks: |m| {
            let (deep, none) = (m.num("rtt_p50_check8"), m.num("rtt_p50_check0"));
            vec![above("p50 at check 8", deep, none)]
        },
    },
    Claim {
        id: "E4.direct-wins",
        answers: "§1: direct attach lowers latency and energy against CPU mediation",
        statement: "the direct path beats Coyote-like hosting in latency and energy at every \
                    compute point, and its latency lead does not grow with compute",
        checks: |m| {
            let speedup = column(m, "points", "speedup_vs_coyote");
            let energy = column(m, "points", "energy_ratio");
            vec![
                above("lowest speedup", least(&speedup), 1.0),
                non_increasing("speedup by compute", speedup),
                above("lowest energy ratio", least(&energy), 1.0),
            ]
        },
    },
    Claim {
        id: "E5.check-cost",
        answers: "§4.5, §4.6: isolation is affordable",
        statement: "checking every message costs under 2 % of unchecked throughput",
        checks: |m| {
            let gap = m.num("checked_vs_unchecked_gap_pct").abs();
            vec![below("|gap| %", gap, 2.0)]
        },
    },
    Claim {
        id: "E6.rate-limit",
        answers: "§4.5: the monitor rate-limits a misbehaving accelerator",
        statement: "an unmetered flood more than doubles the victim's p99, and the flooder's \
                    monitor rate limit returns it to baseline by denying flood messages",
        checks: |m| {
            let (base, limited) = (m.num("baseline_p99"), m.num("rate_limited_p99"));
            vec![
                above("flooded p99", m.num("flooded_p99"), 2.0 * base),
                at_most("rate-limited p99", limited, base),
                above("denials", m.num("flood_denials_under_limit"), 0.0),
            ]
        },
    },
    Claim {
        id: "E6.qos-only",
        answers: "§4.5: the monitor rate-limits a misbehaving accelerator",
        statement: "demoting the flood to the bulk class leaves the victim's p99 above twice \
                    the baseline: NoC priority protects transit, not the shared endpoint's queue",
        checks: |m| {
            let qos = named(
                m,
                "policies",
                "policy",
                "NoC QoS only (flood demoted to bulk)",
            );
            let base = m.num("baseline_p99");
            vec![above("QoS-only p99", qos.num("victim_p99"), 2.0 * base)]
        },
    },
    Claim {
        id: "E7.segments-exact",
        answers: SEGMENTS,
        statement: "segments waste no byte to rounding and check every access in one cycle",
        checks: |m| {
            let designs = ["segments, first-fit", "segments, best-fit"];
            let seg = designs.map(|d| named(m, "designs", "design", d));
            let waste = seg.map(|d| d.num("waste_bytes"));
            let cycles = seg.map(|d| d.num("access_cycles_mean"));
            vec![
                at_most("worst segment waste", waste[0].max(waste[1]), 0.0),
                at_most("worst segment access cycles", cycles[0].max(cycles[1]), 1.0),
            ]
        },
    },
    Claim {
        id: "E7.others-pay",
        answers: SEGMENTS,
        statement: "buddy allocation wastes bytes to power-of-two rounding, 4 KiB paging pays \
                    TLB misses, and 2 MiB paging trades those misses for the most waste",
        checks: |m| {
            let designs = [
                "buddy (pow2 segments)",
                "paging, 4 KiB + TLB32",
                "paging, 2 MiB + TLB32",
            ];
            let [buddy, small, huge] = designs.map(|d| named(m, "designs", "design", d));
            let [buddy, huge_waste] = [buddy, huge].map(|d| d.num("waste_bytes"));
            let [small, huge] = [small, huge].map(|d| d.num("access_cycles_mean"));
            vec![
                above("buddy waste", buddy, 0.0),
                above("4 KiB access cycles", small, 1.0),
                below("2 MiB access cycles", huge, small),
                above("2 MiB waste", huge_waste, buddy),
            ]
        },
    },
    Claim {
        id: "E8.recovery",
        answers: "§4.4: fail-stop and preemptible accelerators",
        statement: "fail-stop answers the outage with errors and recovers by loading a 512 KiB \
                    bitstream at 4 B/cycle; preemption recovers in tens of cycles, error-free",
        checks: |m| {
            let [stop, preempt] = ["fail_stop", "preempt"].map(|p| m.field(p));
            let [stop_recovery, preempt_recovery] =
                [stop, preempt].map(|p| p.num("recovery_cycles"));
            vec![
                above("fail-stop errors", stop.num("errors"), 0.0),
                at_least("fail-stop recovery", stop_recovery, 131_072.0),
                below("preempt recovery", preempt_recovery, 100.0),
                at_most("preempt errors", preempt.num("errors"), 0.0),
            ]
        },
    },
    Claim {
        id: "E8.bystander",
        answers: FAULTS,
        statement: "under either policy the bystander application never loses a request",
        checks: |m| {
            let ok = ["fail_stop", "preempt"].map(|p| m.field(p).num("bystander_ok"));
            vec![at_least(
                "fewest bystander ok",
                ok[0].min(ok[1]),
                m.num("requests"),
            )]
        },
    },
    Claim {
        id: "E9.patterns",
        answers: NOC,
        statement: "hotspot traffic peaks lowest, capped by one ejection port, and uniform \
                    traffic saturates at the bisection, below neighbour traffic",
        checks: |m| {
            let peaks =
                ["hotspot", "uniform", "neighbour"].map(|p| m.num(&format!("peak_delivered_{p}")));
            vec![
                below("hotspot peak", peaks[0], peaks[1]),
                below("uniform peak", peaks[1], peaks[2]),
            ]
        },
    },
    Claim {
        id: "E10.lanes",
        answers: "§2, §3: the video pipeline scales out",
        statement: "four pipeline lanes run more than 3x faster than one, short of 4x once the \
                    shared ingress tile's injection port binds",
        checks: |m| {
            let speedup = m.num("speedup_4lane");
            vec![
                above("4-lane speedup", speedup, 3.0),
                below("4-lane speedup", speedup, 4.0),
            ]
        },
    },
    Claim {
        id: "E10.verified",
        answers: "§2: third-party accelerators compose",
        statement: "composed by re-pointing capabilities alone, every kept frame decodes \
                    losslessly at the end of the pipeline",
        checks: |m| vec![at_least("all verified", m.num("all_verified"), 1.0)],
    },
    Claim {
        id: "E11.colocation",
        answers: "§2, §4.1: mutually distrusting tenants",
        statement: "co-locating the video pipeline keeps the KV store's p99 within 10 % of \
                    the store alone",
        checks: |m| {
            let [alone, video] = ["kv_alone", "with_video"].map(|s| m.field(s).num("kv_p99"));
            vec![at_most("with video p99", video, 1.1 * alone)]
        },
    },
    Claim {
        id: "E11.flood-defended",
        answers: "§2, §4.5: a misbehaving tenant",
        statement: "a flooding co-tenant of the same store more than doubles the KV p99, its \
                    monitor's rate limit brings it back within 10 % of the store alone, and \
                    badges keep the attacker off the victim's keys throughout",
        checks: |m| {
            let scenarios = ["kv_alone", "with_video", "with_flood", "flood_defended"];
            let [alone, _, flood, defended] = scenarios.map(|s| m.field(s).num("kv_p99"));
            let held = scenarios.map(|s| m.field(s).num("isolation_held"));
            vec![
                above("flooded p99", flood, 2.0 * alone),
                at_most("defended p99", defended, 1.1 * alone),
                at_least("scenarios isolated", held.iter().sum(), 4.0),
            ]
        },
    },
    Claim {
        id: "E12.wire-penalty",
        answers: "§6 Q3: can an FPGA do without an on-node CPU?",
        statement: "serial callers pay a remote CPU service a fixed wire penalty of about \
                    1000 cycles",
        checks: |m| {
            let penalty = (m.num("remote_penalty_p50_serial") - 1.0) * m.num("func_cycles");
            vec![
                at_least("penalty", penalty, 900.0),
                at_most("penalty", penalty, 1100.0),
            ]
        },
    },
    Claim {
        id: "E13.knobs",
        answers: NOC,
        statement: "deeper VC buffers never raise p99, wider flits never raise p50, and \
                    longer hop pipelines never lower p50",
        checks: |m| {
            let buffers = e13(m, "p99", "vc_buffer", &[1, 2, 4, 8]);
            let flits = e13(m, "p50", "flit_bytes", &[8, 16, 32, 64]);
            let hops = e13(m, "p50", "hop_latency", &[0, 1, 2, 4]);
            vec![
                non_increasing("p99 by vc_buffer", buffers),
                non_increasing("p50 by flit_bytes", flits),
                non_decreasing("p50 by hop_latency", hops),
            ]
        },
    },
    Claim {
        id: "E13.hardened",
        answers: "§4.3: the case for hardened NoCs",
        statement: "the hardened preset beats the soft one at p50 and at p99",
        checks: |m| {
            let presets = ["preset: soft", "preset: hardened"];
            let [soft, hard] = presets.map(|p| named(m, "variants", "variant", p));
            vec![
                below("hardened p50", hard.num("p50"), soft.num("p50")),
                below("hardened p99", hard.num("p99"), soft.num("p99")),
            ]
        },
    },
    Claim {
        id: "E14.swap-cost",
        answers: TILES,
        statement: "a swap costs its bitstream's size over the 4 B/cycle configuration port: \
                    65536 cycles for 256 KiB",
        checks: |m| {
            let swap = m.num("swap_cycles_256kib");
            vec![
                at_least("256 KiB swap", swap, 65536.0),
                at_most("256 KiB swap", swap, 65536.0),
            ]
        },
    },
    Claim {
        id: "E14.availability",
        answers: TILES,
        statement: "reconfiguration churn costs availability at period 200000, and \
                    availability does not fall as the period grows",
        checks: |m| {
            let churn = "availability_under_churn";
            let first = cell(m, churn, &[("period", 200_000u64.into())]);
            let by_period = column(m, churn, "availability_pct");
            vec![
                below(
                    "availability at 200000",
                    first.num("availability_pct"),
                    100.0,
                ),
                non_decreasing("availability by period", by_period),
            ]
        },
    },
    Claim {
        id: "E15.bandwidth",
        answers: MEMORY,
        statement: "a few outstanding reads reach near-wire bandwidth: over 90 % of one \
                    16-byte flit per cycle",
        checks: |m| {
            vec![at_least(
                "peak B/cycle",
                m.num("peak_bytes_per_cycle"),
                14.4,
            )]
        },
    },
    Claim {
        id: "E15.row-buffer",
        answers: MEMORY,
        statement: "a sequential stream keeps the DRAM row buffer hot: most reads hit the \
                    open row",
        checks: |m| {
            vec![above(
                "sequential row hits %",
                m.num("seq_row_hit_pct"),
                50.0,
            )]
        },
    },
    Claim {
        id: "E16.supervisor",
        answers: FAULTS,
        statement: "at fault rate 0.0005 the supervisor keeps at least 90 % of goodput, \
                    recording incidents and an MTTR",
        checks: |m| {
            let sup = e16(m, 0.0005, "supervisor");
            vec![
                at_least("retention", sup.num("goodput_retention"), 0.90),
                above("incidents", sup.num("incidents"), 0.0),
                above("mttr", sup.num("mttr_mean"), 0.0),
            ]
        },
    },
    Claim {
        id: "E16.no-recovery",
        answers: FAULTS,
        statement: "at fault rate 0.0005 no recovery keeps under 90 % of goodput and records \
                    no incident",
        checks: |m| {
            let none = e16(m, 0.0005, "no-recovery");
            vec![
                below("retention", none.num("goodput_retention"), 0.90),
                at_most("incidents", none.num("incidents"), 0.0),
            ]
        },
    },
    Claim {
        id: "E16.supervisor-wins",
        answers: FAULTS,
        statement: "the supervisor keeps more goodput than no recovery at every fault rate",
        checks: |m| {
            let kept = |rate, policy| e16(m, rate, policy).num("goodput_retention");
            let at = |rate: f64| {
                let label = format!("supervisor retention at {rate}");
                above(label, kept(rate, "supervisor"), kept(rate, "no-recovery"))
            };
            vec![at(0.0005), at(0.002), at(0.01)]
        },
    },
    Claim {
        id: "E16.drains",
        answers: FAULTS,
        statement: "NoC faults cost only the packets they touch, never the network: every run \
                    drains to quiescence",
        checks: |m| {
            let drained = column(m, "runs", "drained");
            let runs = drained.len() as f64;
            vec![at_least("runs drained", drained.iter().sum(), runs)]
        },
    },
    Claim {
        id: "E17.scale-out",
        answers: CLUSTER,
        statement: "goodput scales out: 2 boards beat 1, and 4 beat 2, by more than 1.2x",
        checks: |m| {
            let ok = |boards| e17(m, boards, "none").num("completed_ok");
            vec![
                above("ok on 2 boards", ok(2), 1.2 * ok(1)),
                above("ok on 4 boards", ok(4), 1.2 * ok(2)),
            ]
        },
    },
    Claim {
        id: "E17.chaos",
        answers: CLUSTER,
        statement: "8 boards keep at least 80 % of goodput through a board kill and a link cut",
        checks: |m| {
            let kept = |chaos| e17(m, 8, chaos).num("goodput_retention");
            vec![
                at_least("retention, kill", kept("kill-board"), 0.8),
                at_least("retention, cut", kept("cut-link"), 0.8),
            ]
        },
    },
    Claim {
        id: "E17.failover",
        answers: CLUSTER,
        statement: "the board kill exercises failover: requests time out and lease expiry \
                    revokes caps",
        checks: |m| {
            let kill = e17(m, 8, "kill-board");
            vec![
                above("timeouts", kill.num("timeouts"), 0.0),
                above("caps revoked", kill.num("caps_revoked"), 0.0),
            ]
        },
    },
    Claim {
        id: "E17.arq",
        answers: CLUSTER,
        statement: "the link cut exercises the ARQ: frames are dropped and retransmitted",
        checks: |m| {
            let cut = e17(m, 8, "cut-link");
            vec![
                above("cut drops", cut.num("cut_drops"), 0.0),
                above("retransmissions", cut.num("retransmissions"), 0.0),
            ]
        },
    },
    Claim {
        id: "E18.cold-starts",
        answers: FAAS,
        statement: "the storm drains, and cold starts are fewer than warm invocations and \
                    slower in p99",
        checks: |m| {
            let cold = m.num("cold_count");
            vec![
                at_least("drained", m.num("drained"), 1.0),
                above("cold starts", cold, 0.0),
                above("warm invocations", m.num("warm_count"), cold),
                above("cold p99", m.num("cold_p99"), m.num("warm_p99")),
            ]
        },
    },
    Claim {
        id: "E18.scale-to-zero",
        answers: FAAS,
        statement: "scale-to-zero: the idle function has no replica at 75 %, and its \
                    re-invocation pays a cold start of over 1000 cycles",
        checks: |m| {
            let cold = m.num("idle_reinvoke_cold_latency");
            vec![
                at_most("idle replicas", m.num("idle_replicas_at_75pct"), 0.0),
                above("re-invoke latency", cold, 1000.0),
            ]
        },
    },
    Claim {
        id: "E18.flash-crowd",
        answers: FAAS,
        statement: "the flash crowd is shed at the door, and the base tenants keep at least \
                    70 % of goodput",
        checks: |m| {
            vec![
                above("shed", m.num("flash_shed"), 0.0),
                at_least("retention", m.num("goodput_retention"), 0.7),
            ]
        },
    },
    Claim {
        id: "E18.autoscaler",
        answers: FAAS,
        statement: "the autoscaler grows the hot pool to 2 or more and reclaims replicas, and \
                    the bitstream cache misses",
        checks: |m| {
            vec![
                at_least("hot peak", m.num("hot_peak_live"), 2.0),
                above("reclaims", m.num("reclaims"), 0.0),
                above("cache misses", m.field("cache").num("misses"), 0.0),
            ]
        },
    },
    Claim {
        id: "E19.migration",
        answers: CHECKPOINT,
        statement: "live-migration blackout grows with state size, and every migration \
                    restores warm with every key",
        checks: |m| {
            let [blackout, warm, kept] = ["blackout_cycles", "warm", "retention"]
                .map(|field| column(m, "migrations", field));
            vec![
                non_decreasing("blackout by size", blackout),
                at_least("least warm", least(&warm), 1.0),
                at_least("least retention", least(&kept), 1.0),
            ]
        },
    },
    Claim {
        id: "E19.checkpoint",
        answers: CHECKPOINT,
        statement: "a checkpointed restart retains every preloaded key, and a cold restart \
                    retains none",
        checks: |m| {
            let (warm, cold) = (e19(m, 4000), e19(m, 0));
            let preloaded = warm.num("preloaded");
            vec![
                at_least("checkpointed retained", warm.num("retained"), preloaded),
                at_most("cold retained", cold.num("retained"), 0.0),
            ]
        },
    },
    Claim {
        id: "E19.sharing",
        answers: CHECKPOINT,
        statement: "sharing one tile by preemption halves the tile budget, paying in swaps \
                    and in tenant p99",
        checks: |m| {
            let layouts = ["static", "shared"];
            let [fixed, shared] = layouts.map(|l| named(m, "sharing", "layout", l));
            vec![
                at_most(
                    "shared tiles",
                    shared.num("tiles"),
                    fixed.num("tiles") / 2.0,
                ),
                above("swaps", shared.num("swaps"), 0.0),
                above("shared A p99", shared.num("a_p99"), fixed.num("a_p99")),
            ]
        },
    },
];
