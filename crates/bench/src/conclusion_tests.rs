//! The paper's conclusions, in one table. `results/` pins every number
//! byte for byte (tests/results_contract.rs); each row here says which of
//! them the paper's argument rests on: an experiment id, the sentence it
//! checks, and a predicate over that experiment's full-run `metrics` (the
//! one configuration `results/` records). Each experiment's unit tests run
//! its report once and pass it to [`assert_hold`], which checks every row
//! of that id. So a change that overturns a conclusion fails its row even
//! when the files are regenerated, naming the sentence and the values read.

use crate::harness::SUITE;
use crate::{ExperimentReport, Json};

/// One conclusion of the evaluation: the experiment whose `metrics` it
/// reads, the sentence it checks, and a predicate that says whether the
/// sentence holds and shows the values it read.
struct Conclusion {
    id: &'static str,
    claim: &'static str,
    check: fn(&Json) -> (bool, String),
}

/// The object of `metrics[key]` whose fields equal every `(field, value)`.
fn cell<'a>(metrics: &'a Json, key: &str, fields: &[(&str, Json)]) -> &'a Json {
    metrics
        .arr(key)
        .iter()
        .find(|o| fields.iter().all(|(k, v)| o.get(k) == Some(v)))
        .unwrap_or_else(|| panic!("no {key} cell with {fields:?}"))
}

/// E16's cell at the mildest fault rate.
fn e16_moderate<'a>(m: &'a Json, policy: &str) -> &'a Json {
    cell(
        m,
        "runs",
        &[("fault_rate", 0.0005.into()), ("policy", policy.into())],
    )
}

/// E17's cell with `boards` boards under `chaos`.
fn e17<'a>(m: &'a Json, boards: u64, chaos: &str) -> &'a Json {
    cell(
        m,
        "runs",
        &[("boards", boards.into()), ("chaos", chaos.into())],
    )
}

/// Every conclusion checked on the full run; an experiment may have several
/// rows, one per sentence, so a failure names the sentence that broke.
const CONCLUSIONS: &[Conclusion] = &[
    Conclusion {
        id: "E2",
        claim: "the built architecture grants endpoint capabilities, none across applications",
        check: |m| {
            let (caps, cross) = (m.u64("endpoint_caps"), m.u64("cross_app_caps"));
            (
                caps > 0 && cross == 0,
                format!("endpoint caps {caps}, cross-app {cross}"),
            )
        },
    },
    Conclusion {
        id: "E3",
        claim: "a deeper monitor check costs message latency: p50 at 8 check cycles above p50 at 0",
        check: |m| {
            let (p0, p8) = (m.u64("rtt_p50_check0"), m.u64("rtt_p50_check8"));
            (p8 > p0, format!("p50 check 0 {p0}, check 8 {p8}"))
        },
    },
    Conclusion {
        id: "E5",
        claim: "checking every message costs under 2 % of unchecked throughput",
        check: |m| {
            let gap = m.f64("checked_vs_unchecked_gap_pct");
            (gap.abs() < 2.0, format!("gap {gap} %"))
        },
    },
    Conclusion {
        id: "E14",
        claim: "reconfiguration churn costs availability at period 200,000, and availability \
                does not fall as the period grows",
        check: |m| {
            let avail: Vec<(u64, f64)> = m
                .arr("availability_under_churn")
                .iter()
                .map(|o| (o.u64("period"), o.f64("availability_pct")))
                .collect();
            let churned = avail
                .first()
                .is_some_and(|&(p, a)| p == 200_000 && a < 100.0);
            let rising = avail.windows(2).all(|w| w[1].1 >= w[0].1);
            (churned && rising, format!("(period, %): {avail:?}"))
        },
    },
    Conclusion {
        id: "E16",
        claim: "at fault rate 0.0005 the supervisor keeps at least 90 % of goodput, \
                recording incidents and an MTTR",
        check: |m| {
            let sup = e16_moderate(m, "supervisor");
            let (kept, incidents, mttr) = (
                sup.f64("goodput_retention"),
                sup.u64("incidents"),
                sup.u64("mttr_mean"),
            );
            (
                kept >= 0.90 && incidents > 0 && mttr > 0,
                format!("retention {kept}, incidents {incidents}, mttr {mttr}"),
            )
        },
    },
    Conclusion {
        id: "E16",
        claim: "at fault rate 0.0005 no recovery keeps under 90 % of goodput and records \
                no incident",
        check: |m| {
            let none = e16_moderate(m, "no-recovery");
            let (kept, incidents) = (none.f64("goodput_retention"), none.u64("incidents"));
            (
                kept < 0.90 && incidents == 0,
                format!("retention {kept}, incidents {incidents}"),
            )
        },
    },
    Conclusion {
        id: "E17",
        claim: "goodput scales out: 2 boards beat 1, and 4 beat 2, by more than 1.2x",
        check: |m| {
            let ok = |boards| e17(m, boards, "none").u64("completed_ok") as f64;
            let (g1, g2, g4) = (ok(1), ok(2), ok(4));
            (
                g2 > g1 * 1.2 && g4 > g2 * 1.2,
                format!("completed ok on 1, 2, 4 boards: {g1}, {g2}, {g4}"),
            )
        },
    },
    Conclusion {
        id: "E17",
        claim: "8 boards keep at least 80 % of goodput through a board kill and a link cut",
        check: |m| {
            let kept = |chaos| e17(m, 8, chaos).f64("goodput_retention");
            let (kill, cut) = (kept("kill-board"), kept("cut-link"));
            (
                kill >= 0.8 && cut >= 0.8,
                format!("retention kill {kill}, cut {cut}"),
            )
        },
    },
    Conclusion {
        id: "E17",
        claim: "the board kill exercises failover: requests time out and lease expiry \
                revokes caps",
        check: |m| {
            let kill = e17(m, 8, "kill-board");
            let (timeouts, revoked) = (kill.u64("timeouts"), kill.u64("caps_revoked"));
            (
                timeouts > 0 && revoked > 0,
                format!("timeouts {timeouts}, caps revoked {revoked}"),
            )
        },
    },
    Conclusion {
        id: "E17",
        claim: "the link cut exercises the ARQ: frames are dropped and retransmitted",
        check: |m| {
            let cut = e17(m, 8, "cut-link");
            let (drops, resent) = (cut.u64("cut_drops"), cut.u64("retransmissions"));
            (
                drops > 0 && resent > 0,
                format!("cut drops {drops}, retransmissions {resent}"),
            )
        },
    },
    Conclusion {
        id: "E18",
        claim: "the storm drains, and cold starts are fewer than warm invocations and slower \
                in p99",
        check: |m| {
            let (cold, warm) = (m.u64("cold_count"), m.u64("warm_count"));
            let (cold_p99, warm_p99) = (m.u64("cold_p99"), m.u64("warm_p99"));
            let drained = m.bool("drained");
            (
                drained && cold > 0 && warm > cold && cold_p99 > warm_p99,
                format!(
                    "drained {drained}, cold {cold} (p99 {cold_p99}), warm {warm} (p99 {warm_p99})"
                ),
            )
        },
    },
    Conclusion {
        id: "E18",
        claim: "scale-to-zero: the idle function has no replica at 75 %, and its \
                re-invocation pays a cold start of over 1,000 cycles",
        check: |m| {
            let live = m.u64("idle_replicas_at_75pct");
            let cold = m.u64("idle_reinvoke_cold_latency");
            (
                live == 0 && cold > 1_000,
                format!("idle replicas {live}, re-invoke latency {cold}"),
            )
        },
    },
    Conclusion {
        id: "E18",
        claim: "the flash crowd is shed at the door, and the base tenants keep at least 70 % \
                of goodput",
        check: |m| {
            let (shed, kept) = (m.u64("flash_shed"), m.f64("goodput_retention"));
            (
                shed > 0 && kept >= 0.7,
                format!("shed {shed}, retention {kept}"),
            )
        },
    },
    Conclusion {
        id: "E18",
        claim: "the autoscaler grows the hot pool to 2 or more and reclaims replicas, and \
                the bitstream cache misses",
        check: |m| {
            let (peak, reclaims) = (m.u64("hot_peak_live"), m.u64("reclaims"));
            let misses = m.get("cache").expect("cache totals").u64("misses");
            (
                peak >= 2 && reclaims > 0 && misses > 0,
                format!("hot peak {peak}, reclaims {reclaims}, cache misses {misses}"),
            )
        },
    },
];

/// Fails, naming each broken sentence and the values it read, unless every
/// row for `report`'s experiment holds on its metrics.
pub(crate) fn assert_hold(report: &ExperimentReport) {
    let rows: Vec<&Conclusion> = CONCLUSIONS.iter().filter(|c| c.id == report.id).collect();
    assert!(!rows.is_empty(), "no conclusion row reads {}", report.id);
    let broken: Vec<String> = rows
        .iter()
        .filter_map(|c| {
            let (holds, values) = (c.check)(&report.metrics);
            (!holds).then(|| format!("{} `{}`: {values}", c.id, c.claim))
        })
        .collect();
    assert!(
        broken.is_empty(),
        "{} conclusion(s) no longer hold on the full run:\n{}",
        broken.len(),
        broken.join("\n")
    );
}

#[test]
fn every_row_reads_a_suite_experiment() {
    for c in CONCLUSIONS {
        assert!(
            SUITE.iter().any(|&(id, _, _)| id == c.id),
            "no SUITE row runs {} (`{}`)",
            c.id,
            c.claim
        );
    }
}
