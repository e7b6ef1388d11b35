//! Runs one workload for `--seconds`, repetition after repetition in one
//! process on one thread, and turns the repetitions into named metrics.
//!
//! `--trace 0` measures the end-to-end metrics with the span recorder off.
//! `--trace 1` alternates untraced and traced repetitions (the difference
//! is the tracing overhead), reads the spans' self times, then runs the
//! per-layer probes.

use crate::json::Json;
use crate::metrics::{Source, END_TO_END, PER_LAYER};
use crate::probes;
use crate::span::Recorder;
use crate::stats::{median, percentile, tail_percentile};
use crate::workloads::{Rep, SimOutcome, Workload};
use std::time::{Duration, Instant};

/// Every run repeats at least this often, so the digest check compares.
const MIN_REPS: usize = 3;
const MAX_REPS: usize = 256;
/// Host time each probe measures for.
const PROBE_TIME: Duration = Duration::from_millis(200);
/// Spans kept verbatim for the trace file; the rest only feed the totals.
const TRACE_FILE_SPANS: usize = 20_000;

/// One metric of a finished run.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    /// The estimate's own uncertainty as a share of the value: how far the
    /// even and the odd repetitions disagree (zero for simulated metrics,
    /// which repeat exactly).
    pub spread: f64,
}

/// A finished run of one workload.
pub struct RunResult {
    pub workload: &'static str,
    pub seed: u64,
    pub traced: bool,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub sim_digest: u64,
    pub reps: usize,
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed above the result line.
    pub notes: Vec<String>,
}

impl RunResult {
    /// The result line of the driver's contract: exactly `correct`,
    /// `attempted`, `failed` and `metrics`.
    pub fn result_line(&self) -> String {
        let metrics = self.metrics.iter().fold(Json::obj(), |obj, m| {
            obj.set(
                m.name,
                Json::obj().set("value", m.value).set("unit", m.unit),
            )
        });
        Json::obj()
            .set("correct", self.correct)
            .set("attempted", self.attempted)
            .set("failed", self.failed)
            .set("metrics", metrics)
            .render()
    }

    /// The fuller record `--out` writes and `compare` reads.
    pub fn to_json(&self) -> Json {
        let metrics = self.metrics.iter().fold(Json::obj(), |obj, m| {
            obj.set(
                m.name,
                Json::obj()
                    .set("value", m.value)
                    .set("unit", m.unit)
                    .set("spread", m.spread),
            )
        });
        Json::obj()
            .set("seed", self.seed)
            .set("trace", self.traced)
            .set("correct", self.correct)
            .set("attempted", self.attempted)
            .set("failed", self.failed)
            .set("reps", self.reps as u64)
            .set("sim_digest", format!("{:016x}", self.sim_digest))
            .set("metrics", metrics)
    }
}

/// Peak resident set of this process so far (`VmHWM`), in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Host times of one repetition. The simulated outcome has been reduced to
/// its digest by then, so a run holds one `SimOutcome`, not one per
/// repetition.
struct Timing {
    setup: Vec<f64>,
    timed: Vec<f64>,
    /// Span self times, if the recorder was on.
    spans: Vec<(&'static str, f64)>,
}

/// Repetitions of one run, split by whether the recorder was on.
struct Reps {
    /// The first repetition's simulated outcome.
    sim: SimOutcome,
    digest: u64,
    /// Digest of a repetition that disagreed with the first, if any did.
    stray_digest: Option<u64>,
    /// Peak resident set right after the first repetition: the workload's
    /// own footprint in a fresh process. Later repetitions reuse freed heap,
    /// and whether the allocator hands the boards' zeroed 16 MiB stores back
    /// as untouched pages or as memory it has to clear moves the peak
    /// tenfold from run to run.
    first_rep_rss_mb: f64,
    plain: Vec<Timing>,
    traced: Vec<Timing>,
    last_trace: Option<Recorder>,
}

fn repeat(w: &Workload, seed: u64, budget: Duration, traced: bool) -> Reps {
    let started = Instant::now();
    let mut reps: Option<Reps> = None;
    let mut longest = Duration::ZERO;
    let mut n = 0;
    // Stop when the next repetition would not fit in the budget.
    while n < MIN_REPS || (n < MAX_REPS && started.elapsed() + longest < budget) {
        let rep_started = Instant::now();
        let mut rec = if traced && n % 2 == 1 {
            Recorder::on(TRACE_FILE_SPANS)
        } else {
            Recorder::off()
        };
        let Rep {
            setup_slices,
            timed_slices,
            sim,
        } = (w.run)(seed, 1, &mut rec);
        let timing = Timing {
            setup: setup_slices,
            timed: timed_slices,
            spans: rec
                .summary()
                .into_iter()
                .map(|(name, self_s, _, _)| (name, self_s))
                .collect(),
        };
        let digest = sim.digest();
        let reps = reps.get_or_insert_with(|| Reps {
            sim,
            digest,
            stray_digest: None,
            first_rep_rss_mb: peak_rss_mb(),
            plain: Vec::new(),
            traced: Vec::new(),
            last_trace: None,
        });
        if digest != reps.digest {
            reps.stray_digest = Some(digest);
        }
        if timing.spans.is_empty() {
            reps.plain.push(timing);
        } else {
            reps.traced.push(timing);
            reps.last_trace = Some(rec);
        }
        longest = longest.max(rep_started.elapsed());
        n += 1;
    }
    reps.expect("at least MIN_REPS repetitions ran")
}

/// The host time of the work undisturbed: slice by slice, the fastest
/// observation across the repetitions, summed.
///
/// Slice `i` is the same simulated work in every repetition. The reference
/// machine slows down by a third for seconds at a time; the median over
/// whole repetitions of a 25 s run then swings by 20 to 30 % from run to run,
/// while this composite only needs each slice to have run undisturbed once
/// and stays within about 3 %.
pub fn fastest_composite(reps: &[&[f64]]) -> f64 {
    let Some(first) = reps.first() else {
        return 0.0;
    };
    if reps.iter().any(|r| r.len() != first.len()) {
        // Cannot line the slices up: fall back to the fastest repetition.
        return reps
            .iter()
            .map(|r| r.iter().sum::<f64>())
            .fold(f64::INFINITY, f64::min);
    }
    (0..first.len())
        .map(|i| reps.iter().map(|r| r[i]).fold(f64::INFINITY, f64::min))
        .sum()
}

/// How far the composites of the even and the odd repetitions disagree, as
/// a share of the composite of all: the estimator's own uncertainty.
fn half_sample_spread(reps: &[&[f64]]) -> f64 {
    let half = |parity: usize| -> Vec<&[f64]> {
        reps.iter()
            .enumerate()
            .filter(|(i, _)| i % 2 == parity)
            .map(|(_, r)| *r)
            .collect()
    };
    let (even, odd) = (half(0), half(1));
    if odd.is_empty() {
        return 0.0;
    }
    let all = fastest_composite(reps).max(1e-12);
    (fastest_composite(&even) - fastest_composite(&odd)).abs() / all
}

fn setup_of(timings: &[Timing]) -> Vec<&[f64]> {
    timings.iter().map(|t| &t.setup[..]).collect()
}

fn timed_of(timings: &[Timing]) -> Vec<&[f64]> {
    timings.iter().map(|t| &t.timed[..]).collect()
}

/// Runs `w` for about `seconds` and reports every metric of the pass.
pub fn run(w: &'static Workload, seed: u64, seconds: u64, traced: bool) -> RunResult {
    let mut budget = Duration::from_secs(seconds);
    if traced {
        let probes = PROBE_TIME
            * PER_LAYER
                .iter()
                .filter(|m| m.source == Source::Probe)
                .count() as u32;
        budget = budget.saturating_sub(probes);
    }
    let reps = repeat(w, seed, budget, traced);
    let sim = &reps.sim;
    let mut notes = Vec::new();
    let mut violations = sim.violations.clone();

    // A host-speed change must leave every simulated number alone, and so
    // must the span recorder.
    if let Some(stray) = reps.stray_digest {
        violations.push(format!(
            "sim_digest differs between repetitions: {stray:016x} vs {:016x}",
            reps.digest
        ));
    }

    // The highest percentile that still has ten samples beyond it.
    let (tail, p) = tail_percentile(sim.latencies.len());
    notes.push(format!(
        "simulated clock: {} ok of {} attempted, latency p50 {} / p99 {} / {tail} {} / max {} cycles",
        sim.ok,
        sim.attempted,
        percentile(&sim.latencies, 0.50),
        percentile(&sim.latencies, 0.99),
        percentile(&sim.latencies, p),
        sim.latencies.last().copied().unwrap_or(0),
    ));
    let totals: Vec<f64> = reps.plain.iter().map(|t| t.timed.iter().sum()).collect();
    notes.push(format!(
        "host clock: timed section {:.3} s undisturbed ({} slices, fastest of {} untraced repetitions each); \
         whole repetitions took min {:.3} / median {:.3} / max {:.3} s",
        fastest_composite(&timed_of(&reps.plain)),
        reps.plain[0].timed.len(),
        reps.plain.len(),
        totals.iter().cloned().fold(f64::INFINITY, f64::min),
        median(&totals),
        totals.iter().cloned().fold(0.0, f64::max),
    ));

    let metrics = if traced {
        let probes = probes::run_all(seed, PROBE_TIME);
        per_layer(w, sim, &reps.plain, &reps.traced, &probes)
    } else {
        end_to_end(w, sim, &reps.plain, reps.first_rep_rss_mb)
    };

    if let Some(rec) = &reps.last_trace {
        for (name, self_s, total_s, count) in rec.summary() {
            notes.push(format!(
                "span {name}: self {self_s:.4} s, total {total_s:.4} s, {count} spans (last traced repetition)"
            ));
        }
        match write_trace(w.name, rec) {
            Ok(path) => notes.push(format!("trace written to {path}")),
            Err(e) => notes.push(format!("trace not written: {e}")),
        }
    }
    for v in &violations {
        notes.push(format!("CHECK FAILED: {v}"));
    }
    RunResult {
        workload: w.name,
        seed,
        traced,
        correct: violations.is_empty(),
        attempted: sim.attempted.max(1),
        failed: sim.failed,
        sim_digest: reps.digest,
        reps: reps.plain.len() + reps.traced.len(),
        metrics,
        notes,
    }
}

fn write_trace(workload: &str, rec: &Recorder) -> std::io::Result<String> {
    // Next to the sources this binary was built from: `benchmark/out/`.
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir(&dir).or_else(|e| match e.kind() {
        std::io::ErrorKind::AlreadyExists => Ok(()),
        _ => Err(e),
    })?;
    let path = dir.join(format!("trace_{workload}.json"));
    std::fs::write(&path, rec.to_json(workload).render())?;
    Ok(path.display().to_string())
}

/// Ops that succeeded within the workload's latency limit ÷ ops attempted.
/// A failed or refused op has no latency record, so it misses by
/// construction.
fn slo_ok_share(w: &Workload, sim: &SimOutcome) -> f64 {
    let within = sim.latencies.partition_point(|&l| l <= w.slo_limit_cycles);
    within as f64 / sim.attempted.max(1) as f64
}

fn end_to_end(w: &Workload, sim: &SimOutcome, reps: &[Timing], rss_mb: f64) -> Vec<Metric> {
    let (setup, timed) = (setup_of(reps), timed_of(reps));
    let attempted = sim.attempted.max(1) as f64;
    END_TO_END
        .iter()
        .map(|m| {
            let (value, spread) = match m.name {
                "setup_s" => (fastest_composite(&setup), half_sample_spread(&setup)),
                "host_ops_per_s" => (
                    sim.ok as f64 / fastest_composite(&timed).max(1e-9),
                    half_sample_spread(&timed),
                ),
                "peak_rss_mb" => (rss_mb, 0.0),
                "sim_cycles" => (sim.sim_cycles as f64, 0.0),
                "sim_goodput_per_kcycle" => {
                    (sim.ok as f64 * 1000.0 / sim.load_cycles.max(1) as f64, 0.0)
                }
                "sim_p50_cycles" => (percentile(&sim.latencies, 0.50) as f64, 0.0),
                "sim_p99_cycles" => (percentile(&sim.latencies, 0.99) as f64, 0.0),
                "slo_ok_share" => (slo_ok_share(w, sim), 0.0),
                "ok_share" => (sim.ok as f64 / attempted, 0.0),
                other => unreachable!("end-to-end metric `{other}` has no formula"),
            };
            Metric {
                name: m.name,
                unit: m.unit,
                value,
                spread,
            }
        })
        .collect()
}

fn per_layer(
    w: &Workload,
    sim: &SimOutcome,
    plain: &[Timing],
    traced: &[Timing],
    probes: &[(&'static str, f64)],
) -> Vec<Metric> {
    // A span's self time: the fastest of the traced repetitions, for the
    // same reason the end-to-end times are composites of fastest slices.
    let span_s = |span: &str| -> f64 {
        traced
            .iter()
            .map(|t| {
                t.spans
                    .iter()
                    .find(|(n, _)| *n == span)
                    .map_or(0.0, |(_, s)| *s)
            })
            .fold(f64::INFINITY, f64::min)
    };
    let plain_s = fastest_composite(&timed_of(plain));
    let traced_s = fastest_composite(&timed_of(traced));
    let attempted = sim.attempted.max(1) as f64;
    PER_LAYER
        .iter()
        .map(|m| {
            let (value, spread) = match m.source {
                Source::Count => (sim.layer_value(m.name), 0.0),
                Source::Span(span) => (span_s(span), 0.0),
                Source::Probe => (
                    probes
                        .iter()
                        .find(|(n, _)| *n == m.name)
                        .map_or(0.0, |(_, ns)| *ns),
                    0.0,
                ),
                Source::Derived => {
                    let v = match m.name {
                        "noc.step_ns_per_flit_hop" => {
                            span_s("noc.step") * 1e9 / sim.layer_value("noc.flit_hops").max(1.0)
                        }
                        "cluster.ns_per_board_cycle" => {
                            (span_s("cluster.advance") + span_s("faas.step")) * 1e9
                                / sim.layer_value("cluster.board_cycles").max(1.0)
                        }
                        "bench.driver_share" => span_s("bench.driver") / traced_s.max(1e-9),
                        "bench.trace_overhead_share" => (traced_s - plain_s) / plain_s.max(1e-9),
                        "bench.max_inject_lag_cycles" => sim.max_inject_lag as f64,
                        "bench.failed_share" => sim.failed as f64 / attempted,
                        "bench.slo_miss_share" => 1.0 - slo_ok_share(w, sim),
                        other => unreachable!("derived metric `{other}` has no formula"),
                    };
                    (v, 0.0)
                }
            };
            Metric {
                name: m.name,
                unit: m.unit,
                value,
                spread,
            }
        })
        .collect()
}

/// Prints the notes, every metric by name with its unit, and the result
/// line last.
pub fn print(result: &RunResult) {
    println!(
        "workload {}  seed {}  trace {}  repetitions {}  sim_digest {:016x}",
        result.workload, result.seed, result.traced as u8, result.reps, result.sim_digest
    );
    for note in &result.notes {
        println!("  {note}");
    }
    for m in &result.metrics {
        let moves = PER_LAYER
            .iter()
            .find(|p| p.name == m.name)
            .map_or(String::new(), |p| format!("   -> {}", p.moves));
        let spread = if m.spread > 0.0 {
            format!("  (spread {:.1} %)", m.spread * 100.0)
        } else {
            String::new()
        };
        println!(
            "  {:<34} {:>16.6} {:<8}{spread}{moves}",
            m.name, m.value, m.unit
        );
    }
    println!("{}", result.result_line());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn composite_takes_the_fastest_observation_of_each_slice() {
        // Repetition 0 was disturbed in slice 1, repetition 1 in slice 0.
        let reps: [&[f64]; 3] = [&[1.0, 5.0, 2.0], &[4.0, 2.0, 2.5], &[1.5, 2.5, 2.0]];
        assert_eq!(fastest_composite(&reps), 1.0 + 2.0 + 2.0);
        // Below the fastest whole repetition (6.0): no repetition was
        // undisturbed throughout.
        assert!(fastest_composite(&reps) < 6.0);
        assert_eq!(fastest_composite(&[]), 0.0);
    }

    #[test]
    fn composite_falls_back_to_the_fastest_repetition_when_slices_differ() {
        let reps: [&[f64]; 2] = [&[1.0, 1.0, 1.0], &[2.0, 0.5]];
        assert_eq!(fastest_composite(&reps), 2.5);
    }

    #[test]
    fn half_sample_spread_compares_even_and_odd_repetitions() {
        let reps: [&[f64]; 4] = [&[1.0, 1.0], &[1.2, 1.2], &[1.0, 1.1], &[1.3, 1.2]];
        // even: 1.0 + 1.0, odd: 1.2 + 1.2, all: 2.0.
        assert!((half_sample_spread(&reps) - 0.2).abs() < 1e-12);
        assert_eq!(half_sample_spread(&reps[..1]), 0.0);
    }
}
