//! The experiment runner: `apiary-exp <all|e01..e19> [flags]`.
//!
//! `apiary-exp e09` runs one experiment, prints its report and writes
//! `results/e09_noc_scaling.{json,txt}`. `apiary-exp all` runs every
//! experiment on a scoped thread pool, writes each artifact pair and the
//! perf baseline `results/BENCH_apiary.json` (wall time, simulated
//! cycles/sec, headline metrics). Runs are full sweeps unless `--quick`
//! asks for the scaled-down configuration the tests use; a quick run
//! prints its reports and writes nothing, because the committed
//! `results/` are the full-mode behavioural contract. An unknown flag, an
//! unknown experiment, a suite flag given to a single experiment or
//! `--quick` with `--bench-guard` is an error (exit 2), never a silently
//! different run.
//!
//! Suite flags (`all` only):
//!
//! - `--jobs N` sets the worker count (default: available cores). Output is
//!   byte-identical for any N: reports print in E1..E19 order and only
//!   `wall_ms` varies run to run.
//! - `--det-check` (or `--det-check=jobs`) runs the suite a second time at
//!   a different worker count and fails (exit 1) unless every report's
//!   deterministic portion is byte-identical — the contract CI enforces.
//! - `--det-check=event-vs-dense` replays the suite with every machine on
//!   the dense per-cycle reference clock (`Run { clock: Dense, .. }`) and
//!   fails (exit 1) unless every report is byte-identical to the
//!   event-clock run. The wall-time ratio between the two runs is the
//!   event-core speedup, recorded in the baseline.
//! - `--bench-guard` compares this run's aggregate `sim_cycles_per_sec`
//!   against the committed `results/BENCH_apiary.json` *before* overwriting
//!   it and fails (exit 1) on a drop of more than 10% — the perf-regression
//!   tripwire CI runs. The baseline is always a full run, so the guard
//!   refuses `--quick`.

use apiary_bench::harness::{self, Run};
use apiary_bench::report::{round3, ExperimentReport, Json};
use apiary_bench::results;
use apiary_sim::ClockMode;
use std::time::Instant;

/// What a `--quick` run says in place of `wrote results/...`.
const QUICK_NOTE: &str = "quick run: scaled-down numbers, nothing written under results/ \
                          (the committed artifacts are full runs)";

const USAGE: &str = "usage: apiary-exp <all|e01..e19> [--quick] [--jobs N] \
                     [--det-check[=jobs]] [--det-check=event-vs-dense] [--bench-guard]";

/// A parsed command line.
#[derive(Debug, Default, PartialEq)]
struct Args {
    /// Row of [`harness::SUITE`] to run; `None` runs them all.
    only: Option<usize>,
    quick: bool,
    jobs: Option<usize>,
    det_check_jobs: bool,
    det_check_clock: bool,
    bench_guard: bool,
}

/// Parses everything after the program name, or says what is wrong with it.
fn parse(argv: &[&str]) -> Result<Args, String> {
    let mut target = None;
    let mut args = Args::default();
    let mut it = argv.iter();
    while let Some(&arg) = it.next() {
        match arg {
            "--quick" => args.quick = true,
            "--jobs" => {
                let n = it.next().and_then(|v| v.parse().ok()).filter(|&n| n >= 1);
                args.jobs = Some(n.ok_or("`--jobs` takes a worker count of at least 1")?);
            }
            "--det-check" | "--det-check=jobs" => args.det_check_jobs = true,
            "--det-check=event-vs-dense" => args.det_check_clock = true,
            "--bench-guard" => args.bench_guard = true,
            flag if flag.starts_with('-') => return Err(format!("unknown flag `{flag}`")),
            _ if target.is_some() => return Err(format!("unexpected argument `{arg}`")),
            "all" => target = Some(None),
            id => match harness::SUITE.iter().position(|row| row.1[..3] == *id) {
                Some(i) => target = Some(Some(i)),
                None => return Err(format!("unknown experiment `{id}`")),
            },
        }
    }
    args.only = target.ok_or("name an experiment, or `all`")?;
    let suite_flags =
        args.jobs.is_some() || args.det_check_jobs || args.det_check_clock || args.bench_guard;
    if args.only.is_some() && suite_flags {
        return Err("`--jobs`, `--det-check` and `--bench-guard` only apply to `all`".into());
    }
    if args.quick && args.bench_guard {
        return Err("`--bench-guard` compares against a full-run baseline, not `--quick`".into());
    }
    Ok(args)
}

/// A det-check's verdict: exits 1, naming each report whose deterministic
/// portion differs between the two runs, unless all of them match.
fn require_identical(first: &[ExperimentReport], replay: &[ExperimentReport], across: &str) {
    let mut mismatches = 0;
    for (a, b) in first.iter().zip(replay) {
        if a.deterministic_bytes() != b.deterministic_bytes() {
            eprintln!("det-check: {} differs between {across}", a.id);
            mismatches += 1;
        }
    }
    if mismatches > 0 {
        eprintln!("det-check FAILED: {mismatches} report(s) not byte-identical");
        std::process::exit(1);
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let argv: Vec<&str> = argv.iter().map(String::as_str).collect();
    let args = parse(&argv).unwrap_or_else(|e| {
        eprintln!("apiary-exp: {e}\n{USAGE}");
        std::process::exit(2);
    });
    let run = if args.quick { Run::QUICK } else { Run::FULL };
    if let Some(i) = args.only {
        let r = harness::run_one(harness::SUITE[i].2, run);
        print!("{}", r.rendered);
        if run.quick {
            println!("{QUICK_NOTE}");
        } else {
            results::write_report_or_exit(&r);
        }
        return;
    }
    let jobs = args.jobs.unwrap_or_else(harness::default_jobs);

    let suite_t0 = Instant::now();
    let reports = harness::run_suite(run, jobs);
    let suite_wall_ms = suite_t0.elapsed().as_secs_f64() * 1000.0;

    let mut clock_check: Option<Json> = None;
    if args.det_check_clock {
        // Replay with every machine on the dense per-cycle reference
        // clock: the event core must be an invisible optimisation, so every
        // report's deterministic portion must match byte for byte. The
        // wall-time ratio is the measured event-core speedup on this
        // workload.
        let dense_run = Run {
            clock: ClockMode::Dense,
            ..run
        };
        let dense_t0 = Instant::now();
        let dense = harness::run_suite(dense_run, jobs);
        let dense_wall_ms = dense_t0.elapsed().as_secs_f64() * 1000.0;
        require_identical(&reports, &dense, "event and dense clocks");
        let speedup = dense_wall_ms / suite_wall_ms.max(1e-9);
        println!(
            "det-check OK: {} reports byte-identical across event and dense clocks \
             (event {suite_wall_ms:.0} ms, dense {dense_wall_ms:.0} ms, {speedup:.2}x)",
            reports.len()
        );
        clock_check = Some(
            Json::obj()
                .set("reports_identical", true)
                .set("dense_wall_ms", round3(dense_wall_ms))
                .set("event_wall_ms", round3(suite_wall_ms))
                .set("event_speedup", round3(speedup)),
        );
    }

    if args.det_check_jobs {
        // Replay at a different worker count: every report must match the
        // first run byte for byte (wall_ms excluded — the only timing
        // field). On a single-core box the replay still uses two workers,
        // so the check always crosses job counts.
        let alt_jobs = if jobs == 1 { 2 } else { 1 };
        let replay = harness::run_suite(run, alt_jobs);
        let across = format!("--jobs {jobs} and --jobs {alt_jobs}");
        require_identical(&reports, &replay, &across);
        println!(
            "det-check OK: {} reports byte-identical across {across}",
            reports.len()
        );
    }

    for r in &reports {
        println!("==================== {} ====================", r.id);
        print!("{}", r.rendered);
        println!();
    }
    if run.quick {
        println!("{QUICK_NOTE}");
        return;
    }
    for r in &reports {
        results::write_report_or_exit(r);
    }

    let total_sim_cycles: u64 = reports.iter().map(|r| r.sim_cycles).sum();
    let cycles_per_sec = total_sim_cycles as f64 / (suite_wall_ms / 1000.0).max(1e-9);

    if args.bench_guard {
        // Compare against the *committed* baseline before it is overwritten
        // below. The baseline is hand-parsed (no serde in this workspace):
        // the first "sim_cycles_per_sec" in the file is the top-level
        // aggregate — the per-experiment copies live inside the
        // "experiments" array, which renders after it.
        let field = |text: &str, key: &str| -> Option<String> {
            text.lines().find_map(|l| {
                l.trim()
                    .strip_prefix(&format!("\"{key}\":"))
                    .map(|v| v.trim().trim_end_matches(',').trim_matches('"').to_string())
            })
        };
        match std::fs::read_to_string("results/BENCH_apiary.json") {
            Ok(old) => {
                let baseline =
                    field(&old, "sim_cycles_per_sec").and_then(|v| v.parse::<f64>().ok());
                match baseline {
                    Some(base) if base > 0.0 => {
                        let ratio = cycles_per_sec / base;
                        if ratio < 0.9 {
                            eprintln!(
                                "bench-guard FAILED: sim_cycles_per_sec {cycles_per_sec:.0} is \
                                 {:.1}% below the committed baseline {base:.0} (>10% regression)",
                                (1.0 - ratio) * 100.0
                            );
                            std::process::exit(1);
                        }
                        println!(
                            "bench-guard OK: sim_cycles_per_sec {cycles_per_sec:.0} vs baseline \
                             {base:.0} ({:+.1}%)",
                            (ratio - 1.0) * 100.0
                        );
                    }
                    _ => eprintln!(
                        "bench-guard: no parsable sim_cycles_per_sec in baseline; skipping"
                    ),
                }
            }
            Err(_) => eprintln!("bench-guard: no committed baseline; skipping comparison"),
        }
    }
    let experiments: Vec<Json> = reports
        .iter()
        .map(|r| {
            Json::obj()
                .set("experiment", r.id)
                .set("title", r.title)
                .set("wall_ms", round3(r.wall_ms))
                .set("sim_cycles", r.sim_cycles)
                .set("sim_cycles_per_sec", round3(r.cycles_per_sec()))
                .set("metrics", r.metrics.clone())
        })
        .collect();
    let mut bench = Json::obj()
        .set("schema", "apiary-bench-v1")
        // Only full runs are recorded; the key stays for schema stability.
        .set("mode", "full")
        .set("clock", "event")
        .set("jobs", jobs)
        .set("suite_wall_ms", round3(suite_wall_ms))
        .set("total_sim_cycles", total_sim_cycles)
        .set("sim_cycles_per_sec", round3(cycles_per_sec))
        .set("experiments", Json::Arr(experiments));
    if let Some(cc) = clock_check {
        bench = bench.set("event_vs_dense", cc);
    }
    results::write_result_or_exit("results/BENCH_apiary.json", &bench.render_pretty());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepts_the_documented_forms() {
        let all = parse(&[
            "all",
            "--jobs",
            "3",
            "--det-check",
            "--det-check=event-vs-dense",
            "--bench-guard",
        ])
        .unwrap();
        assert_eq!(
            all,
            Args {
                only: None,
                quick: false,
                jobs: Some(3),
                det_check_jobs: true,
                det_check_clock: true,
                bench_guard: true,
            }
        );
        assert!(parse(&["all", "--det-check=jobs"]).unwrap().det_check_jobs);
        let one = parse(&["--quick", "e16"]).unwrap();
        assert_eq!((one.only, one.quick), (Some(15), true));
        assert_eq!(parse(&["e01"]).unwrap().only, Some(0));
        assert_eq!(parse(&["e19"]).unwrap().only, Some(18));
    }

    #[test]
    fn rejects_unknown_flags() {
        // Each of these used to be ignored: a skipped check, a full run.
        for argv in [
            &["all", "--det-check=evnt-vs-dense"][..],
            &["all", "--det-check=bogus"],
            &["e16", "--quik"],
            &["all", "--full"],
            &["all", "-j", "2"],
        ] {
            let err = parse(argv).unwrap_err();
            assert!(err.starts_with("unknown flag"), "{argv:?}: {err}");
        }
    }

    #[test]
    fn rejects_unknown_missing_and_surplus_experiments() {
        for id in ["e99", "e00", "e1", "E16", "e16_chaos", "chaos", ""] {
            let err = parse(&[id]).unwrap_err();
            assert!(err.starts_with("unknown experiment"), "{id}: {err}");
        }
        assert!(parse(&[]).is_err());
        assert!(parse(&["--quick"]).is_err());
        assert!(parse(&["e01", "e02"]).is_err());
        assert!(parse(&["all", "all"]).is_err());
    }

    #[test]
    fn rejects_malformed_jobs() {
        for argv in [
            &["all", "--jobs"][..],
            &["all", "--jobs", "0"],
            &["all", "--jobs", "-1"],
            &["all", "--jobs", "two"],
            &["all", "--jobs", "--quick"],
        ] {
            let err = parse(argv).unwrap_err();
            assert!(err.contains("--jobs"), "{argv:?}: {err}");
        }
    }

    #[test]
    fn rejects_bench_guard_on_a_quick_run() {
        // The committed baseline is a full run; a quick run measured
        // against it would "regress" by construction.
        for argv in [
            &["all", "--quick", "--bench-guard"][..],
            &["--bench-guard", "all", "--quick"],
        ] {
            let err = parse(argv).unwrap_err();
            assert!(err.contains("--bench-guard"), "{argv:?}: {err}");
        }
        assert!(parse(&["all", "--quick", "--det-check"]).is_ok());
        assert!(parse(&["all", "--bench-guard"]).is_ok());
    }

    #[test]
    fn rejects_suite_flags_on_one_experiment() {
        for flag in [
            &["--jobs", "2"][..],
            &["--det-check"],
            &["--det-check=jobs"],
            &["--det-check=event-vs-dense"],
            &["--bench-guard"],
        ] {
            let argv = [&["e17"][..], flag].concat();
            let err = parse(&argv).unwrap_err();
            assert!(err.contains("only apply to `all`"), "{argv:?}: {err}");
            let argv = [flag, &["e17"][..]].concat();
            assert!(parse(&argv).is_err(), "{argv:?}");
        }
    }
}
