//! What the suite-level test binaries share: where `results/` lives and the
//! byte check of a run against it.

use apiary_bench::report::first_difference;
use apiary_bench::{harness, ExperimentReport};
use std::path::{Path, PathBuf};

pub fn results_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results")
}

/// Fails, naming each artifact's first differing line, unless every
/// report (in suite order) reproduces its committed pair.
pub fn assert_reproduces_results(reports: &[ExperimentReport], run: &str) {
    let results = results_dir();
    let mut stale = Vec::new();
    for (report, &(_, slug, _)) in reports.iter().zip(harness::SUITE) {
        for (ext, fresh) in report.artifacts() {
            let file = format!("results/{slug}.{ext}");
            let Ok(committed) = std::fs::read_to_string(results.join(format!("{slug}.{ext}")))
            else {
                stale.push(format!("{file} is missing or unreadable"));
                continue;
            };
            if committed.is_empty() {
                stale.push(format!("{file} is empty"));
            } else if let Some(at) = first_difference(&committed, &fresh) {
                stale.push(format!("{file} {at}"));
            }
        }
    }
    assert!(
        stale.is_empty(),
        "{} artifact(s) of {run} differ from the committed results/ (- committed, \
         + this run; if the change is meant, rerun `apiary-exp all` and commit them):\n{}",
        stale.len(),
        stale.join("\n")
    );
}
