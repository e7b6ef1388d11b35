//! `results/` is the behavioural contract, and this is where it is checked:
//! one full run of the suite must reproduce every committed
//! `results/<slug>.{json,txt}` byte for byte. A change that moves a number
//! on purpose regenerates the files (`apiary-exp all`) and commits them
//! with the change; one that moves a number by accident fails here.

use apiary_bench::harness::{self, Run};
use apiary_bench::report::first_difference;
use std::path::Path;

#[test]
fn a_full_run_reproduces_the_committed_results() {
    let results = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    let suite = harness::run_suite(Run::FULL, harness::default_jobs());
    let mut stale = Vec::new();
    for (report, &(_, slug, _)) in suite.reports.iter().zip(harness::SUITE) {
        for (ext, fresh) in report.artifacts() {
            let file = format!("results/{slug}.{ext}");
            let Ok(committed) = std::fs::read_to_string(results.join(format!("{slug}.{ext}")))
            else {
                stale.push(format!("{file} is missing or unreadable"));
                continue;
            };
            if let Some(at) = first_difference(&committed, &fresh) {
                stale.push(format!("{file} {at}"));
            }
        }
    }
    assert!(
        stale.is_empty(),
        "{} artifact(s) differ from the committed results/ (- committed, + this \
         run; if the change is meant, rerun `apiary-exp all` and commit them):\n{}",
        stale.len(),
        stale.join("\n")
    );
}
