//! `results/` is the behavioural contract, and this is where it is checked.
//! A full run of the suite, under the event clock on eight workers, must
//! reproduce every committed `results/<slug>.{json,txt}` byte for byte. No
//! artifact may be empty, and `results/` holds nothing else.
//! tests/suite_determinism.rs holds the same bytes against the event clock
//! on one worker and the dense clock on all cores, so the artifacts are the
//! same for any worker count and under either clock, in the one
//! configuration `results/` records.
//!
//! The bytes say what the numbers are; the claim table in `src/claims/`
//! says which of them the paper's argument rests on, and each report ends
//! with its claims' verdicts (the `Claims:` block, the `claims` array). A
//! change that moves a number on purpose regenerates the files
//! (`apiary-exp all`) and commits them with the change; one that moves a
//! number by accident fails the byte check, and one that overturns a
//! claim fails here even with regenerated files.

mod common;

use apiary_bench::claims;
use apiary_bench::harness::{self, Run};
use common::{assert_reproduces_results, results_dir};

#[test]
fn a_full_run_reproduces_the_committed_results() {
    let reports = &harness::run_suite(Run::EVENT, 8).reports;
    for (report, &(id, _, _)) in reports.iter().zip(harness::SUITE) {
        // Suite order, and every report carries the id its table row names
        // (the unit test in harness.rs pins those to E1..E19).
        assert_eq!(report.id, id);
        let json = report.to_json();
        assert!(
            !json.contains("wall_ms") && !json.contains("per_sec"),
            "{} reports host time:\n{json}",
            report.id
        );
    }
    claims::assert_hold(reports);
    assert_reproduces_results(reports, "the event clock at --jobs 8");
}

#[test]
fn results_holds_only_what_the_suite_writes() {
    let mut orphans = Vec::new();
    for entry in std::fs::read_dir(results_dir()).expect("results/ exists") {
        let name = entry.expect("directory entry").file_name();
        let name = name.to_string_lossy();
        let written = harness::SUITE.iter().any(|&(_, slug, _)| {
            name.strip_prefix(slug)
                .is_some_and(|ext| ext == ".json" || ext == ".txt")
        });
        if !written {
            orphans.push(format!("results/{name}"));
        }
    }
    assert!(
        orphans.is_empty(),
        "no SUITE row writes these; delete them or add the experiment:\n{}",
        orphans.join("\n")
    );
}
