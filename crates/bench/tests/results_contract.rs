//! `results/` is the behavioural contract, and this is where it is checked:
//! one full run of the suite must reproduce every committed
//! `results/<slug>.{json,txt}` byte for byte, no artifact may be empty, and
//! `results/` holds nothing else. A change that moves a number on purpose
//! regenerates the files (`apiary-exp all`) and commits them with the
//! change; one that moves a number by accident fails here.

use apiary_bench::harness::{self, Run};
use apiary_bench::report::first_difference;
use std::path::{Path, PathBuf};

fn results_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results")
}

#[test]
fn a_full_run_reproduces_the_committed_results() {
    let results = results_dir();
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
            if committed.is_empty() {
                stale.push(format!("{file} is empty"));
            } else if let Some(at) = first_difference(&committed, &fresh) {
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
