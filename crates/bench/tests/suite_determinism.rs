//! The harness determinism contract, on the one configuration `results/`
//! records. tests/results_contract.rs runs the full suite under the event
//! clock on eight workers against the committed bytes; here the same bytes
//! must come from one worker, and from the dense reference clock. Equal to
//! the same files, the runs are byte-identical: the artifacts do not
//! depend on `--jobs`, nor on which clock steps the machines (the
//! `--det-check=event-vs-dense` of `apiary-exp`, which reaches every
//! deadline of the full runs, E14's swaps included). The two tests run at
//! once and share the cores.

mod common;

use apiary_bench::harness::{self, Run};
use common::assert_reproduces_results;

#[test]
fn jobs_1_and_jobs_8_are_byte_identical() {
    let reports = harness::run_suite(Run::EVENT, 1).reports;
    assert_reproduces_results(&reports, "the event clock at --jobs 1");
}

#[test]
fn event_and_dense_clocks_are_byte_identical() {
    // As many workers as cores: more would only slow the event run beside
    // it.
    let jobs = harness::default_jobs().max(2);
    let reports = harness::run_suite(Run::DENSE, jobs).reports;
    assert_reproduces_results(&reports, &format!("the dense clock at --jobs {jobs}"));
}
