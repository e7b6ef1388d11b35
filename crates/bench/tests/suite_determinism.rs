//! The harness determinism contract: for any `--jobs` value the suite
//! produces byte-identical artifacts (the JSON report and the rendered
//! text) in E1..E19 order, and nothing in them comes from the host clock.
//! Nor from the simulator's: the dense reference clock produces the same
//! artifacts as the event clock (`--det-check=event-vs-dense` at quick
//! size, so tier-1 sees a late wakeup without waiting for CI).

use apiary_bench::harness::{self, Run};
use apiary_sim::ClockMode;

#[test]
fn jobs_1_and_jobs_8_are_byte_identical() {
    let serial = harness::run_suite(Run::QUICK, 1).reports;
    let parallel = harness::run_suite(Run::QUICK, 8).reports;
    assert_eq!(serial.len(), parallel.len());
    for ((a, b), &(id, _, _)) in serial.iter().zip(&parallel).zip(harness::SUITE) {
        // Suite order, and every report carries the id its table row
        // names (the unit test in harness.rs pins those to E1..E19).
        assert_eq!(a.id, id);
        assert_eq!(
            a.artifacts(),
            b.artifacts(),
            "{} differs between --jobs 1 and --jobs 8",
            a.id
        );
        let json = a.to_json();
        assert!(
            !json.contains("wall_ms") && !json.contains("per_sec"),
            "{} reports host time:\n{json}",
            a.id
        );
    }
}

#[test]
fn event_and_dense_clocks_are_byte_identical() {
    let dense = Run {
        clock: ClockMode::Dense,
        ..Run::QUICK
    };
    let event = harness::run_suite(Run::QUICK, 2).reports;
    let dense = harness::run_suite(dense, 2).reports;
    for (a, b) in event.iter().zip(&dense) {
        assert_eq!(
            a.artifacts(),
            b.artifacts(),
            "{} differs between the event and the dense clock",
            a.id
        );
    }
}
