//! The harness determinism contract: for any `--jobs` value the suite
//! produces byte-identical artifacts (the JSON report and the rendered
//! text) in E1..E19 order, and nothing in them comes from the host clock.

use apiary_bench::harness::{self, Run};

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
