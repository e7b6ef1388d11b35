//! The harness determinism contract: for any `--jobs` value the suite
//! produces byte-identical reports (rendered text, metrics JSON, simulated
//! cycle counts) in E1..E19 order. Only `wall_ms` may differ, and it is
//! excluded from `deterministic_bytes`.

use apiary_bench::harness::{self, Run};

#[test]
fn jobs_1_and_jobs_8_are_byte_identical() {
    let serial = harness::run_suite(Run::QUICK, 1);
    let parallel = harness::run_suite(Run::QUICK, 8);
    assert_eq!(serial.len(), parallel.len());
    for ((a, b), &(id, _, _)) in serial.iter().zip(&parallel).zip(harness::SUITE) {
        // Suite order, and every report carries the id its table row
        // names (the unit test in harness.rs pins those to E1..E19).
        assert_eq!(a.id, id);
        assert_eq!(a.id, b.id);
        assert_eq!(
            a.deterministic_bytes(),
            b.deterministic_bytes(),
            "{} differs between --jobs 1 and --jobs 8",
            a.id
        );
        assert_eq!(
            a.metrics.render(),
            b.metrics.render(),
            "{} metrics JSON differs across job counts",
            a.id
        );
    }
}
