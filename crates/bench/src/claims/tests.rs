use super::*;
use crate::harness::SUITE;

#[test]
fn every_row_reads_a_suite_experiment() {
    for (i, c) in CLAIMS.iter().enumerate() {
        let experiment = c.experiment();
        assert!(
            SUITE.iter().any(|&(id, _, _)| id == experiment),
            "no SUITE row runs {experiment} (`{}`)",
            c.statement
        );
        assert!(CLAIMS[..i].iter().all(|d| d.id != c.id), "{} twice", c.id);
    }
}

#[test]
fn every_suite_experiment_has_a_claim() {
    for &(id, _, _) in SUITE {
        let claimed = CLAIMS.iter().any(|c| c.experiment() == id);
        assert!(claimed, "{id} has no claim; add one to claims/table.rs");
    }
}

#[test]
fn strict_bounds_fail_at_the_bound_and_margins_are_the_tightest_slack() {
    assert!(at_least("x", 2.0, 2.0).holds() && at_most("x", 2.0, 2.0).holds());
    assert!(!above("x", 2.0, 2.0).holds() && !below("x", 2.0, 2.0).holds());
    assert!(non_increasing("xs", vec![3.0, 3.0, 1.0]).holds());
    assert!(!non_decreasing("xs", vec![1.0, 2.0, 1.5]).holds());
    // Within ±1 a slack is as is; past it, a share of the bound; an order's
    // steps are measured against the value before them.
    assert!((at_least("r", 0.85, 0.8).margin() - 0.05).abs() < 1e-12);
    assert_eq!(above("p", 50.0, 100.0).margin(), -0.5);
    assert_eq!(
        non_increasing("xs", vec![400.0, 200.0, 150.0]).margin(),
        0.25
    );
}
