//! The suite harness: runs E1..E19 on a scoped thread pool.
//!
//! Every experiment owns its own seeded `SimRng`, so experiments are
//! independent and can run concurrently. Determinism contract: for any
//! `jobs` value the per-experiment [`ExperimentReport`]s are byte-identical.
//! Reports are always returned (and printed) in E1..E19 order regardless of
//! which worker finished first; each experiment's host time is kept beside
//! its report ([`SuiteRun::wall_ms`]), never in it.

use crate::experiments as e;
use crate::report::ExperimentReport;
use apiary_cluster::{ClusterConfig, ClusterSystem};
use apiary_core::{System, SystemConfig};
use apiary_faas::{FaasConfig, FaasSystem};
use apiary_sim::ClockMode;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// What one run of an experiment is handed: how big a sweep to make and
/// which clock its machines step by. The three constructors are the only
/// place an experiment builds a machine, so the run's clock reaches every
/// one of them: a replay under [`ClockMode::Dense`] really is dense
/// throughout (a source check in this module's tests holds experiment
/// modules to that, and to advancing those machines only through the
/// clock-aware primitives, never `tick()`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Run {
    /// The scaled-down configuration the tests use, not the full sweep.
    pub quick: bool,
    /// The clock every machine of this run carries.
    pub clock: ClockMode,
}

impl Run {
    /// The full sweep under the event clock: what `results/` records.
    pub const FULL: Run = Run {
        quick: false,
        clock: ClockMode::Event,
    };
    /// The scaled-down sweep under the event clock.
    pub const QUICK: Run = Run {
        quick: true,
        clock: ClockMode::Event,
    };

    /// A board on this run's clock.
    pub fn system(self, mut cfg: SystemConfig) -> System {
        cfg.clock = self.clock;
        System::new(cfg)
    }

    /// A cluster whose boards are on this run's clock.
    pub fn cluster(self, mut cfg: ClusterConfig) -> ClusterSystem {
        cfg.system.clock = self.clock;
        ClusterSystem::new(cfg)
    }

    /// A serverless fleet whose boards are on this run's clock.
    pub fn faas(self, mut cfg: FaasConfig) -> FaasSystem {
        cfg.cluster.system.clock = self.clock;
        FaasSystem::new(cfg)
    }
}

/// An experiment entry point: one run → structured report.
pub type ExperimentFn = fn(Run) -> ExperimentReport;

/// One [`SUITE`] row from an id and an experiment module: the module's
/// name is the slug, so the two cannot drift apart.
macro_rules! row {
    ($id:literal, $module:ident) => {
        ($id, stringify!($module), e::$module::report)
    };
}

/// The full suite, in output order: the one table that says which
/// experiments exist, what they are called and where their results go.
/// Each row is the id the report carries (`E9`), the slug that names the
/// module and the `results/<slug>.{json,txt}` pair (`e09_noc_scaling`; its
/// `eNN` prefix is the name `apiary-exp` takes), and the entry point.
pub const SUITE: &[(&str, &str, ExperimentFn)] = &[
    row!("E1", e01_table1),
    row!("E2", e02_figure1),
    row!("E3", e03_monitor_overhead),
    row!("E4", e04_direct_vs_host),
    row!("E5", e05_isolation_cost),
    row!("E6", e06_rate_limiting),
    row!("E7", e07_segments_vs_pages),
    row!("E8", e08_fault_handling),
    row!("E9", e09_noc_scaling),
    row!("E10", e10_video_pipeline),
    row!("E11", e11_multi_tenant),
    row!("E12", e12_remote_service),
    row!("E13", e13_noc_ablation),
    row!("E14", e14_reconfig_churn),
    row!("E15", e15_memory_service),
    row!("E16", e16_chaos),
    row!("E17", e17_cluster_scaleout),
    row!("E18", e18_serverless),
    row!("E19", e19_checkpoint),
];

/// Default worker count: the machine's available cores.
pub fn default_jobs() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// What [`run_suite`] hands back, both in suite order.
pub struct SuiteRun {
    /// Every experiment's report: the deterministic bytes.
    pub reports: Vec<ExperimentReport>,
    /// The host milliseconds each experiment took on its worker.
    pub wall_ms: Vec<f64>,
}

/// Runs the whole suite on `jobs` scoped workers (clamped to [1, suite
/// size]).
pub fn run_suite(run: Run, jobs: usize) -> SuiteRun {
    let jobs = jobs.clamp(1, SUITE.len());
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<(ExperimentReport, f64)>>> =
        SUITE.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..jobs {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(&(_, _, f)) = SUITE.get(i) else {
                    break;
                };
                let t0 = Instant::now();
                let report = f(run);
                let wall_ms = t0.elapsed().as_secs_f64() * 1000.0;
                *slots[i].lock().expect("no panic holds a slot") = Some((report, wall_ms));
            });
        }
    });
    let (reports, wall_ms) = slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("no panic holds a slot")
                .expect("worker filled every slot")
        })
        .unzip();
    SuiteRun { reports, wall_ms }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apiary_sim::Machine;

    #[test]
    fn table_names_agree() {
        // `E9` <-> `e09_...`: one number, two spellings. Whether `run`
        // reports under the same id is checked where the whole suite runs
        // anyway (tests/suite_determinism.rs).
        for (i, &(id, slug, _)) in SUITE.iter().enumerate() {
            assert_eq!(id, format!("E{}", i + 1));
            assert!(slug.starts_with(&format!("e{:02}_", i + 1)), "{slug}");
        }
    }

    #[test]
    fn experiments_build_machines_only_through_run() {
        // A machine built with `System::new` in an experiment module would
        // keep the event clock through the dense replay, and
        // `--det-check=event-vs-dense` would compare it with itself.
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("src/experiments");
        let mut modules = 0;
        for entry in std::fs::read_dir(&dir).expect("experiments directory") {
            let path = entry.expect("directory entry").path();
            if path.extension().is_none_or(|e| e != "rs") {
                continue;
            }
            modules += 1;
            let src = std::fs::read_to_string(&path).expect("readable source");
            for (n, line) in src.lines().enumerate() {
                // Also the tail of `ClusterSystem::new(` and `FaasSystem::new(`.
                assert!(
                    !line.contains("System::new("),
                    "{}:{}: a machine built here bypasses the run's clock; use \
                     `Run::system`, `Run::cluster` or `Run::faas`",
                    path.display(),
                    n + 1
                );
                // Likewise a hand-rolled `tick()` loop is dense whatever
                // clock the run carries.
                assert!(
                    !line.contains(".tick()"),
                    "{}:{}: `tick()` steps the dense reference clock whatever the run's \
                     clock; advance with `Machine::drive` (or `Machine::run`, \
                     `Machine::advance_toward`)",
                    path.display(),
                    n + 1
                );
            }
        }
        assert_eq!(modules, SUITE.len(), "one module per suite row");
    }

    #[test]
    fn a_run_stamps_its_clock_into_every_machine() {
        let dense = Run {
            clock: ClockMode::Dense,
            ..Run::QUICK
        };
        for run in [Run::QUICK, dense] {
            assert_eq!(
                run.system(SystemConfig::default()).config().clock,
                run.clock
            );
            let cluster = run.cluster(ClusterConfig::default());
            assert_eq!(cluster.board(1).config().clock, run.clock);
            assert_eq!(cluster.check_invariants(), Ok(()));
            let faas = run.faas(FaasConfig::default());
            assert_eq!(faas.cluster().board(0).config().clock, run.clock);
        }
    }
}
