//! The Apiary benchmark harness.
//!
//! One module per experiment; every table and figure from the paper — plus
//! the evaluation its open questions call for — is regenerated by a `report`
//! function, reached through the one binary `apiary-exp <all|e01..e19>`.
//! See `DESIGN.md` §3 for the experiment index and `EXPERIMENTS.md` for
//! what each experiment tests.
//!
//! Each experiment exposes one entry point, `report(run)`: a
//! [`harness::Run`] says which clock the run's machines step by (each
//! experiment has one size, the one `results/` records), and `report`
//! returns a structured [`ExperimentReport`] (rendered prose +
//! machine-readable metrics + simulated-cycle count + the verdicts of the
//! experiment's [`claims`], which end its text as a `Claims:` block). Each
//! line of a result table is one [`report::Row`], written once where its
//! values are measured; the JSON array and the text table both come from
//! the rows, and the claims read the rows' JSON records back. Experiments build their machines through
//! [`harness::Run::system`], [`harness::Run::cluster`] and
//! [`harness::Run::faas`] only, so the dense replay of
//! `--det-check=event-vs-dense` reaches every one of them. The
//! [`harness`] module runs the whole suite on a scoped thread pool with
//! deterministic, order-stable output.

pub mod claims;
pub mod experiments;
pub mod harness;
pub mod report;
pub mod scenarios;
pub mod table;

pub use report::{ExperimentReport, Json};
pub use table::TextTable;
