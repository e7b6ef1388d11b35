//! `apiary-benchmark`: four named workloads, two clocks, a per-layer ledger.
//!
//! Apiary is a simulator, so it has two clocks. *Simulated* cycles are what
//! the paper's claims are about; *host* wall time is what every contributor
//! pays to produce them. This benchmark measures both, end to end and layer
//! by layer, from outside the crates: public counters, spans recorded
//! around its own calls into each layer, and short probes of one layer's
//! public API. See README.md.

mod cli;
mod compare;
mod json;
mod metrics;
mod probes;
mod report;
mod span;
mod stats;
mod workloads;

use cli::{Command, RunArgs};
use json::Json;
use std::process::{Command as Process, ExitCode, Stdio};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let command = match cli::parse(&args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: {e}\n{}", cli::USAGE);
            return ExitCode::from(2);
        }
    };
    let outcome = match command {
        Command::Manifest => {
            print!("{}", metrics::manifest().render_pretty());
            Ok(true)
        }
        Command::Compare { a, b } => compare::run(&a, &b),
        Command::Run(run) => match run.workload {
            Some(w) => run_one(w, &run),
            None => run_all(&run),
        },
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(1)
        }
    }
}

fn report_json(run: &RunArgs, results: Vec<(String, Json)>) -> Json {
    Json::obj()
        .set("seconds", run.seconds)
        .set("results", Json::Obj(results))
}

/// One workload in this process. `Ok(false)` when an output check failed.
fn run_one(w: &'static workloads::Workload, run: &RunArgs) -> Result<bool, String> {
    let result = report::run(w, run.seed, run.seconds, run.trace);
    if let Some(path) = &run.out {
        let doc = report_json(run, vec![(w.name.to_string(), result.to_json())]);
        std::fs::write(path, doc.render_pretty()).map_err(|e| format!("{path}: {e}"))?;
    }
    report::print(&result);
    Ok(result.correct)
}

/// Every workload, one after the other, each in a fresh process so that
/// peak memory and allocator state are the workload's own. Never two at
/// once: the machine has two cores and the simulator wants one undisturbed.
fn run_all(run: &RunArgs) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut merged = Vec::new();
    let mut all_correct = true;
    for w in &workloads::WORKLOADS {
        let part = run.out.as_ref().map(|p| format!("{p}.{}.part", w.name));
        let mut child = Process::new(&exe);
        child
            .args(["run", "--workload", w.name])
            .args(["--seed", &run.seed.to_string()])
            .args(["--seconds", &run.seconds.to_string()])
            .args(["--trace", if run.trace { "1" } else { "0" }])
            .stdin(Stdio::null());
        if let Some(part) = &part {
            child.args(["--out", part]);
        }
        // `status` waits for the child to end; its output goes straight to
        // this process's stdout.
        let status = child
            .status()
            .map_err(|e| format!("cannot start {}: {e}", w.name))?;
        all_correct &= status.success();
        if let Some(part) = part {
            let text = std::fs::read_to_string(&part).map_err(|e| format!("{part}: {e}"))?;
            let _ = std::fs::remove_file(&part);
            let doc = Json::parse(&text).map_err(|e| format!("{part}: {e}"))?;
            let results = doc.get("results").map(Json::fields).unwrap_or_default();
            merged.extend(results.iter().cloned());
        }
    }
    if let Some(path) = &run.out {
        std::fs::write(path, report_json(run, merged).render_pretty())
            .map_err(|e| format!("{path}: {e}"))?;
    }
    Ok(all_correct)
}
