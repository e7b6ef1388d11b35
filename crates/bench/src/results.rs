//! Writing result artifacts under `results/`.
//!
//! Every result-writing binary goes through [`write_result`] (creates the
//! parent directory) and [`write_result_or_exit`] (non-zero exit on
//! failure) so CI can never "pass" with a missing artifact. Experiments
//! use [`write_report_or_exit`], which lands both artifacts — the
//! structured `results/<slug>.json` and the rendered `results/<slug>.txt`
//! — so every experiment's table is browsable without re-running it.

use crate::harness;
use crate::report::ExperimentReport;
use std::io;
use std::path::Path;

/// Writes `contents` to `path`, creating the parent directory first.
pub fn write_result(path: impl AsRef<Path>, contents: &str) -> io::Result<()> {
    let path = path.as_ref();
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    std::fs::write(path, contents)
}

/// [`write_result`], but prints the outcome and exits non-zero on failure —
/// a missing artifact must fail the run, not be a footnote on stderr.
pub fn write_result_or_exit(path: impl AsRef<Path>, contents: &str) {
    let path = path.as_ref();
    match write_result(path, contents) {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => {
            eprintln!("failed to write {}: {e}", path.display());
            std::process::exit(1);
        }
    }
}

/// Writes one experiment's artifact pair: `results/<slug>.json` (the
/// structured report) and `results/<slug>.txt` (the rendered text), under
/// the slug [`harness::SUITE`] gives its id. Exits non-zero if the id is
/// not in the suite or either write fails.
pub fn write_report_or_exit(report: &ExperimentReport) {
    let Some(&(_, slug, _)) = harness::SUITE.iter().find(|row| row.0 == report.id) else {
        eprintln!("no experiment `{}` in harness::SUITE", report.id);
        std::process::exit(1);
    };
    write_result_or_exit(format!("results/{slug}.json"), &report.to_json());
    write_result_or_exit(format!("results/{slug}.txt"), &report.rendered);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn creates_missing_parent_dirs() {
        let dir = std::env::temp_dir().join(format!("apiary_results_test_{}", std::process::id()));
        let path = dir.join("nested").join("out.json");
        write_result(&path, "{}").expect("write with created parents");
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "{}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn bare_filename_needs_no_parent() {
        // A path with no directory component must not trip create_dir_all.
        let cwd_file =
            std::env::temp_dir().join(format!("apiary_results_bare_{}.json", std::process::id()));
        write_result(&cwd_file, "1").expect("bare write");
        std::fs::remove_file(&cwd_file).ok();
    }
}
