//! `--quick` must leave `results/` alone: the committed artifacts are the
//! full-mode behavioural contract, and a scaled-down run used to overwrite
//! them with different numbers. Drives the real binary in a scratch
//! working directory (`results/` is relative to the cwd).

use std::path::Path;
use std::process::Command;

fn apiary_exp(cwd: &Path, args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_apiary-exp"))
        .args(args)
        .current_dir(cwd)
        .output()
        .expect("apiary-exp runs");
    assert!(out.status.success(), "apiary-exp {args:?} failed");
    String::from_utf8_lossy(&out.stdout).into_owned()
}

#[test]
fn only_a_full_run_writes_artifacts() {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("quick_runs");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch directory");

    let stdout = apiary_exp(&dir, &["e01", "--quick"]);
    assert!(stdout.contains("E1 / Table 1"), "report printed: {stdout}");
    assert!(stdout.contains("nothing written"), "says so: {stdout}");
    assert!(
        !dir.join("results").exists(),
        "a quick run created results/"
    );

    // The same command without the flag does write, so the check above is
    // looking in the right place.
    let stdout = apiary_exp(&dir, &["e01"]);
    assert!(stdout.contains("wrote results/e01_table1.json"), "{stdout}");
    for ext in ["json", "txt"] {
        let artifact = dir.join(format!("results/e01_table1.{ext}"));
        let len = std::fs::metadata(&artifact).map(|m| m.len()).unwrap_or(0);
        assert!(len > 0, "{} missing or empty", artifact.display());
    }
}
