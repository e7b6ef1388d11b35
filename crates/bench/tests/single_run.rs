//! A single-experiment run writes its artifact pair under the current
//! directory: `apiary-exp e01` leaves a non-empty
//! `results/e01_table1.{json,txt}` behind. Drives the real binary in a
//! scratch working directory (`results/` is relative to the cwd).

use std::path::Path;
use std::process::Command;

#[test]
fn a_single_run_writes_its_artifact_pair() {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("single_run");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch directory");

    let out = Command::new(env!("CARGO_BIN_EXE_apiary-exp"))
        .arg("e01")
        .current_dir(&dir)
        .output()
        .expect("apiary-exp runs");
    assert!(out.status.success(), "apiary-exp e01 failed");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("E1 / Table 1"), "report printed: {stdout}");
    assert!(stdout.contains("wrote results/e01_table1.json"), "{stdout}");
    for ext in ["json", "txt"] {
        let artifact = dir.join(format!("results/e01_table1.{ext}"));
        let len = std::fs::metadata(&artifact).map(|m| m.len()).unwrap_or(0);
        assert!(len > 0, "{} missing or empty", artifact.display());
    }
}
