//! Source layout ratchet: a module is small enough to read in one sitting.
//!
//! No `.rs` file under `crates/*/src` may exceed [`LIMIT`] lines, except
//! the experiment modules under `crates/bench/src/experiments` (one
//! experiment a file, each a script) and the files in [`OVERSIZED`]. Each
//! of those is pinned at its length when the rule came in and may only
//! shrink; once it is within the limit it must leave the list, so the
//! ratchet never loosens.

use std::fs;
use std::path::{Path, PathBuf};

/// Longest a source file may be, in lines.
const LIMIT: usize = 700;

/// Exempt from the limit: the experiment modules.
const EXEMPT: &str = "crates/bench/src/experiments/";

/// Files over the limit, each with the most lines it may have.
const OVERSIZED: [(&str, usize); 1] = [("crates/faas/src/orchestrator.rs", 704)];

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in fs::read_dir(dir).expect("readable source directory") {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

#[test]
fn no_source_file_outgrows_the_limit() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    for krate in fs::read_dir(root.join("crates")).expect("crates/") {
        let src = krate.expect("crate entry").path().join("src");
        if src.is_dir() {
            rust_files(&src, &mut files);
        }
    }
    assert!(files.len() > 100, "found only {} source files", files.len());
    let mut problems = Vec::new();
    for path in &files {
        let rel = path.strip_prefix(root).expect("under the root");
        let rel = rel.to_string_lossy().replace('\\', "/");
        if rel.starts_with(EXEMPT) {
            continue;
        }
        let lines = fs::read_to_string(path)
            .expect("utf-8 source")
            .lines()
            .count();
        match OVERSIZED.iter().find(|(f, _)| *f == rel) {
            Some(&(_, pin)) if lines > pin => problems.push(format!(
                "{rel}: {lines} lines, pinned at {pin}; a listed file may only shrink"
            )),
            Some(_) if lines <= LIMIT => problems.push(format!(
                "{rel}: {lines} lines, within {LIMIT}; take it off OVERSIZED"
            )),
            None if lines > LIMIT => problems.push(format!(
                "{rel}: {lines} lines, over {LIMIT}; split it along the parts it names"
            )),
            _ => {}
        }
    }
    for (f, _) in OVERSIZED {
        if !root.join(f).is_file() {
            problems.push(format!("{f}: listed in OVERSIZED but gone"));
        }
    }
    assert!(
        problems.is_empty(),
        "source layout:\n{}",
        problems.join("\n")
    );
}
