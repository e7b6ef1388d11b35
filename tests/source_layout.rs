//! Source layout rule: a module is small enough to read in one sitting.
//!
//! No `.rs` file under `crates/*/src` may exceed [`LIMIT`] lines. A file
//! that grows past it is split along the parts it already names, each
//! part a child module.

use std::fs;
use std::path::{Path, PathBuf};

/// Longest a source file may be, in lines.
const LIMIT: usize = 700;

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
        let lines = fs::read_to_string(path)
            .expect("utf-8 source")
            .lines()
            .count();
        if lines > LIMIT {
            let rel = path.strip_prefix(root).expect("under the root");
            problems.push(format!(
                "{}: {lines} lines, over {LIMIT}; split it along the parts it names",
                rel.display()
            ));
        }
    }
    assert!(
        problems.is_empty(),
        "source layout:\n{}",
        problems.join("\n")
    );
}
