//! Source layout rules.
//!
//! A module is small enough to read in one sitting: no `.rs` file under
//! `crates/*/src` may exceed [`LIMIT`] lines. A file that grows past it is
//! split along the parts it already names, each part a child module.
//!
//! Every public function earns its place: a `pub fn` in `crates/*/src`
//! that no non-test code calls is listed in [`TEST_ONLY`] with the law,
//! test or ROADMAP item it serves, and that list only shrinks.
//!
//! Every knob earns its place too: the public fields of `pub struct
//! *Config` blocks number exactly [`KNOBS`], so a new knob, or one taken
//! out without lowering the count, shows in review.

use std::collections::{BTreeMap, HashMap};
use std::fs;
use std::path::{Path, PathBuf};

/// Longest a source file may be, in lines.
const LIMIT: usize = 700;

/// Public `*Config` fields in the non-test code of `crates/*/src`, counted
/// as CI's summary counts them (see [`knobs`]). A value that no experiment,
/// workload, preset or test sets otherwise is a constant beside the code
/// that reads it, not a field; this number only falls.
const KNOBS: usize = 74;

/// Every `pub fn` in `crates/*/src` whose name no non-test code of
/// `crates/*/src`, `src/` or `benchmark/src` mentions apart from its own
/// definition, with the reason it stays. Test code is what CI's line
/// count leaves out: files named `*tests.rs`, and everything from a file's
/// first `#[cfg(test)]` line on. Names are matched as whole words, so a
/// name shared with a called function never shows here; that can only
/// under-report. A new entry is refused (give it a non-test caller or
/// delete it), and so is an entry that gained a caller or is gone (take it
/// off this list).
const TEST_ONLY: &[(&str, &str)] = &[
    (
        "del_req",
        "the KV store's DEL request; `kv_matches_hashmap_model` drives DEL through it",
    ),
    (
        "derive_badged",
        "ROADMAP item 11's spec: badged derivation of a capability",
    ),
    (
        "internal_fragmentation",
        "`paging_accounting_is_exact` and the buddy allocator's rounding test state each \
         allocator's accounting through it",
    ),
    (
        "kind_name",
        "`examples/quickstart.rs` names a reply's kind with it",
    ),
    (
        "mem_stats",
        "`a_grant_or_share_refused_for_room_leaks_nothing` and \
         `release_memory_returns_segment` assert the allocator's accounting through it",
    ),
    (
        "migrations_in_flight",
        "`live_migration_moves_state_without_cap_churn` asserts a migration drains through it",
    ),
    (
        "parked_as",
        "`shared_tile_time_multiplexes_two_tenants` reads a parked context through it",
    ),
    (
        "reconfigure_replica",
        "a ROADMAP item 4 (c) fuzzer op, with four regression tests in \
         `crates/cluster/tests/cluster.rs`",
    ),
    (
        "release_memory",
        "ROADMAP item 11's spec: a segment's release",
    ),
    (
        "remote_cap_count",
        "`remote_invocation_round_trip` and `live_migration_moves_state_without_cap_churn` \
         assert cap conservation through it",
    ),
    ("share_memory", "ROADMAP item 11's spec: a segment's share"),
];

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

/// Every `.rs` file under each crate's `src/`.
fn crate_sources(root: &Path) -> Vec<PathBuf> {
    let mut files = Vec::new();
    for krate in fs::read_dir(root.join("crates")).expect("crates/") {
        let src = krate.expect("crate entry").path().join("src");
        if src.is_dir() {
            rust_files(&src, &mut files);
        }
    }
    files
}

/// The part of `path` that is not test code: nothing of a `*tests.rs`
/// file, and the lines before the first `#[cfg(test)]` line of any other.
fn non_test_code(path: &Path) -> String {
    if path.to_string_lossy().ends_with("tests.rs") {
        return String::new();
    }
    let mut text = fs::read_to_string(path).expect("utf-8 source");
    let marker = "#[cfg(test)]";
    if text.starts_with(marker) {
        text.clear();
    } else if let Some(at) = text.find(&format!("\n{marker}")) {
        text.truncate(at + 1);
    }
    text
}

fn is_ident(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// The names of the `pub fn`s defined in `code`.
fn pub_fns(code: &str) -> Vec<&str> {
    let mut names = Vec::new();
    for (at, _) in code.match_indices("pub fn ") {
        if code[..at].ends_with(is_ident) {
            continue;
        }
        let rest = &code[at + "pub fn ".len()..];
        let name = &rest[..rest.find(|c| !is_ident(c)).unwrap_or(rest.len())];
        if !name.is_empty() {
            names.push(name);
        }
    }
    names
}

/// The knobs in `code`, by CI's rule: each `    pub <field>:` line (field
/// name in `[a-z0-9_]`) between a `pub struct <Name>Config` line (followed
/// by ` `, `<` or `{`) and the next line that starts with `}`.
fn knobs(code: &str) -> usize {
    let mut in_config = false;
    let mut n = 0;
    for line in code.lines() {
        if let Some(rest) = line.strip_prefix("pub struct ") {
            let name = &rest[..rest.find(|c| !is_ident(c)).unwrap_or(rest.len())];
            if name.ends_with("Config") && rest[name.len()..].starts_with([' ', '<', '{']) {
                in_config = true;
                continue;
            }
        }
        if line.starts_with('}') {
            in_config = false;
        }
        let field = line
            .strip_prefix("    pub ")
            .and_then(|f| f.split_once(':'));
        let is_field = field.is_some_and(|(name, _)| {
            !name.is_empty()
                && name
                    .chars()
                    .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
        });
        if in_config && is_field {
            n += 1;
        }
    }
    n
}

#[test]
fn no_source_file_outgrows_the_limit() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let files = crate_sources(root);
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

#[test]
fn every_test_only_pub_fn_is_listed_with_its_reason() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let defining = crate_sources(root);
    let mut callers = Vec::new();
    for dir in ["src", "benchmark/src"] {
        rust_files(&root.join(dir), &mut callers);
    }
    // Whole-word mentions across all non-test code, and where each
    // `pub fn` is defined.
    let mut mentions: HashMap<String, usize> = HashMap::new();
    let mut defined: BTreeMap<String, Vec<String>> = BTreeMap::new();
    for path in defining.iter().chain(&callers) {
        let code = non_test_code(path);
        for word in code.split(|c| !is_ident(c)).filter(|w| !w.is_empty()) {
            *mentions.entry(word.to_string()).or_default() += 1;
        }
        if defining.contains(path) {
            let rel = path.strip_prefix(root).expect("under the root");
            for name in pub_fns(&code) {
                defined
                    .entry(name.to_string())
                    .or_default()
                    .push(rel.display().to_string());
            }
        }
    }
    let uncalled: BTreeMap<&str, &Vec<String>> = defined
        .iter()
        .filter(|(name, defs)| mentions[name.as_str()] == defs.len())
        .map(|(name, defs)| (name.as_str(), defs))
        .collect();

    let mut problems = Vec::new();
    for (name, defs) in &uncalled {
        if !TEST_ONLY.iter().any(|(listed, _)| listed == name) {
            problems.push(format!(
                "`pub fn {name}` ({}) has no caller outside test code: call it or delete it",
                defs.join(", ")
            ));
        }
    }
    for (name, _) in TEST_ONLY {
        if !uncalled.contains_key(name) {
            let why = if defined.contains_key(*name) {
                "now has a caller outside test code"
            } else {
                "no longer exists"
            };
            problems.push(format!(
                "listed `pub fn {name}` {why}: take it off TEST_ONLY"
            ));
        }
    }
    assert!(
        problems.is_empty(),
        "test-only pub fns:\n{}",
        problems.join("\n")
    );
}

#[test]
fn the_knob_count_only_falls() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut total = 0;
    let mut per_file = Vec::new();
    for path in crate_sources(root) {
        let n = knobs(&non_test_code(&path));
        if n > 0 {
            total += n;
            let rel = path.strip_prefix(root).expect("under the root");
            per_file.push(format!("{}: {n}", rel.display()));
        }
    }
    per_file.sort();
    let fix = if total > KNOBS {
        "a value nothing sets otherwise is a constant beside the code that reads it"
    } else {
        "lower KNOBS to match"
    };
    assert_eq!(
        total,
        KNOBS,
        "{total} public `*Config` fields, KNOBS is {KNOBS}: {fix}\n{}",
        per_file.join("\n")
    );
}
