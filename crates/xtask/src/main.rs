//! Workspace maintenance tasks, driven as `cargo run -p xtask -- <task>`.
//!
//! ## `lint` — the static-analysis suite
//!
//! ```text
//! cargo run -p xtask -- lint [--only=<name>]
//! ```
//!
//! Runs a token-level static-analysis pass over the workspace: sources
//! are lexed (strings, raw strings, char literals, nested block
//! comments, lifetimes — see `lexer.rs`) so lints match *code tokens*,
//! never prose or literal contents. Six lints ship (see `lints.rs`):
//! `panic`, `kernel-purity`, `crate-layering`, `float-eq`,
//! `thread-discipline`, `unsafe-confinement`. A lint fails on any finding: a deliberate
//! exception carries a `lint:allow(<name>)` justification comment, which
//! the lint honors. Every run writes a machine-readable report to
//! `target/lint-report.json`.
//!
//! Sites the lexer-level lints cannot see (indexing, arithmetic
//! overflow, explicit `assert!`) are out of scope — those carry
//! `# Panics` docs instead.

mod engine;
mod lexer;
mod lints;
mod report;
mod source;

use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use engine::{FileCache, LintOutcome};
use lints::LINTS;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") => {
            let mut only: Option<String> = None;
            for arg in &args[1..] {
                if let Some(name) = arg.strip_prefix("--only=") {
                    only = Some(name.to_string());
                } else {
                    eprintln!("xtask lint: unknown flag {arg:?}\n{USAGE}");
                    return ExitCode::FAILURE;
                }
            }
            lint(only.as_deref())
        }
        other => {
            eprintln!("unknown task: {other:?}\n{USAGE}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "usage: cargo run -p xtask -- lint [--only=<name>]";

fn lint(only: Option<&str>) -> ExitCode {
    let root = match workspace_root() {
        Ok(r) => r,
        Err(e) => {
            eprintln!("xtask lint: {e}");
            return ExitCode::FAILURE;
        }
    };
    let selected: Vec<_> = match only {
        Some(name) => match engine::spec_by_name(name) {
            Some(spec) => vec![spec],
            None => {
                let known: Vec<&str> = LINTS.iter().map(|s| s.name).collect();
                eprintln!(
                    "xtask lint: unknown lint {name:?}; known: {}",
                    known.join(", ")
                );
                return ExitCode::FAILURE;
            }
        },
        None => LINTS.iter().collect(),
    };

    let mut cache = FileCache::default();
    let mut outcomes: Vec<LintOutcome> = Vec::new();
    for spec in selected {
        let (findings, files_scanned) = match engine::run_lint(spec, &root, &mut cache) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("xtask lint [{}]: {e}", spec.name);
                return ExitCode::FAILURE;
            }
        };
        outcomes.push(LintOutcome {
            name: spec.name,
            description: spec.description,
            files_scanned,
            findings,
        });
    }

    if let Err(e) = write_report(&root, &outcomes) {
        eprintln!("xtask lint: {e}");
        return ExitCode::FAILURE;
    }

    let mut failed = false;
    for o in &outcomes {
        if o.passed() {
            println!(
                "xtask lint [{}]: ok (0 findings, {} file(s))",
                o.name, o.files_scanned
            );
            continue;
        }
        failed = true;
        eprintln!("xtask lint [{}]: {} finding(s):", o.name, o.findings.len());
        for f in &o.findings {
            eprintln!("  {}:{}: `{}` in: {}", f.file, f.line, f.pattern, f.snippet);
        }
        eprintln!(
            "xtask lint [{}]: fix each finding, or justify the site with a\n\
             `lint:allow({})` comment on the line or within 5 lines above",
            o.name, o.name
        );
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn write_report(root: &Path, outcomes: &[LintOutcome]) -> Result<(), String> {
    let dir = root.join("target");
    fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let path = dir.join("lint-report.json");
    fs::write(&path, report::render(outcomes))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// Finds the workspace root regardless of the invoking working
/// directory: walk up from `CARGO_MANIFEST_DIR` (set by `cargo run`) or,
/// when absent (the binary invoked directly), from the current directory,
/// looking for the `Cargo.toml` that declares `[workspace]` and contains
/// this tool's crate. Fails with a clear message otherwise.
fn workspace_root() -> Result<PathBuf, String> {
    let start = std::env::var_os("CARGO_MANIFEST_DIR")
        .map(PathBuf::from)
        .or_else(|| std::env::current_dir().ok())
        .ok_or_else(|| "cannot determine a starting directory".to_string())?;
    for dir in start.ancestors() {
        let manifest = dir.join("Cargo.toml");
        if !manifest.is_file() {
            continue;
        }
        let Ok(text) = fs::read_to_string(&manifest) else {
            continue;
        };
        if text.contains("[workspace]") && dir.join("crates/xtask/Cargo.toml").is_file() {
            return Ok(dir.to_path_buf());
        }
    }
    Err(format!(
        "no workspace root found above {} — run from inside the autockt workspace \
         (the root Cargo.toml declares [workspace] and crates/xtask)",
        start.display()
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workspace_root_is_found_from_the_manifest_dir() {
        // Under `cargo test` CARGO_MANIFEST_DIR points at crates/xtask;
        // discovery must land on the workspace root above it.
        let root = workspace_root().expect("root discoverable");
        assert!(root.join("crates/sim/src").is_dir());
        assert!(root.join("Cargo.toml").is_file());
    }

    /// End-to-end: every lint finds 0 sites in the tree — the same gate
    /// CI enforces, kept close to the code so `cargo test -p xtask`
    /// catches a new finding before CI does.
    #[test]
    fn every_lint_finds_zero_sites() {
        let root = workspace_root().expect("root discoverable");
        let mut cache = FileCache::default();
        for spec in LINTS {
            let (findings, files) = engine::run_lint(spec, &root, &mut cache).expect("lint runs");
            assert!(files > 0, "lint {} scanned no file", spec.name);
            assert!(
                findings.is_empty(),
                "lint {}: {} finding(s): {:#?}",
                spec.name,
                findings.len(),
                findings
            );
        }
    }
}
