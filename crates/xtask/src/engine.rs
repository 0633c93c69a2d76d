//! The lint engine: file collection and lint execution.

use std::collections::BTreeMap;
use std::fs;
use std::path::Path;

use crate::lints::{self, Finding, LintSpec, LINTS};
use crate::source::SourceFile;

/// One lint's run: what it scanned and what it found. A lint passes
/// with no findings; a deliberate exception is not a finding, because
/// its `lint:allow(<name>)` comment suppresses it.
pub struct LintOutcome {
    pub name: &'static str,
    pub description: &'static str,
    pub files_scanned: usize,
    pub findings: Vec<Finding>,
}

impl LintOutcome {
    /// Whether the lint found nothing.
    pub fn passed(&self) -> bool {
        self.findings.is_empty()
    }
}

/// Lexed-file cache shared by all lints in one invocation.
#[derive(Default)]
pub struct FileCache {
    files: BTreeMap<String, SourceFile>,
}

impl FileCache {
    fn get(&mut self, root: &Path, rel: &str) -> Result<&SourceFile, String> {
        if !self.files.contains_key(rel) {
            let abs = root.join(rel);
            let src = fs::read_to_string(&abs)
                .map_err(|e| format!("cannot read {}: {e}", abs.display()))?;
            self.files
                .insert(rel.to_string(), SourceFile::new(rel.to_string(), src));
        }
        Ok(&self.files[rel])
    }
}

/// Collects `.rs` files under `root/<rel_root>`, skipping any `bin`
/// directory (executable entry points are not library code). Paths come
/// back workspace-relative with forward slashes, sorted.
pub fn collect_lib_sources(root: &Path, rel_root: &str, skip_bin: bool) -> Vec<String> {
    let mut out = Vec::new();
    walk(&root.join(rel_root), root, skip_bin, &mut out);
    out.sort();
    out
}

fn walk(dir: &Path, root: &Path, skip_bin: bool, out: &mut Vec<String>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            if skip_bin && path.file_name().is_some_and(|n| n == "bin") {
                continue;
            }
            walk(&path, root, skip_bin, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .to_string_lossy()
                .replace('\\', "/");
            out.push(rel);
        }
    }
}

/// Runs one lint (by spec) over the workspace, returning its findings and
/// the number of files scanned.
pub fn run_lint(
    spec: &LintSpec,
    root: &Path,
    cache: &mut FileCache,
) -> Result<(Vec<Finding>, usize), String> {
    if spec.name == "crate-layering" {
        return run_layering(root, cache);
    }
    let mut findings = Vec::new();
    let mut scanned = 0usize;
    for rel_root in spec.roots {
        for rel in collect_lib_sources(root, rel_root, true) {
            let file = cache.get(root, &rel)?;
            findings.extend(lints::scan_file(spec.name, file));
            scanned += 1;
        }
    }
    Ok((findings, scanned))
}

/// The layering lint walks per crate: its manifest plus its whole `src`
/// tree (`bin` targets included — an import in a binary is still an
/// edge).
fn run_layering(root: &Path, cache: &mut FileCache) -> Result<(Vec<Finding>, usize), String> {
    let mut findings = Vec::new();
    let mut scanned = 0usize;
    for (crate_name, dir) in lints::CRATE_DIRS {
        let manifest_rel = if *dir == "." {
            "Cargo.toml".to_string()
        } else {
            format!("{dir}/Cargo.toml")
        };
        let manifest_path = root.join(&manifest_rel);
        let toml = fs::read_to_string(&manifest_path)
            .map_err(|e| format!("cannot read {}: {e}", manifest_path.display()))?;
        findings.extend(lints::manifest_edges(crate_name, &manifest_rel, &toml));
        scanned += 1;
        let src_root = if *dir == "." {
            "src".to_string()
        } else {
            format!("{dir}/src")
        };
        for rel in collect_lib_sources(root, &src_root, false) {
            let file = cache.get(root, &rel)?;
            findings.extend(lints::source_edges(crate_name, file));
            scanned += 1;
        }
    }
    Ok((findings, scanned))
}

/// Looks up a lint spec by name.
pub fn spec_by_name(name: &str) -> Option<&'static LintSpec> {
    LINTS.iter().find(|s| s.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn collect_skips_bin_when_asked() {
        // The engine's own workspace: bench has src/bin with many mains.
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let with_bin = collect_lib_sources(&root, "crates/bench/src", false);
        let without = collect_lib_sources(&root, "crates/bench/src", true);
        assert!(with_bin.len() > without.len());
        assert!(without.iter().all(|p| !p.contains("/bin/")));
        assert!(with_bin.iter().any(|p| p.contains("/bin/")));
    }
}
