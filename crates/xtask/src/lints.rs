//! The lint suite: six token-level lints over the workspace.
//!
//! | name             | scope                         | what it catches |
//! |------------------|-------------------------------|-----------------|
//! | `panic`          | all library code              | `.unwrap()`, `.expect(`, `panic!`, `unreachable!`, `todo!`, `unimplemented!` |
//! | `kernel-purity`  | `crates/sim`, `crates/circuits` | `println!`-family, `dbg!`, `std::io`, `std::fs`, `Instant`, `SystemTime` |
//! | `crate-layering` | every crate's manifest + sources | `autockt_*` dependency edges outside the allowed DAG |
//! | `float-eq`       | all library code              | `==`/`!=` against a float literal |
//! | `thread-discipline` | all library code           | `thread::spawn`/`thread::scope` outside the rollout collector |
//! | `unsafe-confinement` | all library code          | `unsafe` outside the MLP's GEMM kernels |
//!
//! Every lint skips test-gated code (see [`crate::source`]) and honors
//! `lint:allow(<name>)` justification comments. Library code means
//! `src/` trees excluding `src/bin/` (executable entry points may panic
//! on setup failure by design).

use crate::lexer::TokenKind;
use crate::source::SourceFile;

/// One un-suppressed lint finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Workspace-relative path, forward slashes.
    pub file: String,
    /// 1-based line.
    pub line: usize,
    /// Short machine-ish pattern name (e.g. `.unwrap()`, `std::fs`).
    pub pattern: String,
    /// Trimmed source line for human output.
    pub snippet: String,
}

/// Static description of one lint.
pub struct LintSpec {
    pub name: &'static str,
    pub description: &'static str,
    /// Source roots scanned (workspace-relative). Empty for lints with a
    /// custom walk (crate-layering).
    pub roots: &'static [&'static str],
}

/// Library-code roots: every workspace crate's `src` tree plus the root
/// facade. `crates/xtask` is excluded (the lint tool itself spells its
/// patterns out) and `src/bin/` subtrees are filtered at collection.
pub const LIB_ROOTS: &[&str] = &[
    "src",
    "crates/sim/src",
    "crates/circuits/src",
    "crates/core/src",
    "crates/rl/src",
    "crates/baselines/src",
    "crates/bench/src",
];

/// Deterministic-kernel roots for `kernel-purity`.
pub const KERNEL_ROOTS: &[&str] = &["crates/sim/src", "crates/circuits/src"];

pub const LINTS: &[LintSpec] = &[
    LintSpec {
        name: "panic",
        description: "panicking escape hatches in library code (.unwrap/.expect/panic!/unreachable!/todo!/unimplemented!)",
        roots: LIB_ROOTS,
    },
    LintSpec {
        name: "kernel-purity",
        description: "side effects or wall-clock access in the deterministic evaluation kernel (println!/dbg!/std::io/std::fs/Instant/SystemTime)",
        roots: KERNEL_ROOTS,
    },
    LintSpec {
        name: "crate-layering",
        description: "autockt_* dependency edges outside the allowed DAG sim <- circuits <- {core, rl} <- {baselines, bench}",
        roots: &[],
    },
    LintSpec {
        name: "float-eq",
        description: "==/!= comparison against a float literal in library code",
        roots: LIB_ROOTS,
    },
    LintSpec {
        name: "thread-discipline",
        description: "raw thread::spawn/thread::scope outside the rollout collector",
        roots: LIB_ROOTS,
    },
    LintSpec {
        name: "unsafe-confinement",
        description: "unsafe code outside the MLP's run-time-dispatched GEMM kernels",
        roots: LIB_ROOTS,
    },
];

/// The only library file allowed to touch raw thread entry points: the
/// rollout collector, which spawns the rollout workers and the PPO
/// update's second lane. That lane runs only when the process-wide budget
/// in `autockt_sim::par` is at least 2. The simulator runs every analysis
/// on the calling thread, so the collector is the one place threads start.
pub const THREAD_ALLOWED_FILES: &[&str] = &["crates/rl/src/rollout.rs"];

/// The only library file allowed to hold `unsafe`: the MLP, whose GEMM
/// walker calls its AVX2 build after checking the CPU supports it.
pub const UNSAFE_ALLOWED_FILES: &[&str] = &["crates/rl/src/mlp.rs"];

/// The allow marker for a lint name: `lint:allow(<name>)`.
pub fn allow_marker(name: &str) -> String {
    format!("lint:allow({name})")
}

/// Runs the named per-file lint over one source file. `crate-layering`
/// has its own entry points ([`manifest_edges`] / [`source_edges`]).
pub fn scan_file(lint: &str, file: &SourceFile) -> Vec<Finding> {
    match lint {
        "panic" => scan_panic(file),
        "kernel-purity" => scan_purity(file),
        "float-eq" => scan_float_eq(file),
        "thread-discipline" => scan_thread_discipline(file),
        "unsafe-confinement" => scan_unsafe_confinement(file),
        other => unreachable!("unknown per-file lint {other}"),
    }
}

fn push(file: &SourceFile, out: &mut Vec<Finding>, lint: &str, line: usize, pattern: &str) {
    if !file.allowed(line, &allow_marker(lint)) {
        out.push(Finding {
            file: file.rel.clone(),
            line,
            pattern: pattern.to_string(),
            snippet: file.line_text(line).to_string(),
        });
    }
}

/// `panic` lint: token-aware panic-family patterns in non-test code.
pub fn scan_panic(file: &SourceFile) -> Vec<Finding> {
    const MACROS: [&str; 4] = ["panic", "unreachable", "todo", "unimplemented"];
    let mut out = Vec::new();
    let n = file.code.len();
    for i in 0..n {
        if file.in_test[i] {
            continue;
        }
        let kind = file.code_kind(i);
        let text = file.code_text(i);
        if kind == TokenKind::Ident {
            if MACROS.contains(&text) && i + 1 < n && file.code_text(i + 1) == "!" {
                push(
                    file,
                    &mut out,
                    "panic",
                    file.code_line(i),
                    &format!("{text}!"),
                );
            }
            if (text == "unwrap" || text == "expect")
                && i >= 1
                && file.code_text(i - 1) == "."
                && i + 1 < n
                && file.code_text(i + 1) == "("
            {
                // `.unwrap()` needs the immediate close paren; `.expect(`
                // takes an argument so the open paren is enough.
                let hit = text == "expect" || (i + 2 < n && file.code_text(i + 2) == ")");
                if hit {
                    let pattern = if text == "expect" {
                        ".expect(".to_string()
                    } else {
                        ".unwrap()".to_string()
                    };
                    push(file, &mut out, "panic", file.code_line(i), &pattern);
                }
            }
        }
    }
    out
}

/// `kernel-purity` lint: I/O, logging, and wall-clock access in the
/// deterministic kernel crates.
pub fn scan_purity(file: &SourceFile) -> Vec<Finding> {
    const IO_MACROS: [&str; 5] = ["println", "eprintln", "print", "eprint", "dbg"];
    const STD_MODS: [&str; 2] = ["io", "fs"];
    const CLOCK_TYPES: [&str; 2] = ["Instant", "SystemTime"];
    let mut out = Vec::new();
    let n = file.code.len();
    for i in 0..n {
        if file.in_test[i] || file.code_kind(i) != TokenKind::Ident {
            continue;
        }
        let text = file.code_text(i);
        if IO_MACROS.contains(&text) && i + 1 < n && file.code_text(i + 1) == "!" {
            push(
                file,
                &mut out,
                "kernel-purity",
                file.code_line(i),
                &format!("{text}!"),
            );
        } else if text == "std"
            && i + 2 < n
            && file.code_text(i + 1) == "::"
            && file.code_kind(i + 2) == TokenKind::Ident
            && STD_MODS.contains(&file.code_text(i + 2))
        {
            push(
                file,
                &mut out,
                "kernel-purity",
                file.code_line(i),
                &format!("std::{}", file.code_text(i + 2)),
            );
        } else if CLOCK_TYPES.contains(&text) {
            push(file, &mut out, "kernel-purity", file.code_line(i), text);
        }
    }
    out
}

/// `float-eq` lint: `==` or `!=` with a float literal on either side in
/// non-test code (a unary minus before the literal is looked through).
pub fn scan_float_eq(file: &SourceFile) -> Vec<Finding> {
    let is_float = |i: usize| matches!(file.code_kind(i), TokenKind::Number { float: true });
    let mut out = Vec::new();
    let n = file.code.len();
    for i in 0..n {
        if file.in_test[i] || file.code_kind(i) != TokenKind::Punct {
            continue;
        }
        let op = file.code_text(i);
        if op != "==" && op != "!=" {
            continue;
        }
        let lhs = i >= 1 && is_float(i - 1);
        let rhs = (i + 1 < n && is_float(i + 1))
            || (i + 2 < n && file.code_text(i + 1) == "-" && is_float(i + 2));
        if lhs || rhs {
            push(
                file,
                &mut out,
                "float-eq",
                file.code_line(i),
                &format!("{op} float literal"),
            );
        }
    }
    out
}

/// `thread-discipline` lint: raw `thread::spawn` / `thread::scope`
/// (plain or `std::`-qualified, call sites and imports alike) in
/// non-test library code outside [`THREAD_ALLOWED_FILES`]. Ad-hoc
/// threads bypass the process-wide thread budget, so parallelism belongs
/// in the rollout collector, whose second lane reads it.
pub fn scan_thread_discipline(file: &SourceFile) -> Vec<Finding> {
    if THREAD_ALLOWED_FILES.contains(&file.rel.as_str()) {
        return Vec::new();
    }
    const ENTRY_POINTS: [&str; 2] = ["spawn", "scope"];
    let mut out = Vec::new();
    let n = file.code.len();
    for i in 0..n {
        if file.in_test[i] || file.code_kind(i) != TokenKind::Ident {
            continue;
        }
        if file.code_text(i) != "thread" {
            continue;
        }
        if i + 2 < n
            && file.code_text(i + 1) == "::"
            && file.code_kind(i + 2) == TokenKind::Ident
            && ENTRY_POINTS.contains(&file.code_text(i + 2))
        {
            push(
                file,
                &mut out,
                "thread-discipline",
                file.code_line(i),
                &format!("thread::{}", file.code_text(i + 2)),
            );
        }
    }
    out
}

/// `unsafe-confinement` lint: the `unsafe` keyword (blocks, functions,
/// impls alike) in non-test library code outside
/// [`UNSAFE_ALLOWED_FILES`], so that every `unsafe` site sits in the one
/// module whose safety argument has been made.
pub fn scan_unsafe_confinement(file: &SourceFile) -> Vec<Finding> {
    if UNSAFE_ALLOWED_FILES.contains(&file.rel.as_str()) {
        return Vec::new();
    }
    let mut out = Vec::new();
    for i in 0..file.code.len() {
        if !file.in_test[i]
            && file.code_kind(i) == TokenKind::Ident
            && file.code_text(i) == "unsafe"
        {
            push(
                file,
                &mut out,
                "unsafe-confinement",
                file.code_line(i),
                "unsafe",
            );
        }
    }
    out
}

// ---------------------------------------------------------------------
// crate-layering
// ---------------------------------------------------------------------

/// The allowed dependency DAG between workspace crates, as adjacency:
/// `(crate, allowed autockt_* dependencies)`. The layering reads
/// `sim <- circuits <- {core, rl} <- {baselines, bench}`, with `rl`
/// additionally kept sim-agnostic (it is pure RL machinery) and the
/// `autockt` facade re-exporting everything. Any edge not listed — in a
/// `Cargo.toml` `[dependencies]`/`[build-dependencies]` section or as an
/// `autockt_*` path in source — is a lint finding.
pub const ALLOWED_EDGES: &[(&str, &[&str])] = &[
    ("autockt_sim", &[]),
    ("autockt_rl", &[]),
    ("autockt_circuits", &["autockt_sim"]),
    (
        "autockt_core",
        &["autockt_sim", "autockt_circuits", "autockt_rl"],
    ),
    (
        "autockt_baselines",
        &[
            "autockt_sim",
            "autockt_circuits",
            "autockt_core",
            "autockt_rl",
        ],
    ),
    (
        "autockt_bench",
        &[
            "autockt_sim",
            "autockt_circuits",
            "autockt_core",
            "autockt_rl",
            "autockt_baselines",
        ],
    ),
    (
        "autockt",
        &[
            "autockt_sim",
            "autockt_circuits",
            "autockt_core",
            "autockt_rl",
            "autockt_baselines",
        ],
    ),
    ("xtask", &[]),
];

/// `(crate name, workspace-relative crate dir)` for every audited crate.
pub const CRATE_DIRS: &[(&str, &str)] = &[
    ("autockt", "."),
    ("autockt_sim", "crates/sim"),
    ("autockt_circuits", "crates/circuits"),
    ("autockt_core", "crates/core"),
    ("autockt_rl", "crates/rl"),
    ("autockt_baselines", "crates/baselines"),
    ("autockt_bench", "crates/bench"),
    ("xtask", "crates/xtask"),
];

fn edge_allowed(from: &str, to: &str) -> bool {
    ALLOWED_EDGES
        .iter()
        .find(|(c, _)| *c == from)
        .is_some_and(|(_, deps)| deps.contains(&to))
}

/// Scans a `Cargo.toml` for `autockt_*` keys in dependency sections and
/// reports edges outside the allowed DAG. `rel` is the manifest's
/// workspace-relative path. Suppression uses TOML `#` comments carrying
/// the `lint:allow(crate-layering)` marker within the usual window.
pub fn manifest_edges(crate_name: &str, rel: &str, toml: &str) -> Vec<Finding> {
    let marker = allow_marker("crate-layering");
    let lines: Vec<&str> = toml.lines().collect();
    let mut out = Vec::new();
    let mut in_dep_section = false;
    for (idx, raw) in lines.iter().enumerate() {
        let line = raw.trim();
        if line.starts_with('[') {
            // `[dependencies]`, `[build-dependencies]`, and any
            // `[target.….dependencies]` variant count; `[dev-dependencies]`
            // does not (test-only edges cannot invert runtime layering —
            // cargo itself rejects dependency cycles).
            in_dep_section = (line.ends_with("dependencies]")
                || line.ends_with("build-dependencies]"))
                && !line.ends_with("dev-dependencies]");
            continue;
        }
        if !in_dep_section {
            continue;
        }
        let Some(key) = line.split(['=', '.']).next().map(str::trim) else {
            continue;
        };
        if !key.starts_with("autockt") || edge_allowed(crate_name, key) {
            continue;
        }
        let allowed = (idx.saturating_sub(crate::source::ALLOW_WINDOW)..=idx)
            .any(|k| lines[k].trim_start().starts_with('#') && lines[k].contains(&marker));
        if !allowed {
            out.push(Finding {
                file: rel.to_string(),
                line: idx + 1,
                pattern: format!("{crate_name} -> {key}"),
                snippet: line.to_string(),
            });
        }
    }
    out
}

/// Scans one source file belonging to `crate_name` for `autockt_*`
/// identifiers that name a crate outside the allowed DAG. Test code is
/// *not* exempt: an import in a test still requires the dependency edge.
pub fn source_edges(crate_name: &str, file: &SourceFile) -> Vec<Finding> {
    let mut out = Vec::new();
    for i in 0..file.code.len() {
        if file.code_kind(i) != TokenKind::Ident {
            continue;
        }
        let text = file.code_text(i);
        if !text.starts_with("autockt") || text == crate_name {
            continue;
        }
        // Only idents that actually name a workspace crate are edges.
        if !CRATE_DIRS.iter().any(|(name, _)| *name == text) {
            continue;
        }
        if edge_allowed(crate_name, text) {
            continue;
        }
        let line = file.code_line(i);
        if !file.allowed(line, &allow_marker("crate-layering")) {
            out.push(Finding {
                file: file.rel.clone(),
                line,
                pattern: format!("{crate_name} -> {text}"),
                snippet: file.line_text(line).to_string(),
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;

    fn fixture(rel: &str) -> SourceFile {
        let path = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("fixtures")
            .join(rel);
        let src = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("fixture {} unreadable: {e}", path.display()));
        SourceFile::new(rel.to_string(), src)
    }

    fn fixture_text(rel: &str) -> String {
        let path = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("fixtures")
            .join(rel);
        std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("fixture {} unreadable: {e}", path.display()))
    }

    // ---- panic ----

    #[test]
    fn panic_firing_fixture() {
        let findings = scan_panic(&fixture("panic/firing.rs"));
        let patterns: Vec<&str> = findings.iter().map(|f| f.pattern.as_str()).collect();
        assert_eq!(
            patterns,
            vec![
                ".unwrap()",
                ".expect(",
                "panic!",
                "unreachable!",
                "todo!",
                "unimplemented!",
            ]
        );
    }

    #[test]
    fn panic_allowed_fixture() {
        assert_eq!(scan_panic(&fixture("panic/allowed.rs")), vec![]);
    }

    #[test]
    fn panic_clean_fixture() {
        // The clean fixture packs the historical false positives: panic
        // patterns inside strings, raw strings, comments, `'{'`/`"}"`
        // literals around a `#[cfg(test)]` module, and unwraps inside
        // that module. None may fire.
        assert_eq!(scan_panic(&fixture("panic/clean.rs")), vec![]);
    }

    #[test]
    fn panic_in_string_literal_is_not_counted() {
        let f = SourceFile::new(
            "x.rs".into(),
            "fn f() -> &'static str { \"never panic!(now) or .unwrap()\" }\n".into(),
        );
        assert_eq!(scan_panic(&f), vec![]);
    }

    #[test]
    fn string_brace_desync_regression() {
        // Exactly the shape that desynced the line-based scanner: a `"}"`
        // string inside a `#[cfg(test)]` module made it "close" early, so
        // the module's unwraps were reported. The library-level unwrap
        // after the module must be the only finding.
        let findings = scan_panic(&fixture("panic/brace_desync.rs"));
        assert_eq!(findings.len(), 1, "findings: {findings:?}");
        assert!(findings[0].snippet.contains("the_only_real_finding"));
    }

    #[test]
    fn unwrap_or_variants_are_not_unwrap() {
        let f = SourceFile::new(
            "x.rs".into(),
            "fn f(x: Option<u8>) -> u8 { x.unwrap_or(0).min(x.unwrap_or_else(|| 1)) }\n".into(),
        );
        assert_eq!(scan_panic(&f), vec![]);
    }

    // ---- kernel-purity ----

    #[test]
    fn purity_firing_fixture() {
        let findings = scan_purity(&fixture("kernel-purity/firing.rs"));
        let patterns: Vec<&str> = findings.iter().map(|f| f.pattern.as_str()).collect();
        assert_eq!(
            patterns,
            vec![
                "println!",
                "eprintln!",
                "dbg!",
                "std::fs",
                "std::io",
                "Instant",
                "SystemTime"
            ]
        );
    }

    #[test]
    fn purity_allowed_fixture() {
        assert_eq!(scan_purity(&fixture("kernel-purity/allowed.rs")), vec![]);
    }

    #[test]
    fn purity_clean_fixture() {
        // println! in test modules and in doc comments is fine; fmt::Write
        // and std::sync are not I/O.
        assert_eq!(scan_purity(&fixture("kernel-purity/clean.rs")), vec![]);
    }

    // ---- float-eq ----

    #[test]
    fn float_eq_firing_fixture() {
        let findings = scan_float_eq(&fixture("float-eq/firing.rs"));
        assert_eq!(findings.len(), 4, "findings: {findings:?}");
    }

    #[test]
    fn float_eq_allowed_fixture() {
        assert_eq!(scan_float_eq(&fixture("float-eq/allowed.rs")), vec![]);
    }

    #[test]
    fn float_eq_clean_fixture() {
        // Integer equality, float comparisons against variables, and
        // float-literal equality inside tests are all fine.
        assert_eq!(scan_float_eq(&fixture("float-eq/clean.rs")), vec![]);
    }

    // ---- thread-discipline ----

    #[test]
    fn thread_discipline_firing_fixture() {
        let findings = scan_thread_discipline(&fixture("thread-discipline/firing.rs"));
        let patterns: Vec<&str> = findings.iter().map(|f| f.pattern.as_str()).collect();
        assert_eq!(
            patterns,
            vec!["thread::spawn", "thread::spawn", "thread::scope"]
        );
    }

    #[test]
    fn thread_discipline_allowed_fixture() {
        assert_eq!(
            scan_thread_discipline(&fixture("thread-discipline/allowed.rs")),
            vec![]
        );
    }

    #[test]
    fn thread_discipline_clean_fixture() {
        assert_eq!(
            scan_thread_discipline(&fixture("thread-discipline/clean.rs")),
            vec![]
        );
    }

    #[test]
    fn thread_discipline_exempts_only_the_collector() {
        for rel in THREAD_ALLOWED_FILES {
            let f = SourceFile::new(
                (*rel).to_string(),
                "pub fn run() { std::thread::scope(|_s| {}); }\n".into(),
            );
            assert_eq!(scan_thread_discipline(&f), vec![], "{rel} must be exempt");
        }
        // The same source anywhere else fires, the thread-budget module
        // included.
        for rel in ["crates/sim/src/ac.rs", "crates/sim/src/par.rs"] {
            let f = SourceFile::new(
                rel.into(),
                "pub fn run() { std::thread::scope(|_s| {}); }\n".into(),
            );
            assert_eq!(scan_thread_discipline(&f).len(), 1, "{rel} must fire");
        }
    }

    // ---- unsafe-confinement ----

    #[test]
    fn unsafe_confinement_reports_unsafe_outside_the_mlp() {
        let src = "/// No `unsafe` in prose.\n\
                   pub fn f(p: *const u8) -> u8 {\n    \
                   let _s = \"unsafe\";\n    \
                   unsafe { *p }\n\
                   }\n\
                   #[cfg(test)]\n\
                   mod tests {\n    \
                   fn g(p: *const u8) -> u8 { unsafe { *p } }\n\
                   }\n";
        for rel in UNSAFE_ALLOWED_FILES {
            let f = SourceFile::new((*rel).to_string(), src.into());
            assert_eq!(scan_unsafe_confinement(&f), vec![], "{rel} must be exempt");
        }
        let f = SourceFile::new("crates/rl/src/ppo.rs".into(), src.into());
        let findings = scan_unsafe_confinement(&f);
        let lines: Vec<usize> = findings.iter().map(|f| f.line).collect();
        assert_eq!(lines, vec![4], "findings: {findings:?}");
        let allowed = "// lint:allow(unsafe-confinement) -- justified here.\n\
                       unsafe fn h() {}\n";
        let f = SourceFile::new("crates/sim/src/lu.rs".into(), allowed.into());
        assert_eq!(scan_unsafe_confinement(&f), vec![]);
    }

    // ---- crate-layering ----

    #[test]
    fn layering_manifest_firing_fixture() {
        let findings = manifest_edges(
            "autockt_rl",
            "crates/rl/Cargo.toml",
            &fixture_text("crate-layering/firing.toml"),
        );
        let patterns: Vec<&str> = findings.iter().map(|f| f.pattern.as_str()).collect();
        assert_eq!(patterns, vec!["autockt_rl -> autockt_bench"]);
    }

    #[test]
    fn layering_manifest_allowed_fixture() {
        assert_eq!(
            manifest_edges(
                "autockt_rl",
                "crates/rl/Cargo.toml",
                &fixture_text("crate-layering/allowed.toml"),
            ),
            vec![]
        );
    }

    #[test]
    fn layering_manifest_clean_fixture() {
        assert_eq!(
            manifest_edges(
                "autockt_core",
                "crates/core/Cargo.toml",
                &fixture_text("crate-layering/clean.toml"),
            ),
            vec![]
        );
    }

    #[test]
    fn layering_source_use_is_an_edge() {
        let f = SourceFile::new(
            "crates/sim/src/bad.rs".into(),
            "use autockt_circuits::Tia;\n".into(),
        );
        let findings = source_edges("autockt_sim", &f);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].pattern, "autockt_sim -> autockt_circuits");
    }

    #[test]
    fn layering_doc_mention_is_not_an_edge() {
        let f = SourceFile::new(
            "crates/sim/src/lib.rs".into(),
            "//! Pairs with [`autockt_circuits`] one layer up.\nfn f() {}\n".into(),
        );
        assert_eq!(source_edges("autockt_sim", &f), vec![]);
    }

    #[test]
    fn layering_dev_dependencies_are_exempt() {
        let toml = "[dev-dependencies]\nautockt_bench = { path = \"../bench\" }\n";
        assert_eq!(manifest_edges("autockt_rl", "x", toml), vec![]);
    }

    #[test]
    fn the_checked_in_dag_is_acyclic_and_closed() {
        // Self-check on the table: every allowed dep is itself a known
        // crate, never the crate itself, and the relation has no cycles.
        for (c, deps) in ALLOWED_EDGES {
            for d in *deps {
                assert_ne!(c, d);
                assert!(ALLOWED_EDGES.iter().any(|(k, _)| k == d), "unknown dep {d}");
            }
        }
        fn reaches(from: &str, to: &str) -> bool {
            let deps = ALLOWED_EDGES
                .iter()
                .find(|(c, _)| *c == from)
                .map(|(_, d)| *d)
                .unwrap_or(&[]);
            deps.iter().any(|&d| d == to || reaches(d, to))
        }
        for (c, _) in ALLOWED_EDGES {
            assert!(!reaches(c, c), "cycle through {c}");
        }
    }
}
