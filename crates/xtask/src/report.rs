//! Machine-readable lint report (`target/lint-report.json`).
//!
//! Hand-rolled JSON (the workspace builds offline, without serde). The
//! schema is small; its `schema` number goes up whenever a field changes
//! meaning or goes away. Consumers: the CI artifact upload and any
//! tooling that wants per-lint finding lists without re-running the
//! scan.

use std::fmt::Write as _;

use crate::engine::LintOutcome;

/// Escapes a string for a JSON string literal.
fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Renders the full report document.
pub fn render(outcomes: &[LintOutcome]) -> String {
    let mut s = String::new();
    s.push_str("{\n  \"schema\": 2,\n  \"lints\": [\n");
    for (li, o) in outcomes.iter().enumerate() {
        let _ = writeln!(s, "    {{");
        let _ = writeln!(s, "      \"name\": \"{}\",", esc(o.name));
        let _ = writeln!(s, "      \"description\": \"{}\",", esc(o.description));
        let status = if o.passed() { "ok" } else { "failed" };
        let _ = writeln!(s, "      \"status\": \"{status}\",");
        let _ = writeln!(s, "      \"files_scanned\": {},", o.files_scanned);
        let _ = writeln!(s, "      \"total\": {},", o.findings.len());
        let _ = writeln!(s, "      \"findings\": [");
        for (fi, f) in o.findings.iter().enumerate() {
            let comma = if fi + 1 < o.findings.len() { "," } else { "" };
            let _ = writeln!(
                s,
                "        {{\"file\": \"{}\", \"line\": {}, \"pattern\": \"{}\", \"snippet\": \"{}\"}}{comma}",
                esc(&f.file),
                f.line,
                esc(&f.pattern),
                esc(&f.snippet)
            );
        }
        let comma = if li + 1 < outcomes.len() { "," } else { "" };
        let _ = writeln!(s, "      ]");
        let _ = writeln!(s, "    }}{comma}");
    }
    s.push_str("  ]\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::LintOutcome;
    use crate::lints::Finding;

    #[test]
    fn report_is_valid_enough_json() {
        let outcomes = vec![LintOutcome {
            name: "panic",
            description: "desc with \"quotes\"",
            files_scanned: 3,
            findings: vec![Finding {
                file: "crates/a/src/lib.rs".into(),
                line: 7,
                pattern: ".unwrap()".into(),
                snippet: "let x = y.unwrap(); // \"quoted\"".into(),
            }],
        }];
        let doc = render(&outcomes);
        assert!(doc.contains("\"schema\": 2"));
        assert!(doc.contains("\"status\": \"failed\""));
        assert!(doc.contains("\"total\": 1"));
        assert!(!doc.contains("baseline"));
        assert!(doc.contains("\\\"quotes\\\""));
        assert!(doc.contains("\"line\": 7"));
        // Balanced braces/brackets as a cheap well-formedness check.
        let opens = doc.matches('{').count() + doc.matches('[').count();
        let closes = doc.matches('}').count() + doc.matches(']').count();
        assert_eq!(opens, closes);
    }

    #[test]
    fn escapes_control_characters() {
        assert_eq!(esc("a\tb\nc"), "a\\tb\\nc");
        assert_eq!(esc("\u{1}"), "\\u0001");
    }
}
