//! `sanity` — the project-owned workspace lint pass.
//!
//! `cargo run -p sanity` walks every crate and shim source and enforces
//! the contracts DESIGN.md §7–§11 state in prose: no panics on hot
//! paths, instrumentation behind the runtime gate, the drained-Vec
//! batching contract, all locking through the `parking_lot` shim (so the
//! `check-sync` checker sees it), fault injection confined to the broker
//! layer, and doc/CHANGES hygiene. Known residue is carried in
//! `sanity.allow` (≤ 15 entries, each with a one-line justification);
//! unused allowlist entries are themselves errors so the list can only
//! shrink.
//!
//! The engine is deliberately lexical: comment/string interiors are
//! blanked and `#[cfg(test)]` items excluded before any pattern runs
//! (see [`strip`]), which keeps the tool dependency-free and fast while
//! avoiding the classic grep false positives.

pub mod lints;
pub mod strip;

use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};

/// One lint finding.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Lint name (kebab-case, stable — allowlist entries key on it).
    pub lint: &'static str,
    /// Repo-relative path (unix separators).
    pub path: String,
    /// 1-based line, or 0 for file-level findings.
    pub line: usize,
    /// The offending source line, trimmed.
    pub excerpt: String,
    /// Human explanation.
    pub message: String,
}

impl Violation {
    pub(crate) fn new(
        lint: &'static str,
        path: &str,
        line: usize,
        excerpt: &str,
        message: String,
    ) -> Self {
        Violation {
            lint,
            path: path.to_string(),
            line,
            excerpt: excerpt.trim().to_string(),
            message,
        }
    }
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "[{}] {}:{}", self.lint, self.path, self.line)?;
        if !self.excerpt.is_empty() {
            writeln!(f, "    {}", self.excerpt)?;
        }
        write!(f, "    = {}", self.message)
    }
}

/// Maximum allowlist size; the acceptance contract for this tool.
pub const ALLOWLIST_CAP: usize = 15;

/// One `sanity.allow` entry: `lint | path | line-substring | justification`.
#[derive(Debug, Clone)]
pub struct AllowEntry {
    pub lint: String,
    pub path: String,
    pub fragment: String,
    pub justification: String,
    /// Source line in `sanity.allow` (for unused-entry reports).
    pub source_line: usize,
}

/// Parses `sanity.allow`. Malformed lines are reported as violations
/// against the allowlist file itself.
pub fn parse_allowlist(text: &str, out: &mut Vec<Violation>) -> Vec<AllowEntry> {
    let mut entries = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let parts: Vec<&str> = line.splitn(4, '|').map(str::trim).collect();
        if parts.len() != 4 || parts.iter().any(|p| p.is_empty()) {
            out.push(Violation::new(
                "allowlist",
                "sanity.allow",
                idx + 1,
                raw,
                "malformed entry; expected `lint | path | line-substring | justification`"
                    .to_string(),
            ));
            continue;
        }
        entries.push(AllowEntry {
            lint: parts[0].to_string(),
            path: parts[1].to_string(),
            fragment: parts[2].to_string(),
            justification: parts[3].to_string(),
            source_line: idx + 1,
        });
    }
    if entries.len() > ALLOWLIST_CAP {
        out.push(Violation::new(
            "allowlist",
            "sanity.allow",
            0,
            "",
            format!(
                "{} entries exceed the cap of {ALLOWLIST_CAP}; fix violations instead of \
                 growing the allowlist",
                entries.len()
            ),
        ));
    }
    entries
}

/// Applies the allowlist: suppressed violations are removed, and every
/// entry must suppress at least one finding (stale entries are errors).
pub fn apply_allowlist(violations: Vec<Violation>, allow: &[AllowEntry]) -> Vec<Violation> {
    let mut used = vec![false; allow.len()];
    let mut kept = Vec::new();
    'outer: for v in violations {
        for (i, a) in allow.iter().enumerate() {
            if v.lint == a.lint
                && (v.path == a.path || v.path.ends_with(&a.path))
                && v.excerpt.contains(&a.fragment)
            {
                used[i] = true;
                continue 'outer;
            }
        }
        kept.push(v);
    }
    for (i, a) in allow.iter().enumerate() {
        if !used[i] {
            kept.push(Violation::new(
                "allowlist",
                "sanity.allow",
                a.source_line,
                &format!("{} | {} | {}", a.lint, a.path, a.fragment),
                "stale allowlist entry suppresses nothing; delete it".to_string(),
            ));
        }
    }
    kept
}

/// Lints one source file given its repo-relative unix path.
pub fn lint_source(rel: &str, src: &str) -> Vec<Violation> {
    let mut out = Vec::new();
    lints::lint_file(rel, &strip::preprocess(src), &mut out);
    out
}

/// Walks the workspace under `root` and returns every violation after
/// allowlist application, sorted for stable output.
pub fn run(root: &Path) -> Vec<Violation> {
    let mut violations = Vec::new();

    let mut files = Vec::new();
    for top in ["crates", "shims", "tests", "examples"] {
        collect_rs(&root.join(top), &mut files);
    }
    files.sort();

    for path in &files {
        let rel = unix_rel(root, path);
        // The engine's own fixtures are deliberately bad code.
        if rel.starts_with("crates/sanity/fixtures/") {
            continue;
        }
        match fs::read_to_string(path) {
            Ok(src) => lints::lint_file(&rel, &strip::preprocess(&src), &mut violations),
            Err(e) => violations.push(Violation::new(
                "io",
                &rel,
                0,
                "",
                format!("unreadable source file: {e}"),
            )),
        }
    }

    repo_hygiene(root, &mut violations);

    let allow_text = fs::read_to_string(root.join("sanity.allow")).unwrap_or_default();
    let allow = parse_allowlist(&allow_text, &mut violations);
    let mut final_violations = apply_allowlist(violations, &allow);
    final_violations
        .sort_by(|a, b| (a.path.as_str(), a.line, a.lint).cmp(&(b.path.as_str(), b.line, b.lint)));
    final_violations
}

/// `doc-hygiene`: crate doc headers, CHANGES.md format, DESIGN.md
/// section index, README runbook line, and the workspace lints table
/// opt-in in every member manifest.
fn repo_hygiene(root: &Path, out: &mut Vec<Violation>) {
    for dir in ["crates", "shims"] {
        let Ok(entries) = fs::read_dir(root.join(dir)) else {
            continue;
        };
        for entry in entries.flatten() {
            let crate_dir = entry.path();
            if !crate_dir.is_dir() {
                continue;
            }
            let rel_crate = unix_rel(root, &crate_dir);
            for lib in ["src/lib.rs", "src/main.rs"] {
                let path = crate_dir.join(lib);
                if let Ok(src) = fs::read_to_string(&path) {
                    let first = src.lines().find(|l| !l.trim().is_empty()).unwrap_or("");
                    if !first.trim_start().starts_with("//!") {
                        out.push(Violation::new(
                            "doc-hygiene",
                            &unix_rel(root, &path),
                            1,
                            first,
                            "crate root must open with a `//!` doc header".to_string(),
                        ));
                    }
                }
            }
            let manifest = crate_dir.join("Cargo.toml");
            if let Ok(toml) = fs::read_to_string(&manifest) {
                if !toml.contains("[lints]") || !toml.contains("workspace = true") {
                    out.push(Violation::new(
                        "doc-hygiene",
                        &unix_rel(root, &manifest),
                        0,
                        "",
                        format!(
                            "{rel_crate}/Cargo.toml must opt into the workspace lints table \
                             (`[lints]\\nworkspace = true`)"
                        ),
                    ));
                }
            }
        }
    }

    match fs::read_to_string(root.join("CHANGES.md")) {
        Ok(changes) => {
            // A change line, or a fault seen and not (or since) mended.
            let kinds = ["PR ", "FOUND:", "MENDED:"];
            for (idx, line) in changes.lines().enumerate() {
                if !line.trim().is_empty() && !kinds.iter().any(|k| line.starts_with(k)) {
                    out.push(Violation::new(
                        "doc-hygiene",
                        "CHANGES.md",
                        idx + 1,
                        line,
                        "every CHANGES.md line must start with `PR <n> (<archetype>):`, `FOUND:` or `MENDED:`"
                            .to_string(),
                    ));
                }
            }
        }
        Err(_) => out.push(Violation::new(
            "doc-hygiene",
            "CHANGES.md",
            0,
            "",
            "CHANGES.md is missing".to_string(),
        )),
    }

    if let Ok(design) = fs::read_to_string(root.join("DESIGN.md")) {
        for section in ["## 7.", "## 8.", "## 9.", "## 10.", "## 11."] {
            if !design.contains(section) {
                out.push(Violation::new(
                    "doc-hygiene",
                    "DESIGN.md",
                    0,
                    "",
                    format!("missing `{section}` section"),
                ));
            }
        }
    }

    if let Ok(readme) = fs::read_to_string(root.join("README.md")) {
        if !readme.contains("cargo run -p sanity") {
            out.push(Violation::new(
                "doc-hygiene",
                "README.md",
                0,
                "",
                "README must document the `cargo run -p sanity` lint pass".to_string(),
            ));
        }
    }
}

/// Recursively collects `.rs` files (skipping `target/`).
fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            if path.file_name().is_some_and(|n| n == "target") {
                continue;
            }
            collect_rs(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Repo-relative path with `/` separators.
fn unix_rel(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .to_string_lossy()
        .replace('\\', "/")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allowlist_suppresses_and_flags_stale() {
        let mut parse_errors = Vec::new();
        let allow = parse_allowlist(
            "# comment\n\
             hot-path-panic | crates/x/src/a.rs | .unwrap() | bounded by caller\n\
             obs-gate | crates/x/src/b.rs | never-matches | stale\n",
            &mut parse_errors,
        );
        assert!(parse_errors.is_empty());
        assert_eq!(allow.len(), 2);
        let v = vec![Violation::new(
            "hot-path-panic",
            "crates/x/src/a.rs",
            3,
            "let y = x.unwrap();",
            "m".to_string(),
        )];
        let kept = apply_allowlist(v, &allow);
        assert_eq!(kept.len(), 1, "stale entry must surface: {kept:?}");
        assert_eq!(kept[0].lint, "allowlist");
        assert!(kept[0].message.contains("stale"));
    }

    #[test]
    fn malformed_allowlist_line_is_reported() {
        let mut errors = Vec::new();
        parse_allowlist("only | three | fields\n", &mut errors);
        assert_eq!(errors.len(), 1);
        assert_eq!(errors[0].lint, "allowlist");
    }
}
