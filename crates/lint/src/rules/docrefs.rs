//! R4 — doc cross-reference integrity: backticked file paths and
//! `module::path` references in the design docs must resolve against the
//! workspace.
//!
//! The repo's docs promise "every claim in `docs/paper_map.md` names the
//! code that implements it". A rename that nobody grepped for turns that
//! promise into quiet rot: the doc still reads confidently, the path it
//! names no longer exists. This rule re-checks the promise on every run:
//!
//! - **file references** — a backticked span containing `/` with a known
//!   extension (or a trailing slash for directories) must name a file
//!   that exists. `{a,b}` brace groups expand
//!   (`crates/pathsearch/src/{alt,bidirectional}.rs` checks both files).
//! - **module paths** — a backticked span matching the strict grammar
//!   `ident(::ident)*(::{id, id, …})?` (optionally suffixed `()` or `!`)
//!   must have every segment appear as an identifier somewhere in the
//!   workspace's Rust sources. That catches renamed types and modules
//!   without needing name resolution: if `SharingPolicy` is gone from
//!   the code, it is gone from the ident index too.
//!
//! Spans inside fenced code blocks are prose illustrations, not
//! references, and are skipped. Spans that fit neither grammar (shell
//! fragments, flag names, type signatures with generics) are ignored —
//! the rule is deliberately conservative: no false alarms on docs that
//! merely *look* path-like.

use crate::rules::RawViolation;
use std::collections::BTreeSet;

/// What doc references resolve against: the workspace file list and the
/// identifier index over all Rust sources. Built once by the engine.
#[derive(Debug, Default)]
pub struct DocIndex {
    /// Repo-relative paths (forward slashes) of every tracked file.
    pub files: BTreeSet<String>,
    /// Every identifier token appearing in any scanned `.rs` file.
    pub idents: BTreeSet<String>,
}

impl DocIndex {
    /// Does `path` name a real file — exactly, or as a suffix of one
    /// (docs refer to `tests/lattice.rs` without the crate
    /// prefix), or as a directory prefix (trailing-slash refs)?
    fn resolves_file(&self, path: &str) -> bool {
        let p = path.trim_start_matches("./");
        if let Some(dir) = p.strip_suffix('/') {
            let prefix = format!("{dir}/");
            return self.files.iter().any(|f| f.starts_with(&prefix) || f == dir);
        }
        self.files.contains(p)
            || self.files.iter().any(|f| {
                f.ends_with(p) && {
                    let cut = f.len() - p.len();
                    cut == 0 || f.as_bytes()[cut - 1] == b'/'
                }
            })
    }
}

/// Extensions that make a slash-containing span a checkable file ref.
const FILE_EXTS: &[&str] = &[".rs", ".md", ".toml", ".yml", ".yaml", ".json", ".sh", ".txt"];

/// Run R4 over one markdown file.
pub fn check(text: &str, idx: &DocIndex) -> Vec<RawViolation> {
    let mut out = Vec::new();
    let mut in_fence = false;
    for (lineno, line) in text.lines().enumerate() {
        let line_no = lineno as u32 + 1;
        if line.trim_start().starts_with("```") {
            in_fence = !in_fence;
            continue;
        }
        if in_fence {
            continue;
        }
        for span in backtick_spans(line) {
            if let Some(paths) = as_file_ref(span) {
                for p in paths {
                    if !idx.resolves_file(&p) {
                        out.push(RawViolation::new(
                            "doc-ref",
                            line_no,
                            format!("doc references `{p}`, which does not exist in the workspace"),
                        ));
                    }
                }
            } else if let Some(segments) = as_module_path(span) {
                let missing: Vec<&String> =
                    segments.iter().filter(|s| !idx.idents.contains(*s)).collect();
                if let Some(m) = missing.first() {
                    out.push(RawViolation::new(
                        "doc-ref",
                        line_no,
                        format!(
                            "doc references `{span}`, but `{m}` appears nowhere in the \
                             workspace's Rust sources — renamed or removed?"
                        ),
                    ));
                }
            }
        }
    }
    out
}

/// Inline backtick spans on one line (single-backtick only; `` `` `` is
/// rare in these docs and safely ignored by the grammar filters).
fn backtick_spans(line: &str) -> Vec<&str> {
    let mut spans = Vec::new();
    let mut rest = line;
    while let Some(open) = rest.find('`') {
        let after = &rest[open + 1..];
        let Some(close) = after.find('`') else { break };
        spans.push(&after[..close]);
        rest = &after[close + 1..];
    }
    spans
}

/// If the span reads as a file reference, expand `{a,b}` groups and
/// return the candidate paths. `None` means "not a file ref, don't
/// check".
fn as_file_ref(span: &str) -> Option<Vec<String>> {
    if !span.contains('/')
        || span.contains(char::is_whitespace)
        || span.contains("//")
        || span.starts_with('-')
        || span.contains('<')
    {
        return None;
    }
    let expanded = expand_braces(span)?;
    let checkable = |p: &String| {
        p.ends_with('/') || FILE_EXTS.iter().any(|e| p.ends_with(e)) || p.contains("/bin/")
    };
    if expanded.iter().all(checkable) { Some(expanded) } else { None }
}

/// Expand one level of `{a,b,c}` groups; `None` on unbalanced braces.
fn expand_braces(span: &str) -> Option<Vec<String>> {
    let Some(open) = span.find('{') else {
        return if span.contains('}') { None } else { Some(vec![span.to_string()]) };
    };
    let close = span[open..].find('}')? + open;
    let (prefix, rest) = (&span[..open], &span[close + 1..]);
    let mut out = Vec::new();
    for alt in span[open + 1..close].split(',') {
        for tail in expand_braces(rest)? {
            out.push(format!("{prefix}{}{tail}", alt.trim()));
        }
    }
    Some(out)
}

/// If the span matches the strict module-path grammar, return its
/// identifier segments (group members included). `None` otherwise.
fn as_module_path(span: &str) -> Option<Vec<String>> {
    let mut s = span.trim();
    // Optional call / macro suffix.
    s = s.strip_suffix("()").unwrap_or(s);
    s = s.strip_suffix('!').unwrap_or(s);
    if !s.contains("::") || s.contains(char::is_whitespace) && !s.contains('{') {
        return None;
    }
    // Optional trailing `::{A, B, C}` group.
    let mut segments: Vec<String> = Vec::new();
    let path_part = if let Some(open) = s.find('{') {
        let inner = s.strip_suffix('}')?;
        let group = &inner[open + 1..];
        for member in group.split(',') {
            let m = member.trim();
            let m = m.strip_suffix("()").unwrap_or(m);
            if !is_ident(m) {
                return None;
            }
            segments.push(m.to_string());
        }
        s[..open].strip_suffix("::")?
    } else {
        s
    };
    if path_part.contains(char::is_whitespace) {
        return None;
    }
    for seg in path_part.split("::") {
        if !is_ident(seg) {
            return None;
        }
        segments.push(seg.to_string());
    }
    Some(segments)
}

/// ASCII Rust identifier?
fn is_ident(s: &str) -> bool {
    let mut chars = s.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_')
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idx() -> DocIndex {
        let mut idx = DocIndex::default();
        for f in [
            "crates/pathsearch/src/alt.rs",
            "crates/pathsearch/src/bidirectional.rs",
            "crates/opaque/src/service/gateway.rs",
            "crates/opaque/tests/parallel_equivalence.rs",
            "docs/scaling.md",
        ] {
            idx.files.insert(f.to_string());
        }
        for i in ["opaque", "service", "Gateway", "submit", "SharingPolicy", "PerSource", "Auto"] {
            idx.idents.insert(i.to_string());
        }
        idx
    }

    fn run(text: &str) -> Vec<RawViolation> {
        check(text, &idx())
    }

    #[test]
    fn existing_file_and_module_refs_are_clean() {
        let text = "See `crates/pathsearch/src/alt.rs` and `opaque::service::Gateway`.\n\
                    Also `SharingPolicy::{PerSource, Auto}` and `Gateway::submit()`.\n";
        assert!(run(text).is_empty(), "{:?}", run(text));
    }

    #[test]
    fn missing_file_is_flagged() {
        let v = run("See `crates/pathsearch/src/gone.rs` for details.\n");
        assert_eq!(v.len(), 1);
        assert!(v[0].message.contains("gone.rs"));
    }

    #[test]
    fn brace_expansion_checks_every_alternative() {
        let v = run("`crates/pathsearch/src/{alt,missing}.rs`\n");
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].message.contains("missing.rs"));
        assert!(run("`crates/pathsearch/src/{alt,bidirectional}.rs`\n").is_empty());
    }

    #[test]
    fn suffix_match_resolves_bare_test_paths() {
        assert!(run("pinned by `tests/parallel_equivalence.rs`\n").is_empty());
        let v = run("pinned by `tests/does_not_exist.rs`\n");
        assert_eq!(v.len(), 1);
    }

    #[test]
    fn unknown_module_segment_is_flagged() {
        let v = run("the old `opaque::service::Dispatcher` type\n");
        assert_eq!(v.len(), 1);
        assert!(v[0].message.contains("Dispatcher"));
    }

    #[test]
    fn code_fences_are_skipped() {
        let text =
            "```rust\nuse crates/fake/lib.rs; old::gone::Path\n```\nprose `opaque::service`\n";
        assert!(run(text).is_empty());
    }

    #[test]
    fn shell_fragments_and_generics_are_ignored() {
        let text = "run `cargo run -p bench -- --quick`, see `Vec<HashMap<K, V>>`, \
                    flag `--perf-json out/BENCH.json`, range `0..n`\n";
        assert!(run(text).is_empty(), "{:?}", run(text));
    }

    #[test]
    fn directory_refs_resolve_by_prefix() {
        assert!(run("under `crates/opaque/src/service/`\n").is_empty());
        assert_eq!(run("under `crates/nothing/here/`\n").len(), 1);
    }
}
