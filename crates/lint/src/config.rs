//! The baseline file: which rules watch which paths.
//!
//! `lint.toml` at the repo root scopes each rule. The parser below reads
//! the subset of TOML the baseline actually uses — `[section]` headers,
//! `key = [ "quoted", "strings" ]` arrays (single-line or multi-line),
//! and `#` comments — with zero dependencies, in keeping with the
//! lint crate's no-new-deps charter. Unknown sections and keys are
//! errors: a typoed scope silently scoping a rule to nothing is exactly
//! the failure mode a lint baseline must not have.

use std::fmt;

/// Parsed baseline. Paths are repo-relative prefixes (scopes) or exact
/// files, forward slashes.
#[derive(Clone, Debug)]
pub struct Config {
    /// R1: path prefixes of report-affecting code.
    pub determinism_scopes: Vec<String>,
    /// R3: exact hot-path files.
    pub panic_path_files: Vec<String>,
    /// R2: path prefixes audited for `unsafe` (normally the whole
    /// workspace).
    pub unsafe_scopes: Vec<String>,
    /// R4: markdown docs whose cross-references must resolve.
    pub doc_files: Vec<String>,
}

impl Default for Config {
    /// The shipped baseline: the repo's `lint.toml` itself, compiled in.
    /// The scopes exist once, and the self-check still cannot be defeated
    /// by deleting the baseline file — this crate would stop compiling.
    fn default() -> Self {
        Config::parse(include_str!("../../../lint.toml")).expect("the shipped lint.toml parses")
    }
}

/// A baseline parse failure, with the line it happened on.
#[derive(Debug)]
pub struct ConfigError {
    /// 1-based line in the baseline file.
    pub line: u32,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lint.toml:{}: {}", self.line, self.message)
    }
}

impl std::error::Error for ConfigError {}

impl Config {
    /// Parse a baseline file. Starts from an *empty* config — the file
    /// is the whole truth, so a missing section scopes that rule to
    /// nothing.
    pub fn parse(text: &str) -> Result<Config, ConfigError> {
        let mut cfg = Config {
            determinism_scopes: Vec::new(),
            panic_path_files: Vec::new(),
            unsafe_scopes: Vec::new(),
            doc_files: Vec::new(),
        };
        let mut section = String::new();
        let mut lines = text.lines().enumerate().peekable();
        while let Some((i, raw)) = lines.next() {
            let line_no = i as u32 + 1;
            let line = strip_toml_comment(raw).trim().to_string();
            if line.is_empty() {
                continue;
            }
            if let Some(name) = line.strip_prefix('[').and_then(|s| s.strip_suffix(']')) {
                section = name.trim().to_string();
                match section.as_str() {
                    "determinism" | "panic_path" | "unsafe_audit" | "doc_refs" => {}
                    other => {
                        return Err(ConfigError {
                            line: line_no,
                            message: format!("unknown section `[{other}]`"),
                        });
                    }
                }
                continue;
            }
            let Some((key, value)) = line.split_once('=') else {
                return Err(ConfigError {
                    line: line_no,
                    message: format!("expected `key = [...]`, got `{line}`"),
                });
            };
            let key = key.trim();
            // Collect the array text, spanning lines until the `]`.
            let mut array = value.trim().to_string();
            while !array.contains(']') {
                let Some((_, cont)) = lines.next() else {
                    return Err(ConfigError {
                        line: line_no,
                        message: format!("unterminated array for key `{key}`"),
                    });
                };
                array.push(' ');
                array.push_str(strip_toml_comment(cont).trim());
            }
            let items = parse_string_array(&array).ok_or_else(|| ConfigError {
                line: line_no,
                message: format!("`{key}` must be an array of quoted strings"),
            })?;
            let slot = match (section.as_str(), key) {
                ("determinism", "scopes") => &mut cfg.determinism_scopes,
                ("panic_path", "files") => &mut cfg.panic_path_files,
                ("unsafe_audit", "scopes") => &mut cfg.unsafe_scopes,
                ("doc_refs", "docs") => &mut cfg.doc_files,
                _ => {
                    return Err(ConfigError {
                        line: line_no,
                        message: format!("unknown key `{key}` in section `[{section}]`"),
                    });
                }
            };
            slot.extend(items);
        }
        Ok(cfg)
    }
}

/// Drop a `#` comment, respecting quoted strings.
fn strip_toml_comment(line: &str) -> &str {
    let mut in_str = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

/// Parse `[ "a", "b", ]` (trailing comma fine) into its strings.
fn parse_string_array(s: &str) -> Option<Vec<String>> {
    let inner = s.trim().strip_prefix('[')?.rsplit_once(']')?.0;
    let mut out = Vec::new();
    for part in inner.split(',') {
        let p = part.trim();
        if p.is_empty() {
            continue;
        }
        out.push(p.strip_prefix('"')?.strip_suffix('"')?.to_string());
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn multiline_arrays_comments_and_trailing_commas_parse() {
        let text = "# baseline\n[determinism]\nscopes = [\n    \"crates/opaque/src\", # report-shaping\n    \"crates/pathsearch/src\",\n]\n\n[doc_refs]\ndocs = [\"docs/scaling.md\"]\n";
        let cfg = Config::parse(text).unwrap();
        assert_eq!(cfg.determinism_scopes, vec!["crates/opaque/src", "crates/pathsearch/src"]);
        assert_eq!(cfg.doc_files, vec!["docs/scaling.md"]);
        assert!(cfg.panic_path_files.is_empty());
    }

    #[test]
    fn unknown_section_and_key_are_errors() {
        assert!(Config::parse("[determinsm]\nscopes = []\n").is_err());
        assert!(Config::parse("[determinism]\nscope = [\"x\"]\n").is_err());
    }

    #[test]
    fn unterminated_array_is_an_error() {
        let err = Config::parse("[determinism]\nscopes = [\n  \"a\",\n").unwrap_err();
        assert!(err.message.contains("unterminated"));
    }

    #[test]
    fn hash_inside_a_quoted_string_is_not_a_comment() {
        let cfg = Config::parse("[doc_refs]\ndocs = [\"docs/a#b.md\"]\n").unwrap();
        assert_eq!(cfg.doc_files, vec!["docs/a#b.md"]);
    }

    #[test]
    fn default_scopes_the_four_report_affecting_crates() {
        let d = Config::default();
        assert_eq!(d.determinism_scopes.len(), 4);
        assert!(d.panic_path_files.iter().all(|f| f.ends_with(".rs")));
    }
}
