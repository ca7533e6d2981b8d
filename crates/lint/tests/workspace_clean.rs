//! The self-check: the workspace this crate ships in lints clean.
//!
//! This is the enforcement point that makes opaque-lint a gate rather
//! than a suggestion — `cargo test` fails on the first unallowlisted
//! violation, before CI's lint-gate job ever sees it.

use opaque_lint::{Config, run};
use std::path::{Path, PathBuf};

fn repo_root() -> PathBuf {
    // crates/lint -> crates -> repo root.
    Path::new(env!("CARGO_MANIFEST_DIR")).ancestors().nth(2).map(Path::to_path_buf).unwrap()
}

#[test]
fn workspace_has_zero_unallowlisted_violations() {
    let report = run(&repo_root(), &Config::default()).expect("lint run succeeds");
    assert!(
        report.is_clean(),
        "opaque-lint found violations — fix them or add a justified allow marker:\n{}",
        opaque_lint::report::human(&report)
    );
}

#[test]
fn every_unsafe_site_is_censused_with_a_justification() {
    let report = run(&repo_root(), &Config::default()).expect("lint run succeeds");
    // The workspace's unsafe surface is intentionally tiny: the raw
    // poll(2) syscall in the reactor. Growing it is allowed — but only
    // with written justification, which a clean run already implies.
    assert!(!report.census.is_empty(), "the reactor's poll syscall should be censused");
    for site in &report.census {
        assert!(
            !site.justification.is_empty(),
            "unsafe {} at {}:{} has no SAFETY justification",
            site.kind,
            site.file,
            site.line
        );
    }
    assert!(
        report.census.iter().any(|s| s.file == "crates/opaque-net/src/reactor.rs"),
        "the reactor syscall site disappeared from the census: {:?}",
        report.census
    );
}

#[test]
fn the_exception_surface_is_nonempty_and_accounted() {
    let report = run(&repo_root(), &Config::default()).expect("lint run succeeds");
    // The repo carries real, justified exceptions (commutative hash
    // folds, locally-proven bounds). If this ever drops to zero the
    // markers were probably broken, not removed — investigate before
    // relaxing.
    assert!(
        !report.allowed.is_empty(),
        "expected justified allow-marker sites; marker parsing may have regressed"
    );
    for site in &report.allowed {
        assert!(
            ["hash-iter", "wall-clock", "panic-path"].contains(&site.rule.as_str()),
            "rule {} should not be waivable (site {}:{})",
            site.rule,
            site.file,
            site.line
        );
    }
    assert!(report.files_scanned > 100, "walk regressed: {} files", report.files_scanned);
    assert!(report.docs_checked >= 6, "doc list regressed: {} docs", report.docs_checked);
}
