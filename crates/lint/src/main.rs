//! The `opaque-lint` binary.
//!
//! ```text
//! opaque-lint [--root DIR] [--baseline lint.toml] \
//!             [--format human|json] [--census PATH]
//! ```
//!
//! Exit codes: `0` clean, `1` violations found, `2` usage or I/O error —
//! so CI can distinguish "the code broke a rule" from "the linter could
//! not run".

use opaque_lint::{Config, report};
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    root: PathBuf,
    baseline: Option<PathBuf>,
    format: String,
    census: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        root: PathBuf::from("."),
        baseline: None,
        format: "human".to_string(),
        census: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--root" => args.root = PathBuf::from(value("--root")?),
            "--baseline" => args.baseline = Some(PathBuf::from(value("--baseline")?)),
            "--census" => args.census = Some(PathBuf::from(value("--census")?)),
            "--format" => {
                args.format = value("--format")?;
                if args.format != "human" && args.format != "json" {
                    return Err(format!("--format must be human or json, got {}", args.format));
                }
            }
            "--help" | "-h" => {
                return Err("usage: opaque-lint [--root DIR] [--baseline lint.toml] \
                            [--format human|json] [--census PATH]"
                    .to_string());
            }
            other => return Err(format!("unknown flag `{other}` (try --help)")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };

    // Baseline: the given file, else `<root>/lint.toml` if present, else
    // the compiled default (the shipped file, included at build time).
    let baseline_path = args.baseline.clone().unwrap_or_else(|| args.root.join("lint.toml"));
    let cfg = if baseline_path.is_file() {
        let text = match std::fs::read_to_string(&baseline_path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("opaque-lint: cannot read {}: {e}", baseline_path.display());
                return ExitCode::from(2);
            }
        };
        match Config::parse(&text) {
            Ok(c) => c,
            Err(e) => {
                eprintln!("opaque-lint: {e}");
                return ExitCode::from(2);
            }
        }
    } else if args.baseline.is_some() {
        eprintln!("opaque-lint: baseline {} does not exist", baseline_path.display());
        return ExitCode::from(2);
    } else {
        Config::default()
    };

    let lint_report = match opaque_lint::run(&args.root, &cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("opaque-lint: {e}");
            return ExitCode::from(2);
        }
    };

    if let Some(census_path) = &args.census {
        if let Err(e) = std::fs::write(census_path, report::census_json(&lint_report)) {
            eprintln!("opaque-lint: cannot write census {}: {e}", census_path.display());
            return ExitCode::from(2);
        }
    }

    match args.format.as_str() {
        "json" => print!("{}", report::json(&lint_report)),
        _ => print!("{}", report::human(&lint_report)),
    }

    if lint_report.is_clean() { ExitCode::SUCCESS } else { ExitCode::from(1) }
}
