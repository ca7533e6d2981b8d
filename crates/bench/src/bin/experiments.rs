//! Experiment harness CLI.
//!
//! ```text
//! experiments                      # run everything at full scale
//! experiments e3 e6                # run a subset
//! experiments --quick              # CI-sized inputs
//! experiments --json out.json      # also dump machine-readable results
//! ```

use bench::experiments::{REGISTRY, RunFn, lookup};
use bench::{ExperimentTable, Scale};
use std::io::Write;

/// Resolve every requested id (none = the whole registry) before anything
/// runs, so a typo in the last id does not cost the experiments before it.
fn resolve(ids: &[String]) -> Result<Vec<RunFn>, String> {
    if ids.is_empty() {
        return Ok(REGISTRY.iter().map(|&(_, run)| run).collect());
    }
    ids.iter()
        .map(|id| {
            lookup(id).ok_or_else(|| {
                let known: Vec<&str> = REGISTRY.iter().map(|&(known, _)| known).collect();
                format!("unknown experiment id: {id} (known: {})", known.join(", "))
            })
        })
        .collect()
}

fn main() {
    let mut scale = Scale::full();
    let mut json_path: Option<String> = None;
    let mut ids: Vec<String> = Vec::new();

    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" => scale = Scale::quick(),
            "--json" => {
                json_path = Some(it.next().unwrap_or_else(|| {
                    eprintln!("--json needs a path");
                    std::process::exit(2);
                }));
            }
            "--help" | "-h" => {
                eprintln!("usage: experiments [--quick] [--json PATH] [e1 ..]");
                return;
            }
            flag if flag.starts_with('-') => {
                eprintln!("unknown argument: {flag}");
                std::process::exit(2);
            }
            id => ids.push(id.to_ascii_lowercase()),
        }
    }
    let runs = resolve(&ids).unwrap_or_else(|msg| {
        eprintln!("{msg}");
        std::process::exit(2);
    });

    let mut stdout = std::io::stdout().lock();
    let mut results: Vec<ExperimentTable> = Vec::new();
    for run in runs {
        let table = run(&scale);
        writeln!(stdout, "{}", table.render()).expect("stdout");
        results.push(table);
    }

    if let Some(path) = json_path {
        let json = serde_json::to_string_pretty(&results).expect("tables serialize");
        std::fs::write(&path, json).unwrap_or_else(|e| {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(1);
        });
        eprintln!("wrote {} experiment tables to {path}", results.len());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    // None of these runs an experiment: `resolve` only reads the registry.
    #[test]
    fn ids_are_checked_up_front() {
        assert_eq!(resolve(&[]).unwrap().len(), REGISTRY.len(), "no ids = everything");
        assert_eq!(resolve(&ids(&["e3", "e20", "e3"])).unwrap().len(), 3, "repeats are allowed");
        // A bad id anywhere in the list refuses the whole request.
        let err = resolve(&ids(&["e3", "e99"])).unwrap_err();
        assert!(err.starts_with("unknown experiment id: e99 (known: e1, e2, "), "{err}");
        assert!(err.ends_with(", e20)"), "{err}");
    }
}
