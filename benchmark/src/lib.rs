//! The repository's benchmark: four fixed-script closed-loop workloads,
//! five end-to-end metrics each, timed in host-calibrated seconds, plus a
//! traced run that replays the script through a staged pipeline built
//! from each layer's public functions. See `README.md` beside this crate
//! for the method and `BENCHMARK.json` at the repository root for the
//! names every later change is judged on.

pub mod alloc;
pub mod reference;
pub mod report;
pub mod run;
pub mod script;
pub mod span;
pub mod spec;
pub mod stats;
pub mod target;
pub mod trace;

use alloc::AllocCounters;
use report::{Json, read_bounds, read_details};
use spec::{Scale, WORKLOADS, workload};
use std::process::{Command, ExitCode, Stdio};

/// `run_seconds` of `BENCHMARK.json`: the default `--seconds`.
pub const DEFAULT_SECONDS: f64 = 15.0;
/// `--seconds` under `--quick`.
pub const QUICK_SECONDS: f64 = 0.15;
/// Where trace files and suite records go, relative to the repository root
/// (git-ignored).
pub const OUT_DIR: &str = "benchmark/out";
/// The seed the committed baseline was recorded with.
pub const DEFAULT_SEED: u64 = 14;

const USAGE: &str = "usage:
  benchmark --workload W --seed N --seconds S --trace 0|1 [--quick]   one run (contract mode)
  benchmark suite [--seed N] [--workload W] [--seconds S] [--quick] [--reverse] [--out FILE]
  benchmark compare A.json B.json [--bounds BENCHMARK.json]
  benchmark summarize FILE...  [--bounds BENCHMARK.json] [--group end_to_end|raw|per_layer|counters]...
  benchmark reference                           time each workload's reference sample (for re-pinning)
workloads: metro_uniform metro_hotspot_churn continent_alt wire_bare";

struct Args {
    positional: Vec<String>,
    flags: Vec<(String, Option<String>)>,
}

impl Args {
    fn parse(raw: impl Iterator<Item = String>) -> Result<Args, String> {
        const VALUED: [&str; 7] =
            ["--workload", "--seed", "--seconds", "--trace", "--out", "--bounds", "--group"];
        const BARE: [&str; 2] = ["--quick", "--reverse"];
        let mut args = Args { positional: Vec::new(), flags: Vec::new() };
        let mut raw = raw.peekable();
        while let Some(a) = raw.next() {
            if VALUED.contains(&a.as_str()) {
                let v = raw.next().ok_or_else(|| format!("{a} needs a value"))?;
                args.flags.push((a, Some(v)));
            } else if BARE.contains(&a.as_str()) {
                args.flags.push((a, None));
            } else if a.starts_with("--") {
                return Err(format!("unknown flag {a}"));
            } else {
                args.positional.push(a);
            }
        }
        Ok(args)
    }

    fn value(&self, flag: &str) -> Option<&str> {
        self.flags.iter().rev().find(|(f, _)| f == flag).and_then(|(_, v)| v.as_deref())
    }

    fn has(&self, flag: &str) -> bool {
        self.flags.iter().any(|(f, _)| f == flag)
    }

    fn number<T: std::str::FromStr>(&self, flag: &str) -> Result<Option<T>, String> {
        self.value(flag)
            .map(|v| v.parse::<T>().map_err(|_| format!("{flag}: cannot read {v:?}")))
            .transpose()
    }

    fn scale(&self) -> Result<Scale, String> {
        let quick = self.has("--quick");
        let default = if quick { QUICK_SECONDS } else { DEFAULT_SECONDS };
        let seconds = self.number::<f64>("--seconds")?.unwrap_or(default);
        if !(seconds.is_finite() && seconds > 0.0) {
            return Err("--seconds must be positive".to_string());
        }
        Ok(Scale { seconds, quick })
    }
}

/// Entry point of both binaries. `counters` is the counting allocator's
/// state in the traced binary, `None` under the system allocator.
pub fn main(counters: Option<&'static AllocCounters>) -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => return usage_error(&e),
    };
    let outcome = match args.positional.first().map(String::as_str) {
        None => single_run(&args, counters),
        Some("suite") => suite(&args),
        Some("compare") => compare(&args),
        Some("summarize") => summarize(&args),
        Some("reference") => Ok(reference_samples()),
        Some(other) => Err(format!("unknown command {other}")),
    };
    match outcome {
        Ok(code) => code,
        Err(e) => usage_error(&e),
    }
}

fn usage_error(message: &str) -> ExitCode {
    eprintln!("benchmark: {message}\n{USAGE}");
    ExitCode::from(2)
}

fn single_run(args: &Args, counters: Option<&'static AllocCounters>) -> Result<ExitCode, String> {
    let name = args.value("--workload").ok_or("--workload is required")?;
    let spec = workload(name).ok_or_else(|| format!("unknown workload {name}"))?;
    let seed = args.number::<u64>("--seed")?.unwrap_or(DEFAULT_SEED);
    let scale = args.scale()?;
    let traced = match args.value("--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, not {other}")),
    };
    let report = if traced {
        let counters =
            counters.ok_or("--trace 1 needs the benchmark-traced binary (run.sh picks it)")?;
        trace::run(spec, seed, &scale, counters, std::path::Path::new(OUT_DIR))
    } else {
        run::run(spec, seed, &scale)
    };
    report.print();
    Ok(if report.correct { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

/// Run every (or one) workload, untraced then traced, each in a process of
/// its own, and gather the `detail` records into one file.
fn suite(args: &Args) -> Result<ExitCode, String> {
    let scale = args.scale()?;
    let seed = args.number::<u64>("--seed")?.unwrap_or(DEFAULT_SEED);
    let mut specs: Vec<_> = match args.value("--workload") {
        Some(name) => vec![workload(name).ok_or_else(|| format!("unknown workload {name}"))?],
        None => WORKLOADS.iter().collect(),
    };
    if args.has("--reverse") {
        specs.reverse();
    }
    let here = std::env::current_exe().map_err(|e| e.to_string())?;
    let dir = here.parent().ok_or("executable has no directory")?;
    let mut records = Vec::new();
    let mut all_correct = true;
    for spec in specs {
        let launch = |binary: &str, trace: &str| {
            let mut cmd = Command::new(dir.join(binary));
            cmd.args(["--workload", spec.name, "--seed", &seed.to_string()])
                .args(["--seconds", &scale.seconds.to_string(), "--trace", trace])
                .stdout(Stdio::piped())
                .stderr(Stdio::piped());
            if scale.quick {
                cmd.arg("--quick");
            }
            cmd.spawn().map_err(|e| format!("cannot run {binary}: {e}"))
        };
        // One process at a time, so neither run disturbs the other's
        // clock — except at smoke scale, where nothing is comparable anyway
        // and the pair shares the two cores.
        let untraced = launch("benchmark", "0")?;
        let pair = if scale.quick {
            let traced = launch("benchmark-traced", "1")?;
            [untraced.wait_with_output(), traced.wait_with_output()]
        } else {
            let first = untraced.wait_with_output();
            [first, launch("benchmark-traced", "1")?.wait_with_output()]
        };
        for (trace, output) in pair.into_iter().enumerate() {
            let output = output.map_err(|e| format!("lost a {} run: {e}", spec.name))?;
            let stdout = String::from_utf8_lossy(&output.stdout);
            println!("== {} (trace {trace}) ==", spec.name);
            for line in stdout.lines().filter(|l| l.starts_with('#')) {
                println!("{}", line.trim_start_matches("# "));
            }
            if !output.status.success() {
                all_correct = false;
                eprint!("{}", String::from_utf8_lossy(&output.stderr));
                println!("!! {} (trace {trace}) exited with {}", spec.name, output.status);
            }
            records.extend(read_details(&stdout)?);
        }
    }
    let default_out = format!("{OUT_DIR}/suite.json");
    let out = args.value("--out").unwrap_or(&default_out);
    let path = std::path::Path::new(out);
    if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
        std::fs::create_dir_all(parent).map_err(|e| e.to_string())?;
    }
    let text = serde_json::to_string_pretty(&Json(serde::Value::Array(records)))
        .map_err(|e| e.to_string())?;
    std::fs::write(path, text + "\n").map_err(|e| format!("{out}: {e}"))?;
    println!("== records written to {out} ==");
    Ok(if all_correct { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

fn bounds_of(args: &Args) -> Result<std::collections::BTreeMap<String, (f64, bool)>, String> {
    let path = args.value("--bounds").unwrap_or("BENCHMARK.json");
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    read_bounds(&text)
}

fn details_of(path: &str) -> Result<Vec<serde::Value>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    read_details(&text).map_err(|e| format!("{path}: {e}"))
}

fn compare(args: &Args) -> Result<ExitCode, String> {
    let [_, a, b] = args.positional.as_slice() else {
        return Err("compare takes two files".to_string());
    };
    let (table, failures) = report::compare(&details_of(a)?, &details_of(b)?, &bounds_of(args)?);
    print!("{table}");
    println!("{failures} failure(s): counter drift, regressions beyond bound, or missing rows");
    Ok(if failures == 0 { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

fn summarize(args: &Args) -> Result<ExitCode, String> {
    let files = &args.positional[1..];
    if files.is_empty() {
        return Err("summarize takes at least one file".to_string());
    }
    let mut details = Vec::new();
    for f in files {
        details.extend(details_of(f)?);
    }
    let groups: Vec<&str> = args
        .flags
        .iter()
        .filter(|(f, _)| f == "--group")
        .filter_map(|(_, v)| v.as_deref())
        .collect();
    print!("{}", report::summarize(&details, &bounds_of(args)?, &groups));
    Ok(ExitCode::SUCCESS)
}

/// Time each workload's reference sample on this host: the number to pin
/// as `ref_nominal_ms` when the baseline is re-recorded on a new container.
fn reference_samples() -> ExitCode {
    for spec in &WORKLOADS {
        let mut kernel =
            reference::Reference::new(spec.ref_side, spec.ref_sweeps, spec.ref_landmarks);
        let samples: Vec<f64> = (0..25).map(|_| kernel.sample_ms()).skip(5).collect();
        println!(
            "{:<20} {} nodes x {} sweeps: median {:.3} ms (min {:.3}, max {:.3}); pinned {:.3} ms",
            spec.name,
            kernel.nodes(),
            spec.ref_sweeps,
            stats::median(&samples),
            stats::quantile(&samples, 0.0),
            stats::quantile(&samples, 1.0),
            spec.ref_nominal_ms
        );
    }
    ExitCode::SUCCESS
}
