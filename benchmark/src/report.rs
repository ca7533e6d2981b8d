//! What a run prints, and the tools that read it back: the contract line,
//! the `detail` line, `compare`, and `summarize`.

use crate::spec::Scale;
use crate::stats::{median, quartile_spread};
use serde::Value;
use std::collections::BTreeMap;

/// A JSON tree that passes through the vendored serde untouched (its
/// `Value` implements neither trait itself).
pub struct Json(pub Value);

impl serde::Serialize for Json {
    fn to_value(&self) -> Value {
        self.0.clone()
    }
}

impl serde::Deserialize for Json {
    fn from_value(v: &Value) -> Result<Self, serde::DeError> {
        Ok(Json(v.clone()))
    }
}

/// Parse any JSON text.
pub fn parse_json(text: &str) -> Result<Value, String> {
    serde_json::from_str::<Json>(text).map(|j| j.0).map_err(|e| e.to_string())
}

/// Field `key` of a JSON object.
pub fn field<'a>(v: &'a Value, key: &str) -> Option<&'a Value> {
    v.as_object()?.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

fn obj(entries: Vec<(&str, Value)>) -> Value {
    Value::Object(entries.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

/// Whether a number is a count that must repeat exactly or a timing that
/// is judged against a bound.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Exact: any drift between two runs of one seed is a failure.
    Counter,
    /// Measured: compared against a bound or trended.
    Timing,
}

/// One reported number.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Name as in `BENCHMARK.json`.
    pub name: String,
    /// The value, with all its digits.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Exact counter or timing.
    pub kind: Kind,
}

impl Metric {
    /// A measured value.
    pub fn timing(name: &str, value: f64, unit: &'static str) -> Metric {
        Metric { name: name.to_string(), value, unit, kind: Kind::Timing }
    }

    /// An exact count (or a ratio of exact counts).
    pub fn counter(name: &str, value: f64, unit: &'static str) -> Metric {
        Metric { name: name.to_string(), value, unit, kind: Kind::Counter }
    }

    fn to_json(&self) -> Value {
        obj(vec![("value", Value::Num(self.value)), ("unit", Value::Str(self.unit.to_string()))])
    }

    fn to_detail_json(&self) -> Value {
        obj(vec![
            ("value", Value::Num(self.value)),
            ("unit", Value::Str(self.unit.to_string())),
            (
                "kind",
                Value::Str(if self.kind == Kind::Counter { "counter" } else { "timing" }.into()),
            ),
        ])
    }
}

/// Everything one invocation reports.
#[derive(Clone, Debug)]
pub struct RunReport {
    /// Workload name.
    pub workload: String,
    /// `--seed`.
    pub seed: u64,
    /// `--seconds`.
    pub seconds: f64,
    /// `--quick` (numbers are not comparable with full-scale runs).
    pub quick: bool,
    /// `--trace 1`.
    pub traced: bool,
    /// Outputs were checked and right, and the run was deterministic.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// The gated end-to-end metrics (untraced run).
    pub end_to_end: Vec<Metric>,
    /// The per-layer metrics (traced run).
    pub per_layer: Vec<Metric>,
    /// Uncalibrated twins of the timings; printed, never gated.
    pub raw: Vec<Metric>,
    /// Exact counters of the run.
    pub counters: Vec<Metric>,
    /// Method and check lines for the human reader.
    pub notes: Vec<String>,
}

impl RunReport {
    /// An empty report for one invocation.
    pub fn new(workload: &str, seed: u64, scale: &Scale, traced: bool) -> RunReport {
        RunReport {
            workload: workload.to_string(),
            seed,
            seconds: scale.seconds,
            quick: scale.quick,
            traced,
            correct: false,
            attempted: 0,
            failed: 0,
            end_to_end: Vec::new(),
            per_layer: Vec::new(),
            raw: Vec::new(),
            counters: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// The metrics the contract line carries: end-to-end when untraced,
    /// per-layer when traced.
    pub fn contract_metrics(&self) -> &[Metric] {
        if self.traced { &self.per_layer } else { &self.end_to_end }
    }

    /// The last line of standard output: exactly `correct`, `attempted`,
    /// `failed`, `metrics`.
    pub fn contract_line(&self) -> String {
        let metrics = Value::Object(
            self.contract_metrics().iter().map(|m| (m.name.clone(), m.to_json())).collect(),
        );
        let line = obj(vec![
            ("correct", Value::Bool(self.correct)),
            ("attempted", Value::Num(self.attempted as f64)),
            ("failed", Value::Num(self.failed as f64)),
            ("metrics", metrics),
        ]);
        serde_json::to_string(&Json(line)).expect("plain data serializes")
    }

    /// The full record, one JSON object (what `compare` and `summarize`
    /// read).
    pub fn detail(&self) -> Value {
        let group = |ms: &[Metric]| {
            Value::Object(ms.iter().map(|m| (m.name.clone(), m.to_detail_json())).collect())
        };
        obj(vec![
            ("workload", Value::Str(self.workload.clone())),
            ("seed", Value::Num(self.seed as f64)),
            ("seconds", Value::Num(self.seconds)),
            ("quick", Value::Bool(self.quick)),
            ("traced", Value::Bool(self.traced)),
            ("correct", Value::Bool(self.correct)),
            ("attempted", Value::Num(self.attempted as f64)),
            ("failed", Value::Num(self.failed as f64)),
            ("end_to_end", group(&self.end_to_end)),
            ("per_layer", group(&self.per_layer)),
            ("raw", group(&self.raw)),
            ("counters", group(&self.counters)),
        ])
    }

    /// Print the run for a human, then the `detail` line, then the contract
    /// line (last).
    pub fn print(&self) {
        for note in &self.notes {
            println!("# {note}");
        }
        if self.quick {
            println!("# --quick: smoke scale, NOT comparable with full-scale numbers");
        }
        for (title, group) in [
            ("end-to-end", &self.end_to_end),
            ("per-layer", &self.per_layer),
            ("raw (uncalibrated, never gated)", &self.raw),
            ("exact counters", &self.counters),
        ] {
            if group.is_empty() {
                continue;
            }
            println!("# {title}:");
            for m in group {
                let mark = if m.kind == Kind::Counter { " =" } else { "" };
                println!("#   {:<40} {:>16.6} {}{}", m.name, m.value, m.unit, mark);
            }
        }
        println!(
            "# operations: {} attempted, {} failed; outputs {}",
            self.attempted,
            self.failed,
            if self.correct { "correct" } else { "NOT CORRECT" }
        );
        println!("detail {}", serde_json::to_string(&Json(self.detail())).expect("plain data"));
        println!("{}", self.contract_line());
    }
}

/// `name → (bound, better)` of the end-to-end metrics in `BENCHMARK.json`.
pub fn read_bounds(benchmark_json: &str) -> Result<BTreeMap<String, (f64, bool)>, String> {
    let root = parse_json(benchmark_json)?;
    let list = match field(&root, "end_to_end") {
        Some(Value::Array(items)) => items,
        _ => return Err("BENCHMARK.json has no end_to_end list".to_string()),
    };
    let mut out = BTreeMap::new();
    for item in list {
        let (Some(Value::Str(name)), Some(Value::Num(bound)), Some(Value::Str(better))) =
            (field(item, "name"), field(item, "bound"), field(item, "better"))
        else {
            return Err("end_to_end entries need name, bound, better".to_string());
        };
        out.insert(name.clone(), (*bound, better == "higher"));
    }
    Ok(out)
}

/// The `detail` records of a suite file: either a JSON array of records or
/// any text whose `detail {…}` lines carry them (a saved run log).
pub fn read_details(text: &str) -> Result<Vec<Value>, String> {
    let trimmed = text.trim_start();
    if trimmed.starts_with('[') {
        return match parse_json(trimmed)? {
            Value::Array(items) => Ok(items),
            _ => Err("expected a JSON array of run records".to_string()),
        };
    }
    text.lines().filter_map(|l| l.strip_prefix("detail ")).map(parse_json).collect()
}

type Table = BTreeMap<(String, String), Vec<(f64, Kind)>>;

/// `(workload, metric) → values` over every record, one value per run.
fn collect(details: &[Value], groups: &[&str]) -> Table {
    let mut out: Table = BTreeMap::new();
    for d in details {
        let Some(Value::Str(workload)) = field(d, "workload") else { continue };
        for g in groups {
            let Some(entries) = field(d, g).and_then(Value::as_object) else { continue };
            for (name, m) in entries {
                let Some(Value::Num(value)) = field(m, "value") else { continue };
                let kind = match field(m, "kind") {
                    Some(Value::Str(k)) if k == "counter" => Kind::Counter,
                    _ => Kind::Timing,
                };
                out.entry((workload.clone(), name.clone())).or_default().push((*value, kind));
            }
        }
    }
    out
}

const ALL_GROUPS: [&str; 4] = ["end_to_end", "per_layer", "raw", "counters"];

/// `benchmark compare A B`: one row per workload × metric. Exact counters
/// that differ are failures; end-to-end timings are judged against their
/// bounds; everything else is shown as a delta. Returns the table and the
/// number of failures.
pub fn compare(
    a: &[Value],
    b: &[Value],
    bounds: &BTreeMap<String, (f64, bool)>,
) -> (String, usize) {
    let (ta, tb) = (collect(a, &ALL_GROUPS), collect(b, &ALL_GROUPS));
    let mut out = String::new();
    let mut failures = 0;
    out.push_str(&format!(
        "{:<20} {:<36} {:>14} {:>14} {:>9}  verdict\n",
        "workload", "metric", "A (median)", "B (median)", "delta"
    ));
    for ((workload, metric), va) in &ta {
        let Some(vb) = tb.get(&(workload.clone(), metric.clone())) else {
            out.push_str(&format!("{workload:<20} {metric:<36} missing in B\n"));
            failures += 1;
            continue;
        };
        let med = |v: &[(f64, Kind)]| median(&v.iter().map(|x| x.0).collect::<Vec<_>>());
        let (ma, mb) = (med(va), med(vb));
        let delta = if ma != 0.0 { (mb - ma) / ma.abs() } else { 0.0 };
        let verdict = if va[0].1 == Kind::Counter {
            if ma == mb && va.iter().chain(vb).all(|x| x.0 == ma) {
                "exact".to_string()
            } else {
                failures += 1;
                "COUNTER DRIFT".to_string()
            }
        } else if let Some(&(bound, higher_better)) = bounds.get(metric) {
            let worsening = if higher_better { -delta } else { delta };
            if worsening > bound {
                failures += 1;
                format!("REGRESSION (bound {:.0}%)", bound * 100.0)
            } else if worsening < -bound {
                format!("better than bound {:.0}%", bound * 100.0)
            } else {
                format!("within bound {:.0}%", bound * 100.0)
            }
        } else {
            "trend".to_string()
        };
        out.push_str(&format!(
            "{workload:<20} {metric:<36} {ma:>14.5} {mb:>14.5} {:>+8.2}%  {verdict}\n",
            delta * 100.0
        ));
    }
    for key in tb.keys().filter(|k| !ta.contains_key(*k)) {
        out.push_str(&format!("{:<20} {:<36} missing in A\n", key.0, key.1));
        failures += 1;
    }
    (out, failures)
}

/// `benchmark summarize FILE…`: min / median / max and the quartile spread
/// of every metric (of the named groups; all four when none is named) over
/// the runs in the files, calibrated and raw side by side, each end-to-end
/// metric against its bound.
pub fn summarize(
    details: &[Value],
    bounds: &BTreeMap<String, (f64, bool)>,
    groups: &[&str],
) -> String {
    let table = collect(details, if groups.is_empty() { &ALL_GROUPS } else { groups });
    let mut out = format!(
        "| {:<19} | {:<28} | {:>4} | {:>12} | {:>12} | {:>12} | {:>7} | {:>6} |\n",
        "workload", "metric", "runs", "min", "median", "max", "spread", "bound"
    );
    out.push_str("|---|---|---:|---:|---:|---:|---:|---:|\n");
    for ((workload, metric), values) in &table {
        let v: Vec<f64> = values.iter().map(|x| x.0).collect();
        let (lo, hi) =
            v.iter().fold((f64::INFINITY, f64::NEG_INFINITY), |(l, h), &x| (l.min(x), h.max(x)));
        let spread = if v.len() >= 2 {
            format!("{:.2}%", quartile_spread(&v) * 100.0)
        } else {
            "-".to_string()
        };
        let bound = if values[0].1 == Kind::Counter {
            "exact".to_string()
        } else {
            bounds.get(metric).map_or("-".to_string(), |b| format!("{:.0}%", b.0 * 100.0))
        };
        out.push_str(&format!(
            "| {workload:<19} | {metric:<28} | {:>4} | {lo:>12.5} | {:>12.5} | {hi:>12.5} | {spread:>7} | {bound:>6} |\n",
            v.len(),
            median(&v),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(workload: &str, rps: f64, settled: f64) -> Value {
        let mut r = RunReport::new(workload, 14, &Scale { seconds: 1.0, quick: false }, false);
        r.end_to_end = vec![Metric::timing("throughput_rps", rps, "1/s")];
        r.counters = vec![Metric::counter("settled", settled, "count")];
        r.detail()
    }

    fn bounds() -> BTreeMap<String, (f64, bool)> {
        read_bounds(
            r#"{"end_to_end":[{"name":"throughput_rps","unit":"1/s","better":"higher","bound":0.1}]}"#,
        )
        .unwrap()
    }

    #[test]
    fn contract_line_has_exactly_the_four_keys() {
        let mut r = RunReport::new("w", 1, &Scale { seconds: 1.0, quick: false }, false);
        r.correct = true;
        r.attempted = 10;
        r.end_to_end = vec![Metric::timing("setup_s", 0.25, "s")];
        let v = parse_json(&r.contract_line()).unwrap();
        let keys: Vec<&str> = v.as_object().unwrap().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let m = field(field(&v, "metrics").unwrap(), "setup_s").unwrap();
        assert_eq!(field(m, "value"), Some(&Value::Num(0.25)));
        assert_eq!(field(m, "unit"), Some(&Value::Str("s".into())));
    }

    #[test]
    fn compare_fails_counter_drift_and_judges_timings_by_bound() {
        let a = vec![record("w", 100.0, 5000.0)];
        let same = compare(&a, &[record("w", 95.0, 5000.0)], &bounds());
        assert_eq!(same.1, 0, "{}", same.0);
        assert!(same.0.contains("within bound"));
        let slow = compare(&a, &[record("w", 85.0, 5000.0)], &bounds());
        assert_eq!(slow.1, 1);
        assert!(slow.0.contains("REGRESSION"));
        let drift = compare(&a, &[record("w", 100.0, 5001.0)], &bounds());
        assert_eq!(drift.1, 1);
        assert!(drift.0.contains("COUNTER DRIFT"));
    }

    #[test]
    fn details_are_read_from_arrays_and_from_run_logs() {
        let d = record("w", 1.0, 2.0);
        let line = serde_json::to_string(&Json(d.clone())).unwrap();
        let log = format!("# note\ndetail {line}\n{{\"correct\":true}}\n");
        assert_eq!(read_details(&log).unwrap(), vec![d.clone()]);
        assert_eq!(read_details(&format!("[{line}]")).unwrap(), vec![d]);
    }
}
