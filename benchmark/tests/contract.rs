//! The names this crate prints are the names `BENCHMARK.json` promises.

use opaque_benchmark::alloc::AllocCounters;
use opaque_benchmark::report::{field, parse_json, read_bounds};
use opaque_benchmark::spec::{Scale, WORKLOADS, workload};
use serde::Value;

static COUNTERS: AllocCounters = AllocCounters::new();

fn benchmark_json() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repository root")
}

fn names(root: &Value, list: &str) -> Vec<String> {
    let Some(Value::Array(items)) = field(root, list) else { panic!("{list} is a list") };
    items
        .iter()
        .map(|i| match field(i, "name") {
            Some(Value::Str(n)) => n.clone(),
            _ => panic!("{list} entries have names"),
        })
        .collect()
}

#[test]
fn workloads_and_end_to_end_metrics_match_the_contract_file() {
    let root = parse_json(&benchmark_json()).unwrap();
    let expected: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    assert_eq!(names(&root, "workloads"), expected);
    let bounds = read_bounds(&benchmark_json()).unwrap();
    assert!(bounds.values().all(|b| b.0 > 0.0 && b.0 <= 0.25));
    let setup = bounds["setup_s"].0;
    assert!(bounds.values().all(|b| b.0 <= setup), "setup_s carries the largest bound");

    // A smoke-scale untraced run of the smallest workload prints exactly
    // the end-to-end names, none of them zero.
    let scale = Scale { seconds: 0.05, quick: true };
    let report = opaque_benchmark::run::run(workload("wire_bare").unwrap(), 14, &scale);
    assert!(report.correct, "{:?}", report.notes);
    assert_eq!(report.failed, 0);
    let printed: Vec<String> = report.end_to_end.iter().map(|m| m.name.clone()).collect();
    assert_eq!(printed, names(&root, "end_to_end"));
    assert!(report.end_to_end.iter().all(|m| m.value > 0.0));
}

#[test]
fn the_traced_run_prints_every_per_layer_metric_and_a_trace_file() {
    let root = parse_json(&benchmark_json()).unwrap();
    let scale = Scale { seconds: 0.05, quick: true };
    let out = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("contract-trace");
    let report =
        opaque_benchmark::trace::run(workload("wire_bare").unwrap(), 14, &scale, &COUNTERS, &out);
    assert!(report.correct, "{:?}", report.notes);
    let printed: Vec<String> = report.per_layer.iter().map(|m| m.name.clone()).collect();
    assert_eq!(printed, names(&root, "per_layer"));
    let trace = std::fs::read_to_string(out.join("wire_bare.trace.jsonl")).unwrap();
    let first = parse_json(trace.lines().next().unwrap()).unwrap();
    let keys: Vec<&str> = first.as_object().unwrap().iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["name", "start", "end", "parent", "window"]);
}
