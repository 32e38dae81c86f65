//! Runs every workload at smoke size, untraced and traced, and checks the
//! output against `BENCHMARK.json`: every workload named there, each
//! result line correct, and every end-to-end (untraced) or per-layer
//! (traced) metric present, finite, and in its declared unit.

use std::collections::BTreeSet;
use std::path::Path;
use std::process::Command;

use carat_benchmark::compare::Json;
use carat_benchmark::stats::valid_name;
use carat_benchmark::workload::Workload;

fn spec() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

/// `(workload, result line)` pairs printed by one invocation.
fn smoke(trace: &str) -> Vec<(String, Json)> {
    let out = Command::new(env!("CARGO_BIN_EXE_carat-benchmark"))
        .args(["--smoke", "--seed", "11", "--trace", trace])
        .output()
        .expect("benchmark runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "smoke run failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let mut workload = String::new();
    let mut results = Vec::new();
    for line in stdout.lines() {
        if let Some(rest) = line.strip_prefix("# carat-benchmark workload=") {
            workload = rest.split_whitespace().next().unwrap_or("").to_string();
        } else if line.starts_with('{') {
            results.push((
                workload.clone(),
                Json::parse(line).expect("result line parses"),
            ));
        }
    }
    results
}

fn check(section: &str, trace: &str) {
    let spec = spec();
    let declared: Vec<(&str, &str)> = spec
        .get(section)
        .map(Json::arr)
        .unwrap_or_default()
        .iter()
        .map(|m| {
            (
                m.get("name").and_then(Json::str).expect("metric name"),
                m.get("unit").and_then(Json::str).expect("metric unit"),
            )
        })
        .collect();
    assert!(!declared.is_empty(), "{section} declares metrics");
    let results = smoke(trace);
    let seen: BTreeSet<&str> = results.iter().map(|(w, _)| w.as_str()).collect();
    let want: BTreeSet<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(seen, want, "one result per workload");
    for (w, result) in &results {
        assert_eq!(result.get("correct"), Some(&Json::Bool(true)), "{w}");
        let keys: Vec<&str> = result.entries().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"], "{w}");
        let metrics = result.get("metrics").expect("metrics");
        assert_eq!(metrics.entries().len(), declared.len(), "{w}: metric count");
        for &(name, unit) in &declared {
            let m = metrics
                .get(name)
                .unwrap_or_else(|| panic!("{w}: {name} missing"));
            let v = m.get("value").and_then(Json::num).expect("numeric value");
            assert!(v.is_finite(), "{w}: {name} = {v}");
            assert_eq!(m.get("unit").and_then(Json::str), Some(unit), "{w}: {name}");
        }
    }
}

#[test]
fn untraced_smoke_reports_every_end_to_end_metric() {
    check("end_to_end", "0");
}

#[test]
fn traced_smoke_reports_every_per_layer_metric() {
    check("per_layer", "1");
}

#[test]
fn declared_names_use_the_restricted_charset() {
    let spec = spec();
    let mut names = BTreeSet::new();
    for section in ["workloads", "end_to_end", "per_layer"] {
        for m in spec.get(section).map(Json::arr).unwrap_or_default() {
            let name = m.get("name").and_then(Json::str).expect("name");
            assert!(valid_name(name), "{section}: `{name}`");
            assert!(names.insert(name), "`{name}` is used twice");
        }
    }
}
