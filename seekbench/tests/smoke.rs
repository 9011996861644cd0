//! Runs every workload at tiny sizes, traced and untraced, and checks the
//! result line against `BENCHMARK.json`: every run is correct and reports
//! exactly the metrics the benchmark declares, with their units.

use std::collections::BTreeMap;
use std::process::Command;

use seeker_obs::json::{parse, JsonValue};

/// `name → field` of every entry of a `BENCHMARK.json` section.
fn declared(section: &str, field: &str) -> BTreeMap<String, String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
    let doc = parse(&text).expect("BENCHMARK.json is valid JSON");
    doc.get(section)
        .and_then(JsonValue::as_array)
        .expect("the section is an array")
        .iter()
        .map(|m| {
            let text =
                |k| m.get(k).and_then(JsonValue::as_str).expect("entries hold strings").to_string();
            (text("name"), text(field))
        })
        .collect()
}

fn run(workload: &str, trace: &str) -> JsonValue {
    let out = Command::new(env!("CARGO_BIN_EXE_seekbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            "5",
            "--seconds",
            "0",
            "--trace",
            trace,
            "--smoke",
        ])
        .output()
        .expect("the benchmark binary starts");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{workload} --trace {trace} failed: {stderr}");
    let stdout = String::from_utf8(out.stdout).expect("stdout is UTF-8");
    let last = stdout.lines().last().expect("a result line");
    parse(last).expect("the result line is JSON")
}

#[test]
fn every_workload_runs_at_tiny_sizes() {
    let names: Vec<String> = declared("workloads", "why").into_keys().collect();
    assert_eq!(names, ["infer-scale", "serve-1k", "train-paper"]);
    for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
        let want = declared(section, "unit");
        for workload in &names {
            let doc = run(workload, trace);
            assert_eq!(
                doc.get("correct"),
                Some(&JsonValue::Bool(true)),
                "{workload} --trace {trace}"
            );
            assert_eq!(doc.get("failed").and_then(JsonValue::as_f64), Some(0.0));
            assert!(doc.get("attempted").and_then(JsonValue::as_f64).is_some_and(|n| n >= 1.0));
            let got: BTreeMap<String, String> = doc
                .get("metrics")
                .and_then(JsonValue::as_object)
                .expect("a metrics object")
                .iter()
                .map(|(name, m)| {
                    assert!(
                        m.get("value").and_then(JsonValue::as_f64).is_some(),
                        "{workload}: {name} has no value"
                    );
                    (
                        name.clone(),
                        m.get("unit").and_then(JsonValue::as_str).unwrap_or_default().to_string(),
                    )
                })
                .collect();
            assert_eq!(
                got, want,
                "{workload} --trace {trace} reports other metrics than BENCHMARK.json declares"
            );
        }
    }
}
