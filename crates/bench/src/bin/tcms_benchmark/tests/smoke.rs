//! Smoke test: every workload end to end with `--quick` (one set-up, one
//! pass, tiny probes), untraced and traced, through the self-exec path
//! that runs each workload in its own process. Checks that every metric
//! `BENCHMARK.json` lists comes out for every workload, and that a quick
//! run cannot overwrite a full run's report.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use tcms_obs::json::{self, JsonValue};

const WORKLOADS: [&str; 4] = ["table1", "synth_scale", "serve_hot", "fleet_proxy"];

fn bench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_tcms_benchmark"))
        .args(args)
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("the benchmark starts")
}

fn benchmark_json() -> JsonValue {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../../../../BENCHMARK.json");
    json::parse(&std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root"))
        .expect("BENCHMARK.json parses")
}

fn listed(doc: &JsonValue, section: &str) -> Vec<String> {
    doc.get(section)
        .and_then(JsonValue::as_array)
        .expect("metric list")
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(JsonValue::as_str)
                .expect("name")
                .to_owned()
        })
        .collect()
}

fn result_line(out: &Output) -> JsonValue {
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().expect("a result line");
    json::parse(last).expect("the last line is JSON")
}

#[test]
fn every_workload_runs_quick_and_reports_every_listed_metric() {
    let doc = benchmark_json();
    for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
        let out = bench(&["--quick", "--seed", "1", "--trace", trace]);
        assert!(
            out.status.success(),
            "trace {trace}: {}\n{}",
            String::from_utf8_lossy(&out.stdout),
            String::from_utf8_lossy(&out.stderr)
        );
        let result = result_line(&out);
        assert_eq!(result.get("correct"), Some(&JsonValue::Bool(true)));
        assert_eq!(result.get("failed").and_then(JsonValue::as_f64), Some(0.0));
        assert!(result.get("attempted").and_then(JsonValue::as_f64) >= Some(1.0));
        let metrics = result.get("metrics").expect("metrics");
        for w in WORKLOADS {
            for m in listed(&doc, section) {
                let value = metrics
                    .get(&format!("{w}/{m}"))
                    .and_then(|v| v.get("value"))
                    .and_then(JsonValue::as_f64);
                assert!(
                    value.is_some_and(f64::is_finite),
                    "trace {trace}: no {w}/{m}"
                );
            }
        }
    }
}

#[test]
fn a_quick_run_refuses_the_full_run_report_path() {
    let full: PathBuf = ["target", "tcms_benchmark", "guard", "report.json"]
        .iter()
        .collect();
    let out = bench(&[
        "--quick",
        "--workload",
        "table1",
        "--out",
        full.to_str().unwrap(),
    ]);
    assert!(!out.status.success());
    assert!(out.stdout.is_empty(), "no result line for a refused run");
    assert!(!Path::new(env!("CARGO_TARGET_TMPDIR")).join(&full).exists());
}
