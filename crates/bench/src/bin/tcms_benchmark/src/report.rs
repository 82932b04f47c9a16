//! Run results, the JSON report envelope and the printed tables.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use tcms_obs::json::{self, JsonValue};

use crate::stats::{median, quartiles, Tally};

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// Unit (`ms`, `s`, `us`, `count`, …).
    pub unit: String,
    /// The measured value.
    pub value: f64,
    /// How many samples the value summarizes.
    pub samples: u64,
}

impl Metric {
    /// A metric summarizing `samples` samples.
    pub fn new(name: &str, unit: &str, value: f64, samples: u64) -> Metric {
        Metric {
            name: name.to_owned(),
            unit: unit.to_owned(),
            value,
            samples,
        }
    }
}

/// Everything one run of one workload measured and checked.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Workload name.
    pub workload: String,
    /// Attempted and failed operations.
    pub tally: Tally,
    /// Checks that are not per operation (input pinning, decomposition
    /// fidelity); any entry makes the run incorrect.
    pub errors: Vec<String>,
    /// The metrics `BENCHMARK.json` lists for this mode (end-to-end
    /// untraced, per-layer traced), in that order.
    pub metrics: Vec<Metric>,
    /// Layer metrics only this workload has (fleet hop, daemon queue),
    /// printed and reported but not part of the listed set.
    pub extras: Vec<Metric>,
    /// fnv64 of the generated inputs.
    pub inputs_digest: u64,
}

impl RunReport {
    /// Whether every output was correct.
    pub fn correct(&self) -> bool {
        self.tally.failed == 0 && self.errors.is_empty()
    }

    /// The run as one JSON object of the report file.
    pub fn to_json(&self) -> JsonValue {
        let mut run = BTreeMap::new();
        run.insert("correct".into(), JsonValue::Bool(self.correct()));
        run.insert("attempted".into(), num_u(self.tally.attempted));
        run.insert("failed".into(), num_u(self.tally.failed));
        run.insert(
            "fail_rate".into(),
            JsonValue::Number(self.tally.fail_rate()),
        );
        run.insert(
            "errors".into(),
            JsonValue::Array(self.errors.iter().cloned().map(JsonValue::String).collect()),
        );
        run.insert(
            "inputs_digest".into(),
            JsonValue::String(format!("{:016x}", self.inputs_digest)),
        );
        run.insert("metrics".into(), metrics_json(&self.metrics, true));
        run.insert("extras".into(), metrics_json(&self.extras, true));
        JsonValue::Object(run)
    }
}

fn num_u(v: u64) -> JsonValue {
    #[allow(clippy::cast_precision_loss)]
    JsonValue::Number(v as f64)
}

fn metrics_json(metrics: &[Metric], with_samples: bool) -> JsonValue {
    JsonValue::Object(
        metrics
            .iter()
            .map(|m| {
                let mut o = BTreeMap::new();
                o.insert("value".into(), JsonValue::Number(m.value));
                o.insert("unit".into(), JsonValue::String(m.unit.clone()));
                if with_samples {
                    o.insert("samples".into(), num_u(m.samples));
                }
                (m.name.clone(), JsonValue::Object(o))
            })
            .collect(),
    )
}

/// The result line, the last line of standard output: `correct`,
/// `attempted`, `failed` and the listed metrics with their units.
pub fn result_line(correct: bool, tally: Tally, metrics: &[Metric]) -> String {
    let mut o = BTreeMap::new();
    o.insert("correct".into(), JsonValue::Bool(correct));
    o.insert("attempted".into(), num_u(tally.attempted));
    o.insert("failed".into(), num_u(tally.failed));
    o.insert("metrics".into(), metrics_json(metrics, false));
    json::to_string(&JsonValue::Object(o))
}

/// Prints a run's metrics as an aligned table: name, value, unit and
/// sample count.
pub fn print_run(run: &RunReport) {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "== {}: {} attempted, {} failed (fail_rate {}), inputs {:016x}",
        run.workload,
        run.tally.attempted,
        run.tally.failed,
        run.tally.fail_rate(),
        run.inputs_digest
    );
    for e in &run.errors {
        let _ = writeln!(out, "   ERROR {e}");
    }
    for (title, list) in [("listed", &run.metrics), ("workload-only", &run.extras)] {
        if list.is_empty() {
            continue;
        }
        let _ = writeln!(out, "   -- {title} metrics");
        for m in list {
            let _ = writeln!(
                out,
                "   {:<28} {:>16.4} {:<6} (n={})",
                m.name, m.value, m.unit, m.samples
            );
        }
    }
    print!("{out}");
}

/// The machine and run settings every report records.
#[derive(Debug, Clone)]
pub struct Envelope {
    /// Commit the benchmark ran at, `unknown` outside a git checkout.
    pub git_rev: String,
    /// Available hardware threads.
    pub nproc: usize,
    /// Scheduler threads, as `tcms-fds` resolves them (`TCMS_THREADS`,
    /// else the available hardware threads).
    pub threads: usize,
    /// Worker threads per daemon.
    pub workers: usize,
    /// Load-generating caller threads of the serve workloads.
    pub callers: usize,
    /// Workload seed.
    pub seed: u64,
    /// Measured seconds per run.
    pub seconds: f64,
    /// Whether the runs were traced (per-layer metrics).
    pub trace: bool,
    /// Whether this was a `--quick` run.
    pub quick: bool,
}

/// Assembles the report file from each workload's runs: the envelope,
/// every run, and per metric its values across runs with their count,
/// median and quartiles.
pub fn report_json(env: &Envelope, workloads: &BTreeMap<String, Vec<JsonValue>>) -> String {
    let mut doc = BTreeMap::new();
    doc.insert(
        "benchmark".into(),
        JsonValue::String("tcms_benchmark".into()),
    );
    doc.insert("schema".into(), num_u(1));
    doc.insert("git_rev".into(), JsonValue::String(env.git_rev.clone()));
    doc.insert("nproc".into(), num_u(env.nproc as u64));
    doc.insert("threads".into(), num_u(env.threads as u64));
    doc.insert("workers".into(), num_u(env.workers as u64));
    doc.insert("callers".into(), num_u(env.callers as u64));
    doc.insert("seed".into(), num_u(env.seed));
    doc.insert("seconds".into(), JsonValue::Number(env.seconds));
    doc.insert("trace".into(), JsonValue::Bool(env.trace));
    doc.insert("quick".into(), JsonValue::Bool(env.quick));
    let mut ws = BTreeMap::new();
    for (name, runs) in workloads {
        let mut w = BTreeMap::new();
        w.insert("metrics".into(), summarize(runs));
        w.insert("runs".into(), JsonValue::Array(runs.clone()));
        ws.insert(name.clone(), JsonValue::Object(w));
    }
    doc.insert("workloads".into(), JsonValue::Object(ws));
    json::to_string(&JsonValue::Object(doc)) + "\n"
}

/// Per metric (listed and workload-only) across runs: unit, values,
/// run count, median and quartiles.
fn summarize(runs: &[JsonValue]) -> JsonValue {
    let mut values: BTreeMap<String, (String, Vec<f64>)> = BTreeMap::new();
    for run in runs {
        for section in ["metrics", "extras"] {
            let Some(ms) = run.get(section).and_then(JsonValue::as_object) else {
                continue;
            };
            for (name, m) in ms {
                let (Some(v), Some(unit)) = (
                    m.get("value").and_then(JsonValue::as_f64),
                    m.get("unit").and_then(JsonValue::as_str),
                ) else {
                    continue;
                };
                let entry = values
                    .entry(name.clone())
                    .or_insert_with(|| (unit.to_owned(), Vec::new()));
                entry.1.push(v);
            }
        }
    }
    JsonValue::Object(
        values
            .into_iter()
            .map(|(name, (unit, vs))| {
                let mut o = BTreeMap::new();
                let (q1, q3) = quartiles(&vs).unwrap_or((0.0, 0.0));
                o.insert("unit".into(), JsonValue::String(unit));
                o.insert("n".into(), num_u(vs.len() as u64));
                o.insert(
                    "median".into(),
                    JsonValue::Number(median(&vs).unwrap_or(0.0)),
                );
                o.insert("q1".into(), JsonValue::Number(q1));
                o.insert("q3".into(), JsonValue::Number(q3));
                o.insert(
                    "values".into(),
                    JsonValue::Array(vs.into_iter().map(JsonValue::Number).collect()),
                );
                (name, JsonValue::Object(o))
            })
            .collect(),
    )
}

/// `VmHWM` of this process (its peak resident set) in MiB.
pub fn vm_hwm_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kib = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
        .unwrap_or(0.0);
    kib / 1024.0
}

/// The checked-out commit, read from `.git` in the working directory
/// (no process is started); `unknown` when there is none.
pub fn git_rev() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_owned();
    };
    read(&format!(".git/{reference}"))
        .map(|s| s.trim().to_owned())
        .or_else(|| {
            read(".git/packed-refs")?.lines().find_map(|l| {
                let (rev, name) = l.split_once(' ')?;
                (name == reference).then(|| rev.to_owned())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}
