//! `tcms_benchmark`: one benchmark for compile time, area and serve
//! latency of the TCMS stack, over four workloads, end to end and
//! layer by layer. See README.md next to this package for the metric
//! definitions and why each workload exists.
//!
//! ```text
//! tcms_benchmark [--workload NAME] [--seed S] [--seconds N] [--trace 0|1]
//!                [--quick] [--repeat N] [--out FILE] [--trace-dir DIR]
//! tcms_benchmark compare PARENT.json CHANGE.json [--bounds BENCHMARK.json]
//! ```
//!
//! With `--workload` and one repeat the workload runs in this process;
//! otherwise every (repeat, workload) runs in a child process of its own
//! (this executable again), so set-up time and peak memory belong to one
//! workload each. The last line of standard output is one JSON object
//! with `correct`, `attempted`, `failed` and the metrics.

mod compare;
mod golden;
mod inputs;
mod layers;
mod oneshot;
mod report;
mod serve;
mod speed;
mod stats;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Duration;

use tcms_obs::json::{self, JsonValue};
use tcms_obs::TraceData;

use crate::report::{Envelope, Metric, RunReport};
use crate::speed::Probe;
use crate::stats::{median, tail, Tally};

/// The workloads, in the order a full run executes them.
const WORKLOADS: [&str; 4] = ["table1", "synth_scale", "serve_hot", "fleet_proxy"];

/// Measured seconds per run unless `--seconds` says otherwise: the
/// `run_seconds` of `BENCHMARK.json` (runs of its command pass that as
/// `--seconds`; a unit test keeps the two equal).
const DEFAULT_SECONDS: f64 = 25.0;

/// Measured seconds per run of a `--quick` smoke run.
const QUICK_SECONDS: f64 = 0.3;

/// Where reports and traces go unless told otherwise.
const OUT_DIR: &str = "target/tcms_benchmark";

/// How one run is measured.
#[derive(Debug, Clone)]
pub struct Settings {
    /// Workload seed.
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: Duration,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Smoke run: one set-up, one pass, tiny probes.
    pub quick: bool,
    /// Directory for Chrome trace files.
    pub trace_dir: PathBuf,
}

impl Settings {
    /// Set-ups per run, `setup_s` being their median: `full` in a full
    /// run, one in a `--quick` run.
    pub fn setup_repeats(&self, full: usize) -> usize {
        if self.quick {
            1
        } else {
            full
        }
    }

    /// Operations every run completes however short `seconds` is (a
    /// traced one-shot run needs a plain and a decomposed pass).
    pub fn min_ops(&self) -> u64 {
        if self.trace {
            2
        } else {
            1
        }
    }

    /// Repetitions of the cached-branch replay in traced runs.
    pub fn hit_reps(&self) -> usize {
        if self.quick {
            1
        } else {
            5
        }
    }

    /// The serve probe alternates plain and decomposed passes for at
    /// least this many passes and this long.
    pub fn probe_budget(&self) -> (u64, Duration) {
        if self.quick {
            (2, Duration::ZERO)
        } else {
            (4, Duration::from_secs(3))
        }
    }

    /// Writes one recorder's spans as a Chrome trace file.
    pub fn write_trace(&self, workload: &str, part: &str, data: TraceData) {
        let quick = if self.quick { "_quick" } else { "" };
        let path = self.trace_dir.join(format!(
            "{workload}-seed{}{quick}.{part}.trace.json",
            self.seed
        ));
        let written = std::fs::create_dir_all(&self.trace_dir)
            .and_then(|()| std::fs::write(&path, tcms_obs::sink::to_chrome_trace(&data)));
        match written {
            Ok(()) => eprintln!("trace written to {}", path.display()),
            Err(e) => eprintln!("warning: cannot write {}: {e}", path.display()),
        }
    }
}

/// The end-to-end metrics of an untraced run, and the two measurements
/// `op_ms_p50_ref` is made of: the wall-clock `op_ms_p50` and the
/// median probe time `bench.speed_probe_ms`. `vm_hwm_mb` is the process's
/// `VmHWM` when the timed phase ended, before the oracle and the
/// statistics allocate in proportion to the operations completed;
/// `peak_rss_mb` leaves out the probe's buffer.
#[allow(clippy::cast_precision_loss)]
pub fn end_to_end(
    setup_s: &[f64],
    op_ms: &[f64],
    probe: &Probe,
    total_area: u64,
    vm_hwm_mb: f64,
) -> (Vec<Metric>, [Metric; 2]) {
    let n = op_ms.len() as u64;
    let p50 = median(op_ms).unwrap_or(0.0);
    let (probe_ms, probes) = probe.median_ms();
    (
        vec![
            Metric::new(
                "setup_s",
                "s",
                median(setup_s).unwrap_or(0.0),
                setup_s.len() as u64,
            ),
            Metric::new("op_ms_p50_ref", "ms", speed::at_reference(p50, probe_ms), n),
            Metric::new("total_area", "area", total_area as f64, 1),
            Metric::new("peak_rss_mb", "MiB", vm_hwm_mb - speed::BUFFER_MIB, 1),
        ],
        [
            Metric::new("op_ms_p50", "ms", p50, n),
            Metric::new("bench.speed_probe_ms", "ms", probe_ms, probes),
        ],
    )
}

/// Rate and tail of the operations: `throughput_ops_s` (`ops` over
/// `busy_s` seconds), `op_ms_tail` (the highest percentile of `op_ms`
/// with at least ten samples beyond it) and that percentile. Both are
/// per-layer metrics: on the reference machine their run-to-run spread
/// was wider than any bound an end-to-end metric may have (README,
/// "Steadiness").
pub fn op_metrics(op_ms: &[f64], ops: u64, busy_s: f64) -> [Metric; 3] {
    let n = op_ms.len() as u64;
    // With ten or fewer operations no percentile has ten samples beyond
    // it; the slowest one stands in.
    let (p, ms) = tail(op_ms).unwrap_or((100.0, op_ms.iter().copied().fold(0.0, f64::max)));
    #[allow(clippy::cast_precision_loss)]
    [
        Metric::new("throughput_ops_s", "1/s", ops as f64 / busy_s, ops),
        Metric::new("op_ms_tail", "ms", ms, n),
        Metric::new("op_tail_percentile", "%", p, n),
    ]
}

/// `100 * (traced p50 / untraced p50 - 1)`.
pub fn overhead_pct(traced: &[f64], untraced: &[f64]) -> f64 {
    match (median(traced), median(untraced)) {
        (Some(t), Some(u)) if u > 0.0 => 100.0 * (t / u - 1.0),
        _ => 0.0,
    }
}

fn run_workload(name: &str, s: &Settings) -> Result<RunReport, String> {
    let mut run = match name {
        "table1" => oneshot::run(name, inputs::table1, s),
        "synth_scale" => oneshot::run(name, inputs::synth_scale, s),
        "serve_hot" => serve::run_hot(s),
        "fleet_proxy" => serve::run_fleet(s),
        other => Err(format!("unknown workload `{other}` (one of {WORKLOADS:?})")),
    }?;
    if run.tally.attempted == 0 {
        run.errors.push("no operation completed".into());
        run.tally.record(1, false);
    }
    Ok(run)
}

/// Parsed command line of a measuring run.
struct Cli {
    workload: Option<String>,
    settings: Settings,
    repeat: usize,
    out: Option<PathBuf>,
}

fn usage() -> String {
    "usage: tcms_benchmark [--workload NAME] [--seed S] [--seconds N] [--trace 0|1] [--quick] \
     [--repeat N] [--out FILE] [--trace-dir DIR]\n       \
     tcms_benchmark compare PARENT.json CHANGE.json [--bounds BENCHMARK.json]\n\
     workloads: table1 synth_scale serve_hot fleet_proxy"
        .to_owned()
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = None;
    let mut trace = false;
    let mut quick = false;
    let mut repeat = 1usize;
    let mut out = None;
    let mut trace_dir = PathBuf::from(OUT_DIR);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        let bad = |what: &str| format!("{flag}: {what}");
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|_| bad("not a number"))?,
            "--seconds" => {
                let v: f64 = value()?.parse().map_err(|_| bad("not a number"))?;
                if !(v > 0.0 && v <= 3600.0) {
                    return Err(bad("must be in (0, 3600]"));
                }
                seconds = Some(v);
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("must be 0 or 1")),
                }
            }
            "--quick" => quick = true,
            "--repeat" => {
                repeat = value()?.parse().map_err(|_| bad("not a number"))?;
                if repeat == 0 {
                    return Err(bad("must be at least 1"));
                }
            }
            "--out" => out = Some(PathBuf::from(value()?)),
            "--trace-dir" => trace_dir = PathBuf::from(value()?),
            "-h" | "--help" => return Err(usage()),
            other => return Err(format!("unknown flag `{other}`\n{}", usage())),
        }
    }
    if let Some(w) = &workload {
        if !WORKLOADS.contains(&w.as_str()) {
            return Err(format!("unknown workload `{w}` (one of {WORKLOADS:?})"));
        }
    }
    let default_seconds = if quick {
        QUICK_SECONDS
    } else {
        DEFAULT_SECONDS
    };
    Ok(Cli {
        workload,
        settings: Settings {
            seed,
            seconds: Duration::from_secs_f64(seconds.unwrap_or(default_seconds)),
            trace,
            quick,
            trace_dir,
        },
        repeat,
        out,
    })
}

/// A `--quick` run may only write a `*_quick.json` report, so a smoke
/// run can never overwrite a full run's numbers.
fn quick_guard(quick: bool, out: &Path) -> Result<(), String> {
    let stem = out.file_stem().and_then(|s| s.to_str()).unwrap_or("");
    if quick && !stem.ends_with("_quick") {
        return Err(format!(
            "refusing to write a --quick report to {} (quick reports must be named *_quick.json)",
            out.display()
        ));
    }
    Ok(())
}

/// Runs one workload in a child process and returns its run object.
fn run_child(workload: &str, rep: usize, cli: &Cli) -> Result<JsonValue, String> {
    let s = &cli.settings;
    let quick = if s.quick { "_quick" } else { "" };
    let out = PathBuf::from(OUT_DIR).join(format!("child-{workload}-{rep}{quick}.json"));
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &s.seed.to_string()])
        .args(["--seconds", &s.seconds.as_secs_f64().to_string()])
        .args(["--trace", if s.trace { "1" } else { "0" }])
        .arg("--out")
        .arg(&out)
        .arg("--trace-dir")
        .arg(&s.trace_dir);
    if s.quick {
        cmd.arg("--quick");
    }
    let status = cmd
        .status()
        .map_err(|e| format!("{workload}: cannot start: {e}"))?;
    // Exit 1 is a finished run with wrong outputs; its report exists.
    if !matches!(status.code(), Some(0 | 1)) {
        return Err(format!("{workload}: child run failed ({status})"));
    }
    let text = std::fs::read_to_string(&out).map_err(|e| format!("{}: {e}", out.display()))?;
    let _ = std::fs::remove_file(&out);
    let doc = json::parse(&text)?;
    doc.get("workloads")
        .and_then(|w| w.get(workload))
        .and_then(|w| w.get("runs"))
        .and_then(JsonValue::as_array)
        .and_then(|runs| runs.first().cloned())
        .ok_or_else(|| format!("{workload}: child report has no run"))
}

fn write_report(path: &Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))?;
    eprintln!("report written to {}", path.display());
    Ok(())
}

fn measure(cli: &Cli) -> Result<bool, String> {
    let s = &cli.settings;
    let out = cli.out.clone().unwrap_or_else(|| {
        PathBuf::from(OUT_DIR).join(if s.quick {
            "report_quick.json"
        } else {
            "report.json"
        })
    });
    quick_guard(s.quick, &out)?;
    let env = Envelope {
        git_rev: report::git_rev(),
        nproc: std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
        threads: tcms_fds::threads::current(),
        workers: serve::WORKERS,
        callers: serve::CALLERS,
        seed: s.seed,
        seconds: s.seconds.as_secs_f64(),
        trace: s.trace,
        quick: s.quick,
    };

    if let (Some(w), 1) = (&cli.workload, cli.repeat) {
        let run = run_workload(w, s)?;
        report::print_run(&run);
        let mut runs = BTreeMap::new();
        runs.insert(w.clone(), vec![run.to_json()]);
        write_report(&out, &report::report_json(&env, &runs))?;
        println!(
            "{}",
            report::result_line(run.correct(), run.tally, &run.metrics)
        );
        return Ok(run.correct());
    }

    let selected: Vec<&str> = match &cli.workload {
        Some(w) => vec![w.as_str()],
        None => WORKLOADS.to_vec(),
    };
    let mut runs: BTreeMap<String, Vec<JsonValue>> = BTreeMap::new();
    for rep in 0..cli.repeat {
        for w in &selected {
            runs.entry((*w).to_owned())
                .or_default()
                .push(run_child(w, rep, cli)?);
        }
    }
    let text = report::report_json(&env, &runs);
    write_report(&out, &text)?;

    // One result line over everything: medians across repeats, named
    // `workload/metric`.
    let mut tally = Tally::default();
    let mut correct = true;
    let mut medians = Vec::new();
    let doc = json::parse(&text)?;
    for (w, list) in &runs {
        for run in list {
            let num = |k: &str| run.get(k).and_then(JsonValue::as_f64).unwrap_or(0.0);
            #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
            {
                tally.attempted += num("attempted") as u64;
                tally.failed += num("failed") as u64;
            }
            correct &= run.get("correct") == Some(&JsonValue::Bool(true));
        }
        let listed: Vec<String> = list
            .first()
            .and_then(|r| r.get("metrics"))
            .and_then(JsonValue::as_object)
            .map(|m| m.keys().cloned().collect())
            .unwrap_or_default();
        let summary = doc
            .get("workloads")
            .and_then(|d| d.get(w))
            .and_then(|d| d.get("metrics"));
        for name in listed {
            let Some(m) = summary.and_then(|s| s.get(&name)) else {
                continue;
            };
            let unit = m.get("unit").and_then(JsonValue::as_str).unwrap_or("");
            let value = m.get("median").and_then(JsonValue::as_f64).unwrap_or(0.0);
            medians.push(Metric::new(
                &format!("{w}/{name}"),
                unit,
                value,
                list.len() as u64,
            ));
        }
    }
    println!("{}", report::result_line(correct, tally, &medians));
    Ok(correct)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        return match compare::run(&args[1..]) {
            Ok(false) => ExitCode::SUCCESS,
            Ok(true) => ExitCode::from(1),
            Err(e) => {
                eprintln!("tcms_benchmark compare: {e}");
                ExitCode::from(2)
            }
        };
    }
    let cli = match parse_cli(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    match measure(&cli) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("tcms_benchmark: {e}");
            ExitCode::from(3)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_runs_refuse_full_run_report_paths() {
        assert!(quick_guard(true, Path::new("target/tcms_benchmark/report.json")).is_err());
        assert!(quick_guard(true, Path::new("BENCH_partition.json")).is_err());
        assert!(quick_guard(true, Path::new("target/tcms_benchmark/report_quick.json")).is_ok());
        assert!(quick_guard(false, Path::new("target/tcms_benchmark/report.json")).is_ok());
    }

    #[test]
    fn the_default_run_length_is_benchmark_json_run_seconds() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../../../../BENCHMARK.json");
        let doc = json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let run_seconds = doc.get("run_seconds").and_then(JsonValue::as_f64);
        assert_eq!(run_seconds, Some(DEFAULT_SECONDS));
    }

    #[test]
    fn op_metrics_fall_back_to_the_slowest_operation_without_a_tail() {
        let [rate, tail, pct] = op_metrics(&[10.0, 30.0, 20.0], 3, 2.0);
        assert!((rate.value - 1.5).abs() < 1e-12);
        assert!((tail.value - 30.0).abs() < 1e-12);
        assert!((pct.value - 100.0).abs() < 1e-12);
    }

    #[test]
    fn end_to_end_metrics_scale_by_the_probe_and_leave_out_its_buffer() {
        let mut probe = Probe::new();
        probe.sample(3);
        let (probe_ms, _) = probe.median_ms();
        let hwm = speed::BUFFER_MIB + 3.5;
        let (m, raw) = end_to_end(&[0.5, 0.4, 0.6], &[10.0, 30.0, 20.0], &probe, 41, hwm);
        let get = |n: &str| m.iter().chain(&raw).find(|x| x.name == n).unwrap().value;
        assert!((get("setup_s") - 0.5).abs() < 1e-12);
        assert!((get("op_ms_p50") - 20.0).abs() < 1e-12);
        assert!((get("bench.speed_probe_ms") - probe_ms).abs() < 1e-12);
        let scaled = 20.0 * speed::REFERENCE_MS / probe_ms;
        assert!((get("op_ms_p50_ref") - scaled).abs() < 1e-9);
        assert!((get("total_area") - 41.0).abs() < 1e-12);
        assert!((get("peak_rss_mb") - 3.5).abs() < 1e-12);
    }
}
