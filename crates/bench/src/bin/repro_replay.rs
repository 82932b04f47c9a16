//! Deterministic replay benchmark: re-drive a captured workload journal
//! through fresh daemons and prove the responses are **bit-identical**
//! to the one-shot pipeline, at every worker count.
//!
//! ```text
//! repro_replay [--journal FILE] [--requests N] [--designs N] [--seed N]
//!              [--out FILE]
//! ```
//!
//! Two modes:
//!
//! * `--journal PATH` replays an existing journal (captured by
//!   `tcms serve --journal-dir` or `repro_serve_load --journal-dir`).
//!   A directory — or the live `journal.jsonl` inside one — reassembles
//!   rotated segments into the full history; any other file path
//!   replays that single file.
//! * Without it, a **synthetic** workload is generated: a seeded LCG
//!   draws designs from a Zipf-skewed popularity distribution (one
//!   sweep per skew in {0.0, 1.2}, so the report shows how cache hit
//!   rate tracks skew), a capture daemon journals the run, and the
//!   captured file is what gets replayed — exercising the full
//!   capture → load → replay path.
//!
//! Every replay runs at 1, 2 and 4 workers with 4 concurrent clients.
//! For each journaled request the response is compared against the
//! one-shot pipeline result (computed once per unique request, no
//! cache): success outputs must match byte-for-byte, failures must keep
//! their wire class and code. Load-dependent outcomes (`overloaded`,
//! `deadline`, `shutting-down`) are skipped in the comparison — they
//! encode the capture run's timing, not the workload — and counted.
//! The summary lands in `BENCH_replay.json`.

use std::collections::BTreeMap;
use std::time::Instant;

use tcms_bench::workload::{percentile, synthetic_requests};
use tcms_fds::RunBudget;
use tcms_obs::json::{self, JsonValue};
use tcms_obs::NoopRecorder;
use tcms_serve::pipeline::{schedule_request, simulate_request, ExecContext};
use tcms_serve::protocol::{parse_request, Action};
use tcms_serve::{load_journal, load_journal_dir, Client, ServeConfig, Server};

const WORKER_COUNTS: [usize; 3] = [1, 2, 4];
const REPLAY_CLIENTS: usize = 4;

/// Outcome classes that depend on load/timing rather than the request:
/// a replay under different concurrency may legitimately differ.
fn load_dependent(class: &str) -> bool {
    matches!(class, "overloaded" | "deadline" | "shutting-down")
}

/// Runs the workload through a capture daemon and returns the journaled
/// request lines, in journal order.
fn capture(lines: &[String], dir: &std::path::Path) -> Vec<String> {
    let _ = std::fs::remove_dir_all(dir);
    let server = Server::start(ServeConfig {
        listen: "127.0.0.1:0".into(),
        workers: 1,
        queue_capacity: lines.len() + 16,
        journal_dir: Some(dir.to_path_buf()),
        ..ServeConfig::default()
    })
    .expect("capture daemon starts");
    let mut client = Client::connect(server.local_addr()).expect("connect");
    for line in lines {
        client.request(line).expect("capture response");
    }
    let stats = server.journal_stats().expect("journaling is on");
    assert_eq!(
        (stats.recorded, stats.dropped),
        (lines.len() as u64, 0),
        "capture must journal every request"
    );
    server.shutdown();
    server.wait().expect("clean shutdown");

    // A clean shutdown leaves a clean journal: every line loads.
    let path = tcms_serve::journal::journal_path(dir);
    let (records, report) = load_journal(&path).expect("load journal");
    assert_eq!(report.loaded, lines.len());
    assert_eq!(report.skipped, 0);
    assert!(!report.torn_tail);
    records.into_iter().map(|r| r.request).collect()
}

/// The replay-side summary of one response.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Outcome {
    Ok(String),
    Err(String, u16),
}

/// One-shot pipeline result for a raw request line — the ground truth a
/// replayed daemon response must reproduce bit-for-bit.
fn one_shot(line: &str) -> Outcome {
    let ctx = ExecContext {
        cache: None,
        budget: RunBudget::UNLIMITED,
        rec: &NoopRecorder,
        fault_marker: false,
    };
    let wire = |e: &tcms_serve::ServeError| Outcome::Err(e.class().to_owned(), e.code());
    match parse_request(line) {
        Ok(req) => match &req.action {
            Action::Schedule { design, opts } => match schedule_request(design, opts, &ctx) {
                Ok(a) => Outcome::Ok(a.text),
                Err(e) => wire(&e),
            },
            Action::Simulate { design, opts } => match simulate_request(design, opts, &ctx) {
                Ok(a) => Outcome::Ok(a.text),
                Err(e) => wire(&e),
            },
            _ => panic!("journal contains a control action"),
        },
        Err((_, e)) => wire(&e),
    }
}

struct RunResult {
    workers: usize,
    wall_s: f64,
    throughput_rps: f64,
    p50_ms: f64,
    p99_ms: f64,
    hit_rate: f64,
    compared: usize,
    skipped_load_dependent: usize,
}

/// Replays `lines` against a fresh daemon with `workers` workers and
/// `REPLAY_CLIENTS` concurrent clients (lines dealt round-robin), checking
/// every deterministic response against `expected`.
fn replay(
    lines: &[String],
    workers: usize,
    cache_capacity: usize,
    expected: &BTreeMap<String, Outcome>,
) -> RunResult {
    let server = Server::start(ServeConfig {
        listen: "127.0.0.1:0".into(),
        workers,
        queue_capacity: lines.len() + 16,
        cache_capacity,
        ..ServeConfig::default()
    })
    .expect("replay daemon starts");
    let addr = server.local_addr();
    let clients = REPLAY_CLIENTS.min(lines.len()).max(1);
    let started = Instant::now();
    let handles: Vec<_> = (0..clients)
        .map(|c| {
            let mine: Vec<(usize, String)> = lines
                .iter()
                .enumerate()
                .filter(|(i, _)| i % clients == c)
                .map(|(i, l)| (i, l.clone()))
                .collect();
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                mine.into_iter()
                    .map(|(i, line)| {
                        let sent = Instant::now();
                        let resp = client.request(&line).expect("replay response");
                        #[allow(clippy::cast_precision_loss)]
                        let latency_ms = sent.elapsed().as_micros() as f64 / 1000.0;
                        let outcome = match (&resp.error, resp.output()) {
                            (Some((class, code, _)), _) => Outcome::Err(class.clone(), *code),
                            (None, Some(text)) => Outcome::Ok(text.to_owned()),
                            (None, None) => panic!("work response without output"),
                        };
                        (i, line, outcome, latency_ms)
                    })
                    .collect::<Vec<_>>()
            })
        })
        .collect();
    let mut results = Vec::with_capacity(lines.len());
    for h in handles {
        results.extend(h.join().expect("client thread"));
    }
    let wall = started.elapsed();
    assert_eq!(results.len(), lines.len(), "every request gets a response");

    let mut compared = 0usize;
    let mut skipped = 0usize;
    for (i, line, outcome, _) in &results {
        if let Outcome::Err(class, _) = outcome {
            if load_dependent(class) {
                skipped += 1;
                continue;
            }
        }
        let want = expected.get(line).expect("expected outcome computed");
        assert_eq!(
            outcome, want,
            "request {i} at {workers} workers must match the one-shot pipeline bit-for-bit"
        );
        compared += 1;
    }

    let cache = server.cache().stats();
    server.shutdown();
    server.wait().expect("clean shutdown");

    let mut latencies: Vec<f64> = results.iter().map(|(_, _, _, l)| *l).collect();
    latencies.sort_by(f64::total_cmp);
    #[allow(clippy::cast_precision_loss)]
    let throughput = lines.len() as f64 / wall.as_secs_f64();
    RunResult {
        workers,
        wall_s: wall.as_secs_f64(),
        throughput_rps: throughput,
        p50_ms: percentile(&latencies, 0.50),
        p99_ms: percentile(&latencies, 0.99),
        hit_rate: cache.hit_rate(),
        compared,
        skipped_load_dependent: skipped,
    }
}

fn run_json(run: &RunResult) -> JsonValue {
    #[allow(clippy::cast_precision_loss)]
    let count = |n: usize| JsonValue::Number(n as f64);
    let mut m = BTreeMap::new();
    m.insert("workers".to_owned(), count(run.workers));
    m.insert("wall_s".to_owned(), JsonValue::Number(run.wall_s));
    m.insert(
        "throughput_rps".to_owned(),
        JsonValue::Number(run.throughput_rps),
    );
    m.insert("p50_ms".to_owned(), JsonValue::Number(run.p50_ms));
    m.insert("p99_ms".to_owned(), JsonValue::Number(run.p99_ms));
    m.insert("hit_rate".to_owned(), JsonValue::Number(run.hit_rate));
    m.insert("compared".to_owned(), count(run.compared));
    m.insert(
        "skipped_load_dependent".to_owned(),
        count(run.skipped_load_dependent),
    );
    JsonValue::Object(m)
}

/// Captures (when synthetic) and replays one workload; returns its JSON
/// report section.
fn sweep(
    label: &str,
    lines: &[String],
    cache_capacity: usize,
    expected: &mut BTreeMap<String, Outcome>,
) -> JsonValue {
    for line in lines {
        if !expected.contains_key(line) {
            expected.insert(line.clone(), one_shot(line));
        }
    }
    let mut runs = Vec::new();
    for workers in WORKER_COUNTS {
        let run = replay(lines, workers, cache_capacity, expected);
        println!(
            "{label}: {} workers: {:.0} req/s, p50 {:.2} ms, p99 {:.2} ms, \
             hit rate {:.3}, {} compared, {} skipped",
            run.workers,
            run.throughput_rps,
            run.p50_ms,
            run.p99_ms,
            run.hit_rate,
            run.compared,
            run.skipped_load_dependent,
        );
        runs.push(run_json(&run));
    }
    #[allow(clippy::cast_precision_loss)]
    let count = |n: usize| JsonValue::Number(n as f64);
    let mut section = BTreeMap::new();
    section.insert("requests".to_owned(), count(lines.len()));
    section.insert(
        "unique_requests".to_owned(),
        count(
            lines
                .iter()
                .collect::<std::collections::BTreeSet<_>>()
                .len(),
        ),
    );
    section.insert("runs".to_owned(), JsonValue::Array(runs));
    JsonValue::Object(section)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut journal: Option<String> = None;
    let mut requests = 120usize;
    let mut designs = 10usize;
    let mut seed = 7u64;
    let mut cache_capacity = 0usize; // 0 = auto
    let mut out_path = "BENCH_replay.json".to_owned();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let next = |it: &mut std::slice::Iter<'_, String>, flag: &str| {
            it.next()
                .unwrap_or_else(|| panic!("{flag} needs a value"))
                .clone()
        };
        match a.as_str() {
            "--journal" => journal = Some(next(&mut it, "--journal")),
            "--requests" => requests = next(&mut it, "--requests").parse().expect("bad count"),
            "--designs" => designs = next(&mut it, "--designs").parse().expect("bad count"),
            "--seed" => seed = next(&mut it, "--seed").parse().expect("bad seed"),
            "--cache-capacity" => {
                cache_capacity = next(&mut it, "--cache-capacity")
                    .parse()
                    .expect("bad count");
            }
            "--out" => out_path = next(&mut it, "--out"),
            other => panic!("unknown flag `{other}`"),
        }
    }
    assert!(requests > 0 && designs > 0, "counts must be positive");

    let mut expected: BTreeMap<String, Outcome> = BTreeMap::new();
    let mut workloads = BTreeMap::new();
    if let Some(path) = journal {
        // A directory, or the live `journal.jsonl` of a rotating
        // `--journal-dir`, reassembles every sealed segment plus the
        // live tail; any other file path replays that single file.
        let p = std::path::Path::new(&path);
        let (records, report) = if p.is_dir() {
            load_journal_dir(p).expect("load provided journal dir")
        } else if p.file_name().and_then(|n| n.to_str()) == Some(tcms_serve::journal::JOURNAL_FILE)
        {
            load_journal_dir(p.parent().unwrap_or_else(|| std::path::Path::new(".")))
                .expect("load provided journal dir")
        } else {
            load_journal(p).expect("load provided journal")
        };
        println!(
            "journal {path}: {} records loaded, {} skipped{}",
            report.loaded,
            report.skipped,
            if report.torn_tail { " (torn tail)" } else { "" }
        );
        let lines: Vec<String> = records.into_iter().map(|r| r.request).collect();
        assert!(!lines.is_empty(), "journal holds no replayable records");
        let capacity = if cache_capacity == 0 {
            ServeConfig::default().cache_capacity
        } else {
            cache_capacity
        };
        workloads.insert(
            "journal".to_owned(),
            sweep("journal", &lines, capacity, &mut expected),
        );
    } else {
        // Synthetic default: a cache *smaller than the design pool*, so
        // the hit-rate-vs-skew effect is visible — uniform traffic
        // thrashes the LRU, Zipf traffic keeps its hot set resident.
        let capacity = if cache_capacity == 0 {
            (designs / 2).max(2)
        } else {
            cache_capacity
        };
        for alpha in [0.0f64, 1.2] {
            let label = format!("zipf_{alpha:.1}");
            let lines = synthetic_requests(requests, designs, alpha, seed);
            let dir =
                std::env::temp_dir().join(format!("tcms_replay_{label}_{}", std::process::id()));
            let captured = capture(&lines, &dir);
            assert_eq!(captured, lines, "journal preserves the request stream");
            let mut section = sweep(&label, &captured, capacity, &mut expected);
            if let JsonValue::Object(m) = &mut section {
                m.insert("alpha".to_owned(), JsonValue::Number(alpha));
            }
            workloads.insert(label, section);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    let mut doc = BTreeMap::new();
    doc.insert(
        "benchmark".to_owned(),
        JsonValue::String("serve_replay".to_owned()),
    );
    doc.insert(
        "worker_counts".to_owned(),
        JsonValue::Array(
            WORKER_COUNTS
                .iter()
                .map(|w| {
                    #[allow(clippy::cast_precision_loss)]
                    JsonValue::Number(*w as f64)
                })
                .collect(),
        ),
    );
    doc.insert("workloads".to_owned(), JsonValue::Object(workloads));
    let rendered = format!("{}\n", json::to_string(&JsonValue::Object(doc)));
    json::parse(&rendered).expect("valid JSON report");
    std::fs::write(&out_path, rendered).expect("write report");
    println!("report written to {out_path}");
}
