//! End-to-end acceptance of the `tcms-serve` daemon over real loopback
//! TCP: malformed corpus inputs come back as typed wire errors, daemon
//! responses are bit-identical to the one-shot CLI on both cache miss
//! and hit, simultaneous identical requests coalesce into a single
//! scheduler run, warm hits perform zero IFDS iterations, repeated
//! requests answered from the answer index are indistinguishable from
//! full-path hits, and the installed `tcms serve` / `tcms client`
//! binaries round-trip.

use std::io::{BufRead, BufReader};
use std::process::{Command as Proc, Stdio};
use std::sync::{Arc, Barrier};

use tcms::cli::{run, Command};
use tcms::obs::json::JsonValue;
use tcms::serve::client::{control_request_line, schedule_request_line, simulate_request_line};
use tcms::serve::{Client, ExecContext, ScheduleOptions, ServeConfig, Server, SimulateOptions};

fn corpus_files() -> Vec<std::path::PathBuf> {
    let dir = format!("{}/tests/corpus", env!("CARGO_MANIFEST_DIR"));
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .expect("corpus directory exists")
        .map(|e| e.unwrap().path())
        .filter(|p| p.is_file())
        .collect();
    files.sort();
    files
}

fn design_path(name: &str) -> String {
    format!("{}/designs/{name}", env!("CARGO_MANIFEST_DIR"))
}

fn start_server() -> Server {
    Server::start(ServeConfig {
        listen: "127.0.0.1:0".into(),
        workers: 2,
        ..ServeConfig::default()
    })
    .expect("daemon starts on loopback")
}

/// Reads one numeric field out of a `stats` response.
fn stat(client: &mut Client, field: &str) -> u64 {
    let resp = client
        .request(&control_request_line("stats", "stats"))
        .expect("stats round-trip");
    assert!(resp.is_ok(), "{resp:?}");
    let v = resp
        .body
        .get(field)
        .and_then(JsonValue::as_f64)
        .unwrap_or_else(|| panic!("stats response lacks `{field}`: {resp:?}"));
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    {
        v as u64
    }
}

/// A response body with its echoed `id` removed: everything the daemon
/// computed for the request.
fn without_id(body: &JsonValue) -> JsonValue {
    let mut map = body.as_object().expect("response object").clone();
    map.remove("id");
    JsonValue::Object(map)
}

/// Every malformed corpus file must come back as the same typed wire
/// error the one-shot CLI reports: class `malformed`, code 4 — never a
/// dropped connection, never a panic, never a success.
#[test]
fn corpus_replays_get_typed_malformed_errors() {
    let server = start_server();
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let opts = ScheduleOptions {
        all_global: Some(5),
        ..ScheduleOptions::default()
    };
    for path in corpus_files() {
        let design = std::fs::read_to_string(&path).unwrap();
        let id = path.file_name().unwrap().to_string_lossy().into_owned();
        let resp = client
            .request(&schedule_request_line(&id, &design, &opts, None))
            .expect("response arrives");
        let (class, code, message) = resp
            .error
            .clone()
            .unwrap_or_else(|| panic!("{id}: malformed input was accepted: {resp:?}"));
        assert_eq!(class, "malformed", "{id}: {message}");
        assert_eq!(code, 4, "{id}");
        assert!(!message.is_empty(), "{id}");
    }
    // The daemon survived twenty poison pills and still answers.
    assert!(client
        .request(&control_request_line("alive", "ping"))
        .expect("ping after corpus")
        .is_ok());
    server.shutdown();
    server.wait().unwrap();
}

/// The daemon's schedule output must match the one-shot CLI byte for
/// byte, on the cold-cache miss AND on the warm-cache hit; so must its
/// simulate output, including on a 635-op design.
#[test]
fn daemon_output_is_bit_identical_to_one_shot_cli() {
    let input = design_path("paper_table1.dfg");
    let one_shot = run(&Command::Schedule {
        input: input.clone(),
        opts: ScheduleOptions {
            all_global: Some(5),
            gantt: true,
            verify: 2,
            ..ScheduleOptions::default()
        },
        save: None,
        trace: None,
        metrics: false,
        timeline: None,
        threads: None,
        cache_dir: None,
    })
    .unwrap();

    let server = start_server();
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let design = std::fs::read_to_string(&input).unwrap();
    let opts = ScheduleOptions {
        all_global: Some(5),
        gantt: true,
        verify: 2,
        ..ScheduleOptions::default()
    };
    let mut first_hit = None;
    for (round, expected_cache) in [("cold", "miss"), ("warm", "hit")] {
        let resp = client
            .request(&schedule_request_line(round, &design, &opts, None))
            .expect("response arrives");
        assert!(resp.is_ok(), "{round}: {resp:?}");
        assert_eq!(resp.cache(), Some(expected_cache), "{round}");
        assert_eq!(resp.output(), Some(one_shot.as_str()), "{round}");
        if expected_cache == "hit" {
            first_hit = Some(without_id(&resp.body));
        }
    }
    // Second round: the same bytes again are answered from the answer
    // index, and every field but the echoed id matches the first hit.
    let first_hit = first_hit.expect("the warm round hit");
    for round in ["again-1", "again-2"] {
        let indexed_before = stat(&mut client, "cache_indexed");
        let resp = client
            .request(&schedule_request_line(round, &design, &opts, None))
            .expect("response arrives");
        assert_eq!(resp.cache(), Some("hit"), "{round}");
        assert_eq!(resp.output(), Some(one_shot.as_str()), "{round}");
        assert_eq!(without_id(&resp.body), first_hit, "{round}");
        assert_eq!(
            stat(&mut client, "cache_indexed"),
            indexed_before + 1,
            "{round} was answered from the index"
        );
    }

    // `simulate` takes its schedule from the same pipeline, on the paper
    // design and on a 635-op design, larger than any benchmark workload;
    // every design size is one coupled run.
    let (large, _) =
        tcms::ir::generators::random_system(&tcms_bench::scaling_config(520, 40), 3).unwrap();
    assert_eq!(large.num_ops(), 635);
    let large_path = std::env::temp_dir().join(format!("tcms_e2e_{}.dfg", std::process::id()));
    std::fs::write(&large_path, tcms::ir::display::to_dfg(&large)).unwrap();
    let opts = SimulateOptions {
        all_global: Some(5),
        ..SimulateOptions::default()
    };
    for input in [input, large_path.to_string_lossy().into_owned()] {
        let one_shot = run(&Command::Simulate {
            input: input.clone(),
            opts: opts.clone(),
            faults: false,
            plan: tcms::sim::FaultPlan::moderate(0),
            threads: None,
        })
        .unwrap();
        let design = std::fs::read_to_string(&input).unwrap();
        let resp = client
            .request(&simulate_request_line("sim", &design, &opts, None))
            .expect("response arrives");
        assert!(resp.is_ok(), "{input}: {resp:?}");
        assert_eq!(resp.output(), Some(one_shot.as_str()), "{input}");
    }
    let _ = std::fs::remove_file(&large_path);
    server.shutdown();
    server.wait().unwrap();
}

/// Two identical requests fired simultaneously must produce exactly one
/// scheduler run: the loser of the single-flight race waits for the
/// winner's result instead of recomputing it.
#[test]
fn simultaneous_identical_requests_run_the_scheduler_once() {
    let server = start_server();
    let addr = server.local_addr();
    let design = std::fs::read_to_string(design_path("paper_table1.dfg")).unwrap();
    let barrier = Arc::new(Barrier::new(2));
    let workers: Vec<_> = (0..2)
        .map(|i| {
            let design = design.clone();
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                let line = schedule_request_line(
                    &format!("race-{i}"),
                    &design,
                    &ScheduleOptions {
                        all_global: Some(5),
                        ..ScheduleOptions::default()
                    },
                    None,
                );
                barrier.wait();
                client.request(&line).expect("response arrives")
            })
        })
        .collect();
    let responses: Vec<_> = workers.into_iter().map(|h| h.join().unwrap()).collect();
    for resp in &responses {
        assert!(resp.is_ok(), "{resp:?}");
    }
    // Both answers carry the same bytes regardless of who computed them.
    assert_eq!(responses[0].output(), responses[1].output());

    let mut client = Client::connect(addr).expect("connect");
    assert_eq!(
        stat(&mut client, "scheduler_runs"),
        1,
        "single-flight must collapse the race to one run"
    );
    server.shutdown();
    server.wait().unwrap();
}

/// A warm-cache hit must not touch the scheduler at all: the IFDS
/// iteration counter stays flat while the hit counter advances.
#[test]
fn warm_hit_performs_zero_ifds_iterations() {
    let server = start_server();
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let design = std::fs::read_to_string(design_path("paper_table1.dfg")).unwrap();
    let opts = ScheduleOptions {
        all_global: Some(5),
        ..ScheduleOptions::default()
    };

    let cold = client
        .request(&schedule_request_line("cold", &design, &opts, None))
        .expect("response arrives");
    assert!(cold.is_ok(), "{cold:?}");
    assert_eq!(cold.cache(), Some("miss"));
    let after_cold = stat(&mut client, "ifds_iterations");
    assert!(after_cold > 0, "a fresh run must report its iterations");

    let warm = client
        .request(&schedule_request_line("warm", &design, &opts, None))
        .expect("response arrives");
    assert!(warm.is_ok(), "{warm:?}");
    assert_eq!(warm.cache(), Some("hit"));
    assert_eq!(
        stat(&mut client, "ifds_iterations"),
        after_cold,
        "a warm hit must perform zero IFDS iterations"
    );
    assert_eq!(warm.output(), cold.output());
    server.shutdown();
    server.wait().unwrap();
}

/// The installed binaries round-trip: `tcms serve` boots and announces
/// its address, `tcms client schedule` gets the schedule, `tcms client
/// shutdown` stops the daemon cleanly.
#[test]
fn serve_and_client_binaries_round_trip() {
    let bin = env!("CARGO_BIN_EXE_tcms");
    let mut daemon = Proc::new(bin)
        .args(["serve", "--listen", "127.0.0.1:0", "--workers", "1"])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("daemon spawns");
    let mut banner = String::new();
    // Keep the pipe alive until the daemon exits: its farewell line must
    // not hit a closed stdout.
    let mut daemon_stdout = BufReader::new(daemon.stdout.take().expect("piped stdout"));
    daemon_stdout
        .read_line(&mut banner)
        .expect("daemon announces itself");
    let addr = banner
        .trim()
        .strip_prefix("tcms-serve listening on ")
        .unwrap_or_else(|| panic!("unexpected banner {banner:?}"))
        .to_owned();

    let schedule = Proc::new(bin)
        .args([
            "client",
            &addr,
            "schedule",
            &design_path("paper_table1.dfg"),
            "--all-global",
            "5",
            "--verify",
            "2",
        ])
        .output()
        .expect("client runs");
    assert!(
        schedule.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&schedule.stderr)
    );
    let out = String::from_utf8_lossy(&schedule.stdout);
    assert!(out.contains("conflict-free"), "{out}");
    assert!(out.contains("total area: 14"), "{out}");

    let stop = Proc::new(bin)
        .args(["client", &addr, "shutdown"])
        .output()
        .expect("client runs");
    assert!(stop.status.success());
    let status = daemon.wait().expect("daemon exits");
    assert!(status.success(), "daemon exit: {status:?}");
    let mut farewell = String::new();
    daemon_stdout.read_line(&mut farewell).expect("farewell");
    assert_eq!(farewell.trim(), "tcms-serve shut down");
}

/// A mixed hit/miss/error workload captured in the journal must (a)
/// record the exact disposition/outcome sequence, and (b) replay
/// bit-identically against a fresh daemon.
#[test]
fn journal_captures_mixed_workload_and_replays_bit_identically() {
    let dir = std::env::temp_dir().join(format!("tcms_e2e_journal_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let server = Server::start(ServeConfig {
        listen: "127.0.0.1:0".into(),
        workers: 2,
        journal_dir: Some(dir.clone()),
        ..ServeConfig::default()
    })
    .expect("daemon starts");
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let design_a = std::fs::read_to_string(design_path("paper_table1.dfg")).unwrap();
    let design_b = "resource add delay=1 area=1\nprocess P\nblock body time=4\nop a0 add\n";
    let opts = ScheduleOptions {
        all_global: Some(5),
        ..ScheduleOptions::default()
    };
    // miss, hit, miss, hit, malformed — a single pipelined client keeps
    // the order deterministic.
    let mut originals = Vec::new();
    for (id, design) in [
        ("a1", design_a.as_str()),
        ("a2", design_a.as_str()),
        ("b1", design_b),
        ("b2", design_b),
        ("bad", "resource add delay=zero"),
    ] {
        let line = schedule_request_line(id, design, &opts, None);
        let resp = client.request(&line).expect("response arrives");
        originals.push((line, resp));
    }
    server.shutdown();
    server.wait().unwrap();

    let path = tcms::serve::journal::journal_path(&dir);
    let (records, report) = tcms::serve::load_journal(&path).expect("journal loads");
    assert_eq!((report.loaded, report.skipped), (5, 0));
    assert!(!report.torn_tail);
    let sequence: Vec<_> = records
        .iter()
        .map(|r| (r.outcome.as_str(), r.disposition.as_deref(), r.code))
        .collect();
    assert_eq!(
        sequence,
        vec![
            ("ok", Some("miss"), 0),
            ("ok", Some("hit"), 0),
            ("ok", Some("miss"), 0),
            ("ok", Some("hit"), 0),
            ("malformed", None, 4),
        ],
        "the journal records the exact disposition sequence"
    );
    // Both cached designs share config fingerprints but not spec hashes.
    assert_eq!(records[0].spec, records[1].spec);
    assert_ne!(records[0].spec, records[2].spec);
    assert!(records[4].spec.is_none());

    // Replay the journaled raw lines against a *fresh* daemon: every
    // response must be bit-identical to the original run.
    let replay_server = start_server();
    let mut replay_client = Client::connect(replay_server.local_addr()).expect("connect");
    for (record, (line, original)) in records.iter().zip(&originals) {
        assert_eq!(&record.request, line, "raw request preserved verbatim");
        let replayed = replay_client
            .request(&record.request)
            .expect("replay response arrives");
        assert_eq!(
            replayed.output(),
            original.output(),
            "replayed output is bit-identical"
        );
        match (&replayed.error, &original.error) {
            (None, None) => {}
            (Some((rc, rn, _)), Some((oc, on, _))) => {
                assert_eq!((rc, rn), (oc, on), "error class/code preserved");
            }
            other => panic!("replay outcome diverged: {other:?}"),
        }
    }
    replay_server.shutdown();
    replay_server.wait().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A torn final line — the crash artifact — is skipped with a warning
/// flag by the journal loader, and a reopened writer truncates it before
/// appending. The restarted writer's `ts_us` starts again from 0, and
/// the journal still loads clean.
#[test]
fn truncated_journal_tail_is_skipped_and_flagged() {
    let dir = std::env::temp_dir().join(format!("tcms_e2e_torn_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let server = Server::start(ServeConfig {
        listen: "127.0.0.1:0".into(),
        workers: 1,
        journal_dir: Some(dir.clone()),
        ..ServeConfig::default()
    })
    .expect("daemon starts");
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let design = std::fs::read_to_string(design_path("paper_table1.dfg")).unwrap();
    let opts = ScheduleOptions {
        all_global: Some(5),
        ..ScheduleOptions::default()
    };
    for id in ["x1", "x2"] {
        assert!(client
            .request(&schedule_request_line(id, &design, &opts, None))
            .expect("response")
            .is_ok());
    }
    server.shutdown();
    server.wait().unwrap();

    // Simulate a crash mid-append.
    let path = tcms::serve::journal::journal_path(&dir);
    {
        use std::io::Write as _;
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .unwrap();
        f.write_all(b"{\"seq\":2,\"ts_us\":1,\"acti").unwrap();
    }
    let (records, report) = tcms::serve::load_journal(&path).expect("loader tolerates the tail");
    assert_eq!(records.len(), 2);
    assert_eq!((report.loaded, report.skipped), (2, 1));
    assert!(report.torn_tail, "loader flags the torn tail");

    // Recovery: a restarted daemon truncates the tear and continues the
    // sequence without gluing onto the half-written line.
    let server = Server::start(ServeConfig {
        listen: "127.0.0.1:0".into(),
        workers: 1,
        journal_dir: Some(dir.clone()),
        ..ServeConfig::default()
    })
    .expect("daemon restarts over torn journal");
    let mut client = Client::connect(server.local_addr()).expect("connect");
    assert!(client
        .request(&schedule_request_line("x3", &design, &opts, None))
        .expect("response")
        .is_ok());
    server.shutdown();
    server.wait().unwrap();
    let (records, report) = tcms::serve::load_journal(&path).expect("journal loads clean");
    assert!(!report.torn_tail);
    assert_eq!(report.skipped, 0, "a restarted writer's records are valid");
    assert_eq!(
        records.iter().map(|r| r.seq).collect::<Vec<_>>(),
        vec![0, 1, 2],
        "sequence continues across the recovered tear"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// An unknown action comes back as the typed `unknown-action`/404 wire
/// error — never a dropped connection — and the daemon keeps serving.
#[test]
fn unknown_action_gets_typed_404_and_daemon_survives() {
    let server = start_server();
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let resp = client
        .request(r#"{"id":"f","action":"frobnicate"}"#)
        .expect("response arrives");
    let (class, code, message) = resp.error.clone().expect("typed error");
    assert_eq!((class.as_str(), code), ("unknown-action", 404));
    assert!(message.contains("frobnicate"), "{message}");
    assert!(client
        .request(&control_request_line("alive", "ping"))
        .expect("ping after rejection")
        .is_ok());
    server.shutdown();
    server.wait().unwrap();
}

/// `tcms stats` renders the live registry: headline counts, per-shard
/// cache occupancy and the metric summary lines all appear.
#[test]
fn stats_subcommand_renders_live_introspection() {
    let server = start_server();
    let addr = server.local_addr().to_string();
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let design = std::fs::read_to_string(design_path("paper_table1.dfg")).unwrap();
    let opts = ScheduleOptions {
        all_global: Some(5),
        ..ScheduleOptions::default()
    };
    for id in ["s1", "s2"] {
        assert!(client
            .request(&schedule_request_line(id, &design, &opts, None))
            .expect("response")
            .is_ok());
    }
    // `--timeout-ms` bounds the stats round-trip; against a healthy
    // daemon it must not change the outcome.
    let rendered = run(&Command::Stats {
        addr,
        timeout_ms: Some(2_000),
    })
    .expect("stats renders");
    for needle in [
        "daemon:",
        "worker panics",
        "worker restarts",
        "cache:",
        "hit rate",
        "shard",
        "journal:",
        "serve.requests.schedule",
        "serve.cache.hit",
        "serve.exec_us.miss",
        "serve.queue_wait_us",
    ] {
        assert!(
            rendered.contains(needle),
            "missing {needle:?} in:\n{rendered}"
        );
    }
    server.shutdown();
    server.wait().unwrap();
}

/// Every way a cache snapshot can rot on disk — a flipped bit, a
/// truncated tail, a zero-length file — must be detected by the
/// checksum trailer, quarantined to `cache.jsonl.corrupt`, and survived
/// with a cold start: the restarted daemon recomputes (miss), re-saves,
/// and serves hits again.
#[test]
fn corrupt_snapshots_quarantine_and_daemon_starts_cold() {
    use tcms::serve::persist::{quarantine_path, snapshot_path};
    let design = std::fs::read_to_string(design_path("paper_table1.dfg")).unwrap();
    let opts = ScheduleOptions {
        all_global: Some(5),
        ..ScheduleOptions::default()
    };
    type Corruptor = fn(&std::path::Path);
    let corruptions: [(&str, Corruptor); 3] = [
        ("bit-flip", |p| {
            let mut bytes = std::fs::read(p).unwrap();
            let mid = bytes.len() / 2;
            bytes[mid] ^= 0x01;
            std::fs::write(p, bytes).unwrap();
        }),
        ("truncate", |p| {
            let bytes = std::fs::read(p).unwrap();
            std::fs::write(p, &bytes[..bytes.len() * 2 / 3]).unwrap();
        }),
        ("zero-length", |p| {
            std::fs::write(p, b"").unwrap();
        }),
    ];
    for (tag, corrupt) in corruptions {
        let dir =
            std::env::temp_dir().join(format!("tcms_e2e_snapcorrupt_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let boot = |workers| {
            Server::start(ServeConfig {
                listen: "127.0.0.1:0".into(),
                workers,
                cache_dir: Some(dir.clone()),
                ..ServeConfig::default()
            })
            .expect("daemon starts")
        };
        // Warm a snapshot.
        let server = boot(2);
        let mut client = Client::connect(server.local_addr()).expect("connect");
        let resp = client
            .request(&schedule_request_line("warmup", &design, &opts, None))
            .expect("response");
        assert_eq!(resp.cache(), Some("miss"), "{tag}");
        server.shutdown();
        server.wait().unwrap();
        assert!(snapshot_path(&dir).exists(), "{tag}: snapshot saved");

        corrupt(&snapshot_path(&dir));

        // Restart: the rot is caught, moved aside, and the daemon is
        // cold but alive.
        let server = boot(2);
        assert!(
            quarantine_path(&dir).exists(),
            "{tag}: corrupt snapshot quarantined, not deleted"
        );
        assert_eq!(server.counter("serve.snapshot.quarantined"), 1, "{tag}");
        let mut client = Client::connect(server.local_addr()).expect("connect");
        for (id, expected) in [("cold", "miss"), ("rewarmed", "hit")] {
            let resp = client
                .request(&schedule_request_line(id, &design, &opts, None))
                .expect("response");
            assert!(resp.is_ok(), "{tag}/{id}: {resp:?}");
            assert_eq!(resp.cache(), Some(expected), "{tag}/{id}");
        }
        server.shutdown();
        server.wait().unwrap();

        // The re-saved snapshot is intact: one more boot loads it warm.
        let server = boot(1);
        let mut client = Client::connect(server.local_addr()).expect("connect");
        let resp = client
            .request(&schedule_request_line("reloaded", &design, &opts, None))
            .expect("response");
        assert_eq!(resp.cache(), Some("hit"), "{tag}: snapshot round-trips");
        server.shutdown();
        server.wait().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// With `--journal-rotate-bytes`, a busy daemon seals and rotates its
/// journal mid-run; every sealed segment loads with a verified seal and
/// nothing skipped, and the directory loader reassembles the full
/// uninterrupted history.
#[test]
fn journal_rotation_seals_segments_under_live_load() {
    let dir = std::env::temp_dir().join(format!("tcms_e2e_rotate_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let server = Server::start(ServeConfig {
        listen: "127.0.0.1:0".into(),
        workers: 1,
        journal_dir: Some(dir.clone()),
        journal_rotate_bytes: 2_048,
        ..ServeConfig::default()
    })
    .expect("daemon starts");
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let design = std::fs::read_to_string(design_path("paper_table1.dfg")).unwrap();
    let opts = ScheduleOptions {
        all_global: Some(5),
        ..ScheduleOptions::default()
    };
    let rounds = 12;
    for i in 0..rounds {
        assert!(client
            .request(&schedule_request_line(
                &format!("r{i}"),
                &design,
                &opts,
                None
            ))
            .expect("response")
            .is_ok());
    }
    // Rotation runs on the journal writer thread, behind the responses
    // (only `recorded` is counted before a response goes out), so give
    // the writer a bounded moment to catch up.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    let rotated = loop {
        let rotated = server.journal_stats().expect("journal enabled").rotated;
        if rotated >= 1 || std::time::Instant::now() > deadline {
            break rotated;
        }
        std::thread::sleep(std::time::Duration::from_millis(5));
    };
    assert!(rotated >= 1, "the workload crossed the rotation threshold");
    server.shutdown();
    server.wait().unwrap();

    for n in 1..=rotated {
        let (_, report) = tcms::serve::load_journal(&tcms::serve::journal::rotated_path(&dir, n))
            .unwrap_or_else(|e| panic!("segment {n} fails to load: {e}"));
        assert!(report.sealed, "segment {n} carries its seal trailer");
        assert!(!report.torn_tail);
        assert_eq!(report.skipped, 0, "segment {n}");
    }
    let (records, report) = tcms::serve::load_journal_dir(&dir).expect("directory loads");
    assert_eq!(report.loaded, rounds, "no record lost to rotation");
    assert_eq!(
        records.iter().map(|r| r.seq).collect::<Vec<_>>(),
        (0..rounds as u64).collect::<Vec<_>>(),
        "one gapless sequence across all segments"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A zero-length live journal — the classic crash-at-create artifact —
/// is quarantined on boot; the daemon starts with a fresh journal and
/// keeps recording.
#[test]
fn zero_length_journal_quarantines_and_daemon_boots() {
    let dir = std::env::temp_dir().join(format!("tcms_e2e_jnlzero_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(tcms::serve::journal::journal_path(&dir), b"").unwrap();
    let server = Server::start(ServeConfig {
        listen: "127.0.0.1:0".into(),
        workers: 1,
        journal_dir: Some(dir.clone()),
        ..ServeConfig::default()
    })
    .expect("daemon boots over the empty journal");
    assert!(
        dir.join(tcms::serve::journal::JOURNAL_CORRUPT).exists(),
        "empty journal moved aside, not deleted"
    );
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let design = std::fs::read_to_string(design_path("paper_table1.dfg")).unwrap();
    assert!(client
        .request(&schedule_request_line(
            "j0",
            &design,
            &ScheduleOptions {
                all_global: Some(5),
                ..ScheduleOptions::default()
            },
            None,
        ))
        .expect("response")
        .is_ok());
    server.shutdown();
    server.wait().unwrap();
    let (records, _) = tcms::serve::load_journal(&tcms::serve::journal::journal_path(&dir))
        .expect("fresh journal loads");
    assert_eq!(records.len(), 1, "recording resumed after quarantine");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The `--timeout-ms` client flag fails fast against a black-hole
/// address instead of hanging the CLI (the original `connect` blocked
/// indefinitely on unroutable addresses).
#[test]
fn client_timeout_flag_fails_fast_on_dead_addresses() {
    let started = std::time::Instant::now();
    // Port 1 on loopback: nothing listens; connect errors immediately
    // or times out — either way the bound is the flag, not TCP defaults.
    let err = run(&Command::Stats {
        addr: "127.0.0.1:1".into(),
        timeout_ms: Some(300),
    })
    .expect_err("no daemon there");
    assert!(started.elapsed() < std::time::Duration::from_secs(5));
    assert_eq!(err.exit_code(), 3, "transport failures are I/O errors");
}

/// A small design and its declaration-order twin: one canonical form,
/// so one cache entry, but different one-shot report bytes.
const TWIN_A: &str = "resource add delay=1 area=1\nresource mul delay=2 area=4 pipelined\n\
    process A\nblock body time=8\nop m0 mul\nop a0 add\nedge m0 a0\n\
    process B\nblock body time=8\nop m0 mul\nop a0 add\nedge m0 a0\n";
const TWIN_B: &str = "resource mul delay=2 area=4 pipelined\nresource add delay=1 area=1\n\
    process B\nblock body time=8\nop a0 add\nop m0 mul\nedge m0 a0\n\
    process A\nblock body time=8\nop a0 add\nop m0 mul\nedge m0 a0\n";
/// A design with a different canonical form from the twins.
const OTHER: &str =
    "resource add delay=1 area=1\nprocess P\nblock body time=4\nop a0 add\nop a1 add\nedge a0 a1\n";

fn global(period: u32) -> ScheduleOptions {
    ScheduleOptions {
        all_global: Some(period),
        ..ScheduleOptions::default()
    }
}

/// What the one-shot pipeline (the CLI's `schedule`) renders, and how
/// many IFDS iterations it ran.
fn one_shot(design: &str, opts: &ScheduleOptions) -> (String, u64) {
    let arts = tcms::serve::schedule_request(design, opts, &ExecContext::default())
        .expect("one-shot run succeeds");
    (arts.text, arts.fresh_iterations)
}

fn iterations(resp: &tcms::serve::Response) -> u64 {
    let n = resp
        .body
        .get("iterations")
        .and_then(JsonValue::as_f64)
        .expect("success responses carry `iterations`");
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    {
        n as u64
    }
}

/// Declaration-order twins share one content key, yet each gets the
/// bytes its own one-shot run prints: the entry keeps one rendering,
/// and a twin's request bytes never match it.
#[test]
fn declaration_order_twins_share_an_entry_but_keep_their_own_bytes() {
    let server = start_server();
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let opts = global(4);
    let (want_a, _) = one_shot(TWIN_A, &opts);
    let (want_b, _) = one_shot(TWIN_B, &opts);
    assert_ne!(want_a, want_b, "the twins print in declaration order");
    let steps = [
        (TWIN_A, &want_a, "miss"),
        (TWIN_B, &want_b, "hit"),
        (TWIN_A, &want_a, "hit"),
        (TWIN_A, &want_a, "hit"),
        (TWIN_B, &want_b, "hit"),
        (TWIN_B, &want_b, "hit"),
    ];
    for (i, (design, want, cache)) in steps.into_iter().enumerate() {
        let resp = client
            .request(&schedule_request_line(
                &format!("t{i}"),
                design,
                &opts,
                None,
            ))
            .expect("response arrives");
        assert_eq!(resp.cache(), Some(cache), "step {i}: {resp:?}");
        assert_eq!(resp.output(), Some(want.as_str()), "step {i}");
    }
    assert_eq!(stat(&mut client, "cache_entries"), 1, "one content key");
    // Only the two immediate repeats matched the entry's rendering.
    assert_eq!(stat(&mut client, "cache_indexed"), 2);
    server.shutdown();
    server.wait().unwrap();
}

/// The same design under another period or another `gantt` setting
/// never shares an answer, even where it shares the content key.
#[test]
fn indexed_answers_never_cross_options() {
    let server = start_server();
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let variants: Vec<ScheduleOptions> = [(4, false), (5, false), (4, true), (5, true)]
        .into_iter()
        .map(|(period, gantt)| ScheduleOptions {
            gantt,
            ..global(period)
        })
        .collect();
    let wants: Vec<String> = variants.iter().map(|o| one_shot(TWIN_A, o).0).collect();
    for (i, a) in wants.iter().enumerate() {
        for b in &wants[i + 1..] {
            assert_ne!(a, b, "every variant renders differently");
        }
    }
    for round in 0..2 {
        for (opts, want) in variants.iter().zip(&wants) {
            for repeat in 0..2 {
                let id = format!("r{round}-{repeat}");
                let resp = client
                    .request(&schedule_request_line(&id, TWIN_A, opts, None))
                    .expect("response arrives");
                assert!(resp.is_ok(), "{id} {opts:?}: {resp:?}");
                assert_eq!(resp.output(), Some(want.as_str()), "{id} {opts:?}");
            }
        }
    }
    assert_eq!(stat(&mut client, "scheduler_runs"), 2, "periods 4 and 5");
    assert_eq!(stat(&mut client, "cache_indexed"), 8, "every repeat");
    server.shutdown();
    server.wait().unwrap();
}

/// A one-entry cache under two alternating designs evicts on every
/// request: every reply is a miss with the full iteration count, and
/// the index, which lives with the entries, never answers.
#[test]
fn tight_cache_alternation_misses_every_time() {
    let server = Server::start(ServeConfig {
        listen: "127.0.0.1:0".into(),
        workers: 2,
        cache_capacity: 1,
        cache_shards: 1,
        ..ServeConfig::default()
    })
    .expect("daemon starts");
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let opts = global(4);
    let expected: Vec<_> = [TWIN_A, OTHER]
        .into_iter()
        .map(|d| (d, one_shot(d, &opts)))
        .collect();
    for round in 0..3 {
        for (design, (want, fresh)) in &expected {
            let resp = client
                .request(&schedule_request_line(
                    &format!("{round}"),
                    design,
                    &opts,
                    None,
                ))
                .expect("response arrives");
            assert_eq!(resp.cache(), Some("miss"), "round {round}: {resp:?}");
            assert_eq!(iterations(&resp), *fresh, "round {round}");
            assert!(*fresh > 0);
            assert_eq!(resp.output(), Some(want.as_str()), "round {round}");
        }
    }
    assert_eq!(stat(&mut client, "scheduler_runs"), 6);
    assert_eq!(stat(&mut client, "cache_evictions"), 5);
    assert_eq!(stat(&mut client, "cache_indexed"), 0);
    server.shutdown();
    server.wait().unwrap();
}

/// The chaos panic marker lives in a comment, so a marked design has
/// the same content key as its unmarked twin; its check still runs
/// before the answer index, so it panics even after the twin was
/// answered (and answered again from the index).
#[test]
fn chaos_marked_design_still_panics_after_its_twin_was_answered() {
    let server = Server::start(ServeConfig {
        listen: "127.0.0.1:0".into(),
        workers: 2,
        fault_marker: true,
        ..ServeConfig::default()
    })
    .expect("daemon starts");
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let opts = global(4);
    for (id, cache) in [("u1", "miss"), ("u2", "hit")] {
        let resp = client
            .request(&schedule_request_line(id, TWIN_A, &opts, None))
            .expect("response arrives");
        assert_eq!(resp.cache(), Some(cache), "{id}: {resp:?}");
    }
    assert_eq!(stat(&mut client, "cache_indexed"), 1);
    let marked = format!("{TWIN_A}{}\n", tcms::serve::PANIC_MARKER);
    let resp = client
        .request(&schedule_request_line("m", &marked, &opts, None))
        .expect("response arrives");
    let (class, code, _) = resp.error.clone().expect("the marker panics");
    assert_eq!((class.as_str(), code), ("internal", 500), "{resp:?}");
    assert_eq!(stat(&mut client, "worker_panics"), 1);
    server.shutdown();
    server.wait().unwrap();
}

/// Renderings are never persisted: the snapshot a daemon saves is the
/// same file whether or not it answered repeats in between.
#[test]
fn repeated_requests_leave_the_snapshot_bytes_unchanged() {
    let opts = global(4);
    let snapshot_after = |tag: &str, designs: &[&str]| {
        let dir = std::env::temp_dir().join(format!("tcms_e2e_index_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let server = Server::start(ServeConfig {
            listen: "127.0.0.1:0".into(),
            workers: 2,
            cache_dir: Some(dir.clone()),
            ..ServeConfig::default()
        })
        .expect("daemon starts");
        let mut client = Client::connect(server.local_addr()).expect("connect");
        for (i, design) in designs.iter().enumerate() {
            let resp = client
                .request(&schedule_request_line(&format!("{i}"), design, &opts, None))
                .expect("response arrives");
            assert!(resp.is_ok(), "{tag} {i}: {resp:?}");
        }
        let indexed = stat(&mut client, "cache_indexed");
        server.shutdown();
        server.wait().unwrap();
        let bytes = std::fs::read(tcms::serve::persist::snapshot_path(&dir)).expect("snapshot");
        let _ = std::fs::remove_dir_all(&dir);
        (bytes, indexed)
    };
    let (once, none) = snapshot_after("once", &[TWIN_A, OTHER]);
    let (repeated, some) = snapshot_after(
        "repeated",
        &[TWIN_A, TWIN_A, OTHER, OTHER, TWIN_B, TWIN_B, TWIN_A, OTHER],
    );
    assert_eq!(none, 0);
    assert!(some >= 3, "the repeats were indexed answers ({some})");
    assert_eq!(once, repeated, "snapshot bytes are identical");
}

/// Counter deltas of one request: every numeric stats field and metric
/// counter, plus every histogram's sample count. Gauges and the hit
/// rate are levels, not counts, and are left out.
fn deltas(before: &JsonValue, after: &JsonValue) -> std::collections::BTreeMap<String, f64> {
    use tcms::obs::MetricsRegistry;
    let mut out = std::collections::BTreeMap::new();
    let levels = ["cache_hit_rate", "queue_depth", "inflight"];
    for (name, value) in after.as_object().unwrap() {
        if let (Some(a), false) = (value.as_f64(), levels.contains(&name.as_str())) {
            let b = before.get(name).and_then(JsonValue::as_f64).unwrap_or(0.0);
            out.insert(name.clone(), a - b);
        }
    }
    let registry = |v: &JsonValue| MetricsRegistry::from_json(v.get("metrics").unwrap()).unwrap();
    let (b, a) = (registry(before), registry(after));
    for (name, n) in a.counters() {
        #[allow(clippy::cast_precision_loss)]
        out.insert(format!("counter {name}"), (n - b.counter(name)) as f64);
    }
    for (name, h) in a.histograms() {
        let was = b.histogram(name).map_or(0, |h| h.count());
        #[allow(clippy::cast_precision_loss)]
        out.insert(format!("histogram {name}"), (h.count() - was) as f64);
    }
    out.insert(
        "cache_shards".into(),
        f64::from(u8::from(
            before.get("cache_shards") != after.get("cache_shards"),
        )),
    );
    out
}

/// An indexed hit is accounted exactly like a full-path hit: the same
/// stats and metric deltas (apart from the indexed-answer counter) and
/// the same journal key and disposition.
#[test]
fn indexed_hits_are_accounted_like_full_path_hits() {
    let dir = std::env::temp_dir().join(format!("tcms_e2e_index_jnl_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let server = Server::start(ServeConfig {
        listen: "127.0.0.1:0".into(),
        workers: 2,
        journal_dir: Some(dir.clone()),
        ..ServeConfig::default()
    })
    .expect("daemon starts");
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let opts = global(4);
    let stats = |client: &mut Client| {
        client
            .request(&control_request_line("stats", "stats"))
            .expect("stats round-trip")
            .body
    };
    let miss = client
        .request(&schedule_request_line("a", TWIN_A, &opts, None))
        .expect("response arrives");
    assert_eq!(miss.cache(), Some("miss"));
    // The twin's first request hits the entry through the full path (its
    // bytes are not the rendering's); its repeat is an indexed answer.
    let mut observed = Vec::new();
    for id in ["b-full", "b-indexed"] {
        let before = stats(&mut client);
        let resp = client
            .request(&schedule_request_line(id, TWIN_B, &opts, None))
            .expect("response arrives");
        assert_eq!(resp.cache(), Some("hit"), "{id}");
        observed.push((deltas(&before, &stats(&mut client)), without_id(&resp.body)));
    }
    let (mut full, full_body) = observed.remove(0);
    let (mut indexed, indexed_body) = observed.remove(0);
    assert_eq!(full_body, indexed_body, "same response apart from the id");
    assert_eq!(full.remove("cache_indexed"), Some(0.0));
    assert_eq!(indexed.remove("cache_indexed"), Some(1.0));
    assert_eq!(full.get("cache_hits"), Some(&1.0));
    assert_eq!(full.get("histogram serve.exec_us.hit"), Some(&1.0));
    assert_eq!(full, indexed, "stats deltas");
    server.shutdown();
    server.wait().unwrap();

    let (records, _) = tcms::serve::load_journal(&tcms::serve::journal::journal_path(&dir))
        .expect("journal loads");
    assert_eq!(records.len(), 3);
    let accounted = |r: &tcms::serve::JournalRecord| {
        (
            r.action.clone(),
            r.spec,
            r.config,
            r.disposition.clone(),
            r.outcome.clone(),
            r.code,
        )
    };
    assert_eq!(accounted(&records[1]), accounted(&records[2]), "journal");
    assert_eq!(records[2].disposition.as_deref(), Some("hit"));
    assert_eq!(records[0].spec, records[2].spec);
    let _ = std::fs::remove_dir_all(&dir);
}
