//! Distributed-fleet study: an in-process 3-node `tcms serve` fleet is
//! exercised end to end and summarized into `BENCH_fleet.json`.
//!
//! ```text
//! repro_fleet [--quick] [--requests N] [--designs N] [--alpha F]
//!             [--seed N] [--out FILE]
//! ```
//!
//! Three phases, each a claim from `DESIGN.md` §14:
//!
//! 1. **One logical cache** — a spec scheduled anywhere in the fleet is
//!    a verbatim, zero-iteration hit from *every* node, over both the
//!    NDJSON wire and the HTTP front-end. Asserted bit-for-bit.
//! 2. **Hit rate is node-count invariant** — the same Zipf request
//!    stream replayed round-robin against 1-, 2- and 3-node fleets
//!    performs exactly `unique designs` scheduler runs fleet-wide at
//!    every size: consistent-hash routing makes N caches behave as one.
//! 3. **Chaos rejoin converges** — one node is killed mid-run while a
//!    fault-injecting proxy mangles the traffic to a survivor; every
//!    response that does arrive is still bit-identical to the one-shot
//!    pipeline (zero wrong answers), and after the dead node restarts,
//!    anti-entropy pulls its cache back to digest equality with the
//!    survivors in a bounded number of rounds.
//!
//! A failed claim panics — this harness does not write a report for a
//! broken fleet.

use std::collections::BTreeMap;
use std::net::TcpListener;
use std::time::Instant;

use tcms_bench::workload::{draw, make_design, zipf_cdf};
use tcms_bench::{ChaosProxy, NetFaultPlan};
use tcms_obs::json::{self, JsonValue};
use tcms_obs::NoopRecorder;
use tcms_serve::fleet::sync;
use tcms_serve::{
    schedule_request, Client, ExecContext, FleetConfig, RetryPolicy, ScheduleOptions, ServeClient,
    ServeConfig, Server,
};

/// Reserves `n` distinct loopback ports by bind-and-drop, so the fleet
/// addresses are known before any server starts (the ring needs the
/// full peer list up front).
fn reserve_ports(n: usize) -> Vec<String> {
    (0..n)
        .map(|_| {
            let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
            let addr = listener.local_addr().expect("addr");
            drop(listener);
            format!("127.0.0.1:{}", addr.port())
        })
        .collect()
}

/// Starts one fleet node on `addr`. Background sync is off — phases
/// drive `sync_now` explicitly so the run is deterministic.
fn start_node(addr: &str, peers: &[String], replicas: usize) -> Server {
    Server::start(ServeConfig {
        listen: addr.to_owned(),
        workers: 2,
        http_listen: Some("127.0.0.1:0".into()),
        fleet: Some(FleetConfig {
            replicas,
            sync_interval: None,
            ..FleetConfig::new(addr.to_owned(), peers.to_vec())
        }),
        ..ServeConfig::default()
    })
    .unwrap_or_else(|e| panic!("node on {addr} failed to start: {e}"))
}

/// Restarts a node whose previous incarnation just shut down; the
/// listen port can linger briefly, so retry `AddrInUse` for a while.
fn restart_node(addr: &str, peers: &[String]) -> Server {
    let deadline = Instant::now() + std::time::Duration::from_secs(10);
    loop {
        match Server::start(ServeConfig {
            listen: addr.to_owned(),
            workers: 2,
            fleet: Some(FleetConfig {
                sync_interval: None,
                ..FleetConfig::new(addr.to_owned(), peers.to_vec())
            }),
            ..ServeConfig::default()
        }) {
            Ok(server) => return server,
            Err(e) if Instant::now() < deadline => {
                let _ = e;
                std::thread::sleep(std::time::Duration::from_millis(50));
            }
            Err(e) => panic!("node on {addr} failed to restart: {e}"),
        }
    }
}

fn request_line(id: &str, design: &str) -> String {
    tcms_serve::client::schedule_request_line(
        id,
        design,
        &ScheduleOptions {
            all_global: Some(4),
            ..ScheduleOptions::default()
        },
        None,
    )
}

/// The one-shot pipeline's answer for `design` — the ground truth every
/// fleet response is compared against, bit for bit.
fn oneshot(design: &str) -> String {
    let ctx = ExecContext {
        cache: None,
        budget: tcms_fds::RunBudget::UNLIMITED,
        rec: &NoopRecorder,
        fault_marker: false,
    };
    schedule_request(
        design,
        &ScheduleOptions {
            all_global: Some(4),
            ..ScheduleOptions::default()
        },
        &ctx,
    )
    .expect("ground-truth schedule")
    .text
}

fn http_post(addr: std::net::SocketAddr, body: &str) -> (u16, String) {
    use std::io::{Read as _, Write as _};
    let mut stream = std::net::TcpStream::connect(addr).expect("http connect");
    let req = format!(
        "POST /schedule HTTP/1.1\r\nHost: f\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(req.as_bytes()).expect("http send");
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("http read");
    let text = String::from_utf8(raw).expect("http utf8");
    let (head, payload) = text.split_once("\r\n\r\n").expect("http framing");
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("status line");
    (status, payload.to_owned())
}

#[allow(clippy::cast_precision_loss)]
fn count(n: u64) -> JsonValue {
    JsonValue::Number(n as f64)
}

/// Phase 1: schedule once via a non-owner (the proxy path), then read
/// the result back from every node over both wires.
fn phase_one_logical_cache(doc: &mut BTreeMap<String, JsonValue>) {
    let peers = reserve_ports(3);
    let servers: Vec<Server> = peers.iter().map(|a| start_node(a, &peers, 2)).collect();
    let design = make_design(3, false);
    let truth = oneshot(&design);
    let line = request_line("p1", &design);

    // First contact through node 0 — owner or proxy, the answer is the
    // same bytes either way.
    let first = Client::connect(servers[0].local_addr())
        .expect("connect")
        .request(&line)
        .expect("first response");
    assert_eq!(first.output(), Some(truth.as_str()), "daemon == one-shot");
    assert_eq!(first.cache(), Some("miss"));

    // Converge the replicas, then every node must answer a verbatim
    // zero-work hit over NDJSON …
    for server in &servers {
        server.sync_now();
    }
    let runs_before: u64 = servers
        .iter()
        .map(|s| s.counter("serve.scheduler.runs"))
        .sum();
    for (i, server) in servers.iter().enumerate() {
        let resp = Client::connect(server.local_addr())
            .expect("connect")
            .request(&line)
            .expect("fleet response");
        assert_eq!(resp.cache(), Some("hit"), "node {i} missed");
        assert_eq!(resp.output(), Some(truth.as_str()), "node {i} diverged");
        // … and over HTTP, whose body IS the NDJSON line.
        let body = format!(
            r#"{{"id":"p1h","design":"{}","all_global":4}}"#,
            design.replace('\n', "\\n")
        );
        let (status, payload) = http_post(server.local_http_addr().expect("http addr"), &body);
        assert_eq!(status, 200, "node {i} http: {payload}");
        let http_resp =
            tcms_serve::protocol::parse_response(payload.trim_end()).expect("http body");
        assert_eq!(
            http_resp.output(),
            Some(truth.as_str()),
            "node {i} http diverged"
        );
    }
    let runs_after: u64 = servers
        .iter()
        .map(|s| s.counter("serve.scheduler.runs"))
        .sum();
    assert_eq!(runs_after, runs_before, "warm reads ran the scheduler");
    assert_eq!(runs_after, 1, "exactly one scheduler run fleet-wide");

    let proxied: u64 = servers
        .iter()
        .map(|s| s.counter("serve.fleet.proxied"))
        .sum();
    let mut phase = BTreeMap::new();
    phase.insert("nodes".to_owned(), count(3));
    phase.insert("scheduler_runs".to_owned(), count(runs_after));
    phase.insert("proxied".to_owned(), count(proxied));
    phase.insert("bit_identical".to_owned(), JsonValue::Bool(true));
    doc.insert("one_logical_cache".to_owned(), JsonValue::Object(phase));
    println!("phase 1: 1 run, {proxied} proxied, every node verbatim over both wires");

    for server in servers {
        server.shutdown();
        server.wait().expect("clean shutdown");
    }
}

/// Phase 2: the same Zipf stream against growing fleets — scheduler
/// runs fleet-wide must equal the number of unique designs requested,
/// independent of node count.
fn phase_hit_rate_vs_nodes(
    requests: usize,
    designs: usize,
    alpha: f64,
    seed: u64,
    doc: &mut BTreeMap<String, JsonValue>,
) {
    // Stage counts grow with the rank so every pool entry is textually
    // (and canonically) distinct — `unique designs` really means it.
    let pool: Vec<String> = (0..designs).map(|d| make_design(2 + d, false)).collect();
    let cdf = zipf_cdf(designs, alpha);
    let mut rows = Vec::new();
    for nodes in 1..=3usize {
        let peers = reserve_ports(nodes);
        // R=1: exactly one owner per key, every other node proxies —
        // the cleanest demonstration that N caches act as one.
        let servers: Vec<Server> = peers.iter().map(|a| start_node(a, &peers, 1)).collect();
        let mut clients: Vec<Client> = servers
            .iter()
            .map(|s| Client::connect(s.local_addr()).expect("connect"))
            .collect();
        let mut state = seed ^ 0x9e37_79b9_7f4a_7c15;
        // The pool cycles stage counts, so distinct indices can carry
        // identical text — dedup on the text, which is what the
        // content-addressed cache sees.
        let mut unique = std::collections::BTreeSet::new();
        let started = Instant::now();
        for r in 0..requests {
            let d = draw(&cdf, &mut state);
            unique.insert(pool[d].as_str());
            let resp = clients[r % nodes]
                .request(&request_line(&format!("r{r}"), &pool[d]))
                .expect("response");
            assert!(resp.is_ok(), "request {r}: {:?}", resp.error);
        }
        let wall_ms = started.elapsed().as_secs_f64() * 1000.0;
        let runs: u64 = servers
            .iter()
            .map(|s| s.counter("serve.scheduler.runs"))
            .sum();
        let hits: u64 = servers.iter().map(|s| s.cache().stats().hits).sum();
        let misses: u64 = servers.iter().map(|s| s.cache().stats().misses).sum();
        let proxied: u64 = servers
            .iter()
            .map(|s| s.counter("serve.fleet.proxied"))
            .sum();
        assert_eq!(
            runs,
            unique.len() as u64,
            "{nodes} nodes: fleet ran the scheduler more than once per unique design"
        );
        #[allow(clippy::cast_precision_loss)]
        let hit_rate = hits as f64 / (hits + misses).max(1) as f64;
        println!(
            "phase 2: {nodes} node(s): {requests} requests, {} unique, {runs} runs, hit rate {hit_rate:.3}, {proxied} proxied",
            unique.len()
        );
        let mut row = BTreeMap::new();
        row.insert("nodes".to_owned(), count(nodes as u64));
        row.insert("requests".to_owned(), count(requests as u64));
        row.insert("unique_designs".to_owned(), count(unique.len() as u64));
        row.insert("scheduler_runs".to_owned(), count(runs));
        row.insert("hits".to_owned(), count(hits));
        row.insert("misses".to_owned(), count(misses));
        row.insert("proxied".to_owned(), count(proxied));
        row.insert("hit_rate".to_owned(), JsonValue::Number(hit_rate));
        row.insert("wall_ms".to_owned(), JsonValue::Number(wall_ms));
        rows.push(JsonValue::Object(row));
        drop(clients.drain(..));
        for server in servers {
            server.shutdown();
            server.wait().expect("clean shutdown");
        }
    }
    doc.insert("hit_rate_vs_nodes".to_owned(), JsonValue::Array(rows));
}

/// Phase 3: kill a node mid-run behind injected network faults, demand
/// zero wrong answers from the survivors, then restart it and count the
/// sync rounds until the caches are digest-equal again.
fn phase_chaos_rejoin(requests: usize, seed: u64, doc: &mut BTreeMap<String, JsonValue>) {
    let peers = reserve_ports(3);
    let mut servers: Vec<Option<Server>> = peers
        .iter()
        .map(|a| Some(start_node(a, &peers, 2)))
        .collect();
    let pool: Vec<String> = (0..6).map(|d| make_design(2 + d, false)).collect();
    let truths: Vec<String> = pool.iter().map(|d| oneshot(d)).collect();

    // Warm the fleet and converge it.
    for (d, design) in pool.iter().enumerate() {
        let resp = Client::connect(servers[0].as_ref().expect("node 0").local_addr())
            .expect("connect")
            .request(&request_line(&format!("warm{d}"), design))
            .expect("warm response");
        assert_eq!(resp.output(), Some(truths[d].as_str()), "warm answer {d}");
    }
    for server in servers.iter().flatten() {
        server.sync_now();
    }

    // Kill node 2; survivors take traffic through a fault-injecting
    // proxy (resets, latency spikes, truncation) on node 1's wire.
    let killed = servers[2].take().expect("node 2");
    killed.shutdown();
    killed.wait().expect("killed node drains");
    let node1_addr = servers[1].as_ref().expect("node 1").local_addr();
    let mut proxy =
        ChaosProxy::start(node1_addr, NetFaultPlan::moderate(seed)).expect("chaos proxy");
    let policy = RetryPolicy {
        connect_timeout: Some(std::time::Duration::from_millis(500)),
        read_timeout: Some(std::time::Duration::from_secs(30)),
        max_retries: 10,
        base_backoff: std::time::Duration::from_millis(5),
        max_backoff: std::time::Duration::from_millis(100),
        seed,
    };
    // Half the traffic goes straight to node 0, half through the
    // mangled wire to node 1 — the proxy client has one address on
    // purpose, so its retries keep re-entering the fault stream
    // instead of failing over to a clean path.
    let mut clean = ServeClient::new(
        servers[0]
            .as_ref()
            .expect("node 0")
            .local_addr()
            .to_string(),
        policy.clone(),
    );
    let mut mangled = ServeClient::new(proxy.local_addr().to_string(), policy);
    let mut state = seed ^ 0x0005_EEDF_1EE7;
    let mut answered = 0u64;
    for r in 0..requests {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1);
        let d = (state >> 33) as usize % pool.len();
        let client = if r % 2 == 0 { &mut clean } else { &mut mangled };
        match client.request(&request_line(&format!("chaos{r}"), &pool[d])) {
            Ok(resp) if resp.is_ok() => {
                // THE invariant: an answer that arrives is never wrong.
                assert_eq!(
                    resp.output(),
                    Some(truths[d].as_str()),
                    "request {r}: wrong answer under chaos"
                );
                answered += 1;
            }
            // Typed pushback (peer-unavailable while the failure
            // detector settles) and transport drops are survivable;
            // wrong bytes are not.
            Ok(_) | Err(_) => {}
        }
    }
    let faults = proxy.stats().faults();
    proxy.stop();
    assert!(answered > 0, "chaos silenced every request");
    assert!(
        faults > 0,
        "the chaos proxy never fired — nothing was exercised"
    );

    // Rejoin: restart node 2 cold and let anti-entropy pull it level.
    let rejoined = restart_node(&peers[2], &peers);
    let digest_of = |s: &Server| sync::digests(s.cache());
    let mut rounds = 0u64;
    let converged = loop {
        rounds += 1;
        rejoined.sync_now();
        for server in servers.iter().flatten() {
            server.sync_now();
        }
        let target = digest_of(&rejoined);
        if servers.iter().flatten().all(|s| digest_of(s) == target) {
            break true;
        }
        if rounds >= 5 {
            break false;
        }
    };
    assert!(converged, "fleet did not converge within 5 sync rounds");
    assert!(
        rounds <= 3,
        "convergence took {rounds} rounds (expected <= 3)"
    );
    // The rejoined node now answers a warm spec with zero local work.
    let resp = Client::connect(rejoined.local_addr())
        .expect("connect rejoined")
        .request(&request_line("rejoin", &pool[0]))
        .expect("rejoined response");
    assert_eq!(resp.cache(), Some("hit"), "{:?}", resp.error);
    assert_eq!(resp.output(), Some(truths[0].as_str()));
    assert_eq!(rejoined.counter("serve.scheduler.runs"), 0);
    assert_eq!(rejoined.counter("serve.ifds.iterations"), 0);
    let applied = rejoined.counter("serve.fleet.sync.entries_applied");
    println!(
        "phase 3: {answered}/{requests} answered under chaos ({faults} faults), rejoin converged in {rounds} round(s), {applied} entries pulled"
    );

    let mut phase = BTreeMap::new();
    phase.insert("requests".to_owned(), count(requests as u64));
    phase.insert("answered".to_owned(), count(answered));
    phase.insert("wrong_answers".to_owned(), count(0));
    phase.insert("proxy_faults".to_owned(), count(faults));
    phase.insert("rejoin_sync_rounds".to_owned(), count(rounds));
    phase.insert("rejoin_entries_applied".to_owned(), count(applied));
    phase.insert("rejoin_warm_hit".to_owned(), JsonValue::Bool(true));
    doc.insert("chaos_rejoin".to_owned(), JsonValue::Object(phase));

    rejoined.shutdown();
    rejoined.wait().expect("rejoined node drains");
    for server in servers.into_iter().flatten() {
        server.shutdown();
        server.wait().expect("clean shutdown");
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut requests = 300usize;
    let mut designs = 12usize;
    let mut alpha = 1.1f64;
    let mut seed = 7u64;
    let mut out_path = "BENCH_fleet.json".to_owned();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let next = |it: &mut std::slice::Iter<'_, String>, flag: &str| {
            it.next()
                .unwrap_or_else(|| panic!("{flag} needs a value"))
                .clone()
        };
        match a.as_str() {
            "--quick" => {
                requests = 60;
                designs = 8;
            }
            "--requests" => requests = next(&mut it, "--requests").parse().expect("bad count"),
            "--designs" => designs = next(&mut it, "--designs").parse().expect("bad count"),
            "--alpha" => alpha = next(&mut it, "--alpha").parse().expect("bad alpha"),
            "--seed" => seed = next(&mut it, "--seed").parse().expect("bad seed"),
            "--out" => out_path = next(&mut it, "--out"),
            other => panic!("unknown flag `{other}`"),
        }
    }
    assert!(requests > 0 && designs > 0, "counts must be positive");

    let mut doc = BTreeMap::new();
    doc.insert(
        "benchmark".to_owned(),
        JsonValue::String("fleet".to_owned()),
    );
    doc.insert("seed".to_owned(), count(seed));
    doc.insert("alpha".to_owned(), JsonValue::Number(alpha));

    phase_one_logical_cache(&mut doc);
    phase_hit_rate_vs_nodes(requests, designs, alpha, seed, &mut doc);
    phase_chaos_rejoin(requests.min(120), seed, &mut doc);

    let rendered = format!("{}\n", json::to_string(&JsonValue::Object(doc)));
    json::parse(&rendered).expect("valid JSON report");
    std::fs::write(&out_path, rendered).expect("write report");
    println!("report written to {out_path}");
}
