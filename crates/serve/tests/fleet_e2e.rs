//! Fleet end-to-end tests: anti-entropy convergence as a seeded
//! property test, and the cross-node cache-hit guarantee over both
//! wire framings (NDJSON proxying and the HTTP front-end).

use std::io::{BufRead as _, BufReader, Read as _, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream};

use tcms_core::CacheableResult;
use tcms_ir::SpecHash;
use tcms_obs::NoopRecorder;
use tcms_serve::fleet::sync;
use tcms_serve::protocol::parse_response;
use tcms_serve::{
    request_cache_key, schedule_request, CacheKey, ExecContext, FleetConfig, HashRing, SchedCache,
    ScheduleOptions, ServeConfig, Server,
};

/// Deterministic xorshift64 — the repo's standard seeded generator.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

fn random_entry(rng: &mut Rng, tag: u64) -> (CacheKey, CacheableResult) {
    let key = CacheKey {
        spec: SpecHash::of_text(&format!("spec-{tag}-{}", rng.below(1 << 20))),
        config: rng.next(),
    };
    let starts = (0..1 + rng.below(12))
        .map(|_| rng.below(64) as u32)
        .collect();
    let note = (rng.below(3) == 0).then(|| format!("note-{}", rng.below(100)));
    (
        key,
        CacheableResult {
            starts,
            iterations: rng.below(50),
            note,
        },
    )
}

/// One closure-driven pull: `dst` pulls every diverging shard from
/// `src` — pure function calls, no TCP, so the property test explores
/// thousands of states in milliseconds.
fn pull(dst: &SchedCache, src: &SchedCache) -> sync::SyncOutcome {
    let theirs = sync::digests(src);
    sync::pull_round(dst, &theirs, |shard| {
        Ok::<_, std::convert::Infallible>(
            sync::shard_entries(src, shard)
                .into_iter()
                .map(|(k, v)| (k, (*v).clone()))
                .collect(),
        )
    })
    .unwrap()
}

#[test]
fn anti_entropy_converges_from_arbitrary_disjoint_states_in_two_rounds() {
    let mut rng = Rng(0x5EED_0001);
    for case in 0..200 {
        // Arbitrary split: some entries on A only, some on B only, some
        // shared — under different shard layouts on each side.
        let a = SchedCache::new(4096, 1 + rng.below(8) as usize);
        let b = SchedCache::new(4096, 1 + rng.below(8) as usize);
        let total = 1 + rng.below(40);
        for n in 0..total {
            let (key, value) = random_entry(&mut rng, case * 1000 + n);
            let value = std::sync::Arc::new(value);
            match rng.below(3) {
                0 => a.insert(key, value),
                1 => b.insert(key, value),
                _ => {
                    a.insert(key, std::sync::Arc::clone(&value));
                    b.insert(key, value);
                }
            }
        }
        // Two alternating pull rounds reach the union on both sides.
        pull(&a, &b);
        pull(&b, &a);
        assert_eq!(
            sync::digests(&a),
            sync::digests(&b),
            "case {case}: digests diverge after two rounds"
        );
        assert_eq!(a.len(), b.len(), "case {case}");
        // A third round is a no-op: nothing diverges, nothing ships.
        let extra = pull(&a, &b);
        assert_eq!(
            (extra.shards_pulled, extra.applied),
            (0, 0),
            "case {case}: converged caches must not keep pulling"
        );
    }
}

#[test]
fn apply_entries_is_idempotent_and_commutative() {
    let mut rng = Rng(0x5EED_0002);
    for case in 0..100 {
        let entries: Vec<(CacheKey, CacheableResult)> = (0..1 + rng.below(20))
            .map(|n| random_entry(&mut rng, case * 1000 + n))
            .collect();
        // Idempotent: the second application inserts nothing and leaves
        // the digests untouched.
        let cache = SchedCache::new(4096, 4);
        let first = sync::apply_entries(&cache, entries.clone());
        assert_eq!(first, entries.len(), "case {case}");
        let before = sync::digests(&cache);
        assert_eq!(sync::apply_entries(&cache, entries.clone()), 0);
        assert_eq!(sync::digests(&cache), before, "case {case}: not idempotent");
        // Commutative: applying in reverse order on a fresh cache lands
        // on the same digests (values are content-addressed, so the set
        // is all that matters).
        let reversed = SchedCache::new(4096, 4);
        let mut rev = entries.clone();
        rev.reverse();
        let _ = sync::apply_entries(&reversed, rev);
        assert_eq!(
            sync::digests(&reversed),
            before,
            "case {case}: not commutative"
        );
    }
}

const SAMPLE: &str = "resource add delay=1 area=1\nresource mul delay=2 area=4 pipelined\n\
    process A\nblock body time=8\nop m0 mul\nop a0 add\nedge m0 a0\n\
    process B\nblock body time=8\nop m0 mul\nop a0 add\nedge m0 a0\n";

fn reserve_ports(n: usize) -> Vec<String> {
    (0..n)
        .map(|_| {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let addr = listener.local_addr().unwrap();
            drop(listener);
            format!("127.0.0.1:{}", addr.port())
        })
        .collect()
}

fn ndjson_roundtrip(addr: SocketAddr, request: &str) -> tcms_serve::Response {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.write_all(request.as_bytes()).unwrap();
    stream.write_all(b"\n").unwrap();
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    parse_response(line.trim_end()).unwrap()
}

fn http_roundtrip(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).unwrap();
    let req = format!(
        "{method} {path} HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(req.as_bytes()).unwrap();
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).unwrap();
    let text = String::from_utf8(raw).unwrap();
    let (head, payload) = text.split_once("\r\n\r\n").unwrap();
    let status: u16 = head.split_whitespace().nth(1).unwrap().parse().unwrap();
    (status, payload.to_owned())
}

#[test]
fn a_spec_scheduled_on_node_a_is_a_verbatim_hit_from_node_b_on_both_wires() {
    let peers = reserve_ports(2);
    let opts = ScheduleOptions {
        all_global: Some(4),
        ..ScheduleOptions::default()
    };
    let key = request_cache_key(SAMPLE, &opts, 0).unwrap().unwrap();
    // R=1 so exactly one node owns the key and the other must proxy.
    let ring = HashRing::new(&peers, 1);
    let owner_idx = peers.iter().position(|p| p == ring.owner(&key)).unwrap();
    let servers: Vec<Server> = peers
        .iter()
        .map(|addr| {
            Server::start(ServeConfig {
                listen: addr.clone(),
                workers: 2,
                http_listen: Some("127.0.0.1:0".into()),
                fleet: Some(FleetConfig {
                    replicas: 1,
                    sync_interval: None,
                    ..FleetConfig::new(addr.clone(), peers.clone())
                }),
                ..ServeConfig::default()
            })
            .unwrap()
        })
        .collect();
    let node_a = &servers[owner_idx];
    let node_b = &servers[1 - owner_idx];
    // The ground truth: the one-shot pipeline with no cache at all.
    let ctx = ExecContext {
        cache: None,
        budget: tcms_fds::RunBudget::UNLIMITED,
        rec: &NoopRecorder,
        fault_marker: false,
    };
    let oneshot = schedule_request(SAMPLE, &opts, &ctx).unwrap();
    let design = SAMPLE.replace('\n', "\\n");
    let req = format!(r#"{{"id":"a","action":"schedule","design":"{design}","all_global":4}}"#);
    // Schedule once on node A (the owner).
    let first = ndjson_roundtrip(node_a.local_addr(), &req);
    assert_eq!(first.cache(), Some("miss"), "{:?}", first.error);
    assert_eq!(first.output().unwrap(), oneshot.text, "daemon == one-shot");
    // Node B answers the same request as a *hit* without running any
    // scheduler work of its own — proxied NDJSON first.
    let via_b = ndjson_roundtrip(node_b.local_addr(), &req);
    assert_eq!(via_b.cache(), Some("hit"), "{:?}", via_b.error);
    assert_eq!(via_b.output(), first.output(), "bit-identical across nodes");
    assert_eq!(node_b.counter("serve.scheduler.runs"), 0);
    assert_eq!(node_b.counter("serve.ifds.iterations"), 0);
    assert_eq!(node_b.counter("serve.fleet.proxied"), 1);
    // And over HTTP: the response body IS the NDJSON line.
    let body = format!(r#"{{"id":"a","design":"{design}","all_global":4}}"#);
    let (status, payload) = http_roundtrip(
        node_b.local_http_addr().unwrap(),
        "POST",
        "/schedule",
        &body,
    );
    assert_eq!(status, 200, "{payload}");
    let via_http = parse_response(payload.trim_end()).unwrap();
    assert_eq!(via_http.cache(), Some("hit"));
    assert_eq!(via_http.output(), first.output());
    assert_eq!(node_b.counter("serve.scheduler.runs"), 0);
    assert_eq!(node_b.counter("serve.ifds.iterations"), 0);
    assert_eq!(node_a.counter("serve.scheduler.runs"), 1, "one run total");
    for server in servers {
        server.shutdown();
        server.wait().unwrap();
    }
}
