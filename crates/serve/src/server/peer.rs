//! The daemon's side of the fleet: proxying work to a key's owner,
//! pushing fresh entries to its replicas, and anti-entropy sync — all
//! over short-lived NDJSON connections to peers.

use std::io::{BufRead as _, BufReader, Write as _};
use std::net::{TcpStream, ToSocketAddrs as _};
use std::sync::PoisonError;
use std::time::{Duration, Instant};

use tcms_obs::json::JsonValue;

use super::{dur_us, Job, Shared};
use crate::cache::CacheKey;
use crate::error::ServeError;
use crate::fleet::{sync, RouteMode};
use crate::journal::JournalEntry;
use crate::pipeline::{request_cache_key, ScheduleOptions};
use crate::protocol::{error_line, parse_response, Action};

/// Connect timeout for any peer dial.
const PEER_CONNECT_TIMEOUT: Duration = Duration::from_secs(1);
/// Read timeout for sync/push exchanges (bounded, off the hot path).
const SYNC_READ_TIMEOUT: Duration = Duration::from_secs(5);
/// Read-timeout ceiling for proxied work (the request's own deadline
/// tightens it further).
const PROXY_READ_TIMEOUT: Duration = Duration::from_secs(30);

/// A short-lived NDJSON connection to a fleet peer.
struct PeerConn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl PeerConn {
    fn connect(addr: &str, connect: Duration, read: Duration) -> std::io::Result<PeerConn> {
        let mut last = None;
        let mut stream = None;
        for sock in addr.to_socket_addrs()? {
            match TcpStream::connect_timeout(&sock, connect) {
                Ok(s) => {
                    stream = Some(s);
                    break;
                }
                Err(e) => last = Some(e),
            }
        }
        let stream = stream.ok_or_else(|| {
            last.unwrap_or_else(|| invalid_peer("peer address resolved to nothing"))
        })?;
        let _ = stream.set_nodelay(true);
        stream.set_read_timeout(Some(read))?;
        stream.set_write_timeout(Some(read))?;
        Ok(PeerConn {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
        })
    }

    /// One request/response exchange. Peers answer in order on a
    /// connection, so a plain `read_line` pairs correctly.
    fn request(&mut self, line: &str) -> std::io::Result<String> {
        self.writer.write_all(line.as_bytes())?;
        self.writer.write_all(b"\n")?;
        self.writer.flush()?;
        let mut out = String::new();
        if self.reader.read_line(&mut out)? == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "peer closed the connection",
            ));
        }
        while out.ends_with('\n') || out.ends_with('\r') {
            out.pop();
        }
        Ok(out)
    }
}

/// One-shot request to a peer on a fresh connection.
fn peer_request(addr: &str, line: &str, read: Duration) -> std::io::Result<String> {
    PeerConn::connect(addr, PEER_CONNECT_TIMEOUT, read)?.request(line)
}

fn invalid_peer(msg: &str) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, msg.to_owned())
}

/// Parses a peer's response line and extracts its body, converting
/// protocol-level failures into I/O errors (the sync loop treats every
/// failure mode uniformly: count it, mark the peer, move on).
fn peer_body(line: &str) -> std::io::Result<JsonValue> {
    let resp = parse_response(line).map_err(|e| invalid_peer(&e))?;
    if let Some((class, code, msg)) = resp.error {
        return Err(invalid_peer(&format!("peer error {class} ({code}): {msg}")));
    }
    Ok(resp.body)
}

impl Shared {
    /// The content address a work request would execute under, when the
    /// request is routable: cache enabled, not degrade-laddered, and the
    /// design parses. Mirrors the executed key exactly (see
    /// [`request_cache_key`]), which is what makes routing safe — a
    /// mismatch would only cost a proxy hop, never a wrong answer.
    fn work_cache_key(&self, action: &Action) -> Option<CacheKey> {
        if self.config.cache_capacity == 0 {
            return None;
        }
        let (design, opts) = match action {
            Action::Schedule { design, opts } => (design, opts.clone()),
            // Simulation caches only its embedded *schedule*; the key is
            // built from the schedule-shaped slice of the options.
            Action::Simulate { design, opts } => (
                design,
                ScheduleOptions {
                    all_global: opts.all_global,
                    globals: opts.globals.clone(),
                    ..ScheduleOptions::default()
                },
            ),
            _ => return None,
        };
        request_cache_key(design, &opts, self.config.auto_partition_ops)
            .ok()
            .flatten()
    }

    /// Proxies a job to its owner when this node is not in the key's
    /// replica set. Returns the response line to relay (verbatim owner
    /// bytes, or a typed `peer-unavailable` error); `None` means
    /// "execute locally" — standalone daemon, local route mode, owned
    /// key, unroutable request, or a dead owner (health gates effort,
    /// never placement).
    pub(super) fn route_remote(
        &self,
        job: &Job,
        action: &'static str,
        queue_us: u64,
        remaining: Option<Duration>,
    ) -> Option<String> {
        let fleet = self.fleet.as_ref()?;
        if fleet.config.route != RouteMode::Proxy {
            return None;
        }
        let raw = job.raw.as_deref()?;
        let key = self.work_cache_key(&job.action)?;
        if fleet.is_local(&key) {
            return None;
        }
        let owner = fleet.owner(&key).to_owned();
        if !fleet.membership.is_alive(&owner) {
            // Dead owner: compute locally rather than fail the client —
            // bit-identical by construction, just duplicated work that
            // anti-entropy will reconcile.
            self.lock_metrics()
                .counter_add("serve.fleet.local_fallback", 1);
            return None;
        }
        let read_timeout = remaining.map_or(PROXY_READ_TIMEOUT, |r| r.min(PROXY_READ_TIMEOUT));
        let start = Instant::now();
        match peer_request(&owner, raw, read_timeout) {
            Ok(line) => {
                let rtt = dur_us(start.elapsed());
                fleet.membership.record_ok(&owner, rtt);
                {
                    let mut m = self.lock_metrics();
                    m.counter_add("serve.fleet.proxied", 1);
                    #[allow(clippy::cast_precision_loss)]
                    m.histogram_record("serve.fleet.peer.rtt_us", rtt as f64);
                }
                self.journal_record(job.raw.clone(), |request| JournalEntry {
                    action,
                    key: Some(key),
                    disposition: None,
                    outcome: "proxied",
                    code: 0,
                    queue_us,
                    exec_us: rtt,
                    total_us: dur_us(job.enqueued.elapsed()),
                    request,
                });
                Some(line)
            }
            Err(_) => {
                fleet.membership.record_failure(&owner);
                let err = ServeError::PeerUnavailable { peer: owner };
                {
                    let mut m = self.lock_metrics();
                    m.counter_add("serve.errors", 1);
                    m.counter_add("serve.fleet.proxy_failures", 1);
                }
                self.journal_record(job.raw.clone(), |request| JournalEntry {
                    action,
                    key: Some(key),
                    disposition: None,
                    outcome: err.class(),
                    code: err.code(),
                    queue_us,
                    exec_us: dur_us(start.elapsed()),
                    total_us: dur_us(job.enqueued.elapsed()),
                    request,
                });
                Some(error_line(&job.id, &err))
            }
        }
    }

    /// Pushes one freshly computed entry to the key's other replicas.
    /// Best effort: a failed push is counted and left to anti-entropy.
    pub(super) fn replicate_fresh(&self, key: CacheKey) {
        let Some(fleet) = &self.fleet else { return };
        let Some(value) = self.cache.peek(&key) else {
            return;
        };
        let entry = [(key, value)];
        let line = sync::push_request_line("repl", &entry);
        for peer in fleet.replica_peers(&key) {
            if !fleet.membership.is_alive(peer) {
                continue; // sync catches the peer up when it rejoins
            }
            let start = Instant::now();
            match peer_request(peer, &line, SYNC_READ_TIMEOUT) {
                Ok(_) => {
                    fleet.membership.record_ok(peer, dur_us(start.elapsed()));
                    self.lock_metrics().counter_add("serve.fleet.pushed", 1);
                }
                Err(_) => {
                    fleet.membership.record_failure(peer);
                    self.lock_metrics()
                        .counter_add("serve.fleet.push_failures", 1);
                }
            }
        }
    }

    /// One anti-entropy exchange with one peer: digest comparison, then
    /// a pull of every diverging shard over the same connection.
    fn sync_with_peer(&self, peer: &str) -> std::io::Result<sync::SyncOutcome> {
        let mut conn = PeerConn::connect(peer, PEER_CONNECT_TIMEOUT, SYNC_READ_TIMEOUT)?;
        let line = conn.request(&sync::digest_request_line("sync-digest"))?;
        let theirs = sync::parse_digests(&peer_body(&line)?)
            .ok_or_else(|| invalid_peer("malformed digest response"))?;
        sync::pull_round(&self.cache, &theirs, |shard| {
            let line = conn.request(&sync::pull_shard_request_line("sync-pull", shard))?;
            let (entries, rejected) = sync::parse_entries(&peer_body(&line)?)
                .ok_or_else(|| invalid_peer("malformed entries response"))?;
            if rejected > 0 {
                self.lock_metrics()
                    .counter_add("serve.fleet.sync.rejected", rejected as u64);
            }
            Ok(entries)
        })
    }

    /// One full anti-entropy round against every peer. Doubles as the
    /// failure detector: successful exchanges resurrect dead peers,
    /// failed ones advance their death counters.
    pub(super) fn sync_all_peers(&self) {
        let Some(fleet) = &self.fleet else { return };
        let peers: Vec<String> = fleet.membership.addrs().map(str::to_owned).collect();
        let mut all_ok = !peers.is_empty();
        for peer in &peers {
            if self.shutting_down() {
                return;
            }
            let start = Instant::now();
            match self.sync_with_peer(peer) {
                Ok(outcome) => {
                    let rtt = dur_us(start.elapsed());
                    fleet.membership.record_ok(peer, rtt);
                    let mut m = self.lock_metrics();
                    m.counter_add("serve.fleet.sync.rounds", 1);
                    m.counter_add(
                        "serve.fleet.sync.shards_pulled",
                        outcome.shards_pulled as u64,
                    );
                    m.counter_add("serve.fleet.sync.entries_applied", outcome.applied as u64);
                    #[allow(clippy::cast_precision_loss)]
                    m.histogram_record("serve.fleet.peer.rtt_us", rtt as f64);
                }
                Err(_) => {
                    all_ok = false;
                    fleet.membership.record_failure(peer);
                    self.lock_metrics()
                        .counter_add("serve.fleet.sync.failures", 1);
                }
            }
        }
        if all_ok {
            *self
                .last_sync
                .lock()
                .unwrap_or_else(PoisonError::into_inner) = Some(Instant::now());
        }
    }
}
