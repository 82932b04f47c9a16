//! The daemon's side of the fleet: proxying work to a key's owner,
//! pushing fresh entries to its replicas, and anti-entropy sync — all
//! over pooled NDJSON connections to peers ([`Shared::with_peer`]).

use std::io::ErrorKind::{self, BrokenPipe, ConnectionReset, UnexpectedEof};
use std::io::{BufRead as _, BufReader, Write as _};
use std::net::{TcpStream, ToSocketAddrs as _};
use std::sync::PoisonError;
use std::time::{Duration, Instant};

use tcms_obs::json::JsonValue;

use super::{dur_us, Job, Shared};
use crate::cache::CacheKey;
use crate::error::ServeError;
use crate::fleet::sync;
use crate::journal::JournalEntry;
use crate::pipeline::{routing_key, ScheduleOptions};
use crate::protocol::{error_line, parse_response, Action};

/// Connect timeout for any peer dial.
const PEER_CONNECT_TIMEOUT: Duration = Duration::from_secs(1);
/// Read timeout for sync/push exchanges (bounded, off the hot path).
const SYNC_READ_TIMEOUT: Duration = Duration::from_secs(5);
/// Read-timeout ceiling for proxied work (the request's own deadline
/// tightens it further).
const PROXY_READ_TIMEOUT: Duration = Duration::from_secs(30);
/// How a shutting-down owner answers a pooled connection (`error_line`
/// renders keys in order). Relayed, it would tell the client to give up.
const OWNER_LEAVING: &str = r#"{"error":{"class":"shutting-down""#;

/// An NDJSON connection to a fleet peer, idle in `Shared::peers` between
/// exchanges (at most `workers` per peer).
pub(super) struct PeerConn {
    reader: BufReader<TcpStream>,
    /// The outgoing line and its terminator, reused so each request
    /// leaves in one write (one segment on the `nodelay` socket).
    line: Vec<u8>,
    /// Whether the current exchange has read any response byte.
    heard: bool,
}

impl PeerConn {
    fn connect(addr: &str) -> std::io::Result<PeerConn> {
        let mut last = invalid_peer("peer address resolved to nothing");
        for sock in addr.to_socket_addrs()? {
            match TcpStream::connect_timeout(&sock, PEER_CONNECT_TIMEOUT) {
                Ok(stream) => {
                    let _ = stream.set_nodelay(true);
                    return Ok(PeerConn {
                        reader: BufReader::new(stream),
                        line: Vec::new(),
                        heard: false,
                    });
                }
                Err(e) => last = e,
            }
        }
        Err(last)
    }

    /// One request/response exchange. Peers answer in order on a
    /// connection, so one complete line is this request's answer; a
    /// partial line is an error, never an answer.
    fn request(&mut self, line: &str) -> std::io::Result<String> {
        self.line.clear();
        self.line.extend_from_slice(line.as_bytes());
        self.line.push(b'\n');
        self.reader.get_mut().write_all(&self.line)?;
        let mut out = Vec::new();
        let read = self.reader.read_until(b'\n', &mut out);
        self.heard |= !out.is_empty();
        read?;
        if out.pop() != Some(b'\n') {
            return Err(UnexpectedEof.into()); // EOF, maybe mid-line
        }
        String::from_utf8(out).map_err(|_| invalid_peer("peer answered non-UTF-8 bytes"))
    }
}

fn invalid_peer(msg: &str) -> std::io::Error {
    std::io::Error::new(ErrorKind::InvalidData, msg.to_owned())
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
    /// Runs `exchange` (one request, or a whole anti-entropy round) on an
    /// idle connection to `peer`, else on a fresh dial, and pools it again
    /// only after a success: a failed one (timeout, partial line, I/O
    /// error) may still carry a late reply the next request would read as
    /// its own. A stale pooled connection is retried once on a fresh dial;
    /// exchanges are idempotent, so that cannot change an answer. `work`
    /// marks a proxied request: it may take the last idle connection and
    /// pools what it dials. Pushes and sync only borrow a spare and close
    /// what they dial, so they never make a proxied request dial nor keep
    /// a peer's connection thread alive on their own.
    fn with_peer<T>(
        &self,
        peer: &str,
        read: Duration,
        work: bool,
        mut exchange: impl FnMut(&mut PeerConn) -> std::io::Result<T>,
    ) -> std::io::Result<T> {
        let lock = || self.peers.lock().unwrap_or_else(PoisonError::into_inner);
        let pooled = lock()
            .get_mut(peer)
            .filter(|idle| idle.len() > usize::from(!work))
            .and_then(Vec::pop);
        let reused = pooled.is_some();
        let mut conn = match pooled {
            Some(conn) => conn,
            None => self.dial(peer)?,
        };
        let mut run = |conn: &mut PeerConn| {
            conn.heard = false;
            conn.reader.get_ref().set_read_timeout(Some(read))?;
            conn.reader.get_ref().set_write_timeout(Some(read))?;
            exchange(conn)
        };
        let mut result = run(&mut conn);
        // Stale: the peer closed the idle connection before any response
        // byte. A timeout never is (a slow owner is not a stale one).
        let stale =
            |e: &std::io::Error| matches!(e.kind(), UnexpectedEof | ConnectionReset | BrokenPipe);
        if reused && !conn.heard && result.as_ref().is_err_and(stale) {
            conn = self.dial(peer)?;
            result = run(&mut conn);
        }
        if result.is_ok() && (work || reused) {
            let mut pool = lock();
            // Checked under the lock `begin_shutdown` takes after raising
            // the flag: nothing lands in a drained pool.
            if !self.shutting_down() {
                match pool.get_mut(peer) {
                    Some(idle) if idle.len() >= self.config.workers => {}
                    Some(idle) => idle.push(conn),
                    None => drop(pool.insert(peer.to_owned(), vec![conn])),
                }
            }
        }
        result
    }

    fn dial(&self, peer: &str) -> std::io::Result<PeerConn> {
        self.lock_metrics().counter_add("serve.fleet.peer.dials", 1);
        PeerConn::connect(peer)
    }

    /// The content address a work request would execute under, when the
    /// request is routable: cache enabled, not degrade-laddered, and the
    /// design parses. Taken from the answer index when this node has
    /// answered the same bytes before, else parsed; either way it
    /// mirrors the executed key exactly (see
    /// [`request_cache_key`](crate::pipeline::request_cache_key)), which
    /// is what makes routing safe — a mismatch would only cost a proxy
    /// hop, never a wrong answer.
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
        routing_key(&self.cache, design, &opts)
    }

    /// Proxies a job to its owner when this node is not in the key's
    /// replica set. Returns the response line to relay (verbatim owner
    /// bytes, or a typed `peer-unavailable` error); `None` means
    /// "execute locally" — standalone daemon, owned key, unroutable
    /// request, or a dead owner (health gates effort, never placement).
    pub(super) fn route_remote(
        &self,
        job: &Job,
        action: &'static str,
        queue_us: u64,
        remaining: Option<Duration>,
    ) -> Option<String> {
        let fleet = self.fleet.as_ref()?;
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
        let exchange = |conn: &mut PeerConn| match conn.request(raw)? {
            line if line.starts_with(OWNER_LEAVING) => Err(ErrorKind::ConnectionAborted.into()),
            line => Ok(line),
        };
        match self.with_peer(&owner, read_timeout, true, exchange) {
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
            match self.with_peer(peer, SYNC_READ_TIMEOUT, false, |conn| conn.request(&line)) {
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
        self.with_peer(peer, SYNC_READ_TIMEOUT, false, |conn| {
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

#[cfg(test)]
mod tests {
    use super::OWNER_LEAVING;
    use crate::error::ServeError;
    use crate::protocol::error_line;
    use tcms_obs::json::JsonValue;

    #[test]
    fn owner_leaving_prefix_matches_the_rendered_error() {
        for id in [JsonValue::Null, JsonValue::String("x".into())] {
            assert!(error_line(&id, &ServeError::ShuttingDown).starts_with(OWNER_LEAVING));
            let other = ServeError::PeerUnavailable { peer: "p".into() };
            assert!(!error_line(&id, &other).starts_with(OWNER_LEAVING));
        }
    }
}
