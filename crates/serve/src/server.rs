//! The daemon: accept loops, bounded job queue, worker pool.
//!
//! # Request lifecycle
//!
//! 1. A connection thread reads one request — an NDJSON line, or the
//!    body of an HTTP `POST /schedule` — and hands it to the one
//!    admission function both front-ends share (`server/conn.rs`).
//!    Control actions (`ping`, `stats`, `shutdown`) are answered
//!    inline; work actions (`schedule`, `simulate`) are pushed onto the
//!    bounded job queue.
//! 2. If the queue is full the request is **shed immediately** with a
//!    typed `overloaded` (429) error — backpressure is explicit, the
//!    daemon never buffers unboundedly.
//! 3. A worker pops the job. If its deadline already expired in the
//!    queue it answers `deadline` (408) without scheduling; otherwise
//!    the remaining time becomes the scheduler's [`RunBudget`]
//!    wall-clock watchdog, so a deadline also bounds the IFDS run
//!    itself.
//! 4. The worker runs the shared [`pipeline`](crate::pipeline) —
//!    through the content-addressed cache — and writes the response
//!    line back on the requesting connection. Responses arrive in
//!    completion order; the echoed `id` correlates them.
//!
//! Scheduling work itself fans out onto the vendored rayon pool, which
//! is safe to enter from several worker threads at once (a contended
//! parallel region degrades to inline sequential execution with
//! bit-identical results).
//!
//! # Fleet mode
//!
//! With a [`FleetConfig`], this daemon becomes one node of a
//! distributed fleet (see [`crate::fleet`] and `server/peer.rs`): work
//! requests are routed by consistent hash of their content address
//! (non-owners proxy the raw line to the owner and relay the response
//! verbatim, so any node answers byte-identically), fresh results are
//! pushed to the key's replica set, and a background anti-entropy loop
//! keeps peer caches convergent. An optional HTTP/1.1 listener
//! (`http_listen`) serves the same objects over `POST /schedule`,
//! `GET /stats` and `GET /healthz`.

mod conn;
mod peer;

use std::collections::{BTreeMap, VecDeque};
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError, RwLock, RwLockReadGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use tcms_fds::RunBudget;
use tcms_obs::json::JsonValue;
use tcms_obs::{MetricsRegistry, NoopRecorder};

use crate::cache::{Disposition, SchedCache};
use crate::error::ServeError;
use crate::fleet::{Fleet, FleetConfig};
use crate::journal::{JournalEntry, JournalStats, JournalWriter, DEFAULT_JOURNAL_BUFFER};
use crate::persist;
use crate::pipeline::{schedule_request, simulate_request, ExecContext};
use crate::protocol::{error_line, output_body, success_line, Action, RequestId};

use conn::Responder;

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Listen address, e.g. `127.0.0.1:7733` (`:0` picks a free port).
    pub listen: String,
    /// Worker threads (0 = automatic).
    pub workers: usize,
    /// Bounded job-queue capacity; beyond it requests are shed.
    pub queue_capacity: usize,
    /// Result-cache capacity in entries (0 disables caching).
    pub cache_capacity: usize,
    /// Cache shard count (lock granularity).
    pub cache_shards: usize,
    /// Directory for the persistent cache snapshot (`--cache-dir`).
    pub cache_dir: Option<PathBuf>,
    /// Deadline applied to requests that carry none, in milliseconds.
    pub default_deadline_ms: Option<u64>,
    /// Directory for the workload journal (`--journal-dir`); `None`
    /// disables capture.
    pub journal_dir: Option<PathBuf>,
    /// Bounded worker→journal channel capacity; when full, entries are
    /// dropped (and counted), never queued.
    pub journal_buffer: usize,
    /// Live-journal rotation threshold in bytes (0 disables rotation).
    pub journal_rotate_bytes: u64,
    /// Request-line size cap in bytes: a longer line is answered with a
    /// typed `too-large` (413) error and the connection is closed, so a
    /// misbehaving client can never grow a read buffer unboundedly.
    pub max_request_bytes: usize,
    /// Honour the chaos panic marker
    /// ([`PANIC_MARKER`](crate::pipeline::PANIC_MARKER)) in design text —
    /// test/bench harness support, never enabled in production serving.
    pub fault_marker: bool,
    /// Route designs with at least this many operations through the
    /// feedback-guided partitioner (0 disables automatic routing; an
    /// explicit `partition` request field always wins). Defaults to
    /// [`crate::pipeline::DEFAULT_AUTO_PARTITION_OPS`], matching the
    /// one-shot CLI so responses stay bit-identical.
    pub auto_partition_ops: usize,
    /// Fleet membership (`--peers`); `None` runs a standalone daemon.
    pub fleet: Option<FleetConfig>,
    /// HTTP/1.1 listen address (`--http`); `None` disables the HTTP
    /// front-end.
    pub http_listen: Option<String>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            listen: "127.0.0.1:0".into(),
            workers: 0,
            queue_capacity: 256,
            cache_capacity: 1024,
            cache_shards: 8,
            cache_dir: None,
            default_deadline_ms: None,
            journal_dir: None,
            journal_buffer: DEFAULT_JOURNAL_BUFFER,
            journal_rotate_bytes: 0,
            max_request_bytes: 1 << 20,
            fault_marker: false,
            auto_partition_ops: crate::pipeline::DEFAULT_AUTO_PARTITION_OPS,
            fleet: None,
            http_listen: None,
        }
    }
}

/// One queued work item.
struct Job {
    id: RequestId,
    action: Action,
    enqueued: Instant,
    deadline: Option<Duration>,
    conn: Responder,
    /// The raw request line, kept when journaling is on (the journal
    /// replays verbatim bytes, not a re-serialisation) or when fleet
    /// proxying may forward it verbatim to the owner.
    raw: Option<String>,
}

struct Shared {
    config: ServeConfig,
    cache: SchedCache,
    metrics: Mutex<MetricsRegistry>,
    queue: Mutex<VecDeque<Job>>,
    queue_cv: Condvar,
    shutdown: AtomicBool,
    /// Every bound listener, as a connectable address: shutdown dials
    /// each one to wake its blocked `accept()`.
    listeners: Vec<SocketAddr>,
    /// Held shared by a connection thread from reading a frame to
    /// writing its reply; see [`Shared::replying`].
    replies: RwLock<()>,
    journal: Option<JournalWriter>,
    inflight: AtomicU64,
    /// Fleet routing/sync state, when this daemon is a fleet node.
    fleet: Option<Fleet>,
    /// When the last fully successful anti-entropy exchange finished
    /// (drives the `sync.lag_ms` stats field).
    last_sync: Mutex<Option<Instant>>,
}

impl Shared {
    fn lock_metrics(&self) -> std::sync::MutexGuard<'_, MetricsRegistry> {
        self.metrics.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn lock_queue(&self) -> std::sync::MutexGuard<'_, VecDeque<Job>> {
        self.queue.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Marks this connection thread as answering a frame. `Server::wait`
    /// takes the lock exclusively after every other thread has exited,
    /// so the process cannot end mid-reply — in particular not before a
    /// `shutdown` requester has its answer.
    fn replying(&self) -> RwLockReadGuard<'_, ()> {
        self.replies.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// Signals shutdown: raises the flag, wakes idle workers so they
    /// drain the queue and exit, and wakes each accept loop blocked in
    /// `accept()` by connecting to its listener. The accept loop sees
    /// the flag and drops that connection unserved.
    fn begin_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.queue_cv.notify_all();
        for addr in &self.listeners {
            // A refused connect means the loop already exited.
            let _ = TcpStream::connect_timeout(addr, Duration::from_secs(1));
        }
    }

    /// Pushes a job, shedding when the bounded queue is full.
    fn enqueue(&self, job: Job) -> Result<(), ServeError> {
        let depth = {
            let mut queue = self.lock_queue();
            // Checked under the queue lock, which the workers' final
            // empty-and-stopping check also holds: a job is either
            // drained by a worker or refused here, never stranded.
            if self.shutting_down() {
                return Err(ServeError::ShuttingDown);
            }
            if queue.len() >= self.config.queue_capacity {
                return Err(ServeError::Overloaded {
                    capacity: self.config.queue_capacity,
                });
            }
            queue.push_back(job);
            queue.len()
        };
        self.queue_cv.notify_one();
        #[allow(clippy::cast_precision_loss)]
        self.lock_metrics()
            .gauge_set("serve.queue.depth", depth as f64);
        Ok(())
    }

    /// Pops the next job, blocking until one arrives or shutdown drains
    /// the queue empty.
    fn dequeue(&self) -> Option<Job> {
        let mut queue = self.lock_queue();
        loop {
            if let Some(job) = queue.pop_front() {
                let depth = queue.len();
                drop(queue);
                #[allow(clippy::cast_precision_loss)]
                self.lock_metrics()
                    .gauge_set("serve.queue.depth", depth as f64);
                return Some(job);
            }
            if self.shutting_down() {
                return None;
            }
            queue = self
                .queue_cv
                .wait_timeout(queue, Duration::from_millis(50))
                .unwrap_or_else(PoisonError::into_inner)
                .0;
        }
    }

    /// Hands one finished (or shed) request to the journal writer, when
    /// journaling is on. `raw` is populated by the connection thread only
    /// in that case, so both `None`s mean "capture disabled".
    fn journal_record(&self, raw: Option<String>, entry: impl FnOnce(String) -> JournalEntry) {
        let (Some(journal), Some(request)) = (&self.journal, raw) else {
            return;
        };
        journal.record(entry(request));
    }

    /// Runs one job end to end and writes its response.
    fn execute(&self, job: Job) {
        let waited = job.enqueued.elapsed();
        let queue_us = dur_us(waited);
        let action = action_label(&job.action);
        #[allow(clippy::cast_precision_loss)]
        self.lock_metrics()
            .histogram_record("serve.queue_wait_us", queue_us as f64);
        let budget = match job.deadline {
            Some(deadline) => {
                let Some(remaining) = deadline.checked_sub(waited) else {
                    let waited_ms = u64::try_from(waited.as_millis()).unwrap_or(u64::MAX);
                    let err = ServeError::DeadlineExpired { waited_ms };
                    self.lock_metrics().counter_add("serve.errors", 1);
                    // Journal before responding: once the client sees the
                    // response it may read `journal_stats`, which must
                    // already account for this request.
                    self.journal_record(job.raw, |request| JournalEntry {
                        action,
                        key: None,
                        disposition: None,
                        outcome: err.class(),
                        code: err.code(),
                        queue_us,
                        exec_us: 0,
                        total_us: queue_us,
                        request,
                    });
                    job.conn.send(&error_line(&job.id, &err));
                    return;
                };
                RunBudget {
                    wall_deadline: Some(remaining),
                    ..RunBudget::UNLIMITED
                }
            }
            None => RunBudget::UNLIMITED,
        };
        let cache = (self.config.cache_capacity > 0).then_some(&self.cache);
        let ctx = ExecContext {
            cache,
            budget,
            rec: &NoopRecorder,
            fault_marker: self.config.fault_marker,
            auto_partition_ops: self.config.auto_partition_ops,
        };
        // Fleet routing: a non-owner in proxy mode forwards the raw line
        // to the key's owner and relays the answer verbatim, so the whole
        // fleet shares one logical cache with byte-identical responses.
        if let Some(line) = self.route_remote(&job, action, queue_us, budget.wall_deadline) {
            job.conn.send(&line);
            return;
        }
        let inflight = self.inflight.fetch_add(1, Ordering::SeqCst) + 1;
        #[allow(clippy::cast_precision_loss)]
        self.lock_metrics()
            .gauge_set("serve.inflight", inflight as f64);
        let exec_start = Instant::now();
        // Supervision: a panicking scheduler job becomes a typed 500 for
        // the one request that caused it — the worker, the daemon and the
        // connection all survive. (The cache's own drop guard has already
        // resolved any in-flight slot during the unwind, so waiters are
        // never wedged.) This is the single place a panic is counted.
        let outcome =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| match &job.action {
                Action::Schedule { design, opts } => schedule_request(design, opts, &ctx)
                    .map(|a| (a.text, a.disposition, a.fresh_iterations, a.cache_key)),
                Action::Simulate { design, opts } => simulate_request(design, opts, &ctx)
                    .map(|a| (a.text, a.disposition, a.fresh_iterations, a.cache_key)),
                _ => unreachable!("non-work actions never reach the queue"),
            }))
            .unwrap_or_else(|payload| {
                self.lock_metrics().counter_add("serve.worker.panics", 1);
                Err(ServeError::from_panic(payload.as_ref()))
            });
        let exec_us = dur_us(exec_start.elapsed());
        let inflight = self.inflight.fetch_sub(1, Ordering::SeqCst) - 1;
        let total_us = dur_us(job.enqueued.elapsed());
        let disposition = outcome.as_ref().ok().map(|(_, d, _, _)| *d);
        {
            let mut m = self.lock_metrics();
            #[allow(clippy::cast_precision_loss)]
            {
                m.gauge_set("serve.inflight", inflight as f64);
                // Split by cache disposition (`error` when the request
                // failed): a hit's ~µs lookup and a miss's ~ms scheduler
                // run must not share buckets.
                let split = disposition.map_or("error", Disposition::as_str);
                m.histogram_record(format!("serve.exec_us.{split}"), exec_us as f64);
                m.histogram_record(format!("serve.total_us.{split}"), total_us as f64);
                m.histogram_record("serve.latency_ms", total_us as f64 / 1_000.0);
            }
        }
        match outcome {
            Ok((output, disposition, fresh_iterations, key)) => {
                {
                    let mut m = self.lock_metrics();
                    m.counter_add(format!("serve.cache.{}", disposition.as_str()), 1);
                    if disposition == Disposition::Miss {
                        m.counter_add("serve.scheduler.runs", 1);
                    }
                    m.counter_add("serve.ifds.iterations", fresh_iterations);
                }
                // Journal before responding (non-blocking `try_send`): a
                // client that has seen the response may immediately read
                // `journal_stats`, which must already count this request.
                self.journal_record(job.raw, |request| JournalEntry {
                    action,
                    key,
                    disposition: Some(disposition),
                    outcome: "ok",
                    code: 0,
                    queue_us,
                    exec_us,
                    total_us,
                    request,
                });
                // The rendered report's iteration count mirrors the run
                // that produced the cache entry; `fresh_iterations` in
                // the metrics counts only *new* IFDS work.
                job.conn.send(&success_line(
                    &job.id,
                    output_body(&output, disposition, fresh_iterations),
                ));
                // Replicate a freshly computed entry to the key's other
                // replicas — after the response, never on the hot path.
                if disposition == Disposition::Miss {
                    if let Some(key) = key {
                        self.replicate_fresh(key);
                    }
                }
            }
            Err(e) => {
                self.lock_metrics().counter_add("serve.errors", 1);
                self.journal_record(job.raw, |request| JournalEntry {
                    action,
                    key: None,
                    disposition: None,
                    outcome: e.class(),
                    code: e.code(),
                    queue_us,
                    exec_us,
                    total_us,
                    request,
                });
                job.conn.send(&error_line(&job.id, &e));
            }
        }
    }

    /// The daemon-statistics response body.
    fn stats_body(&self) -> BTreeMap<String, JsonValue> {
        let cache = self.cache.stats();
        let metrics = self.lock_metrics();
        let num = |n: u64| {
            #[allow(clippy::cast_precision_loss)]
            JsonValue::Number(n as f64)
        };
        let mut body = BTreeMap::new();
        body.insert("cache_entries".into(), num(self.cache.len() as u64));
        body.insert("cache_hits".into(), num(cache.hits));
        body.insert("cache_misses".into(), num(cache.misses));
        body.insert("cache_coalesced".into(), num(cache.coalesced));
        body.insert("cache_evictions".into(), num(cache.evictions));
        body.insert("cache_hit_rate".into(), JsonValue::Number(cache.hit_rate()));
        body.insert("requests".into(), num(metrics.counter("serve.requests")));
        body.insert(
            "scheduler_runs".into(),
            num(metrics.counter("serve.scheduler.runs")),
        );
        body.insert(
            "ifds_iterations".into(),
            num(metrics.counter("serve.ifds.iterations")),
        );
        body.insert("errors".into(), num(metrics.counter("serve.errors")));
        body.insert(
            "worker_panics".into(),
            num(metrics.counter("serve.worker.panics")),
        );
        body.insert(
            "worker_restarts".into(),
            num(metrics.counter("serve.worker.restarts")),
        );
        body.insert(
            "queue_depth".into(),
            JsonValue::Number(metrics.gauge("serve.queue.depth").unwrap_or(0.0)),
        );
        body.insert(
            "inflight".into(),
            JsonValue::Number(metrics.gauge("serve.inflight").unwrap_or(0.0)),
        );
        body.insert("workers".into(), num(self.config.workers as u64));
        // Per-shard cache occupancy/evictions: lock-granularity hot
        // spots show up here long before the global hit rate moves.
        body.insert(
            "cache_shards".into(),
            JsonValue::Array(
                cache
                    .shards
                    .iter()
                    .map(|s| {
                        let mut m = BTreeMap::new();
                        m.insert("occupancy".into(), num(s.occupancy as u64));
                        m.insert("capacity".into(), num(s.capacity as u64));
                        m.insert("evictions".into(), num(s.evictions));
                        JsonValue::Object(m)
                    })
                    .collect(),
            ),
        );
        // The full registry in wire form: `tcms stats` reconstructs a
        // MetricsRegistry from this and renders the standard summary.
        body.insert("metrics".into(), metrics.to_json());
        let mut journal = BTreeMap::new();
        match &self.journal {
            Some(w) => {
                let stats = w.stats();
                journal.insert("enabled".into(), JsonValue::Bool(true));
                journal.insert("recorded".into(), num(stats.recorded));
                journal.insert("dropped".into(), num(stats.dropped));
                journal.insert("rotated".into(), num(stats.rotated));
                journal.insert(
                    "path".into(),
                    JsonValue::String(w.path().display().to_string()),
                );
            }
            None => {
                journal.insert("enabled".into(), JsonValue::Bool(false));
            }
        }
        body.insert("journal".into(), JsonValue::Object(journal));
        let mut fleet = BTreeMap::new();
        match &self.fleet {
            Some(f) => {
                fleet.insert("enabled".into(), JsonValue::Bool(true));
                fleet.insert("self".into(), JsonValue::String(f.config.self_addr.clone()));
                fleet.insert(
                    "route".into(),
                    JsonValue::String(f.config.route.as_str().into()),
                );
                fleet.insert("replicas".into(), num(f.ring.replicas() as u64));
                for (field, counter) in [
                    ("proxied", "serve.fleet.proxied"),
                    ("proxy_failures", "serve.fleet.proxy_failures"),
                    ("local_fallback", "serve.fleet.local_fallback"),
                    ("pushed", "serve.fleet.pushed"),
                    ("push_failures", "serve.fleet.push_failures"),
                ] {
                    fleet.insert(field.into(), num(metrics.counter(counter)));
                }
                let mut sync = BTreeMap::new();
                for (field, counter) in [
                    ("rounds", "serve.fleet.sync.rounds"),
                    ("shards_pulled", "serve.fleet.sync.shards_pulled"),
                    ("entries_applied", "serve.fleet.sync.entries_applied"),
                    ("failures", "serve.fleet.sync.failures"),
                    ("push_applied", "serve.fleet.sync.push_applied"),
                    ("push_rejected", "serve.fleet.sync.push_rejected"),
                ] {
                    sync.insert(field.into(), num(metrics.counter(counter)));
                }
                let lag = self
                    .last_sync
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .map(|at| {
                        #[allow(clippy::cast_precision_loss)]
                        let ms = at.elapsed().as_millis() as f64;
                        JsonValue::Number(ms)
                    });
                sync.insert("lag_ms".into(), lag.unwrap_or(JsonValue::Null));
                fleet.insert("sync".into(), JsonValue::Object(sync));
                fleet.insert(
                    "peers".into(),
                    JsonValue::Array(
                        f.membership
                            .snapshot()
                            .into_iter()
                            .map(|(addr, health)| {
                                let mut p = BTreeMap::new();
                                p.insert("addr".into(), JsonValue::String(addr));
                                p.insert("alive".into(), JsonValue::Bool(health.is_alive()));
                                p.insert("ok".into(), num(health.ok_count));
                                p.insert("failures".into(), num(health.failure_count));
                                p.insert(
                                    "consecutive_failures".into(),
                                    num(u64::from(health.consecutive_failures)),
                                );
                                p.insert(
                                    "last_rtt_us".into(),
                                    health.last_rtt_us.map_or(JsonValue::Null, num),
                                );
                                JsonValue::Object(p)
                            })
                            .collect(),
                    ),
                );
            }
            None => {
                fleet.insert("enabled".into(), JsonValue::Bool(false));
            }
        }
        body.insert("fleet".into(), JsonValue::Object(fleet));
        body
    }
}

fn dur_us(d: Duration) -> u64 {
    u64::try_from(d.as_micros()).unwrap_or(u64::MAX)
}

fn action_label(action: &Action) -> &'static str {
    match action {
        Action::Schedule { .. } => "schedule",
        Action::Simulate { .. } => "simulate",
        Action::Stats => "stats",
        Action::Ping => "ping",
        Action::Shutdown => "shutdown",
        Action::SyncDigest => "sync_digest",
        Action::SyncPull { .. } => "sync_pull",
        Action::SyncPush { .. } => "sync_push",
    }
}

/// A running daemon. Dropping it without [`Server::wait`] leaves threads
/// running; call [`Server::shutdown`] then [`Server::wait`] (or let a
/// client's `shutdown` request trigger it) for a clean exit that also
/// persists the cache snapshot.
pub struct Server {
    shared: Arc<Shared>,
    addr: SocketAddr,
    http_addr: Option<SocketAddr>,
    /// Accept loops, the sync loop and the workers, joined by `wait`.
    threads: Vec<JoinHandle<()>>,
}

/// Spawns an accept loop that hands each connection to `handler` on a
/// detached thread (connection threads exit on client EOF or the
/// shutdown flag via their read timeout). The loop blocks in `accept()`
/// and returns on the first connection that arrives after shutdown
/// began — normally the wake-up from [`Shared::begin_shutdown`].
fn spawn_accept_loop(
    shared: &Arc<Shared>,
    listener: TcpListener,
    name: &str,
    handler: fn(&Arc<Shared>, TcpStream),
) -> JoinHandle<()> {
    let shared = Arc::clone(shared);
    let conn_name = format!("{name}-conn");
    std::thread::Builder::new()
        .name(format!("{name}-accept"))
        .spawn(move || loop {
            let accepted = listener.accept();
            if shared.shutting_down() {
                return;
            }
            match accepted {
                Ok((stream, _)) => {
                    let shared = Arc::clone(&shared);
                    let _ = std::thread::Builder::new()
                        .name(conn_name.clone())
                        .spawn(move || handler(&shared, stream));
                }
                // A real accept error (e.g. out of file descriptors):
                // back off so the loop cannot spin on it.
                Err(_) => std::thread::sleep(Duration::from_millis(10)),
            }
        })
        .expect("spawn accept thread")
}

/// The address that reaches a bound listener from this host: an
/// unspecified bind address (`0.0.0.0`, `::`) maps to loopback.
fn connectable(mut addr: SocketAddr) -> SocketAddr {
    if addr.ip().is_unspecified() {
        addr.set_ip(match addr {
            SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
            SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
        });
    }
    addr
}

impl Server {
    /// Binds the listener, loads the cache snapshot (when a cache
    /// directory is configured) and spawns the accept loop and worker
    /// pool.
    ///
    /// # Errors
    ///
    /// Propagates bind and snapshot I/O failures.
    pub fn start(mut config: ServeConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&config.listen)?;
        let addr = listener.local_addr()?;
        let http_listener = config
            .http_listen
            .as_ref()
            .map(TcpListener::bind)
            .transpose()?;
        let http_addr = http_listener
            .as_ref()
            .map(TcpListener::local_addr)
            .transpose()?;
        if config.workers == 0 {
            config.workers = std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(4)
                .clamp(2, 8);
        }
        let cache = SchedCache::new(config.cache_capacity.max(1), config.cache_shards.max(1));
        let mut metrics = MetricsRegistry::default();
        if let Some(dir) = &config.cache_dir {
            let report = persist::load_snapshot(dir, &cache)?;
            metrics.counter_add("serve.snapshot.loaded", report.loaded as u64);
            metrics.counter_add("serve.snapshot.skipped", report.skipped as u64);
            metrics.counter_add("serve.snapshot.quarantined", u64::from(report.quarantined));
        }
        let journal = match &config.journal_dir {
            Some(dir) => Some(JournalWriter::open_with(
                dir,
                config.journal_buffer,
                config.journal_rotate_bytes,
            )?),
            None => None,
        };
        let fleet = config.fleet.clone().map(Fleet::new);
        let shared = Arc::new(Shared {
            config,
            cache,
            metrics: Mutex::new(metrics),
            queue: Mutex::new(VecDeque::new()),
            queue_cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
            replies: RwLock::new(()),
            listeners: std::iter::once(addr)
                .chain(http_addr)
                .map(connectable)
                .collect(),
            journal,
            inflight: AtomicU64::new(0),
            fleet,
            last_sync: Mutex::new(None),
        });
        let workers = (0..shared.config.workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("tcms-serve-worker-{i}"))
                    .spawn(move || loop {
                        // Outer supervision ring: `execute` already
                        // converts job panics into typed 500s, so this
                        // only trips on a panic outside the job path
                        // (queue accounting, journaling). The loop *is*
                        // the restart — same thread, fresh iteration —
                        // so a worker slot is never permanently lost.
                        let drained =
                            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                                while let Some(job) = shared.dequeue() {
                                    shared.execute(job);
                                }
                            }));
                        match drained {
                            Ok(()) => return,
                            Err(_) => {
                                shared
                                    .lock_metrics()
                                    .counter_add("serve.worker.restarts", 1);
                            }
                        }
                    })
                    .expect("spawn worker thread")
            })
            .collect::<Vec<_>>();
        let accept = spawn_accept_loop(&shared, listener, "tcms-serve", conn::serve_connection);
        let http_accept = http_listener
            .map(|l| spawn_accept_loop(&shared, l, "tcms-serve-http", conn::serve_http_connection));
        // The anti-entropy loop: sleep in short shutdown-checked steps,
        // then exchange digests with every peer.
        let sync_loop = shared
            .fleet
            .as_ref()
            .and_then(|f| f.config.sync_interval)
            .map(|interval| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name("tcms-serve-sync".into())
                    .spawn(move || loop {
                        let mut slept = Duration::ZERO;
                        while slept < interval {
                            if shared.shutting_down() {
                                return;
                            }
                            let step = Duration::from_millis(50).min(interval - slept);
                            std::thread::sleep(step);
                            slept += step;
                        }
                        shared.sync_all_peers();
                    })
                    .expect("spawn sync thread")
            });
        let threads = std::iter::once(accept)
            .chain(http_accept)
            .chain(sync_loop)
            .chain(workers)
            .collect();
        Ok(Server {
            shared,
            addr,
            http_addr,
            threads,
        })
    }

    /// The bound address (resolves `:0` to the actual port).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The bound HTTP address, when the HTTP front-end is enabled.
    #[must_use]
    pub fn local_http_addr(&self) -> Option<SocketAddr> {
        self.http_addr
    }

    /// Runs one synchronous anti-entropy round against every peer.
    /// Tests and the bench harness drive convergence deterministically
    /// with this instead of waiting out the background interval.
    pub fn sync_now(&self) {
        self.shared.sync_all_peers();
    }

    /// Signals shutdown: stop accepting, drain the queue, then exit.
    pub fn shutdown(&self) {
        self.shared.begin_shutdown();
    }

    /// Whether a shutdown has been requested (by [`Server::shutdown`] or
    /// a client's `shutdown` action).
    #[must_use]
    pub fn is_shutting_down(&self) -> bool {
        self.shared.shutting_down()
    }

    /// Blocks until the daemon has shut down, then persists the cache
    /// snapshot when a cache directory is configured.
    ///
    /// # Errors
    ///
    /// Propagates snapshot write failures.
    pub fn wait(self) -> std::io::Result<()> {
        for h in self.threads {
            let _ = h.join();
        }
        drop(
            self.shared
                .replies
                .write()
                .unwrap_or_else(PoisonError::into_inner),
        );
        // Close the journal after the workers: every executed request
        // reaches the writer before the file is flushed and joined.
        if let Some(journal) = &self.shared.journal {
            journal.close();
        }
        if let Some(dir) = &self.shared.config.cache_dir {
            persist::save_snapshot(dir, &self.shared.cache.entries())?;
        }
        Ok(())
    }

    /// Reads one observability counter (test and stats support).
    #[must_use]
    pub fn counter(&self, name: &str) -> u64 {
        self.shared.lock_metrics().counter(name)
    }

    /// Journal accepted/dropped counters, when capture is enabled.
    #[must_use]
    pub fn journal_stats(&self) -> Option<JournalStats> {
        self.shared.journal.as_ref().map(JournalWriter::stats)
    }

    /// The result cache (test and stats support).
    #[must_use]
    pub fn cache(&self) -> &SchedCache {
        &self.shared.cache
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::CacheKey;
    use crate::fleet::HashRing;
    use crate::pipeline::{request_cache_key, ScheduleOptions};
    use crate::protocol::parse_response;
    use std::io::{BufRead as _, BufReader, Read as _, Write as _};

    const SAMPLE: &str = "resource add delay=1 area=1\nresource mul delay=2 area=4 pipelined\n\
        process A\nblock body time=8\nop m0 mul\nop a0 add\nedge m0 a0\n\
        process B\nblock body time=8\nop m0 mul\nop a0 add\nedge m0 a0\n";

    fn start() -> (Server, SocketAddr) {
        let server = Server::start(ServeConfig {
            workers: 2,
            ..ServeConfig::default()
        })
        .unwrap();
        let addr = server.local_addr();
        (server, addr)
    }

    fn roundtrip(addr: SocketAddr, request: &str) -> crate::protocol::Response {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(request.as_bytes()).unwrap();
        stream.write_all(b"\n").unwrap();
        let mut reader = BufReader::new(stream);
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        parse_response(line.trim_end()).unwrap()
    }

    fn schedule_req(id: &str) -> String {
        let design = SAMPLE.replace('\n', "\\n");
        format!(r#"{{"id":"{id}","action":"schedule","design":"{design}","all_global":4}}"#)
    }

    #[test]
    fn ping_and_stats_answer_inline() {
        let (server, addr) = start();
        let pong = roundtrip(addr, r#"{"id":1,"action":"ping"}"#);
        assert!(pong.is_ok());
        assert_eq!(pong.body.get("pong"), Some(&JsonValue::Bool(true)));
        let stats = roundtrip(addr, r#"{"id":2,"action":"stats"}"#);
        assert!(stats.is_ok());
        assert!(stats.body.get("cache_entries").is_some());
        server.shutdown();
        server.wait().unwrap();
    }

    #[test]
    fn schedule_misses_then_hits() {
        let (server, addr) = start();
        let first = roundtrip(addr, &schedule_req("m"));
        assert!(first.is_ok(), "{:?}", first.error);
        assert_eq!(first.cache(), Some("miss"));
        let second = roundtrip(addr, &schedule_req("h"));
        assert!(second.is_ok());
        assert_eq!(second.cache(), Some("hit"));
        assert_eq!(first.output(), second.output());
        assert_eq!(server.counter("serve.scheduler.runs"), 1);
        assert_eq!(server.counter("serve.cache.hit"), 1);
        server.shutdown();
        server.wait().unwrap();
    }

    #[test]
    fn malformed_design_gets_typed_error() {
        let (server, addr) = start();
        let resp = roundtrip(
            addr,
            r#"{"id":"x","action":"schedule","design":"resource add delay=zero"}"#,
        );
        let (class, code, _) = resp.error.unwrap();
        assert_eq!((class.as_str(), code), ("malformed", 4));
        server.shutdown();
        server.wait().unwrap();
    }

    #[test]
    fn zero_deadline_expires_in_queue() {
        let (server, addr) = start();
        let design = SAMPLE.replace('\n', "\\n");
        let resp = roundtrip(
            addr,
            &format!(r#"{{"id":"d","action":"schedule","design":"{design}","deadline_ms":0}}"#),
        );
        let (class, code, _) = resp.error.unwrap();
        assert_eq!((class.as_str(), code), ("deadline", 408));
        server.shutdown();
        server.wait().unwrap();
    }

    #[test]
    fn client_shutdown_request_stops_the_daemon() {
        let (server, addr) = start();
        let resp = roundtrip(addr, r#"{"id":"bye","action":"shutdown"}"#);
        assert!(resp.is_ok());
        server.wait().unwrap();
    }

    #[test]
    fn oversized_request_line_gets_typed_413_then_close() {
        let server = Server::start(ServeConfig {
            workers: 1,
            max_request_bytes: 256,
            ..ServeConfig::default()
        })
        .unwrap();
        let addr = server.local_addr();
        let mut stream = TcpStream::connect(addr).unwrap();
        let huge = format!(
            r#"{{"id":"big","action":"schedule","design":"{}"}}"#,
            "x".repeat(4096)
        );
        stream.write_all(huge.as_bytes()).unwrap();
        stream.write_all(b"\n").unwrap();
        let mut reader = BufReader::new(stream);
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        let resp = parse_response(line.trim_end()).unwrap();
        let (class, code, _) = resp.error.unwrap();
        assert_eq!((class.as_str(), code), ("too-large", 413));
        // The connection is closed after the rejection: there is no
        // trustworthy record boundary to resynchronise on.
        line.clear();
        assert_eq!(reader.read_line(&mut line).unwrap(), 0);
        // The daemon itself is fine.
        let pong = roundtrip(addr, r#"{"id":"p","action":"ping"}"#);
        assert!(pong.is_ok());
        server.shutdown();
        server.wait().unwrap();
    }

    #[test]
    fn invalid_utf8_gets_typed_error_and_the_connection_survives() {
        let (server, addr) = start();
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(b"\xff\xfe{\"id\":1}\n").unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        let resp = parse_response(line.trim_end()).unwrap();
        let (class, code, msg) = resp.error.unwrap();
        assert_eq!((class.as_str(), code), ("bad-request", 2));
        assert!(msg.contains("UTF-8"), "{msg}");
        // Same connection keeps working.
        stream
            .write_all(b"{\"id\":\"p\",\"action\":\"ping\"}\n")
            .unwrap();
        line.clear();
        reader.read_line(&mut line).unwrap();
        assert!(parse_response(line.trim_end()).unwrap().is_ok());
        server.shutdown();
        server.wait().unwrap();
    }

    #[test]
    fn worker_panic_becomes_typed_500_and_daemon_survives() {
        let server = Server::start(ServeConfig {
            workers: 2,
            fault_marker: true,
            ..ServeConfig::default()
        })
        .unwrap();
        let addr = server.local_addr();
        let marked = format!("{SAMPLE}{}\n", crate::pipeline::PANIC_MARKER).replace('\n', "\\n");
        let req =
            format!(r#"{{"id":"boom","action":"schedule","design":"{marked}","all_global":4}}"#);
        let resp = roundtrip(addr, &req);
        let (class, code, _) = resp
            .error
            .clone()
            .unwrap_or_else(|| panic!("expected a typed error, got body {:?}", resp.body));
        assert_eq!((class.as_str(), code), ("internal", 500));
        assert_eq!(server.counter("serve.worker.panics"), 1);
        // The panic neither killed the daemon nor wedged the
        // single-flight slot: an unmarked request schedules fine.
        let ok = roundtrip(addr, &schedule_req("after"));
        assert!(ok.is_ok(), "{:?}", ok.error);
        // A retry of the marked design panics again (the failure was
        // not cached) and is again survivable.
        let again = roundtrip(addr, &req);
        assert_eq!(again.error.unwrap().1, 500);
        assert_eq!(server.counter("serve.worker.panics"), 2);
        let stats = roundtrip(addr, r#"{"id":"st","action":"stats"}"#);
        assert_eq!(
            stats.body.get("worker_panics").and_then(JsonValue::as_f64),
            Some(2.0)
        );
        server.shutdown();
        server.wait().unwrap();
    }

    #[test]
    fn journal_captures_work_requests_with_dispositions() {
        let dir = std::env::temp_dir().join(format!("tcms_serve_jnl_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let server = Server::start(ServeConfig {
            workers: 2,
            journal_dir: Some(dir.clone()),
            ..ServeConfig::default()
        })
        .unwrap();
        let addr = server.local_addr();
        assert!(roundtrip(addr, &schedule_req("a")).is_ok());
        assert!(roundtrip(addr, &schedule_req("b")).is_ok());
        let bad = roundtrip(
            addr,
            r#"{"id":"x","action":"schedule","design":"resource add delay=zero"}"#,
        );
        assert!(!bad.is_ok());
        // Control actions stay out of the journal.
        assert!(roundtrip(addr, r#"{"id":"p","action":"ping"}"#).is_ok());
        let stats = server.journal_stats().unwrap();
        assert_eq!((stats.recorded, stats.dropped), (3, 0));
        server.shutdown();
        server.wait().unwrap();

        let (records, report) =
            crate::journal::load_journal(&crate::journal::journal_path(&dir)).unwrap();
        assert_eq!(report.loaded, 3);
        assert!(!report.torn_tail);
        let outcomes: Vec<_> = records
            .iter()
            .map(|r| (r.outcome.as_str(), r.disposition.as_deref(), r.code))
            .collect();
        assert_eq!(
            outcomes,
            vec![
                ("ok", Some("miss"), 0),
                ("ok", Some("hit"), 0),
                ("malformed", None, 4),
            ]
        );
        // Successful records carry the content address; the raw request
        // line rides along verbatim for replay.
        assert!(records[0].spec.is_some() && records[0].config.is_some());
        assert_eq!(records[0].spec, records[1].spec);
        assert_eq!(records[0].request, schedule_req("a"));
        assert!(records[2].spec.is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stats_body_exposes_shards_metrics_and_journal() {
        let (server, addr) = start();
        assert!(roundtrip(addr, &schedule_req("s")).is_ok());
        let stats = roundtrip(addr, r#"{"id":"st","action":"stats"}"#);
        assert!(stats.is_ok());
        let shards = stats.body.get("cache_shards").unwrap().as_array().unwrap();
        assert_eq!(shards.len(), ServeConfig::default().cache_shards);
        let occupied: f64 = shards
            .iter()
            .map(|s| s.get("occupancy").unwrap().as_f64().unwrap())
            .sum();
        assert_eq!(occupied, 1.0, "one entry lives in exactly one shard");
        let metrics = stats.body.get("metrics").unwrap();
        let registry = MetricsRegistry::from_json(metrics).unwrap();
        assert_eq!(registry.counter("serve.requests.schedule"), 1);
        assert_eq!(registry.counter("serve.cache.miss"), 1);
        assert!(registry
            .histograms()
            .any(|(name, _)| name == "serve.exec_us.miss"));
        let journal = stats.body.get("journal").unwrap();
        assert_eq!(journal.get("enabled"), Some(&JsonValue::Bool(false)));
        server.shutdown();
        server.wait().unwrap();
    }

    /// Reserves `n` distinct loopback ports by bind-and-drop: fleet
    /// members must know every peer's address before any of them start.
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

    fn start_fleet(n: usize, replicas: usize) -> (Vec<Server>, Vec<String>) {
        let peers = reserve_ports(n);
        let servers = peers
            .iter()
            .map(|addr| {
                Server::start(ServeConfig {
                    listen: addr.clone(),
                    workers: 2,
                    fleet: Some(FleetConfig {
                        replicas,
                        sync_interval: None, // tests drive sync_now()
                        ..FleetConfig::new(addr.clone(), peers.clone())
                    }),
                    ..ServeConfig::default()
                })
                .unwrap()
            })
            .collect();
        (servers, peers)
    }

    fn sample_key() -> CacheKey {
        request_cache_key(
            SAMPLE,
            &ScheduleOptions {
                all_global: Some(4),
                ..ScheduleOptions::default()
            },
            crate::pipeline::DEFAULT_AUTO_PARTITION_OPS,
        )
        .unwrap()
        .unwrap()
    }

    #[test]
    fn fleet_proxies_to_the_owner_and_every_node_answers_identically() {
        let (servers, peers) = start_fleet(3, 2);
        let key = sample_key();
        let ring = HashRing::new(&peers, 2);
        let owner_idx = peers.iter().position(|p| p == ring.owner(&key)).unwrap();
        let non_owner_idx = (0..3)
            .find(|i| !ring.is_replica(&key, &peers[*i]))
            .expect("3 nodes, R=2: exactly one non-replica");
        // A request to a NON-owner is proxied: the owner computes and
        // caches, the non-owner relays verbatim.
        let first = roundtrip(servers[non_owner_idx].local_addr(), &schedule_req("f"));
        assert!(first.is_ok(), "{:?}", first.error);
        assert_eq!(first.cache(), Some("miss"));
        assert_eq!(servers[non_owner_idx].counter("serve.fleet.proxied"), 1);
        assert_eq!(servers[non_owner_idx].counter("serve.scheduler.runs"), 0);
        assert_eq!(servers[owner_idx].counter("serve.scheduler.runs"), 1);
        assert_eq!(servers[owner_idx].cache().len(), 1);
        assert_eq!(servers[non_owner_idx].cache().len(), 0);
        // Replication runs after the response; wait for the fresh entry
        // to land on the backup replica before asserting fleet-wide hits.
        let deadline = Instant::now() + Duration::from_secs(5);
        while Instant::now() < deadline {
            let replicated = servers
                .iter()
                .filter(|s| s.cache().peek(&key).is_some())
                .count();
            if replicated == 2 {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        // Every node now answers the same request with identical bytes,
        // and nothing schedules again anywhere.
        for server in &servers {
            let resp = roundtrip(server.local_addr(), &schedule_req("f"));
            assert_eq!(resp.cache(), Some("hit"), "{:?}", resp.error);
            assert_eq!(resp.output(), first.output());
        }
        let runs: u64 = servers
            .iter()
            .map(|s| s.counter("serve.scheduler.runs"))
            .sum();
        assert_eq!(runs, 1, "one IFDS run serves the whole fleet");
        // The fresh miss was pushed to the other replica (R=2).
        let replicated = servers
            .iter()
            .filter(|s| s.cache().peek(&key).is_some())
            .count();
        assert_eq!(replicated, 2, "owner + one backup hold the entry");
        for server in servers {
            server.shutdown();
            server.wait().unwrap();
        }
    }

    #[test]
    fn sync_now_converges_peers_without_proxying() {
        // R=1: the entry lives only on its owner until anti-entropy runs.
        let (servers, peers) = start_fleet(3, 1);
        let key = sample_key();
        let ring = HashRing::new(&peers, 1);
        let owner_idx = peers.iter().position(|p| p == ring.owner(&key)).unwrap();
        let resp = roundtrip(servers[owner_idx].local_addr(), &schedule_req("s"));
        assert_eq!(resp.cache(), Some("miss"), "{:?}", resp.error);
        let other = (owner_idx + 1) % 3;
        assert_eq!(servers[other].cache().len(), 0);
        servers[other].sync_now();
        assert_eq!(servers[other].cache().len(), 1, "digest pull shipped it");
        assert!(servers[other].counter("serve.fleet.sync.entries_applied") >= 1);
        assert_eq!(servers[other].counter("serve.fleet.sync.rounds"), 2);
        // A second round pulls nothing: digests already agree.
        servers[other].sync_now();
        assert_eq!(
            servers[other].counter("serve.fleet.sync.entries_applied"),
            1
        );
        // And the synced copy answers bit-identically.
        let hit = roundtrip(servers[other].local_addr(), &schedule_req("s2"));
        assert_eq!(hit.cache(), Some("hit"));
        assert_eq!(hit.output(), resp.output());
        for server in servers {
            server.shutdown();
            server.wait().unwrap();
        }
    }

    #[test]
    fn dead_owner_falls_back_to_local_compute_after_detection() {
        let (mut servers, peers) = start_fleet(2, 1);
        let key = sample_key();
        let ring = HashRing::new(&peers, 1);
        let owner_idx = peers.iter().position(|p| p == ring.owner(&key)).unwrap();
        let other = 1 - owner_idx;
        // Kill the owner.
        let owner = servers.remove(owner_idx);
        owner.shutdown();
        owner.wait().unwrap();
        let survivor = servers.pop().unwrap();
        assert_eq!(survivor.local_addr().to_string(), peers[other].clone());
        // Until the death threshold trips, proxy attempts fail typed.
        for _ in 0..crate::fleet::DEATH_THRESHOLD {
            let resp = roundtrip(survivor.local_addr(), &schedule_req("x"));
            let (class, code, _) = resp.error.expect("owner is down");
            assert_eq!((class.as_str(), code), ("peer-unavailable", 503));
        }
        // Now the owner is considered dead: compute locally instead.
        let resp = roundtrip(survivor.local_addr(), &schedule_req("y"));
        assert!(resp.is_ok(), "{:?}", resp.error);
        assert_eq!(resp.cache(), Some("miss"));
        assert_eq!(survivor.counter("serve.fleet.local_fallback"), 1);
        assert_eq!(
            survivor.counter("serve.fleet.proxy_failures"),
            u64::from(crate::fleet::DEATH_THRESHOLD)
        );
        survivor.shutdown();
        survivor.wait().unwrap();
    }

    /// Minimal HTTP/1.1 client: one request, returns (status, body).
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
    fn http_front_end_serves_schedule_stats_and_healthz() {
        let server = Server::start(ServeConfig {
            workers: 2,
            http_listen: Some("127.0.0.1:0".into()),
            ..ServeConfig::default()
        })
        .unwrap();
        let http = server.local_http_addr().unwrap();
        let (status, body) = http_roundtrip(http, "GET", "/healthz", "");
        assert_eq!(status, 200);
        assert!(parse_response(body.trim_end()).unwrap().is_ok());
        // POST /schedule implies the action; the body is the NDJSON line.
        let design = SAMPLE.replace('\n', "\\n");
        let req = format!(r#"{{"id":"h","design":"{design}","all_global":4}}"#);
        let (status, body) = http_roundtrip(http, "POST", "/schedule", &req);
        assert_eq!(status, 200, "{body}");
        let resp = parse_response(body.trim_end()).unwrap();
        assert_eq!(resp.cache(), Some("miss"));
        // The same request over NDJSON is a cache hit with identical
        // output: one protocol, two framings.
        let tcp = roundtrip(server.local_addr(), &schedule_req("h"));
        assert_eq!(tcp.cache(), Some("hit"));
        assert_eq!(tcp.output(), resp.output());
        // Typed errors map onto HTTP statuses.
        let (status, body) = http_roundtrip(
            http,
            "POST",
            "/schedule",
            r#"{"id":"b","design":"resource add delay=zero"}"#,
        );
        assert_eq!(status, 400, "{body}");
        let (status, _) = http_roundtrip(http, "GET", "/nope", "");
        assert_eq!(status, 404);
        let (status, _) = http_roundtrip(http, "DELETE", "/stats", "");
        assert_eq!(status, 405);
        let (status, body) = http_roundtrip(http, "GET", "/stats", "");
        assert_eq!(status, 200);
        let stats = parse_response(body.trim_end()).unwrap();
        assert!(stats.body.get("fleet").is_some());
        assert_eq!(
            stats.body.get("fleet").unwrap().get("enabled"),
            Some(&JsonValue::Bool(false))
        );
        server.shutdown();
        server.wait().unwrap();
    }

    #[test]
    fn stats_expose_the_fleet_block() {
        let (servers, _) = start_fleet(2, 2);
        let stats = roundtrip(servers[0].local_addr(), r#"{"id":"st","action":"stats"}"#);
        let fleet = stats.body.get("fleet").unwrap();
        assert_eq!(fleet.get("enabled"), Some(&JsonValue::Bool(true)));
        assert_eq!(fleet.get("route"), Some(&JsonValue::String("proxy".into())));
        assert_eq!(fleet.get("replicas").and_then(JsonValue::as_f64), Some(2.0));
        let peers_arr = fleet.get("peers").unwrap().as_array().unwrap();
        assert_eq!(peers_arr.len(), 1, "membership excludes self");
        assert_eq!(peers_arr[0].get("alive"), Some(&JsonValue::Bool(true)));
        let sync = fleet.get("sync").unwrap();
        assert_eq!(sync.get("lag_ms"), Some(&JsonValue::Null), "never synced");
        // The wire document must satisfy the CI validator
        // (`trace_check --stats`) — this pins the two schemas together.
        let rendered = tcms_obs::json::to_string(&stats.body);
        tcms_obs::sink::validate_stats(&rendered).expect("fleet stats schema");
        for server in servers {
            server.shutdown();
            server.wait().unwrap();
        }
    }

    #[test]
    fn snapshot_round_trips_through_restart() {
        let dir = std::env::temp_dir().join(format!("tcms_serve_snap_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config = ServeConfig {
            workers: 2,
            cache_dir: Some(dir.clone()),
            ..ServeConfig::default()
        };
        let server = Server::start(config.clone()).unwrap();
        let addr = server.local_addr();
        assert_eq!(roundtrip(addr, &schedule_req("a")).cache(), Some("miss"));
        server.shutdown();
        server.wait().unwrap();

        let server = Server::start(config).unwrap();
        let addr = server.local_addr();
        // Warm from the snapshot: the very first request is a hit.
        assert_eq!(roundtrip(addr, &schedule_req("b")).cache(), Some("hit"));
        assert_eq!(server.counter("serve.scheduler.runs"), 0);
        server.shutdown();
        server.wait().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Both the API and the `shutdown` action must end a daemon whose
    /// accept loops block in `accept()`, including listeners bound to an
    /// unspecified address, which the wake-up reaches over loopback.
    #[test]
    fn shutdown_wakes_blocking_accept_loops() {
        for by_action in [false, true] {
            let server = Server::start(ServeConfig {
                listen: "0.0.0.0:0".into(),
                workers: 1,
                http_listen: Some("0.0.0.0:0".into()),
                ..ServeConfig::default()
            })
            .unwrap();
            if by_action {
                let addr = connectable(server.local_addr());
                let resp = roundtrip(addr, r#"{"id":"bye","action":"shutdown"}"#);
                assert!(resp.is_ok());
            } else {
                server.shutdown();
            }
            let (tx, rx) = std::sync::mpsc::channel();
            std::thread::spawn(move || tx.send(server.wait().is_ok()));
            assert_eq!(
                rx.recv_timeout(Duration::from_secs(2)),
                Ok(true),
                "wait() after shutdown (by action: {by_action})"
            );
        }
    }

    /// Reads one HTTP response: (status, body).
    fn read_http_response(reader: &mut BufReader<TcpStream>) -> (u16, String) {
        let mut status = String::new();
        reader.read_line(&mut status).unwrap();
        let mut len = 0;
        loop {
            let mut header = String::new();
            reader.read_line(&mut header).unwrap();
            match header.trim_end().split_once(':') {
                Some((name, value)) if name.eq_ignore_ascii_case("content-length") => {
                    len = value.trim().parse().unwrap();
                }
                Some(_) => {}
                None => break,
            }
        }
        let mut body = vec![0; len];
        reader.read_exact(&mut body).unwrap();
        let status = status.split_whitespace().nth(1).unwrap().parse().unwrap();
        (status, String::from_utf8(body).unwrap())
    }

    /// Whether the daemon closed the connection (EOF or reset), as
    /// opposed to leaving it open until the read timeout.
    fn closed_by_peer(reader: &mut BufReader<TcpStream>) -> bool {
        reader
            .get_ref()
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        match reader.read(&mut [0u8; 1]) {
            Ok(n) => n == 0,
            Err(e) => e.kind() == std::io::ErrorKind::ConnectionReset,
        }
    }

    /// One rejection sent over both front-ends: the same wire class and
    /// code, the same `serve.errors`/`serve.shed` deltas, and for 413 the
    /// same close.
    #[test]
    fn ndjson_and_http_reject_identically() {
        struct Case {
            name: &'static str,
            config: ServeConfig,
            ndjson: Vec<u8>,
            http: Vec<Vec<u8>>,
            error: (&'static str, u16),
            errors_and_shed: (u64, u64),
            closes: bool,
        }
        let cap = 256;
        let base = ServeConfig {
            workers: 1,
            http_listen: Some("127.0.0.1:0".into()),
            ..ServeConfig::default()
        };
        let post = |headers: &str, body: &[u8]| {
            let mut req = format!(
                "POST /schedule HTTP/1.1\r\nHost: t\r\n{headers}Content-Length: {}\r\n\r\n",
                body.len()
            )
            .into_bytes();
            req.extend_from_slice(body);
            req
        };
        let design = SAMPLE.replace('\n', "\\n");
        let cases = [
            Case {
                name: "oversized frame",
                config: ServeConfig {
                    max_request_bytes: cap,
                    ..base.clone()
                },
                ndjson: format!("{{\"id\":\"big\",\"design\":\"{}\"}}\n", "x".repeat(1024))
                    .into_bytes(),
                http: vec![
                    post(&format!("X-Pad: {}\r\n", "x".repeat(1024)), b""),
                    b"POST /schedule HTTP/1.1\r\nHost: t\r\nContent-Length: 1024\r\n\r\n".to_vec(),
                ],
                error: ("too-large", 413),
                errors_and_shed: (1, 0),
                closes: true,
            },
            Case {
                name: "invalid UTF-8",
                config: base.clone(),
                ndjson: b"\xff\xfe{\"id\":1}\n".to_vec(),
                http: vec![post("", b"\xff\xfe{\"id\":1}")],
                error: ("bad-request", 2),
                errors_and_shed: (1, 0),
                closes: false,
            },
            Case {
                name: "full queue",
                config: ServeConfig {
                    queue_capacity: 0,
                    ..base.clone()
                },
                ndjson: (schedule_req("q") + "\n").into_bytes(),
                http: vec![post(
                    "",
                    format!(r#"{{"id":"q","design":"{design}","all_global":4}}"#).as_bytes(),
                )],
                error: ("overloaded", 429),
                errors_and_shed: (1, 1),
                closes: false,
            },
        ];
        for case in cases {
            let server = Server::start(case.config).unwrap();
            let http_addr = server.local_http_addr().unwrap();
            let sends = std::iter::once((false, case.ndjson))
                .chain(case.http.into_iter().map(|req| (true, req)));
            for (is_http, bytes) in sends {
                let wire = if is_http { "HTTP" } else { "NDJSON" };
                let counters = || (server.counter("serve.errors"), server.counter("serve.shed"));
                let before = counters();
                let addr = if is_http {
                    http_addr
                } else {
                    server.local_addr()
                };
                let mut stream = TcpStream::connect(addr).unwrap();
                stream.write_all(&bytes).unwrap();
                let mut reader = BufReader::new(stream);
                let (status, line) = if is_http {
                    read_http_response(&mut reader)
                } else {
                    let mut line = String::new();
                    reader.read_line(&mut line).unwrap();
                    (0, line)
                };
                let (class, code, _) = parse_response(line.trim_end()).unwrap().error.unwrap();
                assert_eq!(
                    (class.as_str(), code),
                    case.error,
                    "{} over {wire}",
                    case.name
                );
                if is_http {
                    assert_eq!(status, crate::fleet::http::status_of_code(code));
                }
                let after = counters();
                assert_eq!(
                    (after.0 - before.0, after.1 - before.1),
                    case.errors_and_shed,
                    "{} over {wire}: serve.errors/serve.shed deltas",
                    case.name
                );
                if case.closes {
                    assert!(closed_by_peer(&mut reader), "{} over {wire}", case.name);
                }
            }
            server.shutdown();
            server.wait().unwrap();
        }
    }
}
