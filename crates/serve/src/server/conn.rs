//! The daemon's connections: NDJSON and HTTP/1.1 framing over one
//! capped line reader, and [`submit`], the single admission path both
//! front-ends feed — parse, answer control actions and indexed repeats
//! inline, or queue work behind the bounded queue.
//!
//! Pure HTTP parsing and rendering live in [`crate::fleet::http`]; this
//! module is the socket plumbing around them.

use std::collections::BTreeMap;
use std::io::{BufRead as _, BufReader, Write as _};
use std::net::TcpStream;
use std::sync::{mpsc, Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

use tcms_obs::json::JsonValue;

use super::{action_label, dur_us, Job, Shared, Timing};
use crate::error::ServeError;
use crate::fleet::{http, sync};
use crate::journal::JournalEntry;
use crate::pipeline::{answer_request, chaos_marked, indexed_answer, Answer};
use crate::protocol::{
    error_line, parse_request, parse_response, success_line, Action, Request, RequestId,
};

/// Where a finished job's response line goes: straight onto an NDJSON
/// connection, or through a channel to a caller waiting synchronously
/// (the HTTP front-end).
#[derive(Clone)]
pub(super) enum Responder {
    /// The write half of the NDJSON connection the request arrived on,
    /// shared with the workers answering its queued requests.
    Conn(Arc<Mutex<TcpStream>>),
    /// A rendezvous channel whose receiver blocks for the line.
    Channel(mpsc::SyncSender<String>),
}

impl Responder {
    /// Delivers one response line. Errors are swallowed in both arms: a
    /// vanished client must not take a worker down. The NDJSON arm sends
    /// the line and its terminator in one write: on the `nodelay` socket
    /// two writes are two segments, and the client wakes for each.
    pub(super) fn send(&self, mut line: String) {
        match self {
            Responder::Conn(stream) => {
                line.push('\n');
                let mut stream = stream.lock().unwrap_or_else(PoisonError::into_inner);
                let _ = stream.write_all(line.as_bytes());
            }
            Responder::Channel(tx) => {
                let _ = tx.try_send(line);
            }
        }
    }
}

/// Admits one request line from either front-end: parses it, answers
/// control actions inline, answers a repeated schedule request from the
/// answer index (see [`indexed_at_admission`]), and queues the rest of
/// the work, shedding with a typed `overloaded` (429) error when the
/// queue is full. `reply` receives exactly one line — here, or from the
/// worker that runs the job. Returns the request id for the caller's
/// own error replies.
pub(super) fn submit(shared: &Shared, line: &str, reply: Responder) -> RequestId {
    let Request {
        id,
        action,
        deadline_ms,
    } = match parse_request(line) {
        Ok(request) => request,
        Err((id, e)) => {
            reject(shared, &reply, &id, &e);
            return id;
        }
    };
    shared
        .lock_metrics()
        .counter_add(format!("serve.requests.{}", action_label(&action)), 1);
    let work = match inline_response(shared, &id, action) {
        Ok(resp) => {
            reply.send(resp);
            return id;
        }
        Err(work) => work,
    };
    // Keep the raw bytes when journaling (the journal replays the
    // request verbatim, not a re-serialisation) or in a fleet (proxying
    // forwards the owner the same bytes).
    let raw = (shared.journal.is_some() || shared.fleet.is_some()).then(|| line.to_owned());
    let action_name = action_label(&work);
    let job = Job {
        id: id.clone(),
        action: work,
        enqueued: Instant::now(),
        deadline: deadline_ms
            .or(shared.config.default_deadline_ms)
            .map(Duration::from_millis),
        conn: reply.clone(),
        raw: raw.clone(),
    };
    if let Some(answer) = indexed_at_admission(shared, &job) {
        // Accounted like a worker's hit, with no time in the queue.
        let exec_us = dur_us(job.enqueued.elapsed());
        shared
            .lock_metrics()
            .histogram_record("serve.queue_wait_us", 0.0);
        let timing = Timing {
            queue_us: 0,
            exec_us,
            total_us: exec_us,
        };
        shared.finish(job, timing, Ok(answer));
        return id;
    }
    if let Err(e) = shared.enqueue(job) {
        if matches!(e, ServeError::Overloaded { .. }) {
            shared.lock_metrics().counter_add("serve.shed", 1);
        }
        // Shed requests are journaled too (and before the response goes
        // out): a replay that omits them would understate the offered
        // load.
        shared.journal_record(raw, |request| JournalEntry {
            action: action_name,
            key: None,
            disposition: None,
            outcome: e.class(),
            code: e.code(),
            queue_us: 0,
            exec_us: 0,
            total_us: 0,
            request,
        });
        reject(shared, &reply, &id, &e);
    }
    id
}

/// The answer to `job` from the answer index, when the connection
/// thread can give it without queueing: a `schedule` request whose
/// exact bytes were answered before, that this node would execute
/// itself (standalone, `local` route mode, or a key it holds a replica
/// of). Everything else is left to a worker, so that it queues and is
/// answered as before: simulations, `degrade` runs, a daemon without a
/// cache, chaos-marked designs (their panic belongs on a supervised
/// worker, never on a connection thread), requests arriving during
/// shutdown, and requests whose deadline is already spent.
fn indexed_at_admission(shared: &Shared, job: &Job) -> Option<Answer> {
    let Action::Schedule { design, opts } = &job.action else {
        return None;
    };
    let config = &shared.config;
    if config.cache_capacity == 0
        || shared.shutting_down()
        || job.deadline.is_some_and(|d| job.enqueued.elapsed() >= d)
        || chaos_marked(config.fault_marker, design)
    {
        return None;
    }
    let request = answer_request(design, opts)?;
    if let Some(fleet) = shared.proxying_fleet() {
        if !fleet.is_local(&shared.cache.answered_key(&request)?) {
            return None;
        }
    }
    indexed_answer(&shared.cache, &request)
}

/// Answers a request with a typed error, counting it in `serve.errors`.
fn reject(shared: &Shared, reply: &Responder, id: &RequestId, err: &ServeError) {
    shared.lock_metrics().counter_add("serve.errors", 1);
    reply.send(error_line(id, err));
}

/// The typed `too-large` (413) line for a frame that outgrew the
/// request cap, counted like any other failed request. The caller
/// closes the connection after sending it: past an oversized frame
/// there is no trustworthy record boundary to resynchronise on, and
/// discarding until the next one would itself be unbounded work on
/// attacker-controlled input.
fn too_large(shared: &Shared, cap: usize) -> String {
    let mut m = shared.lock_metrics();
    m.counter_add("serve.requests", 1);
    m.counter_add("serve.errors", 1);
    error_line(&JsonValue::Null, &ServeError::TooLarge { limit: cap })
}

/// Answers every non-work action inline (control and sync actions never
/// touch the job queue — a full queue must not stall health checks or
/// anti-entropy). Returns `Err(action)` to hand work actions back to the
/// caller for queueing.
fn inline_response(shared: &Shared, id: &RequestId, action: Action) -> Result<String, Action> {
    match action {
        Action::Ping => {
            let mut body = BTreeMap::new();
            body.insert("pong".into(), JsonValue::Bool(true));
            Ok(success_line(id, body))
        }
        Action::Stats => Ok(success_line(id, shared.stats_body())),
        Action::Shutdown => {
            shared.begin_shutdown();
            Ok(success_line(id, BTreeMap::new()))
        }
        Action::SyncDigest => Ok(success_line(
            id,
            sync::digest_body(&sync::digests(&shared.cache)),
        )),
        Action::SyncPull { shard, key } => {
            let entries = match (shard, key) {
                (Some(s), _) => {
                    if s >= sync::SYNC_SHARDS {
                        let err = ServeError::BadRequest(format!(
                            "`shard` must be below {}",
                            sync::SYNC_SHARDS
                        ));
                        return Ok(error_line(id, &err));
                    }
                    sync::shard_entries(&shared.cache, s)
                }
                (None, Some(k)) => shared
                    .cache
                    .peek(&k)
                    .map(|v| vec![(k, v)])
                    .unwrap_or_default(),
                // The parser enforces exactly one selector.
                (None, None) => Vec::new(),
            };
            Ok(success_line(id, sync::entries_body(&entries)))
        }
        Action::SyncPush { entries, rejected } => {
            let applied = sync::apply_entries(&shared.cache, entries);
            {
                let mut m = shared.lock_metrics();
                m.counter_add("serve.fleet.sync.push_applied", applied as u64);
                m.counter_add("serve.fleet.sync.push_rejected", rejected as u64);
            }
            let mut body = BTreeMap::new();
            #[allow(clippy::cast_precision_loss)]
            body.insert("applied".into(), JsonValue::Number(applied as f64));
            #[allow(clippy::cast_precision_loss)]
            body.insert("rejected".into(), JsonValue::Number(rejected as f64));
            Ok(success_line(id, body))
        }
        work @ (Action::Schedule { .. } | Action::Simulate { .. }) => Err(work),
    }
}

/// How one capped read off a connection ended.
enum Frame {
    /// The frame is complete.
    Complete,
    /// The frame outgrew its byte budget.
    TooLarge,
    /// Client went away (EOF, I/O error) or shutdown began — just close.
    Closed,
}

/// Prepares an accepted connection: the read timeout doubles as the
/// shutdown poll interval, and Nagle is off so a one-line response never
/// waits out the client's delayed ACK (a ~40 ms floor per request).
/// Returns the buffered read half and the write half.
fn open(stream: TcpStream) -> Option<(BufReader<TcpStream>, TcpStream)> {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(100)));
    let write = stream.try_clone().ok()?;
    Some((BufReader::new(stream), write))
}

/// The reader's next buffered bytes, waiting through read-timeout
/// polls; `None` once the client closed, the read failed, or shutdown
/// began.
fn fill<'r>(shared: &Shared, reader: &'r mut BufReader<TcpStream>) -> Option<&'r [u8]> {
    loop {
        let err = match reader.fill_buf() {
            Ok(_) => break,
            Err(e) => e,
        };
        let timed_out = matches!(
            err.kind(),
            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
        );
        if !timed_out || shared.shutting_down() {
            return None;
        }
    }
    let buf = reader.buffer();
    (!buf.is_empty()).then_some(buf)
}

/// Reads one `\n`-terminated line of at most `budget` bytes (terminator
/// excluded) into `out`, leaving any later bytes in `reader`. Byte-level
/// assembly instead of `read_line`: the buffer never outgrows the
/// budget, partial reads across timeout polls are never lost, and
/// invalid UTF-8 is left for the caller to answer with a typed error.
fn read_line(
    shared: &Shared,
    reader: &mut BufReader<TcpStream>,
    budget: usize,
    out: &mut Vec<u8>,
) -> Frame {
    let start = out.len();
    loop {
        let Some(buf) = fill(shared, reader) else {
            return Frame::Closed;
        };
        let newline = buf.iter().position(|&b| b == b'\n');
        let chunk = &buf[..newline.unwrap_or(buf.len())];
        if out.len() - start + chunk.len() > budget {
            return Frame::TooLarge;
        }
        out.extend_from_slice(chunk);
        let consumed = chunk.len() + usize::from(newline.is_some());
        reader.consume(consumed);
        if newline.is_some() {
            return Frame::Complete;
        }
    }
}

/// Serves one NDJSON connection: read lines, admit each through
/// [`submit`].
pub(super) fn serve_connection(shared: &Arc<Shared>, stream: TcpStream) {
    let Some((mut reader, write)) = open(stream) else {
        return;
    };
    let writer = Responder::Conn(Arc::new(Mutex::new(write)));
    let cap = shared.config.max_request_bytes.max(1);
    loop {
        let mut line = Vec::new();
        let frame = read_line(shared, &mut reader, cap, &mut line);
        let _replying = shared.replying();
        match frame {
            Frame::Complete => {}
            Frame::Closed => return,
            Frame::TooLarge => return writer.send(too_large(shared, cap)),
        }
        let Ok(text) = String::from_utf8(line) else {
            shared.lock_metrics().counter_add("serve.requests", 1);
            let err = ServeError::BadRequest("request line is not valid UTF-8".into());
            reject(shared, &writer, &JsonValue::Null, &err);
            continue;
        };
        if text.trim().is_empty() {
            continue;
        }
        shared.lock_metrics().counter_add("serve.requests", 1);
        submit(shared, text.trim_end(), writer.clone());
    }
}

/// Reads an HTTP request head — lines up to and including the first
/// empty one — into `head`, drawing every line from one `cap`-byte
/// budget. Body bytes stay unconsumed in `reader`.
fn read_http_head(
    shared: &Shared,
    reader: &mut BufReader<TcpStream>,
    cap: usize,
    head: &mut Vec<u8>,
) -> Frame {
    loop {
        let start = head.len();
        match read_line(shared, reader, cap.saturating_sub(start), head) {
            Frame::Complete => {}
            ended => return ended,
        }
        let blank = matches!(&head[start..], b"" | b"\r");
        head.push(b'\n');
        if blank {
            return Frame::Complete;
        }
    }
}

/// Reads exactly `len` body bytes, tolerating timeout polls.
fn read_http_body(
    shared: &Shared,
    reader: &mut BufReader<TcpStream>,
    len: usize,
) -> Option<Vec<u8>> {
    let mut body = Vec::with_capacity(len);
    while body.len() < len {
        let buf = fill(shared, reader)?;
        let n = buf.len().min(len - body.len());
        body.extend_from_slice(&buf[..n]);
        reader.consume(n);
    }
    Some(body)
}

/// The `/schedule` route implies `"action":"schedule"` when the body
/// omits it; anything else (including an unparseable body) passes
/// through untouched and produces its typed error downstream.
fn inject_default_action(line: &str) -> String {
    let Ok(JsonValue::Object(mut map)) = tcms_obs::json::parse(line) else {
        return line.to_owned();
    };
    map.entry("action".to_owned())
        .or_insert_with(|| JsonValue::String("schedule".into()));
    tcms_obs::json::to_string(&JsonValue::Object(map))
}

/// Runs one `POST /schedule` body through [`submit`] and waits for its
/// response line. The body IS an NDJSON request and the response IS
/// the NDJSON line — the fleet's bit-identicality guarantee carries
/// over to HTTP verbatim.
fn http_work(shared: &Shared, body: &[u8]) -> String {
    // Rendezvous channel: the worker's `send` hands the line straight
    // to this thread, which blocks like an NDJSON client would. Every
    // queued job sends exactly one line (shutdown drains the queue
    // through `execute`), so `recv` cannot wedge.
    let (tx, rx) = mpsc::sync_channel(1);
    let reply = Responder::Channel(tx);
    let id = match std::str::from_utf8(body) {
        // NDJSON wants one line; JSON newlines only ever separate
        // tokens, where a space is equivalent.
        Ok(text) => {
            let line = inject_default_action(text.replace(['\r', '\n'], " ").trim());
            submit(shared, &line, reply)
        }
        Err(_) => {
            let err = ServeError::BadRequest("request body is not valid UTF-8".into());
            reject(shared, &reply, &JsonValue::Null, &err);
            JsonValue::Null
        }
    };
    rx.recv().unwrap_or_else(|_| {
        error_line(
            &id,
            &ServeError::Internal("worker dropped the response".into()),
        )
    })
}

/// The HTTP status an NDJSON response line maps onto: 200 for `ok`,
/// otherwise the error's own HTTP-shaped code (see
/// [`http::status_of`]).
fn http_status_of_line(line: &str) -> u16 {
    match parse_response(line) {
        Ok(resp) => resp
            .error
            .map_or(200, |(_, code, _)| http::status_of_code(code)),
        Err(_) => 200,
    }
}

/// Routes one parsed HTTP request to its status and NDJSON line.
fn http_dispatch(shared: &Shared, head: &http::RequestHead, body: &[u8]) -> (u16, String) {
    let null = JsonValue::Null;
    {
        let mut m = shared.lock_metrics();
        m.counter_add("serve.requests", 1);
        m.counter_add("serve.fleet.http.requests", 1);
    }
    match (head.method.as_str(), head.path.as_str()) {
        ("GET", "/healthz") => {
            if shared.shutting_down() {
                (503, error_line(&null, &ServeError::ShuttingDown))
            } else {
                (200, success_line(&null, BTreeMap::new()))
            }
        }
        ("GET", "/stats") => {
            shared.lock_metrics().counter_add("serve.requests.stats", 1);
            (200, success_line(&null, shared.stats_body()))
        }
        ("POST", "/schedule") => {
            let line = http_work(shared, body);
            (http_status_of_line(&line), line)
        }
        (_, "/healthz" | "/stats" | "/schedule") => {
            let err = ServeError::BadRequest(format!(
                "method {} not allowed on {}",
                head.method, head.path
            ));
            (405, error_line(&null, &err))
        }
        (_, path) => (
            404,
            error_line(&null, &ServeError::UnknownAction(path.to_owned())),
        ),
    }
}

/// Serves one HTTP connection: a loop of head → body → dispatch →
/// response, honouring keep-alive. A malformed or oversized request is
/// answered and the connection closed.
pub(super) fn serve_http_connection(shared: &Arc<Shared>, stream: TcpStream) {
    let Some((mut reader, mut write)) = open(stream) else {
        return;
    };
    let cap = shared.config.max_request_bytes.max(1);
    loop {
        let mut head = Vec::new();
        let frame = read_http_head(shared, &mut reader, cap, &mut head);
        let _replying = shared.replying();
        let (status, line, keep_alive) = match frame {
            Frame::Closed => return,
            Frame::TooLarge => (413, too_large(shared, cap), false),
            // A non-UTF-8 head parses as malformed.
            Frame::Complete => {
                match http::parse_request_head(&String::from_utf8(head).unwrap_or_default()) {
                    Err(msg) => {
                        let err = ServeError::BadRequest(format!("malformed HTTP request: {msg}"));
                        (400, error_line(&JsonValue::Null, &err), false)
                    }
                    Ok(head) if head.content_length > cap => (413, too_large(shared, cap), false),
                    Ok(head) => {
                        let Some(body) = read_http_body(shared, &mut reader, head.content_length)
                        else {
                            return;
                        };
                        let (status, line) = http_dispatch(shared, &head, &body);
                        (status, line, head.keep_alive)
                    }
                }
            }
        };
        let _ = write.write_all(&http::response_bytes(status, &(line + "\n"), keep_alive));
        let _ = write.flush();
        if !keep_alive {
            return;
        }
    }
}
