//! The serve workloads: closed-loop callers against in-process daemons.
//!
//! `serve_hot` drives one daemon over two persistent NDJSON connections;
//! `fleet_proxy` drives a three-node fleet, one caller over NDJSON to
//! node 0 and one over HTTP/1.1 keep-alive to node 1. Every caller waits
//! for each reply before sending the next request, and each request is
//! timed from send to complete reply. Replies are kept (deduplicated per
//! design) and checked against the one-shot pipeline after the timed
//! phase.

use std::collections::BTreeMap;
use std::io::{BufRead as _, BufReader, Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use tcms_ir::canon::fnv64;
use tcms_obs::{span, MetricsRegistry, TraceData, TraceRecorder};
use tcms_serve::client::{control_request_line, schedule_request_line};
use tcms_serve::protocol::parse_response;
use tcms_serve::{
    request_cache_key, schedule_request, Client, ExecContext, FleetConfig, HashRing, ServeConfig,
    ServeError, Server, DEFAULT_AUTO_PARTITION_OPS,
};

use crate::inputs::{self, OneShotRequest, ServeInputs};
use crate::layers::{self, CacheCounts, StageTimes};
use crate::oneshot::execution_check;
use crate::report::{self, Metric, RunReport};
use crate::speed::Probe;
use crate::stats::{is_correct, median, Expect, Got, Tally};
use crate::{end_to_end, golden, op_metrics, overhead_pct, Settings};

/// Load-generating caller threads (and connections): one per core of
/// the reference machine.
pub const CALLERS: usize = 2;

/// Worker threads per daemon.
pub const WORKERS: usize = 2;

/// Fleet size of `fleet_proxy`.
const NODES: usize = 3;

/// Set-ups per run. A set-up takes tens of milliseconds, much of it the
/// daemon's accept loop noticing the first connection (it polls every
/// 10 ms), so the median needs more of them than a one-shot run.
const SETUPS: usize = 9;

/// Designs the traced probe replays layer by layer.
const PROBE_DESIGNS: usize = 32;

/// In traced runs every `TRACE_EVERY`-th request records a span; the
/// rest time the untraced path for the overhead comparison.
const TRACE_EVERY: usize = 8;

/// Length of one segment of the timed phase; the speed probe runs once
/// after each.
const SEGMENT: Duration = Duration::from_millis(500);

/// A reply must arrive within this time or it counts as lost.
const REPLY_TIMEOUT: Duration = Duration::from_secs(30);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Wire {
    Ndjson,
    Http,
}

/// One persistent caller connection.
struct Conn {
    wire: Wire,
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    fn open(addr: SocketAddr, wire: Wire) -> std::io::Result<Conn> {
        let stream = TcpStream::connect_timeout(&addr, Duration::from_secs(5))?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(REPLY_TIMEOUT))?;
        Ok(Conn {
            wire,
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
        })
    }

    /// Sends one request and reads the complete reply into `body`: the
    /// NDJSON response line, or the HTTP body (the same line).
    fn exchange(&mut self, payload: &[u8], body: &mut Vec<u8>) -> std::io::Result<()> {
        self.writer.write_all(payload)?;
        body.clear();
        match self.wire {
            Wire::Ndjson => {
                if self.reader.read_until(b'\n', body)? == 0 {
                    return Err(std::io::ErrorKind::UnexpectedEof.into());
                }
            }
            Wire::Http => {
                let mut length = None;
                let mut line = Vec::new();
                loop {
                    line.clear();
                    if self.reader.read_until(b'\n', &mut line)? == 0 {
                        return Err(std::io::ErrorKind::UnexpectedEof.into());
                    }
                    let text = String::from_utf8_lossy(&line);
                    let text = text.trim_end();
                    if text.is_empty() {
                        break;
                    }
                    if let Some((name, value)) = text.split_once(':') {
                        if name.eq_ignore_ascii_case("content-length") {
                            length = value.trim().parse::<usize>().ok();
                        }
                    }
                }
                let length = length.ok_or(std::io::ErrorKind::InvalidData)?;
                body.resize(length, 0);
                self.reader.read_exact(body)?;
            }
        }
        while body.last().is_some_and(|b| *b == b'\n' || *b == b'\r') {
            body.pop();
        }
        Ok(())
    }

    /// The request bytes for `line` on this wire.
    fn payload(&self, line: &str) -> Vec<u8> {
        match self.wire {
            Wire::Ndjson => format!("{line}\n").into_bytes(),
            Wire::Http => format!(
                "POST /schedule HTTP/1.1\r\nHost: tcms\r\nContent-Length: {}\r\n\r\n{line}",
                line.len()
            )
            .into_bytes(),
        }
    }

    /// Waits until the daemon answers a liveness probe.
    fn probe(&mut self) -> std::io::Result<()> {
        let payload = match self.wire {
            Wire::Ndjson => format!("{}\n", control_request_line("ping", "ping")).into_bytes(),
            Wire::Http => b"GET /healthz HTTP/1.1\r\nHost: tcms\r\n\r\n".to_vec(),
        };
        let mut body = Vec::new();
        self.exchange(&payload, &mut body)?;
        let ok = std::str::from_utf8(&body)
            .ok()
            .and_then(|b| parse_response(b).ok())
            .is_some_and(|r| r.is_ok());
        if ok {
            Ok(())
        } else {
            Err(std::io::ErrorKind::InvalidData.into())
        }
    }
}

/// What one caller saw. Request `i` asked for design rank `stream[i]`.
struct CallerOut<'a> {
    stream: &'a [u16],
    /// Latency of each completed request in µs, in send order.
    lat_us: Vec<f64>,
    /// Per design rank, each distinct reply body and how often it came.
    replies: Vec<Vec<(Vec<u8>, u64)>>,
    /// Requests that got no reply (transport error or timeout).
    lost: u64,
    trace: Option<TraceData>,
}

impl CallerOut<'_> {
    /// Whether request `i` of a traced run recorded a span.
    fn traced(i: usize, trace_run: bool) -> bool {
        trace_run && i % TRACE_EVERY == TRACE_EVERY - 1
    }

    /// Latencies of the untraced (`traced == false`) or traced requests.
    fn latencies(&self, traced: bool, trace_run: bool) -> Vec<f64> {
        self.lat_us
            .iter()
            .enumerate()
            .filter(|(i, _)| Self::traced(*i, trace_run) == traced)
            .map(|(_, &us)| us)
            .collect()
    }
}

/// One closed-loop caller: send, wait for the complete reply, repeat.
/// It keeps its connection and its place in the stream from one segment
/// of the timed phase to the next.
struct Caller<'p, 'a> {
    id: usize,
    conn: Conn,
    payloads: &'p [Vec<u8>],
    out: CallerOut<'a>,
    rec: Option<TraceRecorder>,
    body: Vec<u8>,
    /// Requests completed so far.
    done: usize,
}

impl<'p, 'a> Caller<'p, 'a> {
    /// `lat_us` arrives allocated and written for the whole stream, so
    /// the buffer's memory does not depend on how many requests complete.
    fn new(
        id: usize,
        conn: Conn,
        payloads: &'p [Vec<u8>],
        stream: &'a [u16],
        lat_us: Vec<f64>,
        s: &Settings,
    ) -> Caller<'p, 'a> {
        Caller {
            id,
            conn,
            payloads,
            out: CallerOut {
                stream,
                lat_us,
                replies: vec![Vec::new(); payloads.len()],
                lost: 0,
                trace: None,
            },
            rec: s.trace.then(TraceRecorder::new),
            body: Vec::with_capacity(1 << 14),
            done: 0,
        }
    }

    /// Whether the caller has requests left and a connection to send
    /// them on.
    fn active(&self) -> bool {
        self.out.lost == 0 && self.done < self.out.stream.len()
    }

    /// Sends requests until `until` (after at least `s.min_ops()` in
    /// all), the end of the stream or a lost connection.
    fn run(&mut self, s: &Settings, until: Instant) {
        while self.active() && ((self.done as u64) < s.min_ops() || Instant::now() < until) {
            let i = self.done;
            let rank = self.out.stream[i];
            let payload = &self.payloads[usize::from(rank)];
            let t = Instant::now();
            let sent = match &self.rec {
                Some(rec) if CallerOut::traced(i, true) => {
                    let _span = span!(
                        rec,
                        "bench.request",
                        caller = self.id as u64,
                        request = i as u64,
                        rank = u64::from(rank)
                    );
                    self.conn.exchange(payload, &mut self.body)
                }
                _ => self.conn.exchange(payload, &mut self.body),
            };
            let us = t.elapsed().as_secs_f64() * 1e6;
            if sent.is_err() {
                // The connection is gone; every later request would fail too.
                self.out.lost += 1;
                return;
            }
            self.out.lat_us[i] = us;
            let seen = &mut self.out.replies[usize::from(rank)];
            match seen.iter_mut().find(|(b, _)| *b == self.body) {
                Some(entry) => entry.1 += 1,
                None => seen.push((self.body.clone(), 1)),
            }
            self.done += 1;
        }
    }

    fn finish(mut self) -> CallerOut<'a> {
        self.out.lat_us.truncate(self.done);
        self.out.trace = self.rec.map(TraceRecorder::finish);
        self.out
    }
}

/// What the timed phase left: each caller's results, the phase's wall
/// time, the process's `VmHWM` when it ended, and the speed probe.
struct Timed<'a> {
    outs: Vec<CallerOut<'a>>,
    seconds: f64,
    vm_hwm_mb: f64,
    speed_probe: Probe,
}

/// Runs the callers for the timed phase, in segments of [`SEGMENT`].
/// Between segments the callers wait, the daemons are idle, and the
/// speed probe runs.
fn drive<'a>(
    conns: Vec<Conn>,
    inputs: &'a ServeInputs,
    s: &Settings,
    mut speed_probe: Probe,
) -> Timed<'a> {
    let payloads: Vec<Vec<Vec<u8>>> = conns
        .iter()
        .map(|c| {
            let opts = layers::options(Some(inputs.all_global));
            inputs
                .designs
                .iter()
                .enumerate()
                .map(|(rank, d)| {
                    c.payload(&schedule_request_line(&format!("r{rank}"), d, &opts, None))
                })
                .collect()
        })
        .collect();
    let mut callers: Vec<Caller> = conns
        .into_iter()
        .enumerate()
        .map(|(id, conn)| {
            let stream = &inputs.streams[id][..];
            // Written, not just reserved: a NaN fill touches every page.
            let lat_us = vec![f64::NAN; stream.len()];
            Caller::new(id, conn, &payloads[id], stream, lat_us, s)
        })
        .collect();
    let mut timed = Duration::ZERO;
    while timed < s.seconds && callers.iter().any(Caller::active) {
        let start = Instant::now();
        let until = start + SEGMENT.min(s.seconds - timed);
        std::thread::scope(|scope| {
            for c in &mut callers {
                scope.spawn(move || c.run(s, until));
            }
        });
        timed += start.elapsed();
        speed_probe.sample(1);
    }
    Timed {
        outs: callers.into_iter().map(Caller::finish).collect(),
        seconds: timed.as_secs_f64(),
        vm_hwm_mb: report::vm_hwm_mb(),
        speed_probe,
    }
}

/// The one-shot pipeline's answers for the whole corpus: the ground
/// truth every reply is compared with.
struct Truth {
    expect: Vec<Option<String>>,
    total_area: u64,
}

fn truth(workload: &str, inputs: &ServeInputs, seed: u64, errors: &mut Vec<String>) -> Truth {
    let opts = layers::options(Some(inputs.all_global));
    let mut total_area = 0;
    let mut digest_text = String::new();
    let expect = inputs
        .designs
        .iter()
        .enumerate()
        .map(|(rank, design)| {
            let answer = schedule_request(design, &opts, &ExecContext::default());
            if inputs.is_broken(rank) {
                if !matches!(answer, Err(ServeError::Malformed(_))) {
                    errors.push(format!(
                        "r{rank}: a broken design was not rejected as malformed"
                    ));
                }
                digest_text.push_str("malformed\0");
                return None;
            }
            match answer {
                Ok(a) => {
                    let label = format!("r{rank}");
                    let (area, ok) =
                        execution_check(&a, Some(inputs.all_global), seed, &label, errors);
                    if !ok {
                        errors.push(format!("{label}: one-shot schedule failed its checks"));
                    }
                    total_area += area;
                    digest_text.push_str(&a.text);
                    digest_text.push('\0');
                    Some(a.text)
                }
                Err(e) => {
                    errors.push(format!("r{rank}: one-shot pipeline failed: {e}"));
                    None
                }
            }
        })
        .collect();
    if let Err(e) = golden::check(workload, "corpus", fnv64(digest_text.as_bytes())) {
        errors.push(e);
    }
    Truth { expect, total_area }
}

/// Checks every kept reply against the truth.
fn check_replies(outs: &[CallerOut], inputs: &ServeInputs, truth: &Truth, tally: &mut Tally) {
    for out in outs {
        tally.record(out.lost, false);
        for (rank, seen) in out.replies.iter().enumerate() {
            let expect = match &truth.expect[rank] {
                Some(text) => Some(Expect::Output(text)),
                None if inputs.is_broken(rank) => Some(Expect::Malformed),
                None => None,
            };
            for (body, count) in seen {
                let resp = std::str::from_utf8(body)
                    .ok()
                    .and_then(|b| parse_response(b).ok());
                let got = match &resp {
                    Some(r) => match &r.error {
                        Some((class, code, _)) => Got::Error(class, *code),
                        None => r.output().map_or(Got::Nothing, Got::Output),
                    },
                    None => Got::Nothing,
                };
                let ok = expect.as_ref().is_some_and(|e| is_correct(e, &got));
                tally.record(*count, ok);
            }
        }
    }
}

/// A set-up workload, ready for the timed phase.
struct Prepared<T> {
    inputs: ServeInputs,
    digest: u64,
    daemons: T,
    conns: Vec<Conn>,
    /// Seconds each set-up took.
    setup_s: Vec<f64>,
}

/// Sets up a workload [`SETUPS`] times and keeps the last:
/// generate and pin the inputs, start the daemons, connect the callers
/// and wait for each connection's first liveness answer.
fn set_up<T>(
    workload: &str,
    s: &Settings,
    make: fn(u64, usize) -> ServeInputs,
    start: impl Fn() -> std::io::Result<(T, Vec<Conn>)>,
    stop: impl Fn(T),
) -> Result<Prepared<T>, String> {
    let mut setup_s = Vec::new();
    let setups = s.setup_repeats(SETUPS);
    for k in 0..setups {
        let t = Instant::now();
        let inputs = make(s.seed, CALLERS);
        let digest = inputs.digest();
        inputs::check_pinned(workload, s.seed, digest)?;
        let (daemons, mut conns) = start().map_err(|e| format!("{workload}: start: {e}"))?;
        for c in &mut conns {
            c.probe()
                .map_err(|e| format!("{workload}: liveness probe: {e}"))?;
        }
        setup_s.push(t.elapsed().as_secs_f64());
        if k + 1 == setups {
            return Ok(Prepared {
                inputs,
                digest,
                daemons,
                conns,
                setup_s,
            });
        }
        drop(conns);
        stop(daemons);
    }
    unreachable!("set-up runs at least once")
}

fn stop_all(servers: Vec<Server>) {
    for server in &servers {
        server.shutdown();
    }
    for server in servers {
        let _ = server.wait();
    }
}

/// Daemon-side counters and histogram sums, added over the daemons.
#[derive(Debug, Default)]
struct DaemonStats {
    counters: BTreeMap<String, u64>,
    /// Per histogram: sum of observations and their count.
    histograms: BTreeMap<String, (f64, u64)>,
}

impl DaemonStats {
    /// Reads every daemon's registry through the `stats` action.
    fn collect(servers: &[Server]) -> DaemonStats {
        let mut merged = DaemonStats::default();
        let line = control_request_line("stats", "stats");
        for server in servers {
            let Some(reg) = Client::connect(server.local_addr())
                .and_then(|mut c| c.request(&line))
                .ok()
                .and_then(|r| MetricsRegistry::from_json(r.body.get("metrics")?).ok())
            else {
                continue;
            };
            for (name, v) in reg.counters() {
                *merged.counters.entry(name.to_owned()).or_default() += v;
            }
            for (name, h) in reg.histograms() {
                let e = merged.histograms.entry(name.to_owned()).or_default();
                e.0 += h.sum();
                e.1 += h.count();
            }
        }
        merged
    }

    fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Sum and count of the named histograms together.
    fn sum_count(&self, names: &[&str]) -> (f64, u64) {
        names
            .iter()
            .filter_map(|n| self.histograms.get(*n))
            .fold((0.0, 0), |(s, c), h| (s + h.0, c + h.1))
    }

    fn mean(&self, name: &str) -> f64 {
        let (sum, count) = self.sum_count(&[name]);
        #[allow(clippy::cast_precision_loss)]
        if count == 0 {
            0.0
        } else {
            sum / count as f64
        }
    }
}

fn cache_counts(servers: &[Server]) -> CacheCounts {
    let mut c = CacheCounts::default();
    for server in servers {
        let st = server.cache().stats();
        c.hits += st.hits;
        c.misses += st.misses;
        c.coalesced += st.coalesced;
        c.scheduler_runs += server.counter("serve.scheduler.runs");
    }
    c
}

/// The traced probe: the first valid designs of the corpus replayed
/// through the decomposed cache-less and cached branches.
fn probe(
    inputs: &ServeInputs,
    truth: &Truth,
    s: &Settings,
    rec: &TraceRecorder,
    errors: &mut Vec<String>,
) -> (Vec<f64>, Vec<StageTimes>, layers::HitTimes) {
    let ranks: Vec<usize> = (0..inputs.designs.len())
        .filter(|&r| truth.expect[r].is_some())
        .take(PROBE_DESIGNS)
        .collect();
    let requests: Vec<OneShotRequest> = ranks
        .iter()
        .map(|&r| OneShotRequest {
            label: format!("r{r}"),
            design: inputs.designs[r].clone(),
            all_global: Some(inputs.all_global),
        })
        .collect();
    let want: Vec<String> = ranks
        .iter()
        .map(|&r| truth.expect[r].clone().unwrap_or_default())
        .collect();
    let order: Vec<usize> = (0..requests.len()).collect();
    let mut plain_us = Vec::new();
    let mut traced = Vec::new();
    let mut primed = Vec::new();
    let (min_passes, min_time) = s.probe_budget();
    let started = Instant::now();
    let mut pass = 0;
    while pass < min_passes || started.elapsed() < min_time {
        if pass % 2 == 1 {
            let (times, out) = layers::decomposed_pass(&requests, &order, rec, pass);
            traced.push(times);
            for (i, d) in out.iter().enumerate() {
                if d.as_ref().map(|d| &d.text) != Ok(&want[i]) {
                    errors.push(format!(
                        "{}: decomposed path rendered other bytes",
                        requests[i].label
                    ));
                }
            }
            if primed.is_empty() {
                primed = out
                    .iter()
                    .flatten()
                    .map(layers::Decomposed::cacheable)
                    .collect();
            }
        } else {
            plain_us.push(layers::plain_pass(&requests, &order).0);
        }
        pass += 1;
    }
    let hits = layers::hit_path(&requests, &primed, &want, s.hit_reps(), rec).unwrap_or_else(|e| {
        errors.push(e);
        layers::HitTimes::default()
    });
    (plain_us, traced, hits)
}

/// Metrics of a finished serve run: end-to-end (untraced) or per-layer
/// (traced), plus the workload-only daemon metrics.
#[allow(clippy::too_many_arguments)]
fn finish(
    workload: &str,
    s: &Settings,
    inputs: &ServeInputs,
    digest: u64,
    servers: Vec<Server>,
    timed: Timed,
    setup_s: &[f64],
    fleet_extras: impl FnOnce(&[CallerOut], &DaemonStats) -> Vec<Metric>,
) -> RunReport {
    let Timed {
        outs,
        seconds: timed_s,
        vm_hwm_mb,
        speed_probe,
    } = timed;
    let daemon = DaemonStats::collect(&servers);
    let cache = cache_counts(&servers);
    stop_all(servers);

    let mut errors = Vec::new();
    let mut tally = Tally::default();
    let truth = truth(workload, inputs, s.seed, &mut errors);
    check_replies(&outs, inputs, &truth, &mut tally);
    if !errors.is_empty() {
        // A wrong ground truth makes every reply suspect.
        tally.fail(tally.attempted);
    }

    let untraced: Vec<f64> = outs
        .iter()
        .flat_map(|o| o.latencies(false, s.trace))
        .collect();
    let op_ms: Vec<f64> = untraced.iter().map(|us| us / 1e3).collect();
    let completed: u64 = outs.iter().map(|o| o.lat_us.len() as u64).sum();
    #[allow(clippy::cast_precision_loss)]
    let client_mean_us = untraced.iter().sum::<f64>() / untraced.len().max(1) as f64;
    let hist_n = |name: &str| daemon.sum_count(&[name]).1;
    #[allow(clippy::cast_precision_loss)]
    let mut extras = vec![
        Metric::new(
            "serve.queue_wait_us_mean",
            "us",
            daemon.mean("serve.queue_wait_us"),
            hist_n("serve.queue_wait_us"),
        ),
        Metric::new(
            "serve.exec_us_hit_mean",
            "us",
            daemon.mean("serve.exec_us.hit"),
            hist_n("serve.exec_us.hit"),
        ),
        Metric::new(
            "serve.exec_us_miss_mean",
            "us",
            daemon.mean("serve.exec_us.miss"),
            hist_n("serve.exec_us.miss"),
        ),
        Metric::new("serve.cache_coalesced", "count", cache.coalesced as f64, 1),
    ];
    if workload == "serve_hot" {
        // The client's mean round trip minus the daemon's mean
        // arrival-to-response time: connection threads, the socket and
        // the client's own read.
        let (sum, count) = daemon.sum_count(&[
            "serve.total_us.hit",
            "serve.total_us.miss",
            "serve.total_us.coalesced",
            "serve.total_us.error",
        ]);
        #[allow(clippy::cast_precision_loss)]
        let wire = client_mean_us - sum / count.max(1) as f64;
        extras.push(Metric::new(
            "serve.wire_us",
            "us",
            wire,
            untraced.len() as u64,
        ));
    }
    extras.extend(fleet_extras(&outs, &daemon));

    let metrics = if s.trace {
        let rec = TraceRecorder::new();
        let (plain_us, traced, hits) = probe(inputs, &truth, s, &rec, &mut errors);
        let traced_lat: Vec<f64> = outs.iter().flat_map(|o| o.latencies(true, true)).collect();
        let overhead = overhead_pct(&traced_lat, &untraced);
        s.write_trace(workload, "probe", rec.finish());
        for (id, out) in outs.into_iter().enumerate() {
            if let Some(data) = out.trace {
                s.write_trace(workload, &format!("caller{id}"), data);
            }
        }
        let mut metrics = layers::layer_metrics(&plain_us, &traced, &hits, cache, overhead);
        extras.push(layers::parallel_evals(&traced));
        let [rate, tail, percentile] = op_metrics(&op_ms, completed, timed_s);
        metrics.extend([rate, tail]);
        extras.push(percentile);
        metrics
    } else {
        let (metrics, raw) = end_to_end(setup_s, &op_ms, &speed_probe, truth.total_area, vm_hwm_mb);
        extras.extend(raw);
        extras.extend(op_metrics(&op_ms, completed, timed_s));
        metrics
    };
    RunReport {
        workload: workload.to_owned(),
        tally,
        errors,
        metrics,
        extras,
        inputs_digest: digest,
    }
}

/// `serve_hot`: one daemon, two NDJSON callers, a hot Zipf(1.2) stream.
///
/// # Errors
///
/// Fails when the inputs differ from the pinned digest or the daemon
/// does not come up.
pub fn run_hot(s: &Settings) -> Result<RunReport, String> {
    let speed_probe = Probe::new();
    let p = set_up(
        "serve_hot",
        s,
        inputs::serve_hot,
        || {
            let server = Server::start(ServeConfig {
                workers: WORKERS,
                ..ServeConfig::default()
            })?;
            let conns = (0..CALLERS)
                .map(|_| Conn::open(server.local_addr(), Wire::Ndjson))
                .collect::<std::io::Result<Vec<_>>>()?;
            Ok((server, conns))
        },
        |server| stop_all(vec![server]),
    )?;
    let timed = drive(p.conns, &p.inputs, s, speed_probe);
    Ok(finish(
        "serve_hot",
        s,
        &p.inputs,
        p.digest,
        vec![p.daemons],
        timed,
        &p.setup_s,
        |_, _| Vec::new(),
    ))
}

/// The fleet listens on `127.0.0.1:FLEET_PORT..FLEET_PORT+3`. The ring
/// places keys by hashing the peer addresses, so other ports would move
/// keys between nodes and change which requests pay the proxy hop: when
/// a port is taken the run does not happen (exit 3).
const FLEET_PORT: u16 = 27301;

/// Starts the three-node fleet with the defaults of `tcms serve --peers`
/// (replicas, proxy routing, sync interval); node 1 also serves HTTP.
fn start_fleet() -> std::io::Result<(Vec<Server>, Vec<String>)> {
    let peers: Vec<String> = (0..NODES as u16)
        .map(|i| format!("127.0.0.1:{}", FLEET_PORT + i))
        .collect();
    let mut servers = Vec::new();
    for (i, addr) in peers.iter().enumerate() {
        match Server::start(ServeConfig {
            listen: addr.clone(),
            workers: WORKERS,
            http_listen: (i == 1).then(|| "127.0.0.1:0".to_owned()),
            fleet: Some(FleetConfig::new(addr.clone(), peers.clone())),
            ..ServeConfig::default()
        }) {
            Ok(server) => servers.push(server),
            Err(e) => {
                stop_all(servers);
                return Err(std::io::Error::new(e.kind(), format!("{addr}: {e}")));
            }
        }
    }
    Ok((servers, peers))
}

/// `fleet_proxy`: three nodes, an NDJSON caller on node 0 and an HTTP
/// caller on node 1, Zipf(0.8) over 256 designs.
///
/// # Errors
///
/// Fails when the inputs differ from the pinned digest or the fleet
/// does not come up.
pub fn run_fleet(s: &Settings) -> Result<RunReport, String> {
    let speed_probe = Probe::new();
    let p = set_up(
        "fleet_proxy",
        s,
        inputs::fleet_proxy,
        || {
            let (servers, peers) = start_fleet()?;
            let http = servers[1]
                .local_http_addr()
                .ok_or(std::io::ErrorKind::NotFound)?;
            let conns = vec![
                Conn::open(servers[0].local_addr(), Wire::Ndjson)?,
                Conn::open(http, Wire::Http)?,
            ];
            Ok(((servers, peers), conns))
        },
        |(servers, _)| stop_all(servers),
    )?;
    let timed = drive(p.conns, &p.inputs, s, speed_probe);
    let (servers, peers) = p.daemons;

    // Which requests paid the proxy hop: the caller's node is not in the
    // key's replica set.
    let replicas = FleetConfig::new(peers[0].clone(), peers.clone()).replicas;
    let ring = HashRing::new(&peers, replicas);
    let opts = layers::options(Some(p.inputs.all_global));
    let proxied: Vec<[bool; CALLERS]> = p
        .inputs
        .designs
        .iter()
        .map(|d| {
            let key = request_cache_key(d, &opts, DEFAULT_AUTO_PARTITION_OPS)
                .ok()
                .flatten();
            let mut hop = [false; CALLERS];
            for (c, node) in hop.iter_mut().zip(&peers) {
                *c = key.as_ref().is_some_and(|k| !ring.is_replica(k, node));
            }
            hop
        })
        .collect();
    let trace = s.trace;
    Ok(finish(
        "fleet_proxy",
        s,
        &p.inputs,
        p.digest,
        servers,
        timed,
        &p.setup_s,
        |outs, daemon| fleet_metrics(outs, daemon, &proxied, trace),
    ))
}

#[allow(clippy::cast_precision_loss)]
fn fleet_metrics(
    outs: &[CallerOut],
    daemon: &DaemonStats,
    proxied: &[[bool; CALLERS]],
    trace: bool,
) -> Vec<Metric> {
    let mut local = Vec::new();
    let mut hop = Vec::new();
    for (c, out) in outs.iter().enumerate() {
        for (i, (&us, &rank)) in out.lat_us.iter().zip(out.stream).enumerate() {
            if CallerOut::traced(i, trace) {
                continue;
            }
            let ms = us / 1e3;
            if proxied[usize::from(rank)][c] {
                hop.push(ms);
            } else {
                local.push(ms);
            }
        }
    }
    let n = (local.len() + hop.len()) as u64;
    let (local_p50, hop_p50) = (median(&local).unwrap_or(0.0), median(&hop).unwrap_or(0.0));
    let caller_p50 = |c: usize| {
        outs.get(c)
            .and_then(|o| median(&o.latencies(false, trace)).map(|us| us / 1e3))
            .unwrap_or(0.0)
    };
    vec![
        Metric::new(
            "fleet.proxied_share",
            "ratio",
            hop.len() as f64 / n.max(1) as f64,
            n,
        ),
        Metric::new("fleet.local_ms_p50", "ms", local_p50, local.len() as u64),
        Metric::new("fleet.proxied_ms_p50", "ms", hop_p50, hop.len() as u64),
        Metric::new("fleet.hop_ms", "ms", hop_p50 - local_p50, n),
        Metric::new(
            "fleet.peer_rtt_us_mean",
            "us",
            daemon.mean("serve.fleet.peer.rtt_us"),
            daemon.sum_count(&["serve.fleet.peer.rtt_us"]).1,
        ),
        Metric::new(
            "fleet.sync_rounds",
            "count",
            daemon.counter("serve.fleet.sync.rounds") as f64,
            1,
        ),
        Metric::new(
            "fleet.ndjson_ms_p50",
            "ms",
            caller_p50(0),
            outs.first().map_or(0, |o| o.lat_us.len() as u64),
        ),
        Metric::new(
            "fleet.http_ms_p50",
            "ms",
            caller_p50(1),
            outs.get(1).map_or(0, |o| o.lat_us.len() as u64),
        ),
    ]
}
