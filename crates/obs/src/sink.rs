//! Serialization sinks and validators for recorded trace data.
//!
//! Three output shapes, all produced from one [`TraceData`]:
//!
//! * **Summary table** — [`crate::MetricsRegistry::render_summary`] (the
//!   `--metrics` flag).
//! * **JSONL event stream** — one self-describing JSON object per line
//!   (`--timeline`); see [`to_jsonl`]. Machine-friendly, greppable, and
//!   round-trippable through [`parse_jsonl`].
//! * **Chrome `trace_event` JSON** — [`to_chrome_trace`] (`--trace`);
//!   loadable in `about:tracing` or <https://ui.perfetto.dev>. Spans map
//!   to `B`/`E` duration events, counters and timeline samples to `C`
//!   counter events, instant events to `i`.
//!
//! The validators ([`check_span_nesting`], [`validate_jsonl`],
//! [`validate_chrome_trace`]) back both the test suite and the
//! `trace_check` CI binary.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::json::{self, JsonValue};
use crate::recorder::Value;
use crate::trace::{TraceData, TraceEvent, TraceEventKind};

fn write_value(out: &mut String, v: &Value) {
    match v {
        Value::U64(n) => {
            let _ = write!(out, "{n}");
        }
        Value::I64(n) => {
            let _ = write!(out, "{n}");
        }
        Value::F64(n) => json::write_number(out, *n),
        Value::Str(s) => json::write_escaped(out, s),
        Value::Bool(b) => {
            let _ = write!(out, "{b}");
        }
    }
}

fn write_fields(out: &mut String, fields: &[(&'static str, Value)]) {
    out.push('{');
    for (i, (k, v)) in fields.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        json::write_escaped(out, k);
        out.push(':');
        write_value(out, v);
    }
    out.push('}');
}

/// Serializes the event stream (spans, events, counters and timeline
/// samples) as JSON Lines: one object per line with a `"type"`
/// discriminator (`span_enter`, `span_exit`, `event`, `counter`,
/// `timeline`) and a `"ts_us"` timestamp.
pub fn to_jsonl(data: &TraceData) -> String {
    let mut out = String::new();
    for ev in &data.events {
        let ts = ev.ts_us;
        match &ev.kind {
            TraceEventKind::SpanEnter { id, name, fields } => {
                let _ = write!(
                    out,
                    "{{\"type\":\"span_enter\",\"ts_us\":{ts},\"id\":{},\"name\":",
                    id.0
                );
                json::write_escaped(&mut out, name);
                out.push_str(",\"fields\":");
                write_fields(&mut out, fields);
                out.push('}');
            }
            TraceEventKind::SpanExit { id } => {
                let _ = write!(
                    out,
                    "{{\"type\":\"span_exit\",\"ts_us\":{ts},\"id\":{}}}",
                    id.0
                );
            }
            TraceEventKind::Instant { name, fields } => {
                let _ = write!(out, "{{\"type\":\"event\",\"ts_us\":{ts},\"name\":");
                json::write_escaped(&mut out, name);
                out.push_str(",\"fields\":");
                write_fields(&mut out, fields);
                out.push('}');
            }
            TraceEventKind::Counter { name, delta } => {
                let _ = write!(out, "{{\"type\":\"counter\",\"ts_us\":{ts},\"name\":");
                json::write_escaped(&mut out, name);
                let _ = write!(out, ",\"delta\":{delta}}}");
            }
            TraceEventKind::Point(p) => {
                let _ = write!(out, "{{\"type\":\"timeline\",\"ts_us\":{ts},\"phase\":");
                json::write_escaped(&mut out, p.phase);
                let _ = write!(out, ",\"iteration\":{},\"values\":{{", p.iteration);
                for (i, (k, v)) in p.values.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    json::write_escaped(&mut out, k);
                    out.push(':');
                    json::write_number(&mut out, *v);
                }
                out.push_str("}}");
            }
        }
        out.push('\n');
    }
    out
}

/// Parses a JSONL document into one [`JsonValue`] per non-empty line.
///
/// # Errors
///
/// Reports the 1-based line number of the first malformed line, or of the
/// first line that is not an object with a string `"type"`.
pub fn parse_jsonl(input: &str) -> Result<Vec<JsonValue>, String> {
    let mut out = Vec::new();
    for (i, line) in input.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let v = json::parse(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        if v.get("type").and_then(JsonValue::as_str).is_none() {
            return Err(format!("line {}: missing string \"type\"", i + 1));
        }
        out.push(v);
    }
    Ok(out)
}

/// Checks that span enters/exits in an in-memory event stream are
/// well-formed: every exit closes the innermost open span and nothing is
/// left open at the end.
///
/// # Errors
///
/// Describes the first violation (mismatched, unknown or unclosed span).
pub fn check_span_nesting(events: &[TraceEvent]) -> Result<(), String> {
    let mut stack: Vec<u64> = Vec::new();
    for (i, ev) in events.iter().enumerate() {
        match &ev.kind {
            TraceEventKind::SpanEnter { id, .. } => stack.push(id.0),
            TraceEventKind::SpanExit { id } => match stack.pop() {
                Some(top) if top == id.0 => {}
                Some(top) => {
                    return Err(format!(
                        "event {i}: span_exit {} while span {top} is innermost",
                        id.0
                    ))
                }
                None => return Err(format!("event {i}: span_exit {} with no open span", id.0)),
            },
            _ => {}
        }
    }
    if let Some(open) = stack.last() {
        return Err(format!("span {open} never exited"));
    }
    Ok(())
}

/// [`check_span_nesting`] for a parsed JSONL stream (the round-trip form
/// the CI validator uses).
///
/// # Errors
///
/// Describes the first malformed record or nesting violation.
pub fn check_jsonl_nesting(records: &[JsonValue]) -> Result<(), String> {
    let mut stack: Vec<u64> = Vec::new();
    for (i, rec) in records.iter().enumerate() {
        let ty = rec
            .get("type")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| format!("record {i}: missing type"))?;
        match ty {
            "span_enter" => {
                let id = rec
                    .get("id")
                    .and_then(JsonValue::as_f64)
                    .ok_or_else(|| format!("record {i}: span_enter without id"))?;
                rec.get("name")
                    .and_then(JsonValue::as_str)
                    .ok_or_else(|| format!("record {i}: span_enter without name"))?;
                stack.push(id as u64);
            }
            "span_exit" => {
                let id = rec
                    .get("id")
                    .and_then(JsonValue::as_f64)
                    .ok_or_else(|| format!("record {i}: span_exit without id"))?
                    as u64;
                match stack.pop() {
                    Some(top) if top == id => {}
                    Some(top) => {
                        return Err(format!(
                            "record {i}: span_exit {id} while span {top} is innermost"
                        ))
                    }
                    None => return Err(format!("record {i}: span_exit {id} with no open span")),
                }
            }
            "event" | "counter" | "timeline" => {}
            other => return Err(format!("record {i}: unknown type {other:?}")),
        }
    }
    if let Some(open) = stack.last() {
        return Err(format!("span {open} never exited"));
    }
    Ok(())
}

/// Validates a JSONL trace end to end: parses every line and checks span
/// nesting. Returns the number of records on success.
///
/// # Errors
///
/// Propagates the first parse or nesting error.
pub fn validate_jsonl(input: &str) -> Result<usize, String> {
    let records = parse_jsonl(input)?;
    check_jsonl_nesting(&records)?;
    Ok(records.len())
}

/// Magic header value identifying a `tcms-serve` workload journal.
/// Duplicated (deliberately) by the serve crate's writer; the serve test
/// suite asserts the two stay in sync by running captured journals
/// through [`validate_journal`].
pub const JOURNAL_MAGIC: &str = "tcms-serve-journal";

/// Journal schema version this validator understands.
pub const JOURNAL_VERSION: f64 = 1.0;

/// Outcome of [`validate_journal`] on a well-formed journal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JournalCheck {
    /// Number of valid records (the header line does not count).
    pub records: usize,
    /// Whether the final line was torn (unparseable or schema-invalid)
    /// and skipped. A torn tail is expected after a crash and is not an
    /// error; torn lines anywhere else are.
    pub torn_tail: bool,
    /// Whether the final line is a rotation seal trailer
    /// (`{"sealed":true,...}`) — the file is a sealed journal segment,
    /// not a live journal.
    pub sealed: bool,
}

fn journal_record_error(line_no: usize, rec: &JsonValue) -> Option<String> {
    let num = |key: &str| rec.get(key).and_then(JsonValue::as_f64);
    let string = |key: &str| rec.get(key).and_then(JsonValue::as_str);
    if rec.as_object().is_none() {
        return Some(format!("line {line_no}: record is not an object"));
    }
    for key in [
        "seq", "ts_us", "code", "queue_us", "exec_us", "total_us", "dropped",
    ] {
        if num(key).is_none() {
            return Some(format!("line {line_no}: missing numeric `{key}`"));
        }
    }
    for key in ["action", "outcome", "request"] {
        match string(key) {
            Some(s) if !s.is_empty() => {}
            _ => return Some(format!("line {line_no}: missing string `{key}`")),
        }
    }
    // Optional members must still be well-typed when present.
    for key in ["disposition", "spec", "config"] {
        match rec.get(key) {
            None | Some(JsonValue::Null) | Some(JsonValue::String(_)) => {}
            Some(_) => return Some(format!("line {line_no}: `{key}` must be a string or null")),
        }
    }
    if let Some(spec) = string("spec") {
        if spec.len() != 32 || !spec.bytes().all(|b| b.is_ascii_hexdigit()) {
            return Some(format!("line {line_no}: `spec` is not a 32-hex-digit hash"));
        }
    }
    None
}

/// Validates a `tcms-serve` workload journal: a magic header line
/// followed by one JSON record per request with strictly increasing
/// `seq`, non-decreasing `ts_us`/`dropped`, and the capture schema
/// (action/outcome/timings/raw request). The final line may be torn —
/// a crash mid-append leaves a partial line, which loaders skip — or a
/// rotation seal trailer (`{"sealed":true,...}`, reported as `sealed`);
/// a malformed line anywhere else fails validation.
///
/// # Errors
///
/// Describes the first schema or monotonicity violation with its
/// 1-based line number.
pub fn validate_journal(input: &str) -> Result<JournalCheck, String> {
    let lines: Vec<&str> = input.lines().collect();
    let Some((&header, records)) = lines.split_first() else {
        return Err("empty journal: missing header line".into());
    };
    let h = json::parse(header).map_err(|e| format!("line 1: bad header: {e}"))?;
    if h.get("magic").and_then(JsonValue::as_str) != Some(JOURNAL_MAGIC) {
        return Err(format!("line 1: header magic is not {JOURNAL_MAGIC:?}"));
    }
    if h.get("version").and_then(JsonValue::as_f64) != Some(JOURNAL_VERSION) {
        return Err("line 1: unsupported journal version".into());
    }

    let mut check = JournalCheck {
        records: 0,
        torn_tail: false,
        sealed: false,
    };
    let mut prev_seq: Option<f64> = None;
    let mut prev_ts = 0.0;
    let mut prev_dropped = 0.0;
    for (i, line) in records.iter().enumerate() {
        let line_no = i + 2;
        let is_last = i + 1 == records.len();
        if is_last {
            if let Ok(rec) = json::parse(line) {
                if rec.get("sealed") == Some(&JsonValue::Bool(true)) {
                    check.sealed = true;
                    continue;
                }
            }
        }
        let problem = match json::parse(line) {
            Ok(rec) => match journal_record_error(line_no, &rec) {
                Some(e) => Some(e),
                None => {
                    let seq = rec.get("seq").and_then(JsonValue::as_f64).unwrap();
                    let ts = rec.get("ts_us").and_then(JsonValue::as_f64).unwrap();
                    let dropped = rec.get("dropped").and_then(JsonValue::as_f64).unwrap();
                    if prev_seq.is_some_and(|p| seq <= p) {
                        Some(format!(
                            "line {line_no}: seq {seq} is not strictly increasing"
                        ))
                    } else if ts < prev_ts {
                        Some(format!("line {line_no}: ts_us went backwards"))
                    } else if dropped < prev_dropped {
                        Some(format!("line {line_no}: dropped count went backwards"))
                    } else {
                        prev_seq = Some(seq);
                        prev_ts = ts;
                        prev_dropped = dropped;
                        None
                    }
                }
            },
            Err(e) => Some(format!("line {line_no}: {e}")),
        };
        match problem {
            None => check.records += 1,
            Some(_) if is_last => check.torn_tail = true,
            Some(e) => return Err(e),
        }
    }
    Ok(check)
}

/// Validates a `tcms-serve` `stats` response body (the JSON document
/// `tcms client <addr> stats` prints): the daemon-level numeric fields
/// must be present, and when the `fleet` block reports `enabled: true`
/// its full schema is enforced — identity (`self`/`route`/`replicas`),
/// the routing and replication counters, the anti-entropy `sync` block
/// (`lag_ms` may be null before the first full round), and one
/// well-typed health entry per peer. Returns the number of fields
/// checked, so a caller can tell a fleet document from a standalone one.
///
/// # Errors
///
/// Describes the first missing or ill-typed field by its JSON path.
pub fn validate_stats(input: &str) -> Result<usize, String> {
    let doc = json::parse(input.trim()).map_err(|e| format!("not valid JSON: {e}"))?;
    doc.as_object().ok_or("stats document is not an object")?;
    let mut checked = 0usize;
    fn num_field(v: &JsonValue, key: &str, path: &str) -> Result<(), String> {
        match v.get(key).and_then(JsonValue::as_f64) {
            Some(n) if n >= 0.0 => Ok(()),
            Some(_) => Err(format!("`{path}` is negative")),
            None => Err(format!("missing numeric `{path}`")),
        }
    }
    for key in [
        "requests",
        "errors",
        "cache_entries",
        "cache_hits",
        "cache_misses",
        "cache_hit_rate",
        "workers",
    ] {
        num_field(&doc, key, key)?;
        checked += 1;
    }
    let fleet = doc
        .get("fleet")
        .and_then(JsonValue::as_object)
        .ok_or("missing object `fleet`")?;
    checked += 1;
    match fleet.get("enabled") {
        Some(JsonValue::Bool(false)) => return Ok(checked),
        Some(JsonValue::Bool(true)) => {}
        _ => return Err("`fleet.enabled` must be a bool".into()),
    }
    let fleet = doc.get("fleet").unwrap();
    match fleet.get("self").and_then(JsonValue::as_str) {
        Some(s) if !s.is_empty() => checked += 1,
        _ => return Err("missing string `fleet.self`".into()),
    }
    match fleet.get("route").and_then(JsonValue::as_str) {
        Some("proxy" | "local") => checked += 1,
        Some(other) => return Err(format!("`fleet.route` is `{other}`, not proxy|local")),
        None => return Err("missing string `fleet.route`".into()),
    }
    for key in [
        "replicas",
        "proxied",
        "proxy_failures",
        "local_fallback",
        "pushed",
        "push_failures",
        "peer_dials",
    ] {
        num_field(fleet, key, &format!("fleet.{key}"))?;
        checked += 1;
    }
    let sync = fleet
        .get("sync")
        .filter(|s| s.as_object().is_some())
        .ok_or("missing object `fleet.sync`")?;
    for key in [
        "rounds",
        "shards_pulled",
        "entries_applied",
        "failures",
        "push_applied",
        "push_rejected",
    ] {
        num_field(sync, key, &format!("fleet.sync.{key}"))?;
        checked += 1;
    }
    match sync.get("lag_ms") {
        Some(JsonValue::Null | JsonValue::Number(_)) => checked += 1,
        _ => return Err("`fleet.sync.lag_ms` must be a number or null".into()),
    }
    let peers = fleet
        .get("peers")
        .and_then(JsonValue::as_array)
        .ok_or("missing array `fleet.peers`")?;
    for (i, peer) in peers.iter().enumerate() {
        match peer.get("addr").and_then(JsonValue::as_str) {
            Some(a) if !a.is_empty() => {}
            _ => return Err(format!("missing string `fleet.peers[{i}].addr`")),
        }
        match peer.get("alive") {
            Some(JsonValue::Bool(_)) => {}
            _ => return Err(format!("`fleet.peers[{i}].alive` must be a bool")),
        }
        for key in ["ok", "failures", "consecutive_failures"] {
            num_field(peer, key, &format!("fleet.peers[{i}].{key}"))?;
        }
        match peer.get("last_rtt_us") {
            Some(JsonValue::Null | JsonValue::Number(_)) => {}
            _ => {
                return Err(format!(
                    "`fleet.peers[{i}].last_rtt_us` must be a number or null"
                ))
            }
        }
        checked += 1;
    }
    Ok(checked)
}

fn chrome_args(out: &mut String, fields: &[(&'static str, Value)]) {
    out.push_str(",\"args\":");
    write_fields(out, fields);
}

/// Serializes the trace in Chrome `trace_event` JSON object format
/// (`{"traceEvents": [...]}`), loadable in `about:tracing` and
/// [Perfetto](https://ui.perfetto.dev).
///
/// Spans become `B`/`E` duration events on pid/tid 1 (matching the
/// single-threaded recording model), instant events become `i`, and both
/// counters and timeline samples become `C` counter events so the UI
/// plots them as series over time. Final metric values (gauges,
/// histogram means) ride along in the top-level `"metadata"` member.
pub fn to_chrome_trace(data: &TraceData) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    let mut first = true;
    let mut sep = |out: &mut String| {
        if first {
            first = false;
        } else {
            out.push(',');
        }
        out.push_str("\n  ");
    };
    // E events carry the name of their B for readability.
    let mut span_names: BTreeMap<u64, &'static str> = BTreeMap::new();
    // Chrome counter events carry absolute values; integrate the deltas.
    let mut counter_totals: BTreeMap<&'static str, u64> = BTreeMap::new();
    for ev in &data.events {
        let ts = ev.ts_us;
        match &ev.kind {
            TraceEventKind::SpanEnter { id, name, fields } => {
                span_names.insert(id.0, name);
                sep(&mut out);
                let _ = write!(out, "{{\"name\":");
                json::write_escaped(&mut out, name);
                let _ = write!(out, ",\"ph\":\"B\",\"ts\":{ts},\"pid\":1,\"tid\":1");
                if !fields.is_empty() {
                    chrome_args(&mut out, fields);
                }
                out.push('}');
            }
            TraceEventKind::SpanExit { id } => {
                let name = span_names.get(&id.0).copied().unwrap_or("span");
                sep(&mut out);
                let _ = write!(out, "{{\"name\":");
                json::write_escaped(&mut out, name);
                let _ = write!(out, ",\"ph\":\"E\",\"ts\":{ts},\"pid\":1,\"tid\":1}}");
            }
            TraceEventKind::Instant { name, fields } => {
                sep(&mut out);
                let _ = write!(out, "{{\"name\":");
                json::write_escaped(&mut out, name);
                let _ = write!(
                    out,
                    ",\"ph\":\"i\",\"ts\":{ts},\"pid\":1,\"tid\":1,\"s\":\"t\""
                );
                if !fields.is_empty() {
                    chrome_args(&mut out, fields);
                }
                out.push('}');
            }
            TraceEventKind::Counter { name, delta } => {
                let total = counter_totals.entry(name).or_insert(0);
                *total += delta;
                sep(&mut out);
                let _ = write!(out, "{{\"name\":");
                json::write_escaped(&mut out, name);
                let _ = write!(out, ",\"ph\":\"C\",\"ts\":{ts},\"pid\":1,\"args\":{{");
                json::write_escaped(&mut out, name);
                let _ = write!(out, ":{total}}}}}");
            }
            TraceEventKind::Point(p) => {
                sep(&mut out);
                let _ = write!(out, "{{\"name\":");
                json::write_escaped(&mut out, &format!("timeline.{}", p.phase));
                let _ = write!(out, ",\"ph\":\"C\",\"ts\":{ts},\"pid\":1,\"args\":{{");
                for (i, (k, v)) in p.values.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    json::write_escaped(&mut out, k);
                    out.push(':');
                    json::write_number(&mut out, *v);
                }
                out.push_str("}}");
            }
        }
    }
    out.push_str("\n],\"displayTimeUnit\":\"ms\",\"metadata\":{");
    let mut mfirst = true;
    for (name, v) in data.metrics.gauges() {
        if !mfirst {
            out.push(',');
        }
        mfirst = false;
        json::write_escaped(&mut out, name);
        out.push(':');
        json::write_number(&mut out, v);
    }
    for (name, h) in data.metrics.histograms() {
        if !mfirst {
            out.push(',');
        }
        mfirst = false;
        json::write_escaped(&mut out, &format!("{name}.mean"));
        out.push(':');
        json::write_number(&mut out, h.mean());
    }
    out.push_str("}}\n");
    out
}

/// Validates a document against the Chrome `trace_event` JSON object
/// format: a top-level object with a `traceEvents` array whose members
/// carry a known `ph`, a numeric `ts` and a `pid`, with `B`/`E` pairs
/// balanced per `(pid, tid)`. Returns the event count on success.
///
/// # Errors
///
/// Describes the first structural violation.
pub fn validate_chrome_trace(input: &str) -> Result<usize, String> {
    let doc = json::parse(input)?;
    let events = doc
        .get("traceEvents")
        .and_then(JsonValue::as_array)
        .ok_or_else(|| "missing traceEvents array".to_string())?;
    let mut stacks: BTreeMap<(u64, u64), Vec<String>> = BTreeMap::new();
    for (i, ev) in events.iter().enumerate() {
        let obj = ev
            .as_object()
            .ok_or_else(|| format!("event {i}: not an object"))?;
        let ph = obj
            .get("ph")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| format!("event {i}: missing ph"))?;
        obj.get("ts")
            .and_then(JsonValue::as_f64)
            .ok_or_else(|| format!("event {i}: missing numeric ts"))?;
        let pid = obj
            .get("pid")
            .and_then(JsonValue::as_f64)
            .ok_or_else(|| format!("event {i}: missing pid"))? as u64;
        let name = obj
            .get("name")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| format!("event {i}: missing name"))?
            .to_string();
        let tid = obj.get("tid").and_then(JsonValue::as_f64).unwrap_or(0.0) as u64;
        match ph {
            "B" => stacks.entry((pid, tid)).or_default().push(name),
            "E" => match stacks.entry((pid, tid)).or_default().pop() {
                Some(open) if open == name => {}
                Some(open) => {
                    return Err(format!(
                        "event {i}: E {name:?} while {open:?} is innermost on pid {pid} tid {tid}"
                    ))
                }
                None => {
                    return Err(format!(
                        "event {i}: E {name:?} with no open B on pid {pid} tid {tid}"
                    ))
                }
            },
            "C" | "i" | "I" | "X" | "M" => {}
            other => return Err(format!("event {i}: unknown ph {other:?}")),
        }
    }
    for ((pid, tid), stack) in &stacks {
        if let Some(open) = stack.last() {
            return Err(format!("span {open:?} never closed on pid {pid} tid {tid}"));
        }
    }
    Ok(events.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::{Recorder, TimelinePoint};
    use crate::span;
    use crate::trace::TraceRecorder;

    fn sample_data() -> TraceData {
        let rec = TraceRecorder::new();
        {
            let _s = span!(&rec, "s3.schedule", blocks = 2u64);
            {
                let _c = span!(&rec, "s3.commit", block = 0u64, process = 1u64);
                rec.counter_add("ifds.iterations", 1);
            }
            rec.event("sim.conflict", &[("time", Value::from(7u64))]);
            rec.timeline(TimelinePoint {
                phase: "s3",
                iteration: 0,
                values: vec![("force.total".into(), -1.25), ("G.mul.peak".into(), 2.0)],
            });
            rec.gauge_set("schedule.grid", 12.0);
            rec.histogram_record("s3.eval_us", 42.0);
        }
        rec.finish()
    }

    #[test]
    fn jsonl_round_trips_and_nests() {
        let data = sample_data();
        let jsonl = to_jsonl(&data);
        let records = parse_jsonl(&jsonl).unwrap();
        assert_eq!(records.len(), data.events.len());
        check_jsonl_nesting(&records).unwrap();
        assert_eq!(validate_jsonl(&jsonl).unwrap(), records.len());
        // Spot-check one record of each type survived with its payload.
        assert!(records.iter().any(|r| {
            r.get("type").and_then(JsonValue::as_str) == Some("timeline")
                && r.get("values")
                    .and_then(|v| v.get("force.total"))
                    .and_then(JsonValue::as_f64)
                    == Some(-1.25)
        }));
        assert!(records.iter().any(|r| {
            r.get("type").and_then(JsonValue::as_str) == Some("span_enter")
                && r.get("name").and_then(JsonValue::as_str) == Some("s3.commit")
                && r.get("fields")
                    .and_then(|f| f.get("process"))
                    .and_then(JsonValue::as_f64)
                    == Some(1.0)
        }));
    }

    #[test]
    fn jsonl_rejects_bad_input() {
        assert!(parse_jsonl("{not json}\n").is_err());
        assert!(parse_jsonl("[1,2]\n").is_err());
        let unbalanced =
            "{\"type\":\"span_enter\",\"ts_us\":0,\"id\":1,\"name\":\"x\",\"fields\":{}}\n";
        assert!(validate_jsonl(unbalanced).is_err());
        let crossed = concat!(
            "{\"type\":\"span_enter\",\"ts_us\":0,\"id\":1,\"name\":\"a\",\"fields\":{}}\n",
            "{\"type\":\"span_enter\",\"ts_us\":0,\"id\":2,\"name\":\"b\",\"fields\":{}}\n",
            "{\"type\":\"span_exit\",\"ts_us\":1,\"id\":1}\n",
            "{\"type\":\"span_exit\",\"ts_us\":1,\"id\":2}\n",
        );
        assert!(validate_jsonl(crossed).is_err());
    }

    #[test]
    fn chrome_trace_validates_and_balances() {
        let data = sample_data();
        let chrome = to_chrome_trace(&data);
        let n = validate_chrome_trace(&chrome).unwrap();
        assert_eq!(n, data.events.len());
        // Counter events must carry absolute values in args.
        let doc = json::parse(&chrome).unwrap();
        let events = doc.get("traceEvents").unwrap().as_array().unwrap();
        let counter = events
            .iter()
            .find(|e| {
                e.get("ph").and_then(JsonValue::as_str) == Some("C")
                    && e.get("name").and_then(JsonValue::as_str) == Some("ifds.iterations")
            })
            .unwrap();
        assert_eq!(
            counter
                .get("args")
                .and_then(|a| a.get("ifds.iterations"))
                .and_then(JsonValue::as_f64),
            Some(1.0)
        );
        // Gauges and histogram means land in metadata.
        assert_eq!(
            doc.get("metadata")
                .and_then(|m| m.get("schedule.grid"))
                .and_then(JsonValue::as_f64),
            Some(12.0)
        );
        assert_eq!(
            doc.get("metadata")
                .and_then(|m| m.get("s3.eval_us.mean"))
                .and_then(JsonValue::as_f64),
            Some(42.0)
        );
    }

    #[test]
    fn chrome_validator_rejects_malformed() {
        assert!(validate_chrome_trace("[]").is_err());
        assert!(validate_chrome_trace("{\"traceEvents\":[{\"ph\":\"B\"}]}").is_err());
        let unbalanced =
            "{\"traceEvents\":[{\"name\":\"a\",\"ph\":\"B\",\"ts\":0,\"pid\":1,\"tid\":1}]}";
        assert!(validate_chrome_trace(unbalanced).is_err());
        let crossed = "{\"traceEvents\":[\
            {\"name\":\"a\",\"ph\":\"B\",\"ts\":0,\"pid\":1,\"tid\":1},\
            {\"name\":\"b\",\"ph\":\"E\",\"ts\":1,\"pid\":1,\"tid\":1}]}";
        assert!(validate_chrome_trace(crossed).is_err());
    }

    fn journal_line(seq: u64, ts: u64) -> String {
        format!(
            "{{\"seq\":{seq},\"ts_us\":{ts},\"action\":\"schedule\",\
             \"spec\":\"00112233445566778899aabbccddeeff\",\"config\":\"00000000deadbeef\",\
             \"disposition\":\"miss\",\"outcome\":\"ok\",\"code\":0,\
             \"queue_us\":5,\"exec_us\":100,\"total_us\":105,\"dropped\":0,\
             \"request\":\"{{\\\"id\\\":\\\"r{seq}\\\"}}\"}}"
        )
    }

    fn journal_doc(lines: &[String]) -> String {
        let mut out = format!("{{\"magic\":\"{JOURNAL_MAGIC}\",\"version\":1}}\n");
        for l in lines {
            out.push_str(l);
            out.push('\n');
        }
        out
    }

    #[test]
    fn journal_validator_accepts_well_formed_capture() {
        let doc = journal_doc(&[
            journal_line(0, 10),
            journal_line(1, 20),
            journal_line(2, 20),
        ]);
        let check = validate_journal(&doc).unwrap();
        assert_eq!(check.records, 3);
        assert!(!check.torn_tail);
    }

    #[test]
    fn journal_validator_tolerates_torn_tail_only() {
        // A torn final line (partial write after a crash) is skipped...
        let mut doc = journal_doc(&[journal_line(0, 10)]);
        doc.push_str("{\"seq\":1,\"ts_us\":20,\"act");
        let check = validate_journal(&doc).unwrap();
        assert_eq!(check.records, 1);
        assert!(check.torn_tail);
        // ...but the same garbage mid-file is corruption, not a tear.
        let doc = journal_doc(&["{\"seq\":1,\"ts_us\":20,\"act".into(), journal_line(2, 30)]);
        assert!(validate_journal(&doc).is_err());
    }

    #[test]
    fn journal_validator_accepts_a_rotation_seal_trailer() {
        // A sealed segment ends with a `{"sealed":true,...}` trailer:
        // valid, reported as sealed, not counted as a record or a tear.
        let mut doc = journal_doc(&[journal_line(0, 10), journal_line(1, 20)]);
        doc.push_str("{\"sealed\":true,\"records\":2,\"check\":\"00000000000000aa\"}\n");
        let check = validate_journal(&doc).unwrap();
        assert_eq!(check.records, 2);
        assert!(check.sealed);
        assert!(!check.torn_tail);
        // A seal anywhere but the final line is still corruption.
        let doc = journal_doc(&[
            journal_line(0, 10),
            "{\"sealed\":true,\"records\":1,\"check\":\"00\"}".into(),
            journal_line(2, 30),
        ]);
        assert!(validate_journal(&doc).is_err());
    }

    #[test]
    fn journal_validator_enforces_schema_and_monotonicity() {
        // Missing header.
        assert!(validate_journal("").is_err());
        assert!(validate_journal(&journal_line(0, 0)).is_err());
        // Foreign magic.
        assert!(validate_journal("{\"magic\":\"other\",\"version\":1}\n").is_err());
        // seq must be strictly increasing (mid-file).
        let doc = journal_doc(&[
            journal_line(1, 10),
            journal_line(1, 20),
            journal_line(2, 30),
        ]);
        assert!(validate_journal(&doc)
            .unwrap_err()
            .contains("strictly increasing"));
        // ts_us must not go backwards.
        let doc = journal_doc(&[
            journal_line(0, 20),
            journal_line(1, 10),
            journal_line(2, 30),
        ]);
        assert!(validate_journal(&doc).unwrap_err().contains("ts_us"));
        // A record without the raw request line cannot drive replay.
        let stripped = journal_line(0, 10).replace("\"request\"", "\"req\"");
        let doc = journal_doc(&[stripped, journal_line(1, 20)]);
        assert!(validate_journal(&doc).unwrap_err().contains("request"));
        // A bad spec hash is flagged.
        let shorthash = journal_line(0, 10).replace("00112233445566778899aabbccddeeff", "abc");
        let doc = journal_doc(&[shorthash, journal_line(1, 20)]);
        assert!(validate_journal(&doc).unwrap_err().contains("spec"));
        // An empty journal (header only) is valid: zero records.
        let check = validate_journal(&journal_doc(&[])).unwrap();
        assert_eq!(check.records, 0);
        assert!(!check.torn_tail);
    }

    #[test]
    fn nesting_checker_flags_in_memory_violations() {
        use crate::recorder::SpanId;
        use crate::trace::TraceEventKind as K;
        let ev = |kind| TraceEvent { ts_us: 0, kind };
        let bad = vec![
            ev(K::SpanEnter {
                id: SpanId(1),
                name: "a",
                fields: vec![],
            }),
            ev(K::SpanEnter {
                id: SpanId(2),
                name: "b",
                fields: vec![],
            }),
            ev(K::SpanExit { id: SpanId(1) }),
        ];
        assert!(check_span_nesting(&bad).is_err());
        let dangling = vec![ev(K::SpanExit { id: SpanId(3) })];
        assert!(check_span_nesting(&dangling).is_err());
    }

    /// A minimal standalone-daemon stats document: the daemon fields
    /// plus a disabled fleet block.
    fn standalone_stats() -> String {
        concat!(
            r#"{"requests":10,"errors":0,"cache_entries":3,"cache_hits":7,"#,
            r#""cache_misses":3,"cache_hit_rate":0.7,"workers":2,"#,
            r#""fleet":{"enabled":false}}"#
        )
        .to_owned()
    }

    fn fleet_stats() -> String {
        concat!(
            r#"{"requests":10,"errors":0,"cache_entries":3,"cache_hits":7,"#,
            r#""cache_misses":3,"cache_hit_rate":0.7,"workers":2,"#,
            r#""fleet":{"enabled":true,"self":"a:1","route":"proxy","replicas":2,"#,
            r#""proxied":4,"proxy_failures":0,"local_fallback":0,"pushed":2,"push_failures":0,"#,
            r#""peer_dials":2,"#,
            r#""sync":{"rounds":3,"shards_pulled":1,"entries_applied":1,"failures":0,"#,
            r#""push_applied":0,"push_rejected":0,"lag_ms":null},"#,
            r#""peers":[{"addr":"b:1","alive":true,"ok":5,"failures":1,"#,
            r#""consecutive_failures":0,"last_rtt_us":120}]}}"#
        )
        .to_owned()
    }

    #[test]
    fn stats_validator_accepts_standalone_and_fleet_documents() {
        let standalone = validate_stats(&standalone_stats()).unwrap();
        let fleet = validate_stats(&fleet_stats()).unwrap();
        // The fleet document checks strictly more fields.
        assert!(fleet > standalone, "{fleet} vs {standalone}");
    }

    #[test]
    fn stats_validator_rejects_broken_fleet_blocks() {
        assert!(validate_stats("not json").is_err());
        assert!(validate_stats("[1,2]").is_err());
        // A daemon field gone missing.
        let err = validate_stats(&standalone_stats().replace(r#""workers":2,"#, "")).unwrap_err();
        assert!(err.contains("workers"), "{err}");
        // Each fleet-schema mutation must name the offending path.
        for (broken, needle) in [
            (
                fleet_stats().replace(r#""route":"proxy""#, r#""route":"magic""#),
                "route",
            ),
            (fleet_stats().replace(r#""proxied":4,"#, ""), "proxied"),
            (
                fleet_stats().replace(r#""peer_dials":2,"#, ""),
                "peer_dials",
            ),
            (fleet_stats().replace(r#""rounds":3,"#, ""), "sync.rounds"),
            (
                fleet_stats().replace(r#""lag_ms":null"#, r#""lag_ms":"soon""#),
                "lag_ms",
            ),
            (
                fleet_stats().replace(r#""alive":true,"#, r#""alive":"yes","#),
                "alive",
            ),
            (
                fleet_stats().replace(r#""last_rtt_us":120"#, r#""last_rtt_us":"fast""#),
                "last_rtt_us",
            ),
        ] {
            let err = validate_stats(&broken).unwrap_err();
            assert!(err.contains(needle), "{needle}: {err}");
        }
    }
}
