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
}
