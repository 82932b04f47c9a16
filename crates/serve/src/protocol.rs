//! The newline-delimited JSON wire protocol of the daemon.
//!
//! One request per line, one response per line, both UTF-8 JSON objects.
//! Responses carry the request's `id` verbatim, so clients may pipeline
//! requests and match responses out of order (the daemon answers in
//! completion order, not arrival order).
//!
//! # Requests
//!
//! ```json
//! {"id":"1","action":"schedule","design":"resource add ...",
//!  "all_global":4,"globals":{"mul":2},"gantt":false,"verify":3,
//!  "degrade":false,"deadline_ms":2000}
//! {"id":"2","action":"simulate","design":"...","all_global":4,
//!  "horizon":5000,"seed":0,"mean_gap":50}
//! {"id":"3","action":"stats"}
//! {"id":"4","action":"ping"}
//! {"id":"5","action":"shutdown"}
//! ```
//!
//! # Responses
//!
//! Success: `{"id":"1","ok":true,"output":"...","cache":"miss",
//! "iterations":17}` — `output` is byte-identical to the one-shot CLI's
//! stdout for the same request. Failure: `{"id":"1","ok":false,
//! "error":{"class":"infeasible","code":6,"message":"..."}}` with the
//! classes and codes of [`ServeError`].

use std::collections::BTreeMap;

use tcms_core::CacheableResult;
use tcms_ir::SpecHash;
use tcms_obs::json::{self, JsonValue};

use crate::cache::{CacheKey, Disposition};
use crate::error::ServeError;
use crate::pipeline::{ScheduleOptions, SimulateOptions};

/// A client request identifier: echoed back verbatim in the response.
pub type RequestId = JsonValue;

/// A parsed request.
#[derive(Debug, Clone, PartialEq)]
pub enum Action {
    /// Schedule a design and render the report.
    Schedule {
        /// The design text (either input language).
        design: String,
        /// Schedule options (the CLI's flags).
        opts: ScheduleOptions,
    },
    /// Schedule, then simulate reactive load.
    Simulate {
        /// The design text.
        design: String,
        /// Simulation options.
        opts: SimulateOptions,
    },
    /// Report daemon statistics (cache, queue, counters).
    Stats,
    /// Liveness probe.
    Ping,
    /// Ask the daemon to shut down gracefully.
    Shutdown,
    /// Fleet anti-entropy: report the per-sync-shard cache digests
    /// (entry count + fnv64 checksum; see [`crate::fleet::sync`]).
    SyncDigest,
    /// Fleet anti-entropy: return cache entries — one whole sync shard
    /// (`{"shard":3}`) or one exact content address
    /// (`{"spec":"…","config":"…"}`); exactly one selector is required.
    SyncPull {
        /// Sync-shard index to dump, when pulling a shard.
        shard: Option<usize>,
        /// Exact content address, when fetching a single entry.
        key: Option<CacheKey>,
    },
    /// Fleet anti-entropy: apply an op-batch of self-checking entries
    /// (the snapshot's node-independent JSONL encoding, embedded as a
    /// JSON array). Entries failing their integrity check are dropped,
    /// not applied — corruption never replicates.
    SyncPush {
        /// Entries that passed their per-entry integrity check.
        entries: Vec<(CacheKey, CacheableResult)>,
        /// How many entries of the batch failed their check and were
        /// dropped (echoed in the response for observability).
        rejected: usize,
    },
}

/// A parsed request: id, action, and optional per-job deadline.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Echoed back verbatim; `null` when the client sent none.
    pub id: RequestId,
    /// What to do.
    pub action: Action,
    /// Per-job deadline in milliseconds, measured from arrival.
    pub deadline_ms: Option<u64>,
}

fn to_u64(v: &JsonValue) -> Option<u64> {
    let n = v.as_f64()?;
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    if n >= 0.0 && n.fract() == 0.0 && n <= 2f64.powi(53) {
        Some(n as u64)
    } else {
        None
    }
}

fn field_u64(obj: &JsonValue, key: &str) -> Result<Option<u64>, ServeError> {
    match obj.get(key) {
        None | Some(JsonValue::Null) => Ok(None),
        Some(v) => to_u64(v).map(Some).ok_or_else(|| {
            ServeError::BadRequest(format!("`{key}` must be a non-negative integer"))
        }),
    }
}

fn field_u32(obj: &JsonValue, key: &str) -> Result<Option<u32>, ServeError> {
    match field_u64(obj, key)? {
        None => Ok(None),
        Some(n) => u32::try_from(n)
            .map(Some)
            .map_err(|_| ServeError::BadRequest(format!("`{key}` out of range"))),
    }
}

fn field_bool(obj: &JsonValue, key: &str) -> Result<bool, ServeError> {
    match obj.get(key) {
        None | Some(JsonValue::Null) => Ok(false),
        Some(JsonValue::Bool(b)) => Ok(*b),
        Some(_) => Err(ServeError::BadRequest(format!("`{key}` must be a boolean"))),
    }
}

fn field_design(obj: &JsonValue) -> Result<String, ServeError> {
    obj.get("design")
        .and_then(JsonValue::as_str)
        .map(str::to_owned)
        .ok_or_else(|| ServeError::BadRequest("`design` must be a string".into()))
}

/// Parses `globals`: an object `{"mul":2}` (keys sorted — deterministic)
/// or an array of `[name, period]` pairs (order preserved).
fn field_globals(obj: &JsonValue) -> Result<Vec<(String, u32)>, ServeError> {
    let bad = || ServeError::BadRequest("`globals` must map type names to periods".into());
    match obj.get("globals") {
        None | Some(JsonValue::Null) => Ok(Vec::new()),
        Some(JsonValue::Object(map)) => map
            .iter()
            .map(|(name, v)| {
                let period = to_u64(v)
                    .and_then(|n| u32::try_from(n).ok())
                    .ok_or_else(bad)?;
                Ok((name.clone(), period))
            })
            .collect(),
        Some(JsonValue::Array(items)) => items
            .iter()
            .map(|item| {
                let pair = item.as_array().ok_or_else(bad)?;
                let [name, period] = pair else {
                    return Err(bad());
                };
                let name = name.as_str().ok_or_else(bad)?.to_owned();
                let period = to_u64(period)
                    .and_then(|n| u32::try_from(n).ok())
                    .ok_or_else(bad)?;
                Ok((name, period))
            })
            .collect(),
        Some(_) => Err(bad()),
    }
}

/// Parses one request line.
///
/// # Errors
///
/// Returns [`ServeError::BadRequest`] for invalid JSON, missing or
/// ill-typed fields and unknown actions. The parsed `id` is returned
/// alongside the error whenever the line was at least a JSON object, so
/// the response can still be correlated.
pub fn parse_request(line: &str) -> Result<Request, (RequestId, ServeError)> {
    let v = json::parse(line).map_err(|e| {
        (
            JsonValue::Null,
            ServeError::BadRequest(format!("invalid JSON: {e}")),
        )
    })?;
    if v.as_object().is_none() {
        return Err((
            JsonValue::Null,
            ServeError::BadRequest("request must be a JSON object".into()),
        ));
    }
    let id = v.get("id").cloned().unwrap_or(JsonValue::Null);
    parse_body(&v)
        .map_err(|e| (id.clone(), e))
        .map(|(action, deadline_ms)| Request {
            id,
            action,
            deadline_ms,
        })
}

fn parse_body(v: &JsonValue) -> Result<(Action, Option<u64>), ServeError> {
    let deadline_ms = field_u64(v, "deadline_ms")?;
    let action = v
        .get("action")
        .and_then(JsonValue::as_str)
        .ok_or_else(|| ServeError::BadRequest("`action` must be a string".into()))?;
    let action = match action {
        "schedule" => Action::Schedule {
            design: field_design(v)?,
            opts: ScheduleOptions {
                all_global: field_u32(v, "all_global")?,
                globals: field_globals(v)?,
                gantt: field_bool(v, "gantt")?,
                verify: usize::try_from(field_u64(v, "verify")?.unwrap_or(0))
                    .map_err(|_| ServeError::BadRequest("`verify` out of range".into()))?,
                degrade: field_bool(v, "degrade")?,
            },
        },
        "simulate" => {
            let defaults = SimulateOptions::default();
            let opts = SimulateOptions {
                all_global: field_u32(v, "all_global")?,
                globals: field_globals(v)?,
                horizon: field_u64(v, "horizon")?.unwrap_or(defaults.horizon),
                seed: field_u64(v, "seed")?.unwrap_or(defaults.seed),
                mean_gap: field_u64(v, "mean_gap")?.unwrap_or(defaults.mean_gap),
            };
            opts.validate().map_err(ServeError::BadRequest)?;
            Action::Simulate {
                design: field_design(v)?,
                opts,
            }
        }
        "stats" => Action::Stats,
        "ping" => Action::Ping,
        "shutdown" => Action::Shutdown,
        "sync_digest" => Action::SyncDigest,
        "sync_pull" => {
            let shard = match field_u64(v, "shard")? {
                None => None,
                Some(n) => Some(
                    usize::try_from(n)
                        .map_err(|_| ServeError::BadRequest("`shard` out of range".into()))?,
                ),
            };
            let key = parse_key_fields(v)?;
            if shard.is_some() == key.is_some() {
                return Err(ServeError::BadRequest(
                    "`sync_pull` needs exactly one of `shard` or `spec`+`config`".into(),
                ));
            }
            Action::SyncPull { shard, key }
        }
        "sync_push" => {
            let items = v
                .get("entries")
                .and_then(JsonValue::as_array)
                .ok_or_else(|| {
                    ServeError::BadRequest("`entries` must be an array of cache entries".into())
                })?;
            let mut entries = Vec::with_capacity(items.len());
            let mut rejected = 0usize;
            for item in items {
                match crate::persist::parse_entry_value(item) {
                    Some(entry) => entries.push(entry),
                    None => rejected += 1,
                }
            }
            Action::SyncPush { entries, rejected }
        }
        other => {
            return Err(ServeError::UnknownAction(other.to_owned()));
        }
    };
    Ok((action, deadline_ms))
}

/// Parses the optional exact-key selector of `sync_pull`: both `spec`
/// and `config` must be present (hex strings) or both absent.
fn parse_key_fields(v: &JsonValue) -> Result<Option<CacheKey>, ServeError> {
    let bad = || ServeError::BadRequest("`spec` and `config` must be hex strings".into());
    match (v.get("spec"), v.get("config")) {
        (None, None) => Ok(None),
        (Some(spec), Some(config)) => {
            let spec = SpecHash::parse(spec.as_str().ok_or_else(bad)?).map_err(|_| bad())?;
            let config =
                u64::from_str_radix(config.as_str().ok_or_else(bad)?, 16).map_err(|_| bad())?;
            Ok(Some(CacheKey { spec, config }))
        }
        _ => Err(bad()),
    }
}

/// One response line (without the trailing newline).
#[must_use]
pub fn success_line(id: &RequestId, body: BTreeMap<String, JsonValue>) -> String {
    let mut map = body;
    map.insert("id".into(), id.clone());
    map.insert("ok".into(), JsonValue::Bool(true));
    json::to_string(&JsonValue::Object(map))
}

/// The success body of a schedule/simulate response.
#[must_use]
pub fn output_body(
    output: &str,
    disposition: Disposition,
    iterations: u64,
) -> BTreeMap<String, JsonValue> {
    let mut map = BTreeMap::new();
    map.insert("output".into(), JsonValue::String(output.to_owned()));
    map.insert(
        "cache".into(),
        JsonValue::String(disposition.as_str().to_owned()),
    );
    #[allow(clippy::cast_precision_loss)]
    map.insert("iterations".into(), JsonValue::Number(iterations as f64));
    map
}

/// One error-response line (without the trailing newline).
#[must_use]
pub fn error_line(id: &RequestId, error: &ServeError) -> String {
    let mut err = BTreeMap::new();
    err.insert("class".into(), JsonValue::String(error.class().to_owned()));
    err.insert("code".into(), JsonValue::Number(f64::from(error.code())));
    err.insert("message".into(), JsonValue::String(error.to_string()));
    let mut map = BTreeMap::new();
    map.insert("id".into(), id.clone());
    map.insert("ok".into(), JsonValue::Bool(false));
    map.insert("error".into(), JsonValue::Object(err));
    json::to_string(&JsonValue::Object(map))
}

/// A decoded response, as seen by the client.
#[derive(Debug, Clone, PartialEq)]
pub struct Response {
    /// The echoed request id.
    pub id: RequestId,
    /// The full response object (for action-specific fields).
    pub body: JsonValue,
    /// The error `(class, code, message)` when `ok` was false.
    pub error: Option<(String, u16, String)>,
}

impl Response {
    /// Whether the request succeeded.
    #[must_use]
    pub fn is_ok(&self) -> bool {
        self.error.is_none()
    }

    /// The `output` field of a successful schedule/simulate response.
    #[must_use]
    pub fn output(&self) -> Option<&str> {
        self.body.get("output").and_then(JsonValue::as_str)
    }

    /// The `cache` disposition field, when present.
    #[must_use]
    pub fn cache(&self) -> Option<&str> {
        self.body.get("cache").and_then(JsonValue::as_str)
    }
}

/// Parses one response line (client side).
///
/// # Errors
///
/// Returns a message when the line is not a valid response object.
pub fn parse_response(line: &str) -> Result<Response, String> {
    let v = json::parse(line)?;
    let ok = match v.get("ok") {
        Some(JsonValue::Bool(b)) => *b,
        _ => return Err("response lacks boolean `ok`".into()),
    };
    let id = v.get("id").cloned().unwrap_or(JsonValue::Null);
    let error = if ok {
        None
    } else {
        let e = v.get("error").ok_or("error response lacks `error`")?;
        let class = e
            .get("class")
            .and_then(JsonValue::as_str)
            .ok_or("error lacks `class`")?
            .to_owned();
        let code = e
            .get("code")
            .and_then(JsonValue::as_f64)
            .ok_or("error lacks `code`")?;
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let code = code as u16;
        let message = e
            .get("message")
            .and_then(JsonValue::as_str)
            .unwrap_or_default()
            .to_owned();
        Some((class, code, message))
    };
    Ok(Response { id, body: v, error })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_request_round_trip() {
        let line = r#"{"id":"a1","action":"schedule","design":"x","all_global":4,
            "globals":{"mul":2},"gantt":true,"verify":3,"deadline_ms":250}"#;
        let req = parse_request(&line.replace('\n', " ")).unwrap();
        assert_eq!(req.id, JsonValue::String("a1".into()));
        assert_eq!(req.deadline_ms, Some(250));
        match req.action {
            Action::Schedule { design, opts } => {
                assert_eq!(design, "x");
                assert_eq!(opts.all_global, Some(4));
                assert_eq!(opts.globals, vec![("mul".into(), 2)]);
                assert!(opts.gantt);
                assert_eq!(opts.verify, 3);
                assert!(!opts.degrade);
            }
            other => panic!("unexpected action {other:?}"),
        }
    }

    #[test]
    fn unknown_fields_are_ignored() {
        let plain = parse_request(r#"{"action":"schedule","design":"x","all_global":4}"#).unwrap();
        let extra = parse_request(
            r#"{"action":"schedule","design":"x","all_global":4,"shards":"auto","mode":7}"#,
        )
        .unwrap();
        assert_eq!(extra.action, plain.action);
    }

    #[test]
    fn globals_accepts_pair_array() {
        let req =
            parse_request(r#"{"action":"schedule","design":"x","globals":[["mul",2],["add",4]]}"#)
                .unwrap();
        match req.action {
            Action::Schedule { opts, .. } => {
                assert_eq!(opts.globals, vec![("mul".into(), 2), ("add".into(), 4)]);
            }
            other => panic!("unexpected action {other:?}"),
        }
    }

    #[test]
    fn simulate_defaults_match_the_cli() {
        let req = parse_request(r#"{"action":"simulate","design":"x"}"#).unwrap();
        match req.action {
            Action::Simulate { opts, .. } => assert_eq!(opts, SimulateOptions::default()),
            other => panic!("unexpected action {other:?}"),
        }
    }

    #[test]
    fn control_actions_parse() {
        for (text, want) in [
            (r#"{"action":"stats"}"#, Action::Stats),
            (r#"{"action":"ping"}"#, Action::Ping),
            (r#"{"action":"shutdown"}"#, Action::Shutdown),
        ] {
            assert_eq!(parse_request(text).unwrap().action, want);
        }
    }

    #[test]
    fn bad_requests_keep_their_id() {
        let (id, err) = parse_request(r#"{"id":7,"action":"frobnicate"}"#).unwrap_err();
        assert_eq!(id, JsonValue::Number(7.0));
        // Unknown actions are their own class with a pinned code, so a
        // newer client against an older daemon gets a diagnosable reply.
        assert_eq!(err, ServeError::UnknownAction("frobnicate".into()));
        assert_eq!(err.class(), "unknown-action");
        assert_eq!(err.code(), 404);

        let (id, err) = parse_request("not json").unwrap_err();
        assert_eq!(id, JsonValue::Null);
        assert!(matches!(err, ServeError::BadRequest(_)));

        let (_, err) = parse_request(r#"{"action":"schedule"}"#).unwrap_err();
        assert!(err.to_string().contains("design"), "{err}");

        let (_, err) =
            parse_request(r#"{"action":"simulate","design":"x","horizon":0}"#).unwrap_err();
        assert!(err.to_string().contains("horizon"), "{err}");
    }

    #[test]
    fn response_lines_round_trip() {
        let id = JsonValue::String("r9".into());
        let line = success_line(&id, output_body("hello\n", Disposition::Hit, 12));
        let resp = parse_response(&line).unwrap();
        assert!(resp.is_ok());
        assert_eq!(resp.id, id);
        assert_eq!(resp.output(), Some("hello\n"));
        assert_eq!(resp.cache(), Some("hit"));

        let line = error_line(&id, &ServeError::Overloaded { capacity: 8 });
        let resp = parse_response(&line).unwrap();
        assert!(!resp.is_ok());
        let (class, code, message) = resp.error.unwrap();
        assert_eq!(class, "overloaded");
        assert_eq!(code, 429);
        assert!(message.contains("queue full"));
    }

    #[test]
    fn response_lines_are_single_line_json() {
        let id = JsonValue::Null;
        let line = success_line(&id, output_body("a\nb\n", Disposition::Miss, 1));
        assert!(!line.contains('\n'), "newlines must be escaped: {line}");
        assert!(json::parse(&line).is_ok());
    }
}
