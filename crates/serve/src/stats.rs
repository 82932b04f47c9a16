//! Human-readable rendering of a daemon `stats` response
//! (`tcms stats <addr>`).
//!
//! The daemon ships its full [`MetricsRegistry`] in wire form inside
//! the `stats` body; this module rebuilds the registry with
//! [`MetricsRegistry::from_json`] and renders the standard
//! [`render_summary`](MetricsRegistry::render_summary) block, prefixed
//! by a headline section (requests, errors, queue/inflight), the cache
//! section (hit rate plus **per-shard** occupancy and evictions — shard
//! imbalance shows up here long before the global hit rate moves) and
//! the journal section (enabled, recorded, dropped, rotated). Older
//! daemons
//! whose bodies predate a field render what they have; nothing here is
//! load-bearing for scripts, which should parse the JSON body instead.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use tcms_obs::json::JsonValue;
use tcms_obs::MetricsRegistry;

fn num(body: &BTreeMap<String, JsonValue>, key: &str) -> f64 {
    body.get(key).and_then(JsonValue::as_f64).unwrap_or(0.0)
}

/// Renders the body of a `stats` response as a terminal-friendly
/// summary. Missing fields render as zeros / absent sections so the
/// command degrades gracefully against older daemons.
#[must_use]
pub fn render_stats(body: &BTreeMap<String, JsonValue>) -> String {
    let mut out = String::new();
    let n = |key: &str| num(body, key);

    out.push_str("daemon:\n");
    let _ = writeln!(out, "  {:<22} {:>12}", "requests", n("requests"));
    let _ = writeln!(out, "  {:<22} {:>12}", "errors", n("errors"));
    let _ = writeln!(
        out,
        "  {:<22} {:>12}",
        "scheduler runs",
        n("scheduler_runs")
    );
    let _ = writeln!(
        out,
        "  {:<22} {:>12}",
        "ifds iterations",
        n("ifds_iterations")
    );
    let _ = writeln!(out, "  {:<22} {:>12}", "queue depth", n("queue_depth"));
    let _ = writeln!(out, "  {:<22} {:>12}", "inflight", n("inflight"));
    let _ = writeln!(out, "  {:<22} {:>12}", "workers", n("workers"));
    let _ = writeln!(out, "  {:<22} {:>12}", "worker panics", n("worker_panics"));
    let _ = writeln!(
        out,
        "  {:<22} {:>12}",
        "worker restarts",
        n("worker_restarts")
    );

    out.push_str("cache:\n");
    let _ = writeln!(out, "  {:<22} {:>12}", "entries", n("cache_entries"));
    let _ = writeln!(out, "  {:<22} {:>12}", "hits", n("cache_hits"));
    let _ = writeln!(out, "  {:<22} {:>12}", "misses", n("cache_misses"));
    let _ = writeln!(out, "  {:<22} {:>12}", "coalesced", n("cache_coalesced"));
    let _ = writeln!(
        out,
        "  {:<22} {:>12}",
        "indexed answers",
        n("cache_indexed")
    );
    let _ = writeln!(out, "  {:<22} {:>12}", "evictions", n("cache_evictions"));
    let _ = writeln!(
        out,
        "  {:<22} {:>11.1}%",
        "hit rate",
        n("cache_hit_rate") * 100.0
    );
    if let Some(shards) = body.get("cache_shards").and_then(JsonValue::as_array) {
        let _ = writeln!(
            out,
            "  {:<8} {:>10} {:>10} {:>10}",
            "shard", "occupancy", "capacity", "evictions"
        );
        for (i, shard) in shards.iter().enumerate() {
            let g = |key: &str| shard.get(key).and_then(JsonValue::as_f64).unwrap_or(0.0);
            let _ = writeln!(
                out,
                "  {i:<8} {:>10} {:>10} {:>10}",
                g("occupancy"),
                g("capacity"),
                g("evictions")
            );
        }
    }

    if let Some(journal) = body.get("journal") {
        out.push_str("journal:\n");
        let enabled = journal.get("enabled") == Some(&JsonValue::Bool(true));
        let _ = writeln!(
            out,
            "  {:<22} {:>12}",
            "enabled",
            if enabled { "yes" } else { "no" }
        );
        if enabled {
            let g = |key: &str| journal.get(key).and_then(JsonValue::as_f64).unwrap_or(0.0);
            let _ = writeln!(out, "  {:<22} {:>12}", "recorded", g("recorded"));
            let _ = writeln!(out, "  {:<22} {:>12}", "dropped", g("dropped"));
            let _ = writeln!(out, "  {:<22} {:>12}", "rotated", g("rotated"));
            if let Some(path) = journal.get("path").and_then(JsonValue::as_str) {
                let _ = writeln!(out, "  {:<22} {path}", "path");
            }
        }
    }

    match body.get("metrics").map(MetricsRegistry::from_json) {
        Some(Ok(registry)) => {
            out.push_str(&registry.render_summary());
        }
        Some(Err(e)) => {
            let _ = writeln!(out, "(metrics block unreadable: {e})");
        }
        // Pre-journal daemons ship no registry; the headline is all
        // there is.
        None => {}
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn body_with(entries: &[(&str, JsonValue)]) -> BTreeMap<String, JsonValue> {
        entries
            .iter()
            .map(|(k, v)| ((*k).to_owned(), v.clone()))
            .collect()
    }

    #[test]
    fn renders_all_sections_from_a_full_body() {
        let mut registry = MetricsRegistry::default();
        registry.counter_add("serve.requests", 7);
        registry.gauge_set("serve.inflight", 2.0);
        registry.histogram_record("serve.exec_us.miss", 1500.0);
        let shard = JsonValue::Object(body_with(&[
            ("occupancy", JsonValue::Number(3.0)),
            ("capacity", JsonValue::Number(128.0)),
            ("evictions", JsonValue::Number(1.0)),
        ]));
        let journal = JsonValue::Object(body_with(&[
            ("enabled", JsonValue::Bool(true)),
            ("recorded", JsonValue::Number(41.0)),
            ("dropped", JsonValue::Number(2.0)),
            ("path", JsonValue::String("/tmp/j/journal.jsonl".into())),
        ]));
        let body = body_with(&[
            ("requests", JsonValue::Number(7.0)),
            ("errors", JsonValue::Number(1.0)),
            ("worker_panics", JsonValue::Number(3.0)),
            ("worker_restarts", JsonValue::Number(1.0)),
            ("cache_entries", JsonValue::Number(3.0)),
            ("cache_hit_rate", JsonValue::Number(0.5)),
            ("cache_shards", JsonValue::Array(vec![shard])),
            ("journal", journal),
            ("metrics", registry.to_json()),
        ]);
        let text = render_stats(&body);
        for needle in [
            "daemon:",
            "worker panics",
            "worker restarts",
            "rotated",
            "cache:",
            "hit rate",
            "50.0%",
            "shard",
            "journal:",
            "recorded",
            "/tmp/j/journal.jsonl",
            "serve.requests",
            "serve.exec_us.miss",
        ] {
            assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
        }
    }

    #[test]
    fn degrades_gracefully_without_optional_sections() {
        let body = body_with(&[("requests", JsonValue::Number(1.0))]);
        let text = render_stats(&body);
        assert!(text.contains("daemon:"));
        assert!(!text.contains("journal:"));
        assert!(!text.contains("shard "));
    }
}
