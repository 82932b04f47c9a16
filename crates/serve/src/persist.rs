//! Disk persistence of the schedule cache (`--cache-dir`).
//!
//! The snapshot is a JSONL file (`cache.jsonl` inside the cache
//! directory): a header line identifying the format, one line per entry,
//! and a **checksum trailer** covering every byte before it. Each entry
//! line additionally carries its own integrity digest (`check`) over its
//! payload and key. (A replayed schedule is re-verified against the
//! design before it is served, so even an undetected collision cannot
//! produce an invalid response.)
//!
//! # Crash safety
//!
//! Snapshots are written crash-safely: a temporary file in the same
//! directory, `fsync`, an atomic rename over the final name, then a
//! directory `fsync` — a crash at any point leaves either the old
//! snapshot or the new one, never a torn mix. Loading verifies the
//! trailer first; a snapshot that is empty, truncated, bit-flipped or
//! from an incompatible version is **quarantined** (renamed to
//! `cache.jsonl.corrupt`, preserving the bytes for inspection) and the
//! daemon starts cold — corruption costs warmth, never availability and
//! never wrong results.
//!
//! Writing sorts entries by key, so two daemons holding the same cache
//! content produce byte-identical snapshots.

use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use tcms_core::CacheableResult;
use tcms_ir::canon::fnv64;
use tcms_ir::SpecHash;
use tcms_obs::json::{self, JsonValue};

use crate::cache::{CacheKey, SchedCache};

/// Snapshot format marker.
const MAGIC: &str = "tcms-serve-cache";
/// Snapshot format version; bump on incompatible change. Version 2
/// added the whole-file checksum trailer (version-1 files quarantine
/// and reload cold).
const VERSION: f64 = 2.0;

/// The snapshot path inside a cache directory.
#[must_use]
pub fn snapshot_path(cache_dir: &Path) -> PathBuf {
    cache_dir.join("cache.jsonl")
}

/// Where a corrupt snapshot is moved when the loader quarantines it.
#[must_use]
pub fn quarantine_path(cache_dir: &Path) -> PathBuf {
    cache_dir.join("cache.jsonl.corrupt")
}

/// Per-entry integrity digest over key and payload; shared by the
/// snapshot and the fleet's anti-entropy op-batches (which reuse the
/// snapshot's node-independent entry encoding on the wire).
pub(crate) fn entry_check(key: &CacheKey, value: &CacheableResult) -> u64 {
    let keyed = format!("{}|{:016x}|", key.spec, key.config);
    fnv64(keyed.as_bytes()) ^ value.integrity()
}

/// One snapshot entry as a self-checking JSON object (also the op-batch
/// element of the fleet sync protocol).
pub(crate) fn entry_line(key: &CacheKey, value: &CacheableResult) -> String {
    format!(
        "{{\"spec\":\"{}\",\"config\":\"{:016x}\",{},\"check\":\"{:016x}\"}}",
        key.spec,
        key.config,
        value.to_json_fields(),
        entry_check(key, value)
    )
}

fn trailer_line(entries: usize, body: &str) -> String {
    format!(
        "{{\"trailer\":true,\"entries\":{entries},\"check\":\"{:016x}\"}}",
        fnv64(body.as_bytes())
    )
}

/// `fsync` on a directory so a just-renamed file inside it survives a
/// power loss (a no-op on platforms without directory handles).
pub(crate) fn sync_dir(dir: &Path) -> io::Result<()> {
    #[cfg(unix)]
    {
        std::fs::File::open(dir)?.sync_all()
    }
    #[cfg(not(unix))]
    {
        let _ = dir;
        Ok(())
    }
}

/// Writes a snapshot of `entries` to `cache_dir/cache.jsonl`, creating
/// the directory if needed. Crash-safe: temp file, `fsync`, atomic
/// rename, directory `fsync`; the file ends with a checksum trailer the
/// loader verifies.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn save_snapshot(
    cache_dir: &Path,
    entries: &[(CacheKey, Arc<CacheableResult>)],
) -> io::Result<()> {
    std::fs::create_dir_all(cache_dir)?;
    let final_path = snapshot_path(cache_dir);
    let tmp_path = cache_dir.join(format!("cache.jsonl.tmp.{}", std::process::id()));
    let mut ordered: Vec<&(CacheKey, Arc<CacheableResult>)> = entries.iter().collect();
    ordered.sort_by_key(|(k, _)| (k.spec, k.config));
    let mut body = format!("{{\"magic\":\"{MAGIC}\",\"version\":{VERSION}}}\n");
    for (key, value) in &ordered {
        body.push_str(&entry_line(key, value));
        body.push('\n');
    }
    let trailer = trailer_line(ordered.len(), &body);
    {
        let mut f = std::fs::File::create(&tmp_path)?;
        f.write_all(body.as_bytes())?;
        f.write_all(trailer.as_bytes())?;
        f.write_all(b"\n")?;
        // The data must be durable *before* the rename publishes it:
        // rename-then-crash must never expose a half-written file.
        f.sync_all()?;
    }
    std::fs::rename(&tmp_path, &final_path)?;
    sync_dir(cache_dir)
}

/// What a snapshot load found.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LoadReport {
    /// Entries loaded into the cache.
    pub loaded: usize,
    /// Lines skipped: corrupt JSON, failed integrity check, wrong
    /// format version.
    pub skipped: usize,
    /// Whether the snapshot failed validation and was moved to
    /// [`quarantine_path`] — the daemon starts cold.
    pub quarantined: bool,
}

/// Parses one self-checking entry line (or op-batch element). Returns
/// `None` on malformed JSON or a failed integrity check.
pub(crate) fn parse_entry(line: &str) -> Option<(CacheKey, CacheableResult)> {
    parse_entry_value(&json::parse(line).ok()?)
}

/// [`parse_entry`] over an already-parsed JSON value (the fleet sync
/// protocol embeds entries as array elements of a larger request).
pub(crate) fn parse_entry_value(v: &JsonValue) -> Option<(CacheKey, CacheableResult)> {
    let spec = SpecHash::parse(v.get("spec")?.as_str()?).ok()?;
    let config = u64::from_str_radix(v.get("config")?.as_str()?, 16).ok()?;
    let check = u64::from_str_radix(v.get("check")?.as_str()?, 16).ok()?;
    let iterations = to_u64(v.get("iterations")?)?;
    let starts = v
        .get("starts")?
        .as_array()?
        .iter()
        .map(|s| to_u64(s).and_then(|n| u32::try_from(n).ok()))
        .collect::<Option<Vec<u32>>>()?;
    let note = match v.get("note") {
        Some(n) => Some(n.as_str()?.to_owned()),
        None => None,
    };
    let key = CacheKey { spec, config };
    let value = CacheableResult {
        starts,
        iterations,
        note,
    };
    if entry_check(&key, &value) != check {
        return None;
    }
    Some((key, value))
}

fn to_u64(v: &JsonValue) -> Option<u64> {
    let n = v.as_f64()?;
    // Exact non-negative integers only; snapshot numbers are counts.
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    if n >= 0.0 && n.fract() == 0.0 && n <= 2f64.powi(53) {
        Some(n as u64)
    } else {
        None
    }
}

/// Why a snapshot failed validation (the quarantine reasons).
fn validate_snapshot(content: &str) -> Result<(usize, &str), &'static str> {
    if content.is_empty() {
        return Err("empty file");
    }
    let Some((body, tail)) = content.rsplit_once('\n').and_then(|(rest, after)| {
        // The file must end in a newline; the trailer is the last
        // complete line.
        if after.is_empty() {
            let cut = rest.rfind('\n').map_or(0, |i| i + 1);
            Some((&content[..cut], &rest[cut..]))
        } else {
            None
        }
    }) else {
        return Err("missing trailing newline (torn write)");
    };
    let trailer = json::parse(tail).map_err(|_| "unparseable trailer line")?;
    if trailer.get("trailer") != Some(&JsonValue::Bool(true)) {
        return Err("missing checksum trailer");
    }
    let entries = trailer
        .get("entries")
        .and_then(to_u64)
        .ok_or("trailer lacks an entry count")?;
    let check = trailer
        .get("check")
        .and_then(JsonValue::as_str)
        .and_then(|s| u64::from_str_radix(s, 16).ok())
        .ok_or("trailer lacks a checksum")?;
    if fnv64(body.as_bytes()) != check {
        return Err("checksum mismatch (truncated or corrupt)");
    }
    let header = body.lines().next().ok_or("missing header line")?;
    let h = json::parse(header).map_err(|_| "unparseable header line")?;
    if h.get("magic").and_then(JsonValue::as_str) != Some(MAGIC) {
        return Err("foreign magic");
    }
    if h.get("version").and_then(JsonValue::as_f64) != Some(VERSION) {
        return Err("incompatible snapshot version");
    }
    let entries = usize::try_from(entries).map_err(|_| "entry count out of range")?;
    Ok((entries, body))
}

/// Loads `cache_dir/cache.jsonl` into `cache`. A missing snapshot file
/// is an empty load; an invalid one (empty, truncated, bit-flipped,
/// foreign, wrong version) is **quarantined** — renamed to
/// `cache.jsonl.corrupt` — and reported, and the cache starts cold.
///
/// # Errors
///
/// Propagates filesystem errors other than "not found".
pub fn load_snapshot(cache_dir: &Path, cache: &SchedCache) -> io::Result<LoadReport> {
    let path = snapshot_path(cache_dir);
    let content = match std::fs::read_to_string(&path) {
        Ok(c) => c,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(LoadReport::default()),
        Err(e) => return Err(e),
    };
    let (declared, body) = match validate_snapshot(&content) {
        Ok(v) => v,
        Err(_reason) => {
            // Quarantine, don't delete: the bytes stay inspectable, the
            // name is free for the next good snapshot, and the daemon
            // starts cold instead of erroring out.
            std::fs::rename(&path, quarantine_path(cache_dir))?;
            sync_dir(cache_dir)?;
            return Ok(LoadReport {
                loaded: 0,
                skipped: content.lines().count(),
                quarantined: true,
            });
        }
    };
    let mut report = LoadReport::default();
    for line in body.lines().skip(1) {
        if line.trim().is_empty() {
            continue;
        }
        match parse_entry(line) {
            Some((key, value)) => {
                cache.insert(key, Arc::new(value));
                report.loaded += 1;
            }
            // Unreachable once the trailer checksum matched, but kept as
            // defence in depth against checksum collisions.
            None => report.skipped += 1,
        }
    }
    if report.loaded != declared {
        report.skipped += declared.saturating_sub(report.loaded);
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_entries() -> Vec<(CacheKey, Arc<CacheableResult>)> {
        (0..4u32)
            .map(|n| {
                (
                    CacheKey {
                        spec: SpecHash::of_text(&format!("design {n}")),
                        config: u64::from(n) * 1717,
                    },
                    Arc::new(CacheableResult {
                        starts: vec![n, n + 1, n + 2],
                        iterations: u64::from(n) + 10,
                        // Exercise both shapes: entry 0 carries a
                        // provenance note, the rest are bare.
                        note: (n == 0).then(|| format!("provenance: run {n}")),
                    }),
                )
            })
            .collect()
    }

    fn tmp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("tcms_persist_{name}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn save_load_round_trip() {
        let dir = tmp_dir("roundtrip");
        let entries = sample_entries();
        save_snapshot(&dir, &entries).unwrap();
        let cache = SchedCache::new(64, 4);
        let report = load_snapshot(&dir, &cache).unwrap();
        assert_eq!(
            report,
            LoadReport {
                loaded: 4,
                skipped: 0,
                quarantined: false,
            }
        );
        for (key, value) in &entries {
            assert_eq!(cache.peek(key).unwrap(), *value);
        }
    }

    #[test]
    fn bit_flip_quarantines_and_starts_cold() {
        let dir = tmp_dir("bitflip");
        save_snapshot(&dir, &sample_entries()).unwrap();
        let path = snapshot_path(&dir);
        let mut text = std::fs::read_to_string(&path).unwrap();
        // Flip a start time inside the second entry: the entry check
        // *and* the trailer checksum no longer match.
        text = text.replacen("\"starts\":[1,2,3]", "\"starts\":[1,2,9]", 1);
        std::fs::write(&path, text).unwrap();
        let cache = SchedCache::new(64, 4);
        let report = load_snapshot(&dir, &cache).unwrap();
        assert!(report.quarantined);
        assert_eq!(report.loaded, 0, "corruption means a cold start");
        assert!(cache.is_empty());
        assert!(!path.exists(), "bad snapshot moved out of the way");
        assert!(quarantine_path(&dir).exists(), "bytes kept for inspection");
        // The next save + load works again.
        save_snapshot(&dir, &sample_entries()).unwrap();
        assert_eq!(load_snapshot(&dir, &cache).unwrap().loaded, 4);
    }

    #[test]
    fn truncation_and_empty_files_quarantine() {
        for (tag, mutilate) in [("trunc", Some(())), ("empty", None)] {
            let dir = tmp_dir(&format!("t_{tag}"));
            save_snapshot(&dir, &sample_entries()).unwrap();
            let path = snapshot_path(&dir);
            if mutilate.is_some() {
                let text = std::fs::read_to_string(&path).unwrap();
                std::fs::write(&path, &text[..text.len() / 2]).unwrap();
            } else {
                std::fs::write(&path, "").unwrap();
            }
            let cache = SchedCache::new(64, 4);
            let report = load_snapshot(&dir, &cache).unwrap();
            assert!(report.quarantined, "{tag}");
            assert_eq!(report.loaded, 0, "{tag}");
            assert!(cache.is_empty(), "{tag}");
            assert!(quarantine_path(&dir).exists(), "{tag}");
        }
    }

    #[test]
    fn foreign_or_missing_snapshot() {
        let dir = tmp_dir("foreign");
        let cache = SchedCache::new(8, 1);
        assert_eq!(
            load_snapshot(&dir, &cache).unwrap(),
            LoadReport::default(),
            "missing file"
        );
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(snapshot_path(&dir), "{\"magic\":\"other\"}\n").unwrap();
        let report = load_snapshot(&dir, &cache).unwrap();
        assert!(report.quarantined, "foreign file is moved aside");
        assert_eq!(report.loaded, 0);
        assert!(cache.is_empty());
    }

    #[test]
    fn version_one_snapshots_reload_cold() {
        // A pre-trailer (version 1) snapshot has no trailer line: it
        // must quarantine, not error and not half-load.
        let dir = tmp_dir("v1");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(
            snapshot_path(&dir),
            "{\"magic\":\"tcms-serve-cache\",\"version\":1,\"entries\":0}\n",
        )
        .unwrap();
        let cache = SchedCache::new(8, 1);
        let report = load_snapshot(&dir, &cache).unwrap();
        assert!(report.quarantined);
        assert_eq!(report.loaded, 0);
    }

    #[test]
    fn snapshots_are_deterministic() {
        let dir_a = tmp_dir("det_a");
        let dir_b = tmp_dir("det_b");
        let entries = sample_entries();
        let mut reversed = entries.clone();
        reversed.reverse();
        // save_snapshot sorts internally: any input order produces the
        // same bytes.
        save_snapshot(&dir_a, &entries).unwrap();
        save_snapshot(&dir_b, &reversed).unwrap();
        assert_eq!(
            std::fs::read_to_string(snapshot_path(&dir_a)).unwrap(),
            std::fs::read_to_string(snapshot_path(&dir_b)).unwrap()
        );
    }
}
