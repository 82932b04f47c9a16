//! Snapshot anti-entropy: digest exchange and self-checking op-batches.
//!
//! Two nodes compare caches without shipping them: each summarises its
//! entries into [`SYNC_SHARDS`] fixed digests (entry count + fnv64
//! checksum over the sorted keys and their per-entry integrity digests)
//! and only shards whose digests differ are transferred, as op-batches
//! of self-checking entries in the snapshot's node-independent JSONL
//! encoding ([`crate::persist`]).
//!
//! The shard space is a property of the *protocol*, not of any node:
//! a key's sync shard is derived from its content address alone, so two
//! daemons configured with different local cache shard counts still
//! compute comparable digests.
//!
//! Convergence argument: values are bit-identical by construction (the
//! cache is content-addressed and the scheduler deterministic), so the
//! only merge operation needed is *set union*, implemented as
//! insert-if-absent. Union is idempotent and commutative, which makes
//! every sync action safe to repeat, reorder, or crash out of halfway:
//! a pull round can only add entries the peer has, and two nodes that
//! alternate pull rounds converge from arbitrary disjoint states in at
//! most two rounds (after round one, A ⊇ A∪B; after round two, B ⊇
//! A∪B; equal digests stop further transfers).

use std::collections::BTreeMap;
use std::sync::Arc;

use tcms_core::CacheableResult;
use tcms_ir::canon::fnv64;
use tcms_obs::json::{self, JsonValue};

use crate::cache::{CacheKey, SchedCache};
use crate::persist;

/// Number of protocol-level digest shards. Fixed: digests are only
/// comparable because every node in every configuration buckets keys
/// identically.
pub const SYNC_SHARDS: usize = 16;

/// The sync shard of a content address. Depends only on the key (and a
/// salt distinct from the ring's, so shard and placement don't alias).
#[must_use]
pub fn sync_shard(key: &CacheKey) -> usize {
    let h = fnv64(format!("shard|{}|{:016x}", key.spec, key.config).as_bytes());
    usize::try_from(h % SYNC_SHARDS as u64).expect("shard fits usize")
}

/// Digest of one sync shard: how many entries, and a checksum over the
/// sorted keys plus their per-entry integrity digests. Equal digests ⇒
/// same entry set with overwhelming probability; the op-batch entries
/// are self-checking, so even a digest collision cannot replicate a
/// corrupt value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ShardDigest {
    /// Entries currently cached in this shard.
    pub count: u64,
    /// fnv64 over `"{spec}|{config}|{entry_check}\n"` in key order.
    pub check: u64,
}

/// Computes all [`SYNC_SHARDS`] digests of a cache.
#[must_use]
pub fn digests(cache: &SchedCache) -> Vec<ShardDigest> {
    let mut texts = vec![String::new(); SYNC_SHARDS];
    let mut counts = [0u64; SYNC_SHARDS];
    // entries() is sorted by key, so per-shard accumulation order is
    // deterministic and node-independent.
    for (key, value) in cache.entries() {
        let s = sync_shard(&key);
        texts[s].push_str(&format!(
            "{}|{:016x}|{:016x}\n",
            key.spec,
            key.config,
            persist::entry_check(&key, &value)
        ));
        counts[s] += 1;
    }
    (0..SYNC_SHARDS)
        .map(|s| ShardDigest {
            count: counts[s],
            check: fnv64(texts[s].as_bytes()),
        })
        .collect()
}

/// The shard indices where two digest vectors disagree.
#[must_use]
pub fn diverging_shards(mine: &[ShardDigest], theirs: &[ShardDigest]) -> Vec<usize> {
    (0..SYNC_SHARDS.min(mine.len()).min(theirs.len()))
        .filter(|&s| mine[s] != theirs[s])
        .collect()
}

/// All cached entries of one sync shard, in key order.
#[must_use]
pub fn shard_entries(cache: &SchedCache, shard: usize) -> Vec<(CacheKey, Arc<CacheableResult>)> {
    cache
        .entries()
        .into_iter()
        .filter(|(key, _)| sync_shard(key) == shard)
        .collect()
}

/// Applies an op-batch: insert-if-absent for every entry (idempotent
/// and commutative — see the module docs). Returns how many entries
/// were actually new.
#[must_use]
pub fn apply_entries(cache: &SchedCache, entries: Vec<(CacheKey, CacheableResult)>) -> usize {
    entries
        .into_iter()
        .filter(|(key, value)| cache.insert_if_absent(*key, Arc::new(value.clone())))
        .count()
}

/// What one anti-entropy round against one peer did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SyncOutcome {
    /// Shards whose digests diverged and were pulled.
    pub shards_pulled: usize,
    /// Entries the pulls actually added locally.
    pub applied: usize,
}

/// One pull-based anti-entropy round: compare local digests against a
/// peer's, pull every diverging shard through `pull`, and apply what
/// comes back. Transport-agnostic so the same round drives the TCP sync
/// loop and the in-memory property tests.
///
/// # Errors
///
/// Propagates the first `pull` transport error; entries applied before
/// the failure stay applied (applying is idempotent, so the retry that
/// follows a failure is safe).
pub fn pull_round<E>(
    local: &SchedCache,
    remote_digests: &[ShardDigest],
    mut pull: impl FnMut(usize) -> Result<Vec<(CacheKey, CacheableResult)>, E>,
) -> Result<SyncOutcome, E> {
    let mine = digests(local);
    let mut outcome = SyncOutcome::default();
    for s in diverging_shards(&mine, remote_digests) {
        let entries = pull(s)?;
        outcome.shards_pulled += 1;
        outcome.applied += apply_entries(local, entries);
    }
    Ok(outcome)
}

// ---------------------------------------------------------------------
// Wire encoding: request lines a syncing node sends, response bodies a
// node answers with, and the parsers for both directions.
// ---------------------------------------------------------------------

fn id_field(id: &str) -> String {
    let mut out = String::new();
    tcms_obs::json::write_escaped(&mut out, id);
    format!("\"id\":{out}")
}

/// The `sync_digest` request line (without trailing newline).
#[must_use]
pub fn digest_request_line(id: &str) -> String {
    format!("{{{},\"action\":\"sync_digest\"}}", id_field(id))
}

/// The `sync_pull` request line for one whole shard.
#[must_use]
pub fn pull_shard_request_line(id: &str, shard: usize) -> String {
    format!(
        "{{{},\"action\":\"sync_pull\",\"shard\":{shard}}}",
        id_field(id)
    )
}

/// The `sync_push` request line carrying an op-batch of entries.
#[must_use]
pub fn push_request_line(id: &str, entries: &[(CacheKey, Arc<CacheableResult>)]) -> String {
    let items: Vec<String> = entries
        .iter()
        .map(|(key, value)| persist::entry_line(key, value))
        .collect();
    format!(
        "{{{},\"action\":\"sync_push\",\"entries\":[{}]}}",
        id_field(id),
        items.join(",")
    )
}

/// The success body answering `sync_digest`.
#[must_use]
pub fn digest_body(digests: &[ShardDigest]) -> BTreeMap<String, JsonValue> {
    let shards: Vec<JsonValue> = digests
        .iter()
        .map(|d| {
            let mut m = BTreeMap::new();
            #[allow(clippy::cast_precision_loss)]
            m.insert("count".into(), JsonValue::Number(d.count as f64));
            m.insert(
                "check".into(),
                JsonValue::String(format!("{:016x}", d.check)),
            );
            JsonValue::Object(m)
        })
        .collect();
    let total: u64 = digests.iter().map(|d| d.count).sum();
    let mut map = BTreeMap::new();
    map.insert("shards".into(), JsonValue::Array(shards));
    #[allow(clippy::cast_precision_loss)]
    map.insert("entries".into(), JsonValue::Number(total as f64));
    map
}

/// The success body answering `sync_pull`.
#[must_use]
pub fn entries_body(entries: &[(CacheKey, Arc<CacheableResult>)]) -> BTreeMap<String, JsonValue> {
    let items: Vec<JsonValue> = entries
        .iter()
        .map(|(key, value)| {
            json::parse(&persist::entry_line(key, value)).expect("entry lines are valid JSON")
        })
        .collect();
    let mut map = BTreeMap::new();
    #[allow(clippy::cast_precision_loss)]
    map.insert("count".into(), JsonValue::Number(items.len() as f64));
    map.insert("entries".into(), JsonValue::Array(items));
    map
}

/// Parses a `sync_digest` response body back into digests. `None` when
/// the body is not a digest response.
#[must_use]
pub fn parse_digests(body: &JsonValue) -> Option<Vec<ShardDigest>> {
    let shards = body.get("shards")?.as_array()?;
    if shards.len() != SYNC_SHARDS {
        return None;
    }
    shards
        .iter()
        .map(|s| {
            let count = s.get("count")?.as_f64()?;
            #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
            let count = if count >= 0.0 && count.fract() == 0.0 {
                count as u64
            } else {
                return None;
            };
            let check = u64::from_str_radix(s.get("check")?.as_str()?, 16).ok()?;
            Some(ShardDigest { count, check })
        })
        .collect()
}

/// Parses a `sync_pull` response body into `(entries, rejected)`:
/// entries are re-verified against their own integrity digest, so a
/// value corrupted in flight is dropped here, not cached. `None` when
/// the body is not an entries response.
#[must_use]
pub fn parse_entries(body: &JsonValue) -> Option<(Vec<(CacheKey, CacheableResult)>, usize)> {
    let items = body.get("entries")?.as_array()?;
    let mut entries = Vec::with_capacity(items.len());
    let mut rejected = 0usize;
    for item in items {
        match persist::parse_entry_value(item) {
            Some(entry) => entries.push(entry),
            None => rejected += 1,
        }
    }
    Some((entries, rejected))
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcms_ir::SpecHash;

    fn entry(n: u64) -> (CacheKey, CacheableResult) {
        (
            CacheKey {
                spec: SpecHash::of_text(&format!("design {n}")),
                config: n.wrapping_mul(0x2545_f491),
            },
            CacheableResult {
                starts: vec![u32::try_from(n % 97).unwrap(), 3, 7],
                iterations: n + 1,
                note: n.is_multiple_of(3).then(|| format!("note {n}")),
            },
        )
    }

    fn filled(range: std::ops::Range<u64>) -> SchedCache {
        let cache = SchedCache::new(4096, 4);
        for n in range {
            let (k, v) = entry(n);
            cache.insert(k, Arc::new(v));
        }
        cache
    }

    #[test]
    fn sync_shards_are_key_derived_and_stable() {
        for n in 0..100 {
            let (k, _) = entry(n);
            let s = sync_shard(&k);
            assert!(s < SYNC_SHARDS);
            assert_eq!(s, sync_shard(&k), "same key, same shard, always");
        }
    }

    #[test]
    fn digests_ignore_local_shard_layout() {
        // Two caches with different *local* shard counts but the same
        // content must produce identical sync digests.
        let a = SchedCache::new(4096, 1);
        let b = SchedCache::new(4096, 8);
        for n in 0..60 {
            let (k, v) = entry(n);
            a.insert(k, Arc::new(v.clone()));
            b.insert(k, Arc::new(v));
        }
        assert_eq!(digests(&a), digests(&b));
        assert!(diverging_shards(&digests(&a), &digests(&b)).is_empty());
    }

    #[test]
    fn digests_detect_any_single_divergence() {
        let a = filled(0..40);
        let b = filled(0..40);
        assert!(diverging_shards(&digests(&a), &digests(&b)).is_empty());
        let (k, v) = entry(999);
        b.insert(k, Arc::new(v));
        let diverging = diverging_shards(&digests(&a), &digests(&b));
        assert_eq!(diverging, vec![sync_shard(&k)]);
    }

    #[test]
    fn two_pull_rounds_converge_disjoint_caches() {
        let a = filled(0..25);
        let b = filled(25..50);
        // Round 1: A pulls B's divergent shards.
        let out = pull_round(&a, &digests(&b), |s| {
            Ok::<_, ()>(
                shard_entries(&b, s)
                    .into_iter()
                    .map(|(k, v)| (k, (*v).clone()))
                    .collect(),
            )
        })
        .unwrap();
        assert_eq!(out.applied, 25, "A gained exactly B's entries");
        assert_eq!(a.len(), 50);
        // Round 2: B pulls from A.
        let out = pull_round(&b, &digests(&a), |s| {
            Ok::<_, ()>(
                shard_entries(&a, s)
                    .into_iter()
                    .map(|(k, v)| (k, (*v).clone()))
                    .collect(),
            )
        })
        .unwrap();
        assert_eq!(out.applied, 25, "B gained exactly A's entries");
        assert_eq!(digests(&a), digests(&b), "converged");
        // Round 3 is a no-op: digests agree, nothing transfers.
        let out = pull_round(&a, &digests(&b), |_| {
            panic!("no shard should be pulled once digests agree");
            #[allow(unreachable_code)]
            Ok::<Vec<(CacheKey, CacheableResult)>, ()>(Vec::new())
        })
        .unwrap();
        assert_eq!(out, SyncOutcome::default());
    }

    #[test]
    fn apply_is_idempotent() {
        let cache = filled(0..10);
        let batch: Vec<_> = (5..15).map(entry).collect();
        assert_eq!(apply_entries(&cache, batch.clone()), 5);
        assert_eq!(apply_entries(&cache, batch), 0, "second apply adds nothing");
        assert_eq!(cache.len(), 15);
    }

    #[test]
    fn wire_round_trips_preserve_entries_and_digests() {
        let cache = filled(0..30);
        // Digest body → parse.
        let d = digests(&cache);
        let body = JsonValue::Object(digest_body(&d));
        assert_eq!(parse_digests(&body).unwrap(), d);
        // Entries body → parse (integrity re-verified).
        let shard0 = shard_entries(&cache, 0);
        let body = JsonValue::Object(entries_body(&shard0));
        let (parsed, rejected) = parse_entries(&body).unwrap();
        assert_eq!(rejected, 0);
        assert_eq!(parsed.len(), shard0.len());
        for ((pk, pv), (k, v)) in parsed.iter().zip(&shard0) {
            assert_eq!(pk, k);
            assert_eq!(pv, &**v);
        }
        // Push request line → daemon-side parse (via protocol).
        let line = push_request_line("sync-1", &shard0);
        let req = crate::protocol::parse_request(&line).unwrap();
        match req.action {
            crate::protocol::Action::SyncPush { entries, rejected } => {
                assert_eq!(rejected, 0);
                assert_eq!(entries.len(), shard0.len());
            }
            other => panic!("unexpected action {other:?}"),
        }
    }

    #[test]
    fn corrupted_wire_entries_are_rejected_not_applied() {
        let cache = filled(0..5);
        let line = push_request_line("sync-2", &shard_entries(&cache, sync_shard(&entry(0).0)));
        let tampered = line.replacen("\"iterations\":1", "\"iterations\":9", 1);
        if tampered != line {
            let req = crate::protocol::parse_request(&tampered).unwrap();
            match req.action {
                crate::protocol::Action::SyncPush { rejected, .. } => {
                    assert!(rejected > 0, "tampered entry must fail its check");
                }
                other => panic!("unexpected action {other:?}"),
            }
        }
    }

    #[test]
    fn request_lines_parse_as_protocol_actions() {
        use crate::protocol::{parse_request, Action};
        assert_eq!(
            parse_request(&digest_request_line("d1")).unwrap().action,
            Action::SyncDigest
        );
        match parse_request(&pull_shard_request_line("p1", 7))
            .unwrap()
            .action
        {
            Action::SyncPull { shard } => assert_eq!(shard, 7),
            other => panic!("unexpected action {other:?}"),
        }
    }
}
