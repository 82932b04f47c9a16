//! Sharded in-memory LRU cache with single-flight deduplication.
//!
//! Entries are finished schedules ([`CacheableResult`]) keyed by
//! `(canonical spec hash, config fingerprint)` — see
//! [`tcms_core::fingerprint`]. The map is split into shards (each behind
//! its own mutex) so concurrent workers rarely contend, and an
//! **in-flight registry** coalesces identical concurrent misses: the
//! first requester becomes the *leader* and runs the scheduler, every
//! concurrent identical request blocks on the same flight and receives
//! the leader's result — one IFDS run total. Failed computations are
//! propagated to all waiters but never cached, so a later request
//! retries (relevant for deadline-dependent failures).
//!
//! Beside each entry the cache keeps at most one **rendering**: the
//! exact request bytes of the last request that filled or hit it and
//! the report rendered for them. The **answer index** maps those bytes
//! back to the entry's key, so [`SchedCache::answer`] serves a repeated
//! request without parsing or canonicalizing it. A rendering lives and
//! dies with its entry (eviction, overwrite), is never persisted or
//! synced, and never changes recency — the LRU order is exactly the
//! one the full lookup path produces.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

use tcms_core::CacheableResult;
use tcms_ir::SpecHash;

use crate::error::ServeError;

/// Content-addressed cache key: what design, under what configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// Canonical hash of the design ([`tcms_ir::canon`]).
    pub spec: SpecHash,
    /// Fingerprint of the sharing spec and force-model configuration
    /// ([`tcms_core::fingerprint::config_fingerprint`]).
    pub config: u64,
}

/// How a request's result was obtained.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Disposition {
    /// Found in the cache; zero scheduler work.
    Hit,
    /// Computed by this request (the single-flight leader) and inserted.
    Miss,
    /// Coalesced onto a concurrent identical request's run.
    Coalesced,
}

impl Disposition {
    /// The wire rendering used in responses and metrics.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Disposition::Hit => "hit",
            Disposition::Miss => "miss",
            Disposition::Coalesced => "coalesced",
        }
    }
}

/// Monotonic counters of cache behaviour, readable without locking the
/// shards (used by the `stats` request and the load generator).
#[derive(Debug, Default)]
pub struct CacheStats {
    /// Lookups answered from memory.
    pub hits: AtomicU64,
    /// Lookups that scheduled fresh work.
    pub misses: AtomicU64,
    /// Lookups coalesced onto an in-flight identical job.
    pub coalesced: AtomicU64,
    /// Entries evicted by the LRU policy.
    pub evictions: AtomicU64,
    /// Entries inserted (misses that completed plus snapshot loads).
    pub insertions: AtomicU64,
    /// Hits answered from the answer index (also counted in `hits`).
    pub indexed: AtomicU64,
}

/// A point-in-time view of a single cache shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ShardStats {
    /// Entries currently resident in this shard.
    pub occupancy: usize,
    /// Maximum entries this shard holds before evicting.
    pub capacity: usize,
    /// Entries this shard has evicted since startup.
    pub evictions: u64,
}

/// A point-in-time copy of [`CacheStats`] plus per-shard occupancy.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CacheStatsSnapshot {
    /// Lookups answered from memory.
    pub hits: u64,
    /// Lookups that scheduled fresh work.
    pub misses: u64,
    /// Lookups coalesced onto an in-flight identical job.
    pub coalesced: u64,
    /// Entries evicted by the LRU policy (sum over shards).
    pub evictions: u64,
    /// Entries inserted.
    pub insertions: u64,
    /// Hits answered from the answer index (a subset of `hits`).
    pub indexed: u64,
    /// Per-shard occupancy/capacity/evictions, in shard order. Skewed
    /// occupancy here is the signal the ROADMAP's cache tuner feeds on.
    pub shards: Vec<ShardStats>,
}

impl CacheStatsSnapshot {
    /// Hit rate over all completed lookups, in `[0, 1]`; hits and
    /// coalesced lookups both count as avoided scheduler runs.
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses + self.coalesced;
        if total == 0 {
            return 0.0;
        }
        #[allow(clippy::cast_precision_loss)]
        {
            (self.hits + self.coalesced) as f64 / total as f64
        }
    }
}

/// The report rendered for one exact request on one entry.
struct Rendering {
    request: Arc<str>,
    output: Arc<str>,
}

struct Entry {
    value: Arc<CacheableResult>,
    last_used: u64,
    rendering: Option<Rendering>,
}

impl Entry {
    fn answers(&self, request: &str) -> bool {
        self.rendering
            .as_ref()
            .is_some_and(|r| &*r.request == request)
    }
}

#[derive(Default)]
struct Shard {
    map: HashMap<CacheKey, Entry>,
    tick: u64,
    evictions: u64,
}

enum FlightState {
    Running,
    Done(Result<Arc<CacheableResult>, ServeError>),
}

struct Flight {
    state: Mutex<FlightState>,
    cv: Condvar,
}

/// Unwind protection for the single-flight leader: resolves the flight
/// (normally via [`FlightGuard::resolve`], or with a typed
/// [`ServeError::Internal`] from `Drop` when the compute closure
/// panics) and removes the in-flight registry entry, exactly once.
struct FlightGuard<'a> {
    cache: &'a SchedCache,
    key: CacheKey,
    flight: &'a Arc<Flight>,
    armed: bool,
}

impl FlightGuard<'_> {
    /// Publishes `result` to every waiter and clears the in-flight
    /// entry; disarms the drop path.
    fn resolve(mut self, result: Result<Arc<CacheableResult>, ServeError>) {
        self.armed = false;
        self.publish(result);
    }

    fn publish(&self, result: Result<Arc<CacheableResult>, ServeError>) {
        {
            let mut inflight = self
                .cache
                .inflight
                .lock()
                .unwrap_or_else(|e| e.into_inner());
            inflight.remove(&self.key);
        }
        let mut state = self.flight.state.lock().unwrap_or_else(|e| e.into_inner());
        *state = FlightState::Done(result);
        self.flight.cv.notify_all();
    }
}

impl Drop for FlightGuard<'_> {
    fn drop(&mut self) {
        if self.armed {
            self.publish(Err(ServeError::Internal(
                "scheduler panicked while computing this entry".into(),
            )));
        }
    }
}

/// The sharded LRU schedule cache with single-flight deduplication.
pub struct SchedCache {
    shards: Vec<Mutex<Shard>>,
    per_shard_cap: usize,
    inflight: Mutex<HashMap<CacheKey, Arc<Flight>>>,
    /// The answer index: request bytes → the key of the entry whose
    /// rendering is for exactly those bytes. Locked only after (never
    /// while waiting for) a shard lock, so the two cannot deadlock.
    answers: Mutex<HashMap<Arc<str>, CacheKey>>,
    stats: CacheStats,
}

impl std::fmt::Debug for SchedCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SchedCache")
            .field("shards", &self.shards.len())
            .field("per_shard_cap", &self.per_shard_cap)
            .field("len", &self.len())
            .finish()
    }
}

impl SchedCache {
    /// A cache holding at most `capacity` entries, split over `shards`
    /// independently locked shards (both rounded up to at least 1).
    #[must_use]
    pub fn new(capacity: usize, shards: usize) -> Self {
        let shards = shards.max(1);
        let per_shard_cap = capacity.div_ceil(shards).max(1);
        SchedCache {
            shards: (0..shards).map(|_| Mutex::new(Shard::default())).collect(),
            per_shard_cap,
            inflight: Mutex::new(HashMap::new()),
            answers: Mutex::new(HashMap::new()),
            stats: CacheStats::default(),
        }
    }

    fn lock_answers(&self) -> std::sync::MutexGuard<'_, HashMap<Arc<str>, CacheKey>> {
        self.answers.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Drops a removed entry's rendering from the answer index. Called
    /// with the entry's shard still locked.
    fn forget(&self, removed: Option<Entry>) {
        if let Some(Rendering { request, .. }) = removed.and_then(|e| e.rendering) {
            self.lock_answers().remove(&request);
        }
    }

    fn shard(&self, key: &CacheKey) -> &Mutex<Shard> {
        // The canonical hash is already uniform; fold in the config
        // fingerprint so spec-heavy sweeps still spread across shards.
        let h = key.spec.hi() ^ key.spec.lo().rotate_left(17) ^ key.config;
        &self.shards[(h as usize) % self.shards.len()]
    }

    /// Looks `key` up, refreshing its LRU position. Does not touch the
    /// hit/miss counters — [`SchedCache::get_or_compute`] owns those.
    #[must_use]
    pub fn peek(&self, key: &CacheKey) -> Option<Arc<CacheableResult>> {
        let mut shard = self.shard(key).lock().unwrap_or_else(|e| e.into_inner());
        shard.tick += 1;
        let tick = shard.tick;
        shard.map.get_mut(key).map(|e| {
            e.last_used = tick;
            Arc::clone(&e.value)
        })
    }

    /// Inserts `value` under `key`, evicting the least-recently-used
    /// entry of the target shard when it is full.
    pub fn insert(&self, key: CacheKey, value: Arc<CacheableResult>) {
        let mut shard = self.shard(&key).lock().unwrap_or_else(|e| e.into_inner());
        shard.tick += 1;
        let tick = shard.tick;
        if shard.map.len() >= self.per_shard_cap && !shard.map.contains_key(&key) {
            if let Some(oldest) = shard
                .map
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| *k)
            {
                let evicted = shard.map.remove(&oldest);
                self.forget(evicted);
                shard.evictions += 1;
                self.stats.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        // An overwritten entry's rendering was made from the old value,
        // so it goes with it; the new entry starts with none.
        let replaced = shard.map.insert(
            key,
            Entry {
                value,
                last_used: tick,
                rendering: None,
            },
        );
        self.forget(replaced);
        self.stats.insertions.fetch_add(1, Ordering::Relaxed);
    }

    /// Answers `request` — the exact bytes a rendering was kept for by
    /// [`SchedCache::remember`] — from the answer index. Returns the
    /// entry's key and the kept report only while the entry is still
    /// cached and its rendering is for byte-equal request bytes; the
    /// index's hash only locates the slot. A returned answer counts as
    /// a hit and refreshes recency exactly as [`SchedCache::peek`] does,
    /// so it is indistinguishable from a hit through
    /// [`SchedCache::get_or_compute`] apart from the `indexed` counter.
    #[must_use]
    pub fn answer(&self, request: &str) -> Option<(CacheKey, Arc<str>)> {
        let key = *self.lock_answers().get(request)?;
        let mut guard = self.shard(&key).lock().unwrap_or_else(|e| e.into_inner());
        let shard = &mut *guard;
        let entry = shard.map.get_mut(&key).filter(|e| e.answers(request))?;
        let output = Arc::clone(&entry.rendering.as_ref()?.output);
        shard.tick += 1;
        entry.last_used = shard.tick;
        self.stats.hits.fetch_add(1, Ordering::Relaxed);
        self.stats.indexed.fetch_add(1, Ordering::Relaxed);
        Some((key, output))
    }

    /// The key `request` was last answered under, read from the answer
    /// index without touching recency or counters — fleet routing's
    /// shortcut past parsing. `None` when no cached entry holds a
    /// rendering for these bytes.
    #[must_use]
    pub fn answered_key(&self, request: &str) -> Option<CacheKey> {
        self.lock_answers().get(request).copied()
    }

    /// Keeps `output` as the rendering of `key`'s entry for the exact
    /// bytes `request`, replacing (and unindexing) the rendering of any
    /// other request — a declaration-order twin — on the same entry.
    /// A no-op when the entry is no longer cached. Never touches
    /// recency, so eviction order is unchanged.
    pub fn remember(&self, key: CacheKey, request: &str, output: Arc<str>) {
        let mut shard = self.shard(&key).lock().unwrap_or_else(|e| e.into_inner());
        let Some(entry) = shard.map.get_mut(&key) else {
            return;
        };
        if entry.answers(request) {
            return;
        }
        let request: Arc<str> = Arc::from(request);
        let previous = entry.rendering.replace(Rendering {
            request: Arc::clone(&request),
            output,
        });
        let mut answers = self.lock_answers();
        if let Some(previous) = previous {
            answers.remove(&previous.request);
        }
        answers.insert(request, key);
    }

    /// Inserts `value` only when `key` is absent, returning whether an
    /// insert happened. This is the anti-entropy apply primitive:
    /// values are bit-identical by construction (content addressing),
    /// so first-writer-stays equals last-writer-wins, re-applying a
    /// batch is a no-op, and apply order across nodes cannot matter.
    pub fn insert_if_absent(&self, key: CacheKey, value: Arc<CacheableResult>) -> bool {
        {
            let shard = self.shard(&key).lock().unwrap_or_else(|e| e.into_inner());
            if shard.map.contains_key(&key) {
                return false;
            }
        }
        self.insert(key, value);
        true
    }

    /// The single-flight lookup: returns the cached value, or runs
    /// `compute` exactly once per key across all concurrent callers.
    ///
    /// The leader's successful result is inserted before the flight is
    /// resolved, so a request arriving after resolution hits the cache.
    /// Errors are fanned out to every waiter and **not** cached.
    ///
    /// # Panics
    ///
    /// A panic inside `compute` propagates to the leader's caller, but
    /// only after the flight has been resolved with
    /// [`ServeError::Internal`] and the in-flight entry cleared — waiters
    /// receive the typed error and the key is immediately reusable.
    ///
    /// # Errors
    ///
    /// Propagates `compute`'s error (to the leader and every coalesced
    /// waiter alike).
    pub fn get_or_compute<F>(
        &self,
        key: CacheKey,
        compute: F,
    ) -> (Result<Arc<CacheableResult>, ServeError>, Disposition)
    where
        F: FnOnce() -> Result<CacheableResult, ServeError>,
    {
        if let Some(v) = self.peek(&key) {
            self.stats.hits.fetch_add(1, Ordering::Relaxed);
            return (Ok(v), Disposition::Hit);
        }
        // Miss: join or create the flight for this key.
        let (flight, leader) = {
            let mut inflight = self.inflight.lock().unwrap_or_else(|e| e.into_inner());
            match inflight.get(&key) {
                Some(f) => (Arc::clone(f), false),
                None => {
                    let f = Arc::new(Flight {
                        state: Mutex::new(FlightState::Running),
                        cv: Condvar::new(),
                    });
                    inflight.insert(key, Arc::clone(&f));
                    (f, true)
                }
            }
        };
        if leader {
            // If `compute` panics, the guard resolves the flight with a
            // typed error and clears the in-flight entry *during unwind*,
            // so coalesced waiters are released (with `Internal`) and a
            // later identical request starts a fresh flight — a panicking
            // job can never wedge the single-flight slot. The panic
            // itself keeps unwinding to the worker's `catch_unwind`.
            let guard = FlightGuard {
                cache: self,
                key,
                flight: &flight,
                armed: true,
            };
            let result = compute().map(Arc::new);
            if let Ok(v) = &result {
                self.insert(key, Arc::clone(v));
            }
            guard.resolve(result.clone());
            self.stats.misses.fetch_add(1, Ordering::Relaxed);
            (result, Disposition::Miss)
        } else {
            let mut state = flight.state.lock().unwrap_or_else(|e| e.into_inner());
            while matches!(*state, FlightState::Running) {
                state = flight
                    .cv
                    .wait(state)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
            }
            let result = match &*state {
                FlightState::Done(r) => r.clone(),
                FlightState::Running => unreachable!("loop exits only when done"),
            };
            drop(state);
            self.stats.coalesced.fetch_add(1, Ordering::Relaxed);
            (result, Disposition::Coalesced)
        }
    }

    /// Number of cached entries across all shards.
    #[must_use]
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().unwrap_or_else(|e| e.into_inner()).map.len())
            .sum()
    }

    /// `true` when no entry is cached.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// All entries, for snapshot persistence. Ordered by key so
    /// snapshots of equal caches are byte-identical.
    #[must_use]
    pub fn entries(&self) -> Vec<(CacheKey, Arc<CacheableResult>)> {
        let mut out = Vec::new();
        for shard in &self.shards {
            let shard = shard.lock().unwrap_or_else(|e| e.into_inner());
            out.extend(shard.map.iter().map(|(k, e)| (*k, Arc::clone(&e.value))));
        }
        out.sort_by_key(|(k, _)| (k.spec, k.config));
        out
    }

    /// A point-in-time copy of the behaviour counters plus per-shard
    /// occupancy (locks each shard briefly, one at a time).
    #[must_use]
    pub fn stats(&self) -> CacheStatsSnapshot {
        let shards = self
            .shards
            .iter()
            .map(|s| {
                let shard = s.lock().unwrap_or_else(|e| e.into_inner());
                ShardStats {
                    occupancy: shard.map.len(),
                    capacity: self.per_shard_cap,
                    evictions: shard.evictions,
                }
            })
            .collect();
        CacheStatsSnapshot {
            hits: self.stats.hits.load(Ordering::Relaxed),
            misses: self.stats.misses.load(Ordering::Relaxed),
            coalesced: self.stats.coalesced.load(Ordering::Relaxed),
            evictions: self.stats.evictions.load(Ordering::Relaxed),
            insertions: self.stats.insertions.load(Ordering::Relaxed),
            indexed: self.stats.indexed.load(Ordering::Relaxed),
            shards,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    fn key(n: u64) -> CacheKey {
        CacheKey {
            spec: SpecHash::of_text(&n.to_string()),
            config: n,
        }
    }

    fn result(n: u32) -> CacheableResult {
        CacheableResult {
            starts: vec![n],
            iterations: u64::from(n),
            note: None,
        }
    }

    #[test]
    fn hit_after_miss() {
        let cache = SchedCache::new(8, 2);
        let (v, d) = cache.get_or_compute(key(1), || Ok(result(7)));
        assert_eq!(d, Disposition::Miss);
        assert_eq!(v.unwrap().iterations, 7);
        let (v, d) = cache.get_or_compute(key(1), || panic!("must not recompute"));
        assert_eq!(d, Disposition::Hit);
        assert_eq!(v.unwrap().iterations, 7);
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.coalesced), (1, 1, 0));
        assert!((s.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn errors_are_not_cached() {
        let cache = SchedCache::new(8, 2);
        let (v, d) = cache.get_or_compute(key(1), || Err(ServeError::Verify("boom".into())));
        assert_eq!(d, Disposition::Miss);
        assert!(v.is_err());
        assert!(cache.is_empty());
        let (v, d) = cache.get_or_compute(key(1), || Ok(result(3)));
        assert_eq!(d, Disposition::Miss, "failed run must be retried");
        assert!(v.is_ok());
    }

    #[test]
    fn lru_evicts_oldest_within_shard() {
        let cache = SchedCache::new(2, 1);
        cache.insert(key(1), Arc::new(result(1)));
        cache.insert(key(2), Arc::new(result(2)));
        let _ = cache.peek(&key(1)); // refresh 1 → 2 is now the LRU entry
        cache.insert(key(3), Arc::new(result(3)));
        assert!(cache.peek(&key(1)).is_some());
        assert!(cache.peek(&key(2)).is_none(), "LRU entry evicted");
        assert!(cache.peek(&key(3)).is_some());
        assert_eq!(cache.stats().evictions, 1);
    }

    fn output(text: &str) -> Arc<str> {
        Arc::from(text)
    }

    #[test]
    fn answer_needs_byte_equal_request_and_a_cached_entry() {
        let cache = SchedCache::new(8, 2);
        assert_eq!(cache.answer("req"), None, "nothing indexed yet");
        cache.remember(key(1), "req", output("out"));
        assert_eq!(cache.answer("req"), None, "no entry, nothing kept");
        assert_eq!(cache.answered_key("req"), None);
        cache.insert(key(1), Arc::new(result(1)));
        cache.remember(key(1), "req", output("out"));
        let (k, text) = cache.answer("req").expect("indexed answer");
        assert_eq!((k, &*text), (key(1), "out"));
        assert_eq!(cache.answered_key("req"), Some(key(1)));
        for near in ["req ", "re", "Req", ""] {
            assert_eq!(cache.answer(near), None, "{near:?}");
        }
        let s = cache.stats();
        assert_eq!((s.hits, s.indexed, s.misses), (1, 1, 0));
    }

    #[test]
    fn one_rendering_per_entry_the_last_one_kept() {
        let cache = SchedCache::new(8, 2);
        cache.insert(key(1), Arc::new(result(1)));
        cache.remember(key(1), "twin-a", output("a"));
        cache.remember(key(1), "twin-b", output("b"));
        assert_eq!(cache.answer("twin-a"), None, "replaced by its twin");
        assert_eq!(cache.answered_key("twin-a"), None, "and unindexed");
        assert_eq!(cache.answer("twin-b").map(|(_, t)| t), Some(output("b")));
    }

    #[test]
    fn eviction_and_overwrite_drop_the_rendering() {
        let cache = SchedCache::new(1, 1);
        cache.insert(key(1), Arc::new(result(1)));
        cache.remember(key(1), "one", output("1"));
        cache.insert(key(2), Arc::new(result(2))); // evicts key(1)
        assert_eq!(cache.answer("one"), None);
        assert_eq!(cache.answered_key("one"), None, "index bounded by entries");
        cache.remember(key(2), "two", output("2"));
        cache.insert(key(2), Arc::new(result(2))); // overwrite
        assert_eq!(cache.answer("two"), None, "a new value starts bare");
        assert_eq!(cache.answered_key("two"), None);
        // Merged entries start bare too.
        assert!(cache.insert_if_absent(key(3), Arc::new(result(3))));
        assert_eq!(cache.answered_key("two"), None);
        assert_eq!(cache.stats().indexed, 0);
    }

    #[test]
    fn indexed_answer_refreshes_recency_like_peek() {
        // The LRU test above, with the refresh done by an indexed answer.
        let cache = SchedCache::new(2, 1);
        cache.insert(key(1), Arc::new(result(1)));
        cache.insert(key(2), Arc::new(result(2)));
        cache.remember(key(1), "one", output("1"));
        cache.remember(key(2), "two", output("2")); // must not refresh 2
        assert!(cache.answer("one").is_some()); // refresh 1
        cache.insert(key(3), Arc::new(result(3)));
        assert!(cache.peek(&key(1)).is_some());
        assert!(cache.peek(&key(2)).is_none(), "LRU entry evicted");
    }

    #[test]
    fn concurrent_identical_misses_coalesce_to_one_compute() {
        let cache = Arc::new(SchedCache::new(8, 2));
        let computes = Arc::new(AtomicUsize::new(0));
        let barrier = Arc::new(std::sync::Barrier::new(8));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let cache = Arc::clone(&cache);
            let computes = Arc::clone(&computes);
            let barrier = Arc::clone(&barrier);
            handles.push(std::thread::spawn(move || {
                barrier.wait();
                let (v, d) = cache.get_or_compute(key(42), || {
                    computes.fetch_add(1, Ordering::SeqCst);
                    // Hold the flight open long enough for the others
                    // to join it.
                    std::thread::sleep(std::time::Duration::from_millis(50));
                    Ok(result(9))
                });
                (v.unwrap().iterations, d)
            }));
        }
        let outcomes: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert_eq!(computes.load(Ordering::SeqCst), 1, "exactly one compute");
        assert!(outcomes.iter().all(|(it, _)| *it == 9));
        let leaders = outcomes
            .iter()
            .filter(|(_, d)| *d == Disposition::Miss)
            .count();
        assert_eq!(leaders, 1);
        let s = cache.stats();
        assert_eq!(s.misses, 1);
        // Late arrivals may hit the already-resolved entry instead of
        // coalescing; either way no second compute happened.
        assert_eq!(s.coalesced + s.hits, 7);
    }

    #[test]
    fn leader_panic_releases_waiters_and_unwedges_the_flight() {
        let cache = Arc::new(SchedCache::new(8, 2));
        let barrier = Arc::new(std::sync::Barrier::new(2));
        let waiter = {
            let cache = Arc::clone(&cache);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait();
                // Give the leader time to claim the flight.
                std::thread::sleep(std::time::Duration::from_millis(30));
                cache.get_or_compute(key(7), || Ok(result(5)))
            })
        };
        let leader = {
            let cache = Arc::clone(&cache);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait();
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    cache.get_or_compute(key(7), || {
                        std::thread::sleep(std::time::Duration::from_millis(100));
                        panic!("deliberate test panic")
                    })
                }))
            })
        };
        assert!(
            leader.join().unwrap().is_err(),
            "the panic still propagates to the leader's caller"
        );
        // The waiter either coalesced onto the panicked flight (and got
        // the typed error) or arrived after resolution and recomputed.
        match waiter.join().unwrap() {
            (Err(ServeError::Internal(_)), Disposition::Coalesced) => {}
            (Ok(v), _) => assert_eq!(v.iterations, 5),
            (other, d) => panic!("unexpected waiter outcome {other:?} / {d:?}"),
        }
        // Not wedged: the key is free for a fresh flight, and nothing
        // from the panicked run was cached.
        let (v, d) = cache.get_or_compute(key(7), || Ok(result(5)));
        assert_eq!(d, Disposition::Miss);
        assert_eq!(v.unwrap().iterations, 5);
    }

    #[test]
    fn hit_rate_is_zero_not_nan_before_any_lookup() {
        let s = CacheStatsSnapshot::default();
        let rate = s.hit_rate();
        assert!(!rate.is_nan(), "zero lookups must not divide by zero");
        assert_eq!(rate, 0.0);
        // A fresh cache's snapshot agrees.
        assert_eq!(SchedCache::new(8, 2).stats().hit_rate(), 0.0);
    }

    #[test]
    fn snapshot_reports_per_shard_occupancy_and_evictions() {
        let cache = SchedCache::new(4, 4); // per-shard capacity 1
        let empty = cache.stats();
        assert_eq!(empty.shards.len(), 4);
        assert!(empty
            .shards
            .iter()
            .all(|s| s.occupancy == 0 && s.capacity == 1 && s.evictions == 0));

        // Overfill: 16 distinct keys into 4 one-entry shards must evict
        // exactly 16 - 4 entries, attributed to the shards that overflowed.
        for n in 0..16u64 {
            cache.insert(key(n), Arc::new(result(n as u32)));
        }
        let s = cache.stats();
        assert_eq!(
            s.shards.iter().map(|s| s.occupancy).sum::<usize>(),
            cache.len()
        );
        assert!(s.shards.iter().all(|s| s.occupancy <= s.capacity));
        assert_eq!(
            s.shards.iter().map(|s| s.evictions).sum::<u64>(),
            s.evictions
        );
        assert_eq!(s.evictions, 16 - cache.len() as u64);
    }

    #[test]
    fn entries_are_sorted_and_complete() {
        let cache = SchedCache::new(16, 4);
        for n in [5u64, 1, 9, 3] {
            cache.insert(key(n), Arc::new(result(n as u32)));
        }
        let entries = cache.entries();
        assert_eq!(entries.len(), 4);
        let mut sorted = entries.clone();
        sorted.sort_by_key(|(k, _)| (k.spec, k.config));
        assert_eq!(
            entries.iter().map(|(k, _)| k.config).collect::<Vec<_>>(),
            sorted.iter().map(|(k, _)| k.config).collect::<Vec<_>>()
        );
    }
}
