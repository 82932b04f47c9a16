#![warn(missing_docs)]
//! `tcms-serve` — a concurrent scheduling service for the TCMS stack.
//!
//! A long-running daemon (`tcms serve`) that speaks newline-delimited
//! JSON over TCP and dispatches scheduling jobs from a bounded queue
//! onto a worker pool. Its centerpiece is a **content-addressed result
//! cache**: requests are keyed by the canonical hash of their design
//! ([`tcms_ir::canon`]) plus a fingerprint of the scheduling
//! configuration ([`tcms_core::fingerprint`]), so isomorphic designs —
//! any reordering of resource, process, block, op or edge declarations —
//! share one cache entry. Identical in-flight requests are coalesced
//! into a single scheduler run (single-flight dedup), and the cache can
//! persist across restarts as an integrity-checked JSONL snapshot.
//!
//! Module map:
//!
//! * [`protocol`] — the NDJSON wire format: requests, responses, typed
//!   error rendering,
//! * [`pipeline`] — the shared load → spec → schedule → render path
//!   (also used by the one-shot CLI, which is what makes daemon
//!   responses bit-identical to `tcms schedule` output),
//! * [`cache`] — sharded LRU + single-flight dedup,
//! * [`persist`] — the on-disk snapshot (`--cache-dir`),
//! * [`journal`] — the append-only workload journal (`--journal-dir`):
//!   per-request capture off the hot path, crash-tolerant load, the
//!   substrate for deterministic replay,
//! * [`server`] — blocking accept loops, one admission path for NDJSON
//!   and HTTP, bounded queue, worker pool, deadlines and backpressure,
//!   fleet proxying and sync,
//! * [`client`] — a blocking, pipelining client (`tcms client`, the
//!   load generator and the e2e tests) plus [`ServeClient`], the
//!   retrying wrapper with deterministic jittered backoff,
//! * [`fleet`] — the distributed fleet: consistent-hash routing over a
//!   static peer list, digest-based snapshot anti-entropy, and the
//!   hand-rolled HTTP/1.1 front-end,
//! * [`stats`] — the human-readable rendering of a `stats` response
//!   (`tcms stats`),
//! * [`error`] — [`ServeError`] with stable wire classes and codes.
//!
//! The crate uses only the standard library plus the workspace's own
//! crates — no external dependencies, per the workspace's offline
//! build constraint.

pub mod cache;
pub mod client;
pub mod error;
pub mod fleet;
pub mod journal;
pub mod persist;
pub mod pipeline;
pub mod protocol;
pub mod server;
pub mod stats;

pub use cache::{CacheKey, CacheStatsSnapshot, Disposition, SchedCache, ShardStats};
pub use client::{
    retryable_code, retryable_error, Client, RetryPolicy, ServeClient, DEFAULT_CONNECT_TIMEOUT,
};
pub use error::ServeError;
pub use fleet::{Fleet, FleetConfig, HashRing, Membership, RouteMode, SYNC_SHARDS};
pub use journal::{
    load_journal, load_journal_dir, JournalEntry, JournalLoadReport, JournalRecord, JournalStats,
    JournalWriter,
};
pub use pipeline::{
    request_cache_key, schedule_request, simulate_request, ExecContext, ScheduleArtifacts,
    ScheduleOptions, SimulateArtifacts, SimulateOptions, DEFAULT_AUTO_PARTITION_OPS, PANIC_MARKER,
};
pub use protocol::{Action, Request, Response};
pub use server::{ServeConfig, Server};
pub use stats::render_stats;
