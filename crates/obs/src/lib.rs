#![warn(missing_docs)]
//! Structured observability for the TCMS scheduling stack.
//!
//! The coupled modulo scheduler converges through thousands of force
//! evaluations, period-grid decisions and cross-process commits. This
//! crate provides the visibility layer the rest of the workspace records
//! into, built around one rule: **recording must never change a result
//! and must cost (almost) nothing when disabled**.
//!
//! * [`Recorder`] — the object-safe recording trait every instrumented
//!   hot path talks to. The default implementation of every method is a
//!   no-op, and [`NoopRecorder`] (a zero-sized type) is the standard
//!   disabled recorder: call sites gate their instrumentation work on
//!   [`Recorder::enabled`], so the release hot path pays one
//!   branch-predictable virtual call per *phase*, not per force.
//! * [`span!`] / [`span_enter`] — nested, wall-clock-timed spans
//!   (`span!(rec, "s3.commit", block = b, process = p)`) with RAII exit.
//! * [`MetricsRegistry`] — typed counters, gauges and fixed-bucket
//!   histograms, renderable as a human-readable summary table.
//! * [`TimelinePoint`] — per-iteration convergence samples (force totals,
//!   slot occupancy of the `M_p`/`G_k` fields, sweep points).
//! * [`TraceRecorder`] — the collecting implementation behind the
//!   `--trace`/`--metrics`/`--timeline` flags, with three sinks: a
//!   summary table, a JSONL event stream, and Chrome `trace_event` JSON
//!   loadable in `about:tracing` / [Perfetto](https://ui.perfetto.dev).
//! * [`sink`] — emitters, parsers and validators for the two file
//!   formats (used by tests and the `trace_check` CI binary).
//!
//! # Example
//!
//! ```
//! use tcms_obs::{span, Recorder, TraceRecorder};
//!
//! let rec = TraceRecorder::new();
//! {
//!     let _outer = span!(&rec, "s3.schedule", blocks = 7u64);
//!     let _inner = span!(&rec, "s3.commit", block = 3u64);
//!     rec.counter_add("ifds.iterations", 1);
//! } // spans exit in LIFO order here
//! let data = rec.finish();
//! assert_eq!(data.events.len(), 5); // 2 enters + 2 exits + 1 counter
//! tcms_obs::sink::check_span_nesting(&data.events).unwrap();
//! ```

pub mod json;
pub mod metrics;
pub mod recorder;
pub mod sink;
pub mod trace;

pub use metrics::{Histogram, MetricName, MetricsRegistry};
pub use recorder::{span_enter, NoopRecorder, Recorder, Span, SpanId, TimelinePoint, Value};
pub use trace::{TraceData, TraceEvent, TraceEventKind, TraceRecorder};
