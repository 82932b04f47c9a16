#![warn(missing_docs)]
//! Reactive discrete-event simulation of modulo-scheduled systems.
//!
//! The paper targets reactive (hard) real-time systems whose processes are
//! triggered by spontaneous events at unpredictable times — exactly the
//! situation process merging cannot handle. This crate closes the loop by
//! *executing* a scheduled system under such workloads:
//!
//! * [`workload`] — trigger patterns (periodic, random, bursty),
//! * [`behavior`] — per-activation block sequences including loops with
//!   run-time trip counts and delays of unknown length,
//! * [`engine`] — the simulator: processes wait for their grid slot
//!   (equations 2–3), run their blocks' static schedules, and release,
//! * [`fault`] — deterministic, seed-driven fault injection (jittered
//!   triggers, dropped authorization slots, transient pool outages) with
//!   recovery metrics,
//! * [`monitor`] — instantaneous resource accounting proving that the
//!   static access authorization needs **no runtime executive**: the
//!   shared pools are never overdrawn,
//! * [`trace`] — human-readable event logs.
//!
//! # Example
//!
//! ```
//! use tcms_core::{ModuloScheduler, SharingSpec};
//! use tcms_ir::generators::paper_system;
//! use tcms_sim::{SimConfig, Simulator, Trigger};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let (sys, _) = paper_system()?;
//! let spec = SharingSpec::all_global(&sys, 5);
//! let out = ModuloScheduler::new(&sys, spec.clone())?.run()?;
//! let sim = Simulator::new(&sys, &spec, &out.schedule);
//! let workloads = vec![Trigger::Random { mean_gap: 40 }; sys.num_processes()];
//! let result = sim.run(&workloads, &SimConfig { horizon: 2_000, seed: 7 });
//! assert!(result.conflicts.is_empty(), "static authorization suffices");
//! # Ok(())
//! # }
//! ```

pub mod behavior;
pub mod engine;
pub mod fault;
pub mod monitor;
pub mod trace;
pub mod workload;

pub use behavior::{ProcessBehavior, Segment, UnrolledStep};
pub use engine::{SimConfig, SimResult, Simulator};
pub use fault::{FaultMetrics, FaultPlan};
pub use monitor::{Conflict, ResourceMonitor};
pub use trace::{Event, EventKind};
pub use workload::Trigger;
