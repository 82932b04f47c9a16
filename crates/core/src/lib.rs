#![warn(missing_docs)]
//! Time-constrained modulo scheduling with global resource sharing.
//!
//! This crate implements the contribution of *"Time Constrained Modulo
//! Scheduling with Global Resource Sharing"* (Jäschke, Beckmann, Laur —
//! DATE 1999): an extension of static scheduling algorithms that shares
//! resources **across process boundaries** through a time-periodic,
//! statically determined access authorization, overcoming the
//! one-resource-per-type-and-process minimum of traditional high-level
//! synthesis.
//!
//! The method's three steps map to this crate's modules:
//!
//! * **(S1)** [`assign`] — local/global assignment of resource types to
//!   processes ([`SharingSpec`]), including an automatic scope-selection
//!   heuristic in [`explore`],
//! * **(S2)** [`period`] — period candidates per global type, grid
//!   spacings (equation 3) and full or pruned enumeration,
//! * **(S3)** [`scheduler`] — the coupled modified IFDS over all blocks,
//!   with the two-part force modification in [`evaluator`] built on the
//!   layered spring field of [`field`].
//!
//! Supporting modules: [`modulo`] (the modulo-maximum transformation),
//! [`authorize`] (static access-authorization tables), [`report`]
//! (instance counts and area), [`verify`] (run-time validity checking of
//! the static sharing claim), [`rc`] (the resource-constrained variant
//! of the companion ISSS'98 paper) and [`degrade`] (the graceful
//! degradation ladder that retries infeasible or budget-tripped
//! specifications with explicit, bounded concessions).
//!
//! # Example: the paper's Table-1 flow
//!
//! ```
//! use tcms_core::{ModuloScheduler, SharingSpec};
//! use tcms_ir::generators::paper_system;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let (system, types) = paper_system()?;
//! // Global adder/multiplier over all processes, subtracter over the two
//! // diffeq processes, all with period 5 — the paper's configuration.
//! let spec = SharingSpec::all_global(&system, 5);
//! let global = ModuloScheduler::new(&system, spec)?.run()?;
//!
//! let local = ModuloScheduler::new(&system, SharingSpec::all_local(&system))?.run()?;
//!
//! // Global sharing beats one-resource-per-type-and-process.
//! assert!(global.report().total_area() < local.report().total_area());
//! assert!(global.report().instances(types.mul) < 5);
//! # Ok(())
//! # }
//! ```

pub mod assign;
pub mod authorize;
pub mod degrade;
pub mod error;
pub mod evaluator;
pub mod exact;
pub mod explore;
pub mod field;
pub mod fingerprint;
pub mod kernel;
pub mod latency;
pub mod modulo;
pub mod period;
pub mod rc;
pub mod report;
pub mod scheduler;
pub mod verify;

pub use assign::{Scope, SharingSpec};
pub use authorize::AuthorizationTable;
pub use degrade::{schedule_with_degradation, LadderConfig, LadderOutcome, Rung};
pub use error::{CoreError, ScheduleError};
pub use evaluator::ModuloEvaluator;
pub use field::ModuloField;
pub use fingerprint::{config_fingerprint, config_fingerprint_with, CacheableResult};
pub use latency::{latency_bounds, LatencyBound};
pub use report::{compute_report, ScheduleReport, TypeReport};
pub use scheduler::{ModuloOutcome, ModuloScheduler};
pub use verify::{check_execution, exhaustive_check, random_activations, Activation, VerifyError};

/// Serializes unit tests that mutate the global thread-count override.
#[cfg(test)]
pub(crate) mod test_support {
    use std::sync::{Mutex, MutexGuard};

    static LOCK: Mutex<()> = Mutex::new(());

    pub fn threads_lock() -> MutexGuard<'static, ()> {
        LOCK.lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}
