#![warn(missing_docs)]
//! Force-directed scheduling substrate for the TCMS workspace.
//!
//! Implements the classical time-constrained scheduling algorithms the
//! paper builds on:
//!
//! * the original **Force-Directed Scheduling** (FDS) of Paulin and Knight
//!   ([`fds`]),
//! * the **Improved FDS** (IFDS) of Verhaegh et al. with gradual time-frame
//!   reduction, look-ahead and global spring constants — as a reusable
//!   engine ([`engine`]) parameterised over a [`ForceEvaluator`], so the
//!   modulo extension in `tcms-core` plugs in its modified force,
//! * distribution graphs and occupancy probabilities ([`dist`], [`prob`]),
//! * baselines: ASAP/ALAP ([`baselines`]) and a resource-constrained list
//!   scheduler ([`list`]),
//! * the [`Schedule`] container with structural verification and usage
//!   profiles ([`schedule`]).
//!
//! # Example: schedule one block with IFDS
//!
//! ```
//! use tcms_ir::generators::{add_ewf_process, paper_library};
//! use tcms_ir::SystemBuilder;
//! use tcms_fds::{schedule_block_ifds, FdsConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let (lib, types) = paper_library();
//! let mut b = SystemBuilder::new(lib);
//! let (_, blk) = add_ewf_process(&mut b, "P1", 20, types)?;
//! let sys = b.build()?;
//! let out = schedule_block_ifds(&sys, blk, &FdsConfig::default())?;
//! out.schedule.verify(&sys)?;
//! # Ok(())
//! # }
//! ```

pub mod baselines;
pub mod config;
pub mod dist;
pub mod engine;
pub mod error;
pub mod evaluator;
pub mod fds;
pub mod gantt;
pub mod list;
pub mod prob;
pub mod schedule;
pub mod schedule_io;
pub mod slab;

/// Thread-count control for every parallel scheduling primitive in the
/// workspace (the engine's candidate sweep, the design-space exploration
/// fan-outs and the exact-search root split all share one pool).
///
/// Resolution order: [`threads::set`] override, then the `TCMS_THREADS`
/// environment variable, then the detected hardware parallelism. A count
/// of 1 disables all fan-out; results are identical at every count.
pub mod threads {
    pub use rayon::current_num_threads as current;
    pub use rayon::set_num_threads as set;
}

pub use config::{FdsConfig, RunBudget, SpringWeights};
pub use engine::{IfdsEngine, IfdsOutcome, IfdsStats};
pub use error::{BudgetAxis, EngineError};
pub use evaluator::{ClassicEvaluator, ForceEvaluator, ForceTerm, TermLog, Terms};
pub use schedule::{Schedule, ScheduleError};

use tcms_ir::{BlockId, System};

/// Schedules a single block with the improved force-directed scheduling
/// algorithm and the classical (per-block) force model.
///
/// # Errors
///
/// Returns [`EngineError::BudgetExhausted`] if `config.budget` trips; with
/// the default unlimited budget the call always succeeds.
pub fn schedule_block_ifds(
    system: &System,
    block: BlockId,
    config: &FdsConfig,
) -> Result<IfdsOutcome, EngineError> {
    let scope = vec![block];
    let budget = config.budget;
    let mut eval = ClassicEvaluator::new(system, &scope, config.clone());
    IfdsEngine::new(system, scope)
        .with_budget(budget)
        .run(&mut eval)
}

/// Schedules every block of the system independently with IFDS — the
/// traditional flow the paper compares against ("pure local assignment").
///
/// Returns the merged schedule and the summed iteration count.
///
/// # Errors
///
/// Returns [`EngineError::BudgetExhausted`] if `config.budget` trips in
/// any per-block run (the budget applies per block, not to the sum).
pub fn schedule_system_local(
    system: &System,
    config: &FdsConfig,
) -> Result<IfdsOutcome, EngineError> {
    let mut schedule = Schedule::new(system.num_ops());
    let mut iterations = 0;
    let mut stats = IfdsStats::default();
    for bid in system.block_ids() {
        let out = schedule_block_ifds(system, bid, config)?;
        iterations += out.iterations;
        stats.absorb(&out.stats);
        for &o in system.block(bid).ops() {
            schedule.set(o, out.schedule.expect_start(o));
        }
    }
    Ok(IfdsOutcome {
        schedule,
        iterations,
        stats,
    })
}
