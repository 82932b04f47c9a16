//! Step (S3): the coupled modulo scheduler.
//!
//! All blocks of all processes are scheduled *simultaneously* by one IFDS
//! run whose force model is the modified evaluator: a partial solution
//! describes the time frames of every operation of the system, and each
//! iteration reduces the globally worst frame.

use std::borrow::Cow;

use tcms_fds::{FdsConfig, IfdsEngine, IfdsStats, Schedule};
use tcms_ir::System;
use tcms_obs::{span, NoopRecorder, Recorder};

use crate::assign::SharingSpec;
use crate::error::{CoreError, ScheduleError};
use crate::evaluator::ModuloEvaluator;
use crate::period::spacing_budget;
use crate::report::{compute_report, ScheduleReport};

/// The coupled time-constrained modulo scheduler.
///
/// # Example
///
/// ```
/// use tcms_core::{ModuloScheduler, SharingSpec};
/// use tcms_ir::generators::paper_system;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let (system, _types) = paper_system()?;
/// let spec = SharingSpec::all_global(&system, 5);
/// let outcome = ModuloScheduler::new(&system, spec)?.run()?;
/// outcome.schedule.verify(&system)?;
/// println!("area {}", outcome.report().total_area());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct ModuloScheduler<'a> {
    system: &'a System,
    spec: SharingSpec,
    /// Borrowed when the caller schedules many candidates under one
    /// configuration (the exploration fan-outs), owned otherwise.
    config: Cow<'a, FdsConfig>,
}

impl<'a> ModuloScheduler<'a> {
    /// Creates a scheduler after validating the sharing specification.
    ///
    /// # Errors
    ///
    /// Propagates [`SharingSpec::validate`] errors.
    pub fn new(system: &'a System, spec: SharingSpec) -> Result<Self, CoreError> {
        spec.validate(system)?;
        Ok(ModuloScheduler {
            system,
            spec,
            config: Cow::Owned(FdsConfig::default()),
        })
    }

    /// Overrides the force-model configuration.
    #[must_use]
    pub fn with_config(mut self, config: FdsConfig) -> Self {
        self.config = Cow::Owned(config);
        self
    }

    /// Overrides the force-model configuration without taking ownership —
    /// the fan-out paths scheduling hundreds of candidates share one
    /// borrowed configuration instead of cloning it per candidate.
    #[must_use]
    pub fn with_config_ref(mut self, config: &'a FdsConfig) -> Self {
        self.config = Cow::Borrowed(config);
        self
    }

    /// Runs the coupled modified IFDS over every block of the system,
    /// with incremental (cached) candidate-force evaluation.
    ///
    /// # Errors
    ///
    /// * [`ScheduleError::Infeasible`] if a process's grid spacing
    ///   (equation 3) exceeds its spacing budget — no alignment of its
    ///   tightest block to the start grid exists,
    /// * [`ScheduleError::BudgetExhausted`] if the configured
    ///   [`tcms_fds::RunBudget`] trips before the frames converge.
    pub fn run(self) -> Result<ModuloOutcome<'a>, ScheduleError> {
        self.run_impl(false, &NoopRecorder)
    }

    /// [`ModuloScheduler::run`] with observability: the S3 span, the
    /// engine's per-iteration samples and the evaluator's `M_p`/`G_k`
    /// field timeline flow into `rec`. The schedule is bit-identical to
    /// [`ModuloScheduler::run`] (asserted by the integration suite).
    ///
    /// # Errors
    ///
    /// Same as [`ModuloScheduler::run`].
    pub fn run_recorded(self, rec: &dyn Recorder) -> Result<ModuloOutcome<'a>, ScheduleError> {
        self.run_impl(false, rec)
    }

    /// Reference run without the candidate-force cache — the oracle
    /// [`ModuloScheduler::run`] is tested against (outcomes must be
    /// bit-identical). Only compiled for tests and the `naive-oracle`
    /// feature.
    ///
    /// # Errors
    ///
    /// Same as [`ModuloScheduler::run`].
    #[cfg(any(test, feature = "naive-oracle"))]
    pub fn run_naive(self) -> Result<ModuloOutcome<'a>, ScheduleError> {
        self.run_impl(true, &NoopRecorder)
    }

    /// Equation-3 precheck: every process's grid spacing must stay within
    /// its spacing budget, otherwise the tightest block has no feasible
    /// alignment and the engine would chase an unsatisfiable constraint.
    fn check_feasible(&self) -> Result<(), ScheduleError> {
        for p in self.system.process_ids() {
            let spacing = self.spec.grid_spacing(self.system, p);
            let budget = spacing_budget(self.system, p);
            if spacing > budget {
                let proc = self.system.process(p);
                let tightest = proc
                    .blocks()
                    .iter()
                    .copied()
                    .min_by_key(|&b| self.system.block(b).time_range())
                    .expect("processes have at least one block");
                let binding = self
                    .spec
                    .global_types_of_process(self.system, p)
                    .into_iter()
                    .max_by_key(|&k| self.spec.period(k).expect("global types have periods"))
                    .expect("infeasible spacing implies at least one global type");
                return Err(ScheduleError::Infeasible {
                    block: format!("{}::{}", proc.name(), self.system.block(tightest).name()),
                    slack: budget as i64 - spacing as i64,
                    binding_resource: self.system.library().get(binding).name().to_owned(),
                });
            }
        }
        Ok(())
    }

    fn run_impl(self, naive: bool, rec: &dyn Recorder) -> Result<ModuloOutcome<'a>, ScheduleError> {
        self.check_feasible()?;
        let scope: Vec<_> = self.system.block_ids().collect();
        let _s3 = span!(
            rec,
            "s3.schedule",
            blocks = scope.len(),
            ops = self.system.num_ops()
        );
        let engine = IfdsEngine::new(self.system, scope).with_budget(self.config.budget);
        let mut eval = ModuloEvaluator::new(
            self.system,
            self.spec.clone(),
            self.config.as_ref().clone(),
            engine.frames(),
        );
        #[cfg(any(test, feature = "naive-oracle"))]
        let out = if naive {
            engine.run_naive(&mut eval)?
        } else {
            engine.run_recorded(&mut eval, rec)?
        };
        #[cfg(not(any(test, feature = "naive-oracle")))]
        let out = {
            debug_assert!(!naive, "naive run requires the naive-oracle feature");
            engine.run_recorded(&mut eval, rec)?
        };
        debug_assert!(out.schedule.verify(self.system).is_ok());
        Ok(ModuloOutcome {
            system: self.system,
            spec: self.spec,
            schedule: out.schedule,
            iterations: out.iterations,
            stats: out.stats,
        })
    }
}

/// Result of a coupled modulo-scheduling run.
#[derive(Debug, Clone)]
pub struct ModuloOutcome<'a> {
    system: &'a System,
    spec: SharingSpec,
    /// Start times for every operation of the system.
    pub schedule: Schedule,
    /// Number of frame-reduction iterations of the coupled run.
    pub iterations: u64,
    /// Instrumentation of the engine run (candidate evaluations, cache
    /// hits/misses, wall time per phase).
    pub stats: IfdsStats,
}

impl<'a> ModuloOutcome<'a> {
    /// The system this outcome belongs to.
    pub fn system(&self) -> &'a System {
        self.system
    }

    /// The sharing specification the schedule was produced under.
    pub fn spec(&self) -> &SharingSpec {
        &self.spec
    }

    /// Consumes the outcome and returns the owned specification — lets
    /// trial-and-reject loops recover their spec without cloning it.
    pub fn into_spec(self) -> SharingSpec {
        self.spec
    }

    /// Resource counts, authorization tables and area of the schedule.
    pub fn report(&self) -> ScheduleReport {
        compute_report(self.system, &self.spec, &self.schedule)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcms_ir::generators::paper_system;

    #[test]
    fn paper_system_schedules_validly_global() {
        let (sys, _) = paper_system().unwrap();
        let spec = SharingSpec::all_global(&sys, 5);
        let out = ModuloScheduler::new(&sys, spec).unwrap().run().unwrap();
        out.schedule.verify(&sys).unwrap();
        assert!(out.iterations > 0);
    }

    #[test]
    fn oversized_spacing_fails_with_infeasible() {
        let (sys, t) = paper_system().unwrap();
        // lcm(7, 5, 5) = 35 > 15 budget of the diffeq processes.
        let mut spec = SharingSpec::all_global(&sys, 5);
        spec.set_period(t.add, 7);
        let err = ModuloScheduler::new(&sys, spec).unwrap().run().unwrap_err();
        match err {
            crate::error::ScheduleError::Infeasible {
                block,
                slack,
                binding_resource,
            } => {
                assert!(block.contains("::"), "qualified name, got {block}");
                // First failing process in iteration order is the first EWF:
                // spacing lcm(7, 5) = 35 against its budget of 30.
                assert_eq!(slack, 30 - 35);
                assert_eq!(binding_resource, "add", "period 7 dominates the lcm");
            }
            other => panic!("expected Infeasible, got {other:?}"),
        }
    }

    #[test]
    fn budget_trip_surfaces_as_schedule_error() {
        use tcms_fds::RunBudget;
        let (sys, _) = paper_system().unwrap();
        let cfg = FdsConfig {
            budget: RunBudget {
                max_iterations: Some(3),
                ..RunBudget::default()
            },
            ..FdsConfig::default()
        };
        let err = ModuloScheduler::new(&sys, SharingSpec::all_global(&sys, 5))
            .unwrap()
            .with_config(cfg)
            .run()
            .unwrap_err();
        assert!(matches!(
            err,
            crate::error::ScheduleError::BudgetExhausted(_)
        ));
    }

    #[test]
    fn invalid_spec_rejected_up_front() {
        let (sys, t) = paper_system().unwrap();
        let mut spec = SharingSpec::all_local(&sys);
        spec.set_global(t.add, vec![sys.process_ids().next().unwrap()], 5);
        assert!(ModuloScheduler::new(&sys, spec).is_err());
    }

    #[test]
    fn cached_run_is_bit_identical_to_naive_run() {
        let (sys, _) = paper_system().unwrap();
        let mk = || ModuloScheduler::new(&sys, SharingSpec::all_global(&sys, 5)).unwrap();
        let cached = mk().run().unwrap();
        let naive = mk().run_naive().unwrap();
        assert_eq!(
            cached.schedule.starts(),
            naive.schedule.starts(),
            "schedules must be bit-identical"
        );
        assert_eq!(cached.iterations, naive.iterations);
        assert_eq!(
            cached.report().total_area(),
            naive.report().total_area(),
            "areas must agree"
        );
        assert!(
            cached.stats.cache_hits > 0,
            "coupled multi-process run must reuse cached forces"
        );
        assert!(cached.stats.ops_evaluated < naive.stats.ops_evaluated);
    }

    #[test]
    fn deterministic() {
        let (sys, _) = paper_system().unwrap();
        let run = || {
            ModuloScheduler::new(&sys, SharingSpec::all_global(&sys, 5))
                .unwrap()
                .run()
                .unwrap()
                .schedule
        };
        assert_eq!(run(), run());
    }
}
