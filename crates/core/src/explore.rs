//! Design-space exploration: period selection (S2).
//!
//! The paper enumerates period permutations exhaustively and assigns
//! scopes (S1) by hand. This module provides:
//!
//! * [`sweep_uniform_periods`] — the §3.2 trade-off curve: larger periods
//!   allow more sharing but stretch the invocation grid,
//! * [`best_period_assignment`] — exhaustive enumeration with the
//!   equation-3 filter, scheduling every candidate (the paper's flow).
//!
//! # Parallelism and determinism
//!
//! The candidate runs are independent, so they are evaluated in
//! parallel. Infeasible candidates (equation-3 filter) and specification
//! validation are handled *before* spawning, the parallel map preserves
//! input order, and the winner is selected by a sequential in-order fold
//! with a strict `<` comparison — the results (including tie-breaks) are
//! identical to the sequential evaluation.

use rayon::prelude::*;
use tcms_fds::FdsConfig;
use tcms_ir::System;
use tcms_obs::{span, NoopRecorder, Recorder, TimelinePoint};

use crate::assign::SharingSpec;
use crate::error::{CoreError, ScheduleError};
use crate::period::{candidate_periods, enumerate_periods};
use crate::report::ScheduleReport;
use crate::scheduler::ModuloScheduler;

/// One point of a period sweep.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// The uniform period applied to every global type.
    pub period: u32,
    /// Grid spacing implied for each process (uniform periods collapse the
    /// lcm to the period itself).
    pub spacing: u32,
    /// Resource/area accounting of the resulting schedule.
    pub report: ScheduleReport,
    /// Iterations of the coupled scheduler run.
    pub iterations: u64,
    /// Engine instrumentation of the run (cache hits, wall time).
    pub stats: tcms_fds::IfdsStats,
}

/// Schedules the system once per uniform period in `periods`, with every
/// shareable type global over all its users. Candidate runs execute in
/// parallel; the returned points are in input order.
///
/// Infeasible periods (equation-3 filter) are skipped before spawning.
///
/// # Errors
///
/// Propagates scheduler construction errors (none for well-formed
/// systems) and run failures such as a tripped budget; the error reported
/// is the one of the earliest failing candidate in input order.
pub fn sweep_uniform_periods(
    system: &System,
    periods: impl IntoIterator<Item = u32>,
    config: &FdsConfig,
) -> Result<Vec<SweepPoint>, ScheduleError> {
    sweep_uniform_periods_recorded(system, periods, config, &NoopRecorder)
}

/// [`sweep_uniform_periods`] with observability: one `"sweep"` timeline
/// point per candidate period. Candidate runs still execute in parallel;
/// recording happens sequentially after the parallel collect, so the
/// results and the event stream are deterministic.
///
/// # Errors
///
/// Same as [`sweep_uniform_periods`].
pub fn sweep_uniform_periods_recorded(
    system: &System,
    periods: impl IntoIterator<Item = u32>,
    config: &FdsConfig,
    rec: &dyn Recorder,
) -> Result<Vec<SweepPoint>, ScheduleError> {
    // Filter and validate sequentially so the parallel region spawns only
    // real work; run failures are folded back in input order below.
    let mut candidates: Vec<(u32, ModuloScheduler<'_>)> = Vec::new();
    for period in periods {
        let spec = SharingSpec::all_global(system, period);
        if !crate::period::spacing_feasible(system, &spec) {
            continue;
        }
        let scheduler = ModuloScheduler::new(system, spec)?.with_config_ref(config);
        candidates.push((period, scheduler));
    }
    let _sweep = span!(rec, "s2.sweep", candidates = candidates.len());
    // The parallel map preserves input order, and the sequential `?` fold
    // below reports the earliest failing candidate — deterministic even
    // when several candidates fail.
    let points: Vec<SweepPoint> = candidates
        .into_par_iter()
        .map(|(period, scheduler)| {
            let outcome = scheduler.run()?;
            Ok(SweepPoint {
                period,
                spacing: period,
                report: outcome.report(),
                iterations: outcome.iterations,
                stats: outcome.stats,
            })
        })
        .collect::<Vec<Result<SweepPoint, ScheduleError>>>()
        .into_iter()
        .collect::<Result<Vec<SweepPoint>, ScheduleError>>()?;
    if rec.enabled() {
        for (i, p) in points.iter().enumerate() {
            rec.counter_add("s2.candidates_scheduled", 1);
            p.stats.publish(rec);
            rec.timeline(TimelinePoint {
                phase: "sweep",
                iteration: i as u64,
                values: vec![
                    ("period".into(), f64::from(p.period)),
                    ("spacing".into(), f64::from(p.spacing)),
                    ("area".into(), p.report.total_area() as f64),
                    ("iterations".into(), p.iterations as f64),
                ],
            });
        }
    }
    Ok(points)
}

/// Exhaustively schedules every feasible period assignment and returns the
/// area-minimal one with its report.
///
/// `limit` caps the number of evaluated assignments (`None` = all; the
/// paper notes most combinations are filtered by equation 3 before
/// scheduling).
///
/// Returns `Ok(None)` when no assignment passes the equation-3 filter.
///
/// # Errors
///
/// Propagates validation errors of `base` and run failures such as a
/// tripped budget; the error reported is the one of the earliest failing
/// candidate in enumeration order.
pub fn best_period_assignment(
    system: &System,
    base: &SharingSpec,
    config: &FdsConfig,
    limit: Option<usize>,
) -> Result<Option<(SharingSpec, ScheduleReport)>, ScheduleError> {
    best_period_assignment_recorded(system, base, config, limit, &NoopRecorder)
}

/// [`best_period_assignment`] with observability: an `"s2.enumerate"` span
/// around the fan-out, a candidate counter and one `"enumerate"` timeline
/// point per evaluated assignment (recorded in input order after the
/// parallel collect).
///
/// # Errors
///
/// Same as [`best_period_assignment`].
pub fn best_period_assignment_recorded(
    system: &System,
    base: &SharingSpec,
    config: &FdsConfig,
    limit: Option<usize>,
    rec: &dyn Recorder,
) -> Result<Option<(SharingSpec, ScheduleReport)>, ScheduleError> {
    base.validate(system)?;
    let globals = base.global_types(system);
    let cands: Vec<Vec<u32>> = globals
        .iter()
        .map(|&k| candidate_periods(system, base, k))
        .collect();
    let specs = enumerate_periods(system, base, &globals, &cands, limit);
    let _enumerate = span!(rec, "s2.enumerate", candidates = specs.len());
    // Validate every candidate before the parallel fan-out.
    let schedulers = specs
        .into_iter()
        .map(|spec| {
            ModuloScheduler::new(system, spec.clone()).map(|s| (spec, s.with_config_ref(config)))
        })
        .collect::<Result<Vec<_>, CoreError>>()?;
    // Ordered collect + sequential fold: the earliest failing candidate
    // (in enumeration order) decides the error deterministically.
    let reports: Vec<(SharingSpec, ScheduleReport)> = schedulers
        .into_par_iter()
        .map(|(spec, scheduler)| {
            let report = scheduler.run()?.report();
            Ok((spec, report))
        })
        .collect::<Vec<Result<_, ScheduleError>>>()
        .into_iter()
        .collect::<Result<Vec<_>, ScheduleError>>()?;
    if rec.enabled() {
        for (i, (_, report)) in reports.iter().enumerate() {
            rec.counter_add("s2.candidates_scheduled", 1);
            rec.timeline(TimelinePoint {
                phase: "enumerate",
                iteration: i as u64,
                values: vec![("area".into(), report.total_area() as f64)],
            });
        }
    }
    // In-order fold with strict `<`: the winner (and any tie-break) is the
    // same one the sequential loop would pick.
    let mut best: Option<(SharingSpec, ScheduleReport)> = None;
    for (spec, report) in reports {
        if best
            .as_ref()
            .is_none_or(|(_, b)| report.total_area() < b.total_area())
        {
            best = Some((spec, report));
        }
    }
    if rec.enabled() {
        if let Some((_, report)) = &best {
            rec.gauge_set("s2.best_area", report.total_area() as f64);
        }
    }
    Ok(best)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcms_ir::generators::paper_system;

    #[test]
    fn sweep_skips_infeasible_periods() {
        let (sys, _) = paper_system().unwrap();
        let points =
            sweep_uniform_periods(&sys, [1, 5, 15, 16, 40], &FdsConfig::default()).unwrap();
        let periods: Vec<u32> = points.iter().map(|p| p.period).collect();
        // 16 and 40 exceed the diffeq spacing budget of 15.
        assert_eq!(periods, vec![1, 5, 15]);
    }

    #[test]
    fn parallel_exploration_is_deterministic() {
        let (sys, _) = paper_system().unwrap();
        let fds = FdsConfig::default();
        let sweep = || {
            sweep_uniform_periods(&sys, [1, 3, 5, 15], &fds)
                .unwrap()
                .into_iter()
                .map(|p| (p.period, p.report.total_area()))
                .collect::<Vec<_>>()
        };
        let a = sweep();
        assert_eq!(a, sweep(), "sweep must be reproducible");
        assert_eq!(
            a.iter().map(|&(p, _)| p).collect::<Vec<_>>(),
            vec![1, 3, 5, 15],
            "points must come back in input order"
        );
        let base = SharingSpec::all_global(&sys, 5);
        let pick = || {
            best_period_assignment(&sys, &base, &fds, Some(6))
                .unwrap()
                .map(|(spec, report)| (spec, report.total_area()))
        };
        let first = pick().unwrap();
        let second = pick().unwrap();
        assert_eq!(first.1, second.1);
        assert_eq!(first.0.global_types(&sys), second.0.global_types(&sys));
    }
}
