//! Feedback-guided partitioned scheduling for huge specifications.
//!
//! The coupled IFDS of [`crate::scheduler`] walks every block of every
//! process each frame-reduction iteration, so its cost grows superlinearly
//! with specification size. This module trades a bounded amount of quality
//! for wall-clock scalability by decomposing the problem:
//!
//! 1. **Partition.** [`tcms_ir::partition_processes`] splits the process
//!    set into `K` balanced communities (dependencies never cross process
//!    boundaries, so this is exact on the dependency graph; only global
//!    resource types couple partitions).
//! 2. **Parallel schedule.** Each partition is extracted into a standalone
//!    subsystem and scheduled independently on the worker pool. Foreign
//!    usage of each shared global type is frozen into an
//!    [`ExternalOccupancy`] baseline: the subsystem's `G_k` fold starts at
//!    the other partitions' committed per-slot usage, so every shard prices
//!    its displacements against the whole system's load (the "externally
//!    imposed occupancy" view of the feedback-guided decomposition).
//! 3. **Feedback.** The per-partition schedules are merged, the committed
//!    occupancy profiles recomputed from the merged schedule via
//!    [`AuthorizationTable`] grants, and the loop re-runs until profiles
//!    stabilize or a round cap trips.
//!
//! The merged result is re-verified against the *full* specification
//! ([`crate::verify::check_execution`]), so a returned schedule carries
//! the same validity guarantee as a monolithic run. Determinism: rounds
//! are sequential, shards merge in partition-index order, and the shard
//! scheduler is bit-deterministic, so the result is a pure function of
//! `(system, spec, config, partition config)` — never of thread count.

use rayon;
use tcms_fds::{FdsConfig, Schedule};
use tcms_ir::{
    auto_partition_count, extract_subsystem, partition_processes, OpId, ProcessId, SubsystemMap,
    System,
};
use tcms_obs::{NoopRecorder, Recorder, TimelinePoint};

use crate::assign::{Scope, SharingSpec};
use crate::authorize::AuthorizationTable;
use crate::error::ScheduleError;
use crate::field::ExternalOccupancy;
use crate::report::{compute_report, ScheduleReport};
use crate::scheduler::ModuloScheduler;
use crate::verify::{check_execution, random_activations};

/// How many partitions to decompose a specification into.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PartitionCount {
    /// One partition per [`tcms_ir::partition::AUTO_OPS_PER_PARTITION`] operations —
    /// a pure function of the specification, never of the machine.
    #[default]
    Auto,
    /// Exactly this many partitions (clamped to `[1, num_processes]`).
    Fixed(usize),
}

/// Tuning of the partitioned driver.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PartitionConfig {
    /// Partition count policy.
    pub count: PartitionCount,
    /// Seed for the partitioner's tie-breaking (not for scheduling).
    pub seed: u64,
    /// Maximum feedback rounds before accepting the best merged
    /// schedule seen. One round is always executed; the loop also stops
    /// early at a baseline fixpoint or on the first round that fails to
    /// improve the merged schedule's full-spec area.
    pub max_rounds: usize,
    /// Number of random activation patterns the final full-spec
    /// verification pass simulates.
    pub verify_seeds: u64,
    /// Maximum hill-climbing sweeps of the sequential polish pass run on
    /// the best merged schedule (0 disables). Each sweep tries every
    /// operation at every start in its precedence window and keeps moves
    /// that lower `(total area, Σ slot-grants²)` — a cheap cross-partition
    /// refinement the shard schedulers cannot see.
    pub polish_passes: usize,
}

impl Default for PartitionConfig {
    fn default() -> Self {
        PartitionConfig {
            count: PartitionCount::Auto,
            seed: 0,
            max_rounds: 4,
            verify_seeds: 3,
            polish_passes: 2,
        }
    }
}

/// Result of a partitioned run: the merged schedule plus decomposition
/// telemetry.
#[derive(Debug, Clone)]
pub struct PartitionOutcome<'a> {
    system: &'a System,
    spec: SharingSpec,
    /// Start times for every operation of the full system.
    pub schedule: Schedule,
    /// Number of partitions actually used (1 = monolithic run).
    pub partitions: usize,
    /// Cut cost of the partitioning (shared types spread across parts).
    pub cut_edges: usize,
    /// Feedback rounds executed (1 for a monolithic run).
    pub rounds: usize,
    /// Frame-reduction iterations per partition, summed over all rounds.
    pub partition_iterations: Vec<u64>,
}

impl<'a> PartitionOutcome<'a> {
    /// The sharing specification the schedule was produced under.
    pub fn spec(&self) -> &SharingSpec {
        &self.spec
    }

    /// Total frame-reduction iterations across all partitions and rounds.
    pub fn iterations(&self) -> u64 {
        self.partition_iterations.iter().sum()
    }

    /// Resource counts, authorization tables and area of the merged
    /// schedule under the full specification.
    pub fn report(&self) -> ScheduleReport {
        compute_report(self.system, &self.spec, &self.schedule)
    }
}

/// One extracted partition: the induced subsystem, its id maps back to the
/// full system, and the sharing spec restricted to in-partition processes.
struct Shard {
    system: System,
    map: SubsystemMap,
    spec: SharingSpec,
}

/// Restricts `spec` to the processes of `map`'s subsystem: global groups
/// keep their original member order but drop foreign processes (remapped
/// to subsystem ids); a group left empty becomes local.
fn restrict_spec(
    system: &System,
    spec: &SharingSpec,
    sub: &System,
    map: &SubsystemMap,
) -> SharingSpec {
    let mut full_to_sub: Vec<Option<ProcessId>> = vec![None; system.num_processes()];
    for (i, &p) in map.processes.iter().enumerate() {
        full_to_sub[p.index()] = Some(ProcessId::from_index(i));
    }
    let mut restricted = SharingSpec::all_local(sub);
    for (rtype, _) in system.library().iter() {
        if let Scope::Global { group, period } = spec.scope(rtype) {
            let members: Vec<ProcessId> = group
                .iter()
                .filter_map(|p| full_to_sub[p.index()])
                .collect();
            if !members.is_empty() {
                restricted.set_global(rtype, members, *period);
            }
        }
    }
    restricted
}

/// Computes the frozen foreign-occupancy baseline of every shard from the
/// merged schedule: for each global type of the shard's sub-spec, the
/// slot-wise sum of the authorization grants of all processes *outside*
/// the shard. All-zero baselines are left unset (bit-identical to empty).
fn foreign_baselines(
    system: &System,
    spec: &SharingSpec,
    merged: &Schedule,
    shards: &[Shard],
) -> Vec<ExternalOccupancy> {
    let num_types = system.library().len();
    let mut baselines: Vec<ExternalOccupancy> =
        vec![ExternalOccupancy::empty(num_types); shards.len()];
    for rtype in spec.global_types(system) {
        let Some(table) = AuthorizationTable::from_schedule(system, spec, merged, rtype) else {
            continue;
        };
        for (i, shard) in shards.iter().enumerate() {
            if !shard.spec.is_global(rtype) {
                continue;
            }
            let rho = spec.period(rtype).expect("global type has a period") as usize;
            let mut profile = vec![0.0f64; rho];
            for (p, grant) in table.grants() {
                if shard.map.processes.contains(p) {
                    continue;
                }
                for (slot, &g) in grant.iter().enumerate() {
                    profile[slot] += f64::from(g);
                }
            }
            if profile.iter().any(|&v| v > 0.0) {
                baselines[i].set(rtype, profile);
            }
        }
    }
    baselines
}

/// Cost a complete schedule for the polish pass: total area first, then
/// the sum of squared authorization slot totals over all global types —
/// a smooth surrogate that keeps descent moving across area plateaus
/// (flattening grant profiles is what eventually drops a pool peak).
fn polish_cost(system: &System, spec: &SharingSpec, schedule: &Schedule) -> (u64, u64) {
    let report = compute_report(system, spec, schedule);
    let mut squared = 0u64;
    for tr in report.types() {
        if let Some(auth) = &tr.authorization {
            for t in auth.slot_totals() {
                squared += u64::from(t) * u64::from(t);
            }
        }
    }
    (report.total_area(), squared)
}

/// Sequential cross-partition refinement of the merged schedule: up to
/// `passes` deterministic sweeps, each trying every operation at every
/// start inside its precedence/deadline window and keeping strictly
/// cost-improving moves. The shard schedulers optimize against frozen
/// foreign profiles; this pass sees the *live* merged profile, so it can
/// shave the peaks the partitioned view could not. Pure function of the
/// inputs — no randomness, no thread dependence.
fn polish(system: &System, spec: &SharingSpec, schedule: &mut Schedule, passes: usize) {
    let mut cost = polish_cost(system, spec, schedule);
    for _ in 0..passes {
        let mut improved = false;
        for (o, op) in system.ops() {
            let delay = system.delay(o);
            let current = schedule.start(o).expect("merged schedules are complete");
            let lo = system
                .preds(o)
                .iter()
                .map(|&p| schedule.start(p).expect("complete") + system.delay(p))
                .max()
                .unwrap_or(0);
            let mut hi = system.block(op.block()).time_range() - delay;
            for &s in system.succs(o) {
                hi = hi.min(schedule.start(s).expect("complete") - delay);
            }
            let mut kept = current;
            for candidate in lo..=hi {
                if candidate == kept {
                    continue;
                }
                schedule.set(o, candidate);
                let c = polish_cost(system, spec, schedule);
                if c < cost {
                    cost = c;
                    kept = candidate;
                    improved = true;
                } else {
                    schedule.set(o, kept);
                }
            }
        }
        if !improved {
            break;
        }
    }
}

/// Full-spec verification of the merged schedule: structural validity,
/// then simulated executions against the authorization pools of the
/// merged report.
fn verify_merged(
    system: &System,
    spec: &SharingSpec,
    schedule: &Schedule,
    verify_seeds: u64,
) -> Result<(), ScheduleError> {
    let fail = |detail: String| ScheduleError::VerificationFailed { detail };
    schedule.verify(system).map_err(|e| fail(e.to_string()))?;
    let report = compute_report(system, spec, schedule);
    for seed in 0..verify_seeds {
        let acts = random_activations(system, spec, schedule, 3, seed);
        check_execution(system, spec, schedule, &report, &acts).map_err(|e| fail(e.to_string()))?;
    }
    Ok(())
}

/// Schedules `system` under `spec` by feedback-guided subgraph
/// decomposition (see the module docs). With a resolved partition count of
/// one this is *exactly* a monolithic [`ModuloScheduler`] run — bit for
/// bit — so `PartitionCount::Fixed(1)` is a safe universal default.
///
/// # Errors
///
/// Propagates spec validation and engine errors from the shards, and
/// returns [`ScheduleError::VerificationFailed`] if the merged schedule
/// fails the full-spec verification pass.
pub fn schedule_partitioned<'a>(
    system: &'a System,
    spec: SharingSpec,
    config: &FdsConfig,
    pcfg: &PartitionConfig,
) -> Result<PartitionOutcome<'a>, ScheduleError> {
    schedule_partitioned_recorded(system, spec, config, pcfg, &NoopRecorder)
}

/// [`schedule_partitioned`] with observability: per-round timeline points
/// (phase `"partition"`) carrying the partition count, cut edges and
/// per-partition iteration counters, plus `partition.rounds` counting.
pub fn schedule_partitioned_recorded<'a>(
    system: &'a System,
    spec: SharingSpec,
    config: &FdsConfig,
    pcfg: &PartitionConfig,
    rec: &dyn Recorder,
) -> Result<PartitionOutcome<'a>, ScheduleError> {
    let k = match pcfg.count {
        PartitionCount::Auto => auto_partition_count(system),
        PartitionCount::Fixed(k) => k,
    };
    let partitioning = partition_processes(system, k, pcfg.seed);

    // A single partition degenerates to the monolithic scheduler — same
    // validation, same engine, same bits.
    if partitioning.len() <= 1 {
        let out = ModuloScheduler::new(system, spec)?
            .with_config_ref(config)
            .run_recorded(rec)?;
        if rec.enabled() {
            rec.counter_add("partition.rounds", 1);
            rec.timeline(TimelinePoint {
                phase: "partition",
                iteration: 0,
                values: vec![
                    ("partition.parts".to_owned(), 1.0),
                    ("partition.cut_edges".to_owned(), 0.0),
                    ("partition.p0.iterations".to_owned(), out.iterations as f64),
                ],
            });
        }
        let iterations = out.iterations;
        let spec = out.spec().clone();
        return Ok(PartitionOutcome {
            system,
            spec,
            schedule: out.schedule,
            partitions: 1,
            cut_edges: 0,
            rounds: 1,
            partition_iterations: vec![iterations],
        });
    }

    spec.validate(system)?;
    let parts = partitioning.len();
    let cut_edges = partitioning.cut_edges;

    let mut shards = Vec::with_capacity(parts);
    for processes in &partitioning.parts {
        let (sub, map) =
            extract_subsystem(system, processes).expect("a subsystem of a valid system is valid");
        let spec = restrict_spec(system, &spec, &sub, &map);
        shards.push(Shard {
            system: sub,
            map,
            spec,
        });
    }

    // Each shard gets an equal slice of the deterministic budget axes; the
    // wall deadline is shared because the shards run concurrently.
    let sub_config = FdsConfig {
        budget: config.budget.split(parts as u64),
        ..config.clone()
    };

    let mut baselines: Vec<ExternalOccupancy> =
        vec![ExternalOccupancy::empty(system.library().len()); parts];
    let mut merged = Schedule::new(system.num_ops());
    let mut partition_iterations = vec![0u64; parts];
    let mut rounds = 0usize;
    // The feedback loop is not guaranteed to improve monotonically (two
    // shards can oscillate around each other's profiles), so the driver
    // keeps the cheapest merged schedule seen — judged by total area
    // under the *full* spec — and returns that one. Strict `<` keeps the
    // earliest round on ties, a pure function of the schedules.
    let mut best: Option<(u64, Schedule)> = None;

    for round in 0..pcfg.max_rounds.max(1) {
        rounds = round + 1;
        let results: Vec<Result<(Schedule, u64), ScheduleError>> =
            rayon::par_map_indexed(parts, |i| {
                let shard = &shards[i];
                let out = ModuloScheduler::new_relaxed(&shard.system, shard.spec.clone())?
                    .with_config_ref(&sub_config)
                    .with_external_occupancy(baselines[i].clone())
                    .run()?;
                Ok((out.schedule, out.iterations))
            });

        // Merge in partition-index order (deterministic, and the first
        // shard error — by index — wins).
        let mut round_values = vec![
            ("partition.parts".to_owned(), parts as f64),
            ("partition.cut_edges".to_owned(), cut_edges as f64),
        ];
        merged = Schedule::new(system.num_ops());
        for (i, result) in results.into_iter().enumerate() {
            let (sub_schedule, iters) = result?;
            partition_iterations[i] += iters;
            round_values.push((format!("partition.p{i}.iterations"), iters as f64));
            for (sub_idx, &full_op) in shards[i].map.ops.iter().enumerate() {
                let start = sub_schedule
                    .start(OpId::from_index(sub_idx))
                    .expect("shard schedules are complete");
                merged.set(full_op, start);
            }
        }
        let round_area = crate::report::compute_report(system, &spec, &merged).total_area();
        let improved = best.as_ref().is_none_or(|(area, _)| round_area < *area);
        if improved {
            best = Some((round_area, merged.clone()));
        }
        if rec.enabled() {
            round_values.push(("partition.area".to_owned(), round_area as f64));
            rec.counter_add("partition.rounds", 1);
            rec.timeline(TimelinePoint {
                phase: "partition",
                iteration: round as u64,
                values: round_values,
            });
        }

        if round > 0 && !improved {
            // Feedback stopped paying for itself: this round produced a
            // schedule no cheaper than one already in hand, so further
            // rounds would only burn the shards' budget re-orbiting the
            // same profiles.
            break;
        }
        let next = foreign_baselines(system, &spec, &merged, &shards);
        if next == baselines {
            // Fixpoint: rescheduling against identical baselines would
            // reproduce the same shard schedules bit for bit.
            break;
        }
        baselines = next;
    }

    let mut merged = best.map_or(merged, |(_, schedule)| schedule);
    polish(system, &spec, &mut merged, pcfg.polish_passes);
    verify_merged(system, &spec, &merged, pcfg.verify_seeds)?;
    if rec.enabled() {
        rec.gauge_set("partition.cut_edges", cut_edges as f64);
    }
    Ok(PartitionOutcome {
        system,
        spec,
        schedule: merged,
        partitions: parts,
        cut_edges,
        rounds,
        partition_iterations,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::threads_lock;
    use tcms_ir::generators::random::{random_system, RandomSystemConfig};

    fn sample(processes: usize, seed: u64) -> System {
        let config = RandomSystemConfig {
            processes,
            ..RandomSystemConfig::default()
        };
        random_system(&config, seed).unwrap().0
    }

    fn fixed(k: usize) -> PartitionConfig {
        PartitionConfig {
            count: PartitionCount::Fixed(k),
            ..PartitionConfig::default()
        }
    }

    #[test]
    fn merged_schedule_is_complete_and_verifies() {
        let sys = sample(6, 21);
        let spec = SharingSpec::all_global(&sys, 4);
        let out =
            schedule_partitioned(&sys, spec.clone(), &FdsConfig::default(), &fixed(3)).unwrap();
        assert_eq!(out.partitions, 3);
        assert_eq!(out.schedule.assigned(), sys.num_ops());
        assert_eq!(out.partition_iterations.len(), 3);
        assert!(out.rounds >= 1 && out.rounds <= PartitionConfig::default().max_rounds);
        // The driver verified already; re-verify independently.
        verify_merged(&sys, out.spec(), &out.schedule, 2).unwrap();
    }

    #[test]
    fn single_partition_is_bit_identical_to_monolithic() {
        let sys = sample(4, 7);
        let spec = SharingSpec::all_global(&sys, 4);
        let mono = ModuloScheduler::new(&sys, spec.clone())
            .unwrap()
            .run()
            .unwrap();
        let part = schedule_partitioned(&sys, spec, &FdsConfig::default(), &fixed(1)).unwrap();
        assert_eq!(part.partitions, 1);
        assert_eq!(part.cut_edges, 0);
        assert_eq!(mono.schedule.starts(), part.schedule.starts());
        assert_eq!(mono.iterations, part.iterations());
    }

    #[test]
    fn partitioned_schedule_is_thread_count_invariant() {
        let _guard = threads_lock();
        let sys = sample(6, 33);
        let spec = SharingSpec::all_global(&sys, 4);
        let mut reference: Option<Vec<Option<u32>>> = None;
        for threads in [1, 2, 4] {
            rayon::set_num_threads(threads);
            let out =
                schedule_partitioned(&sys, spec.clone(), &FdsConfig::default(), &fixed(3)).unwrap();
            let starts = out.schedule.starts().to_vec();
            match &reference {
                None => reference = Some(starts),
                Some(r) => assert_eq!(r, &starts, "thread count {threads} changed the schedule"),
            }
        }
        rayon::set_num_threads(0);
    }

    #[test]
    fn auto_count_runs_and_verifies() {
        let sys = sample(5, 11);
        let spec = SharingSpec::all_global(&sys, 4);
        let out = schedule_partitioned(
            &sys,
            spec,
            &FdsConfig::default(),
            &PartitionConfig::default(),
        )
        .unwrap();
        assert!(out.partitions >= 1);
        assert_eq!(out.schedule.assigned(), sys.num_ops());
    }

    #[test]
    fn partitioned_quality_is_reported_under_full_spec() {
        let sys = sample(6, 5);
        let spec = SharingSpec::all_global(&sys, 4);
        let mono = ModuloScheduler::new(&sys, spec.clone())
            .unwrap()
            .run()
            .unwrap();
        let part = schedule_partitioned(&sys, spec, &FdsConfig::default(), &fixed(2)).unwrap();
        let mono_area = mono.report().total_area();
        let part_area = part.report().total_area();
        assert!(mono_area > 0 && part_area > 0);
        // Partitioning may lose some quality but not unboundedly: the
        // all-local area is a hard upper bound for any valid schedule's
        // authorized pools under this library.
        let local = ModuloScheduler::new(&sys, SharingSpec::all_local(&sys))
            .unwrap()
            .run()
            .unwrap();
        assert!(part_area <= 4 * local.report().total_area().max(mono_area));
    }

    #[test]
    fn restricted_spec_drops_foreign_members_and_empty_groups() {
        let sys = sample(4, 3);
        let spec = SharingSpec::all_global(&sys, 4);
        let partitioning = partition_processes(&sys, 2, 0);
        let (sub, map) = extract_subsystem(&sys, &partitioning.parts[0]).unwrap();
        let restricted = restrict_spec(&sys, &spec, &sub, &map);
        restricted.validate_relaxed(&sub).unwrap();
        for (rtype, _) in sys.library().iter() {
            if let Some(group) = restricted.group(rtype) {
                assert!(group.iter().all(|p| p.index() < sub.num_processes()));
                assert!(!group.is_empty());
            }
        }
    }
}
