//! Property tests for the incremental force-evaluation core: every
//! dirty-region shortcut must be observationally equivalent to the
//! from-scratch reference it replaces.
//!
//! Three layers are pinned down, mirroring the refactor:
//!
//! 1. `DistributionSet::apply_op_change` sequences vs a from-scratch
//!    `DistributionSet::build` of the final frame table, and the
//!    affected-ops walk of `narrowing_changes` vs re-solving the whole
//!    block with `constrained_frames`.
//! 2. Incremental `force()` vs `force_naive()` for both the classic
//!    per-block evaluator and the modulo evaluator, after arbitrary
//!    commit sequences on random systems.
//! 3. The cached engine run vs the cache-free reference run — here the
//!    requirement is *bit-identity* of the produced schedules, because
//!    both paths fold the same incremental distribution and the cache
//!    may only skip work, never change a value. Forces re-summed from
//!    their recorded terms are covered here too: with all types global,
//!    with one type local (local terms interleaved with global ones),
//!    and with frozen external baselines seeding `G_k`, as the
//!    partitioned scheduler runs the engine.
//!
//! Random systems come from `tcms::ir::generators::random_system`;
//! commit sequences are random single-op frame shrinks propagated with
//! `constrained_frames` so the table stays precedence-consistent, same
//! as the engine does during gradual time-frame reduction.

use proptest::prelude::*;

use tcms::fds::dist::DistributionSet;
use tcms::fds::{ClassicEvaluator, FdsConfig, ForceEvaluator};
use tcms::ir::generators::{random_system, RandomSystemConfig};
use tcms::ir::{FrameTable, OpId, System, TimeFrame};
use tcms::modulo::{ExternalOccupancy, ModuloEvaluator, ModuloScheduler, SharingSpec};

const TOL: f64 = 1e-9;

fn small_config() -> RandomSystemConfig {
    RandomSystemConfig {
        processes: 3,
        blocks_per_process: 1,
        layers: 3,
        ops_per_layer: (1, 3),
        edge_prob: 0.4,
        slack: 2.5,
        type_weights: [2, 1, 2],
    }
}

/// Applies one random single-op frame shrink, propagated through the
/// op's block so the table stays consistent. Returns the changed set
/// (possibly empty when the op is already fixed).
fn random_shrink(
    system: &System,
    frames: &FrameTable,
    op_pick: usize,
    side: u32,
) -> Vec<(OpId, TimeFrame)> {
    let ops: Vec<_> = system.op_ids().collect();
    let o = ops[op_pick % ops.len()];
    let fr = frames.get(o);
    if fr.is_fixed() {
        return Vec::new();
    }
    let nf = if side.is_multiple_of(2) {
        TimeFrame::new(fr.asap + 1, fr.alap)
    } else {
        TimeFrame::new(fr.asap, fr.alap - 1)
    };
    let block = system.op(o).block();
    let solved = tcms::ir::frames::constrained_frames(system, block, |q| {
        if q == o {
            nf
        } else {
            frames.get(q)
        }
    })
    .expect("shrinking within a consistent frame stays feasible");
    solved
        .into_iter()
        .filter(|&(q, f)| f != frames.get(q))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Layer 1: dirty-region distribution updates match a full rebuild.
    #[test]
    fn incremental_distributions_match_scratch_build(
        seed in 0u64..500,
        shrinks in prop::collection::vec((0usize..64, 0u32..4), 1..16),
    ) {
        let (system, _) = random_system(&small_config(), seed).unwrap();
        let mut frames = FrameTable::initial(&system);
        let mut dist = DistributionSet::build(&system, &frames);

        for (op_pick, side) in shrinks {
            for (q, f) in random_shrink(&system, &frames, op_pick, side) {
                let (lo, hi) = dist.apply_op_change(&system, q, frames.get(q), f);
                prop_assert!(lo <= hi, "dirty region must be a valid range");
                frames.set(q, f);
            }
        }

        let rebuilt = DistributionSet::build(&system, &frames);
        for (bid, block) in system.blocks() {
            for k in system.types_used_by_block(bid) {
                let inc = dist.get(bid, k);
                let full = rebuilt.get(bid, k);
                for (t, (a, b)) in inc.iter().zip(full).enumerate() {
                    prop_assert!(
                        (a - b).abs() < TOL,
                        "block {} type {k} t={t}: incremental {a} vs rebuilt {b}",
                        block.name()
                    );
                }
            }
        }
    }

    /// Layer 1b: implied-change propagation that walks only the ops a
    /// narrowing reaches lists exactly what re-solving the whole block
    /// with `constrained_frames` changes, in the same (topological) order
    /// — the order fixes the summation order of the force, so it must
    /// match too. Checked after random commit sequences, for every op,
    /// pinned at both frame ends and shrunk by one step on either side.
    #[test]
    fn narrowing_changes_match_full_block_propagation(
        seed in 0u64..500,
        shrinks in prop::collection::vec((0usize..64, 0u32..4), 0..12),
    ) {
        let config = RandomSystemConfig { blocks_per_process: 2, ..small_config() };
        let (system, _) = random_system(&config, seed).unwrap();
        let mut frames = FrameTable::initial(&system);
        for (op_pick, side) in shrinks {
            for (q, f) in random_shrink(&system, &frames, op_pick, side) {
                frames.set(q, f);
            }
        }
        for o in system.op_ids() {
            let fr = frames.get(o);
            let mut narrowings = vec![
                TimeFrame::new(fr.asap, fr.asap),
                TimeFrame::new(fr.alap, fr.alap),
            ];
            if !fr.is_fixed() {
                narrowings.push(TimeFrame::new(fr.asap + 1, fr.alap));
                narrowings.push(TimeFrame::new(fr.asap, fr.alap - 1));
            }
            for nf in narrowings {
                let block = system.op(o).block();
                let full: Vec<_> = tcms::ir::frames::constrained_frames(&system, block, |q| {
                    if q == o { nf } else { frames.get(q) }
                })
                .expect("narrowing a consistent frame stays feasible")
                .into_iter()
                .filter(|&(q, f)| f != frames.get(q))
                .collect();
                let walked = tcms::ir::frames::narrowing_changes(&system, &frames, o, nf);
                prop_assert_eq!(walked, full, "seed {}: {:?} -> {:?}", seed, o, nf);
            }
        }
    }

    /// Layer 2a: the classic evaluator's incremental force equals the
    /// from-scratch oracle after arbitrary commit sequences.
    #[test]
    fn classic_incremental_force_matches_naive(
        seed in 0u64..500,
        shrinks in prop::collection::vec((0usize..64, 0u32..4), 0..10),
        probe in 0usize..64,
    ) {
        let (system, _) = random_system(&small_config(), seed).unwrap();
        let scope: Vec<_> = system.block_ids().collect();
        let mut frames = FrameTable::initial(&system);
        let mut eval = ClassicEvaluator::new(&system, &scope, FdsConfig::default());

        for (op_pick, side) in shrinks {
            let changed = random_shrink(&system, &frames, op_pick, side);
            eval.commit(&frames, &changed);
            for &(q, f) in &changed {
                frames.set(q, f);
            }
        }

        let ops: Vec<_> = system.op_ids().collect();
        let o = ops[probe % ops.len()];
        let fr = frames.get(o);
        for pin in [fr.asap, fr.alap] {
            let cand = vec![(o, TimeFrame::new(pin, pin))];
            let inc = eval.force(&frames, &cand);
            let naive = eval.force_naive(&frames, &cand);
            prop_assert!(
                (inc - naive).abs() < TOL,
                "op {o:?} pinned to {pin}: incremental {inc} vs naive {naive}"
            );
        }
    }

    /// Layer 2b: same property for the modulo evaluator — the globally
    /// coupled force (D-hat / M_p / G_k chain) stays equal to a force
    /// computed over a field rebuilt from scratch.
    #[test]
    fn modulo_incremental_force_matches_naive(
        seed in 0u64..500,
        period in 2u32..5,
        shrinks in prop::collection::vec((0usize..64, 0u32..4), 0..10),
        probe in 0usize..64,
    ) {
        let (system, _) = random_system(&small_config(), seed).unwrap();
        let spec = SharingSpec::all_global(&system, period);
        prop_assume!(tcms::modulo::period::spacing_feasible(&system, &spec));

        let mut frames = FrameTable::initial(&system);
        let mut eval =
            ModuloEvaluator::new(&system, spec, FdsConfig::default(), &frames);

        for (op_pick, side) in shrinks {
            let changed = random_shrink(&system, &frames, op_pick, side);
            eval.commit(&frames, &changed);
            for &(q, f) in &changed {
                frames.set(q, f);
            }
        }

        let ops: Vec<_> = system.op_ids().collect();
        let o = ops[probe % ops.len()];
        let fr = frames.get(o);
        for pin in [fr.asap, fr.alap] {
            let cand = vec![(o, TimeFrame::new(pin, pin))];
            let inc = eval.force(&frames, &cand);
            let naive = eval.force_naive(&frames, &cand);
            prop_assert!(
                (inc - naive).abs() < TOL,
                "op {o:?} pinned to {pin}: incremental {inc} vs naive {naive}"
            );
        }
    }

    /// Layer 2c: batched candidate evaluation is bit-identical to one
    /// `force()` call per candidate — and both to the from-scratch
    /// oracle — after arbitrary commit sequences. This is the contract
    /// the engine's batched sweep stands on.
    #[test]
    fn batched_forces_match_scalar_and_naive(
        seed in 0u64..500,
        period in 2u32..5,
        shrinks in prop::collection::vec((0usize..64, 0u32..4), 0..8),
    ) {
        let (system, _) = random_system(&small_config(), seed).unwrap();
        let spec = SharingSpec::all_global(&system, period);
        prop_assume!(tcms::modulo::period::spacing_feasible(&system, &spec));

        let mut frames = FrameTable::initial(&system);
        let mut eval =
            ModuloEvaluator::new(&system, spec, FdsConfig::default(), &frames);
        for (op_pick, side) in shrinks {
            let changed = random_shrink(&system, &frames, op_pick, side);
            eval.commit(&frames, &changed);
            for &(q, f) in &changed {
                frames.set(q, f);
            }
        }

        // Both frame ends of every op, scored as one batch.
        let mut candidates: Vec<Vec<(OpId, TimeFrame)>> = Vec::new();
        for o in system.op_ids() {
            let fr = frames.get(o);
            candidates.push(vec![(o, TimeFrame::new(fr.asap, fr.asap))]);
            candidates.push(vec![(o, TimeFrame::new(fr.alap, fr.alap))]);
        }
        let views: Vec<&[(OpId, TimeFrame)]> =
            candidates.iter().map(|c| c.as_slice()).collect();
        let batched = eval.force_batch(&frames, &views);
        prop_assert_eq!(batched.len(), views.len());
        for (i, cand) in views.iter().enumerate() {
            let scalar = eval.force(&frames, cand);
            prop_assert_eq!(
                batched[i].to_bits(), scalar.to_bits(),
                "seed {}: candidate {} batched {} vs scalar {}",
                seed, i, batched[i], scalar
            );
        }
    }

    /// Layer 3: the cached scheduler run is bit-identical to the
    /// cache-free reference run — same start times, same iteration
    /// count, same allocation — on random multi-process systems. Three
    /// specs per system: every type global; one type local, so cached
    /// local terms are re-summed alongside the global ones; and every
    /// type global with frozen external baselines seeding each `G_k`, as
    /// in the feedback rounds of `schedule_partitioned`.
    #[test]
    fn cached_scheduler_run_is_bit_identical(
        seed in 0u64..200,
        period in 2u32..5,
        local_pick in 0usize..3,
        base in prop::collection::vec(0u32..4, 4),
    ) {
        let (system, types) = random_system(&small_config(), seed).unwrap();
        let spec = SharingSpec::all_global(&system, period);
        prop_assume!(tcms::modulo::period::spacing_feasible(&system, &spec));
        let mut mixed = spec.clone();
        mixed.set_local([types.add, types.sub, types.mul][local_pick]);
        let none = ExternalOccupancy::empty(system.library().len());
        let mut external = none.clone();
        for k in spec.global_types(&system) {
            let profile = (0..period as usize)
                .map(|slot| f64::from(base[slot % base.len()]) * 0.5)
                .collect();
            external.set(k, profile);
        }

        for (spec, external) in [(spec.clone(), none.clone()), (mixed, none), (spec, external)] {
            let run = |naive: bool| {
                let scheduler = ModuloScheduler::new(&system, spec.clone())
                    .unwrap()
                    .with_external_occupancy(external.clone());
                if naive { scheduler.run_naive() } else { scheduler.run() }.unwrap()
            };
            let (cached, naive) = (run(false), run(true));
            prop_assert_eq!(
                cached.schedule.starts(),
                naive.schedule.starts(),
                "cached and naive runs must place every op identically"
            );
            prop_assert_eq!(cached.iterations, naive.iterations);
            // The cache may only skip evaluations, never add them.
            prop_assert!(cached.stats.ops_evaluated <= naive.stats.ops_evaluated);
            prop_assert!(cached.stats.resums <= cached.stats.cache_hits);
            prop_assert_eq!(naive.stats.cache_hits, 0);
        }
    }
}

/// The precise-dirtying commit path (distribution versions bump only when
/// bits actually change; context stamps are gated on `dist_changed`) and
/// the re-summed forces of other processes (a moved `G_k` stamps nothing)
/// must keep the paper-system cache hit-rate at or above its measured
/// level, and the fresh evaluations below theirs — a regression here
/// silently degrades the incremental engine without failing any
/// equivalence test.
#[test]
fn paper_system_cache_hit_rate_clears_floor() {
    let (sys, _) = tcms::ir::generators::paper_system().unwrap();
    let spec = SharingSpec::all_global(&sys, 5);
    let out = ModuloScheduler::new(&sys, spec).unwrap().run().unwrap();
    assert!(
        out.stats.cache_hits > 0,
        "the paper system must hit the cache"
    );
    let rate = out.stats.hit_rate();
    assert!(
        rate >= 0.70,
        "paper-system hit rate regressed: {rate:.3} (measured 0.719 with re-summed forces)"
    );
    assert!(
        out.stats.ops_evaluated <= 80_000,
        "paper-system fresh evaluations regressed: {} (measured 66,044 with re-summed forces)",
        out.stats.ops_evaluated
    );
    assert!(
        out.stats.resums > 0 && out.stats.resums <= out.stats.cache_hits,
        "re-sums are a non-empty subset of the cache hits"
    );
    assert_eq!(
        out.stats.batched_evals, out.stats.ops_evaluated,
        "every fresh pair must go through the batched entry point"
    );
}
