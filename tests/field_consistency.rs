//! Property test: the incrementally maintained spring field of the
//! modified force model stays within 1e-9 of a from-scratch rebuild
//! across arbitrary commit sequences (the distribution may drift by
//! summation-order ULPs; `field.rs` pins the folded layers bitwise).
//! This is the invariant the whole modified force rests on — a drifting
//! field would silently corrupt every force.
//!
//! The forces priced on that field are checked against a field rebuilt
//! from scratch (`force_naive`) in `tests/incremental_equivalence.rs`;
//! the fold kernels are pinned bitwise against the seed's branchy fold by
//! the proptests in `tcms-core`'s `kernel` module.

use proptest::prelude::*;

use tcms::fds::{FdsConfig, ForceEvaluator};
use tcms::ir::generators::{random_system, RandomSystemConfig};
use tcms::ir::{FrameTable, TimeFrame};
use tcms::modulo::{ModuloEvaluator, ModuloField, SharingSpec};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn incremental_field_matches_rebuild(
        seed in 0u64..500,
        period in 2u32..5,
        commits in prop::collection::vec((0usize..64, 0u32..4), 1..12),
    ) {
        let cfg = RandomSystemConfig {
            processes: 3,
            blocks_per_process: 1,
            layers: 3,
            ops_per_layer: (1, 3),
            edge_prob: 0.4,
            slack: 2.5,
            type_weights: [2, 1, 2],
        };
        let (system, _) = random_system(&cfg, seed).unwrap();
        let spec = SharingSpec::all_global(&system, period);
        prop_assume!(tcms::modulo::period::spacing_feasible(&system, &spec));

        let mut frames = FrameTable::initial(&system);
        let mut eval =
            ModuloEvaluator::new(&system, spec.clone(), FdsConfig::default(), &frames);

        // Apply a sequence of random single-op frame shrinks via commit.
        for (op_pick, side) in commits {
            let ops: Vec<_> = system.op_ids().collect();
            let o = ops[op_pick % ops.len()];
            let fr = frames.get(o);
            if fr.is_fixed() {
                continue;
            }
            let nf = if side % 2 == 0 {
                TimeFrame::new(fr.asap + 1, fr.alap)
            } else {
                TimeFrame::new(fr.asap, fr.alap - 1)
            };
            // Propagate the shrink to keep the table consistent.
            let block = system.op(o).block();
            let solved = tcms::ir::frames::constrained_frames(&system, block, |q| {
                if q == o { nf } else { frames.get(q) }
            })
            .expect("shrinking within a consistent frame stays feasible");
            let changed: Vec<_> = solved
                .into_iter()
                .filter(|&(q, f)| f != frames.get(q))
                .collect();
            eval.commit(&frames, &changed);
            for &(q, f) in &changed {
                frames.set(q, f);
            }
        }

        // The incremental field must equal a from-scratch rebuild.
        let rebuilt = ModuloField::new(&system, spec.clone(), &frames);
        for k in spec.global_types(&system) {
            let inc = eval.field().group_profile(k);
            let full = rebuilt.group_profile(k);
            for (slot, (a, b)) in inc.iter().zip(full).enumerate() {
                prop_assert!(
                    (a - b).abs() < 1e-9,
                    "type {k} slot {slot}: incremental {a} vs rebuilt {b}"
                );
            }
        }
        // And classic per-block distributions agree too.
        for (bid, block) in system.blocks() {
            for k in system.types_used_by_block(bid) {
                let inc = eval.field().distributions().get(bid, k);
                let full = rebuilt.distributions().get(bid, k);
                for (t, (a, b)) in inc.iter().zip(full).enumerate() {
                    prop_assert!(
                        (a - b).abs() < 1e-9,
                        "block {} type {k} t={t}",
                        block.name()
                    );
                }
            }
        }
    }
}
