//! The original force-directed scheduling algorithm (Paulin/Knight 1989).
//!
//! Per iteration the original algorithm evaluates *every* feasible
//! placement of *every* unscheduled operation, fixes the operation with the
//! least force at its best time step, and repeats. It is kept as a baseline
//! for the `fds_vs_ifds` ablation bench; production code should use the
//! engine in [`crate::engine`].

use tcms_ir::{BlockId, System, TimeFrame};

use crate::config::FdsConfig;
use crate::engine::{IfdsEngine, IfdsOutcome, IfdsStats};
use crate::evaluator::{ClassicEvaluator, ForceEvaluator};
use crate::schedule::Schedule;

/// Schedules one block with the original FDS algorithm.
pub fn schedule_block_fds(system: &System, block: BlockId, config: &FdsConfig) -> IfdsOutcome {
    let mut eval = ClassicEvaluator::new(system, &[block], config.clone());
    // Reuse the engine's frame bookkeeping for propagation, but drive it
    // with the original selection rule.
    let mut engine = FdsDriver {
        inner: IfdsEngine::new(system, vec![block]),
        system,
        block,
    };
    engine.run(&mut eval)
}

struct FdsDriver<'a> {
    inner: IfdsEngine<'a>,
    system: &'a System,
    block: BlockId,
}

impl FdsDriver<'_> {
    fn run<E: ForceEvaluator>(&mut self, eval: &mut E) -> IfdsOutcome {
        let run_started = std::time::Instant::now();
        let ops: Vec<_> = self.system.block(self.block).ops().to_vec();
        let mut iterations = 0;
        let mut ops_evaluated = 0;
        let mut placements = Vec::new();
        loop {
            // Every feasible placement of every unfixed op, scored as one
            // batch, then folded in the same order.
            placements.clear();
            for &o in &ops {
                let fr = self.inner.frames().get(o);
                if !fr.is_fixed() {
                    placements.extend((fr.asap..=fr.alap).map(|t| (o, t)));
                }
            }
            ops_evaluated += placements.len() as u64;
            let forces = self.inner.placement_forces(eval, &placements);
            let mut best: Option<(f64, tcms_ir::OpId, u32)> = None;
            for (&(o, t), &f) in placements.iter().zip(&forces) {
                if best.as_ref().is_none_or(|b| f < b.0 - 1e-12) {
                    best = Some((f, o, t));
                }
            }
            let Some((_, o, t)) = best else { break };
            let changes = self.inner.implied_changes(o, TimeFrame::new(t, t));
            eval.commit(self.inner.frames(), &changes);
            self.inner.apply(&changes);
            iterations += 1;
        }
        let mut schedule = Schedule::new(self.system.num_ops());
        for &o in &ops {
            schedule.set(o, self.inner.frames().fixed_start(o));
        }
        IfdsOutcome {
            schedule,
            iterations,
            stats: IfdsStats {
                iterations,
                ops_evaluated,
                total_time: run_started.elapsed(),
                ..IfdsStats::default()
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SpringWeights;
    use tcms_ir::generators::{add_diffeq_process, add_ewf_process, paper_library};
    use tcms_ir::SystemBuilder;

    #[test]
    fn fds_schedules_diffeq_validly() {
        let (lib, types) = paper_library();
        let mut b = SystemBuilder::new(lib);
        let (_, blk) = add_diffeq_process(&mut b, "P", 10, types).unwrap();
        let sys = b.build().unwrap();
        let out = schedule_block_fds(&sys, blk, &FdsConfig::default());
        out.schedule.verify(&sys).unwrap();
        // One op fixed per iteration, some may collapse implicitly.
        assert!(out.iterations as usize <= sys.block(blk).len());
    }

    #[test]
    fn fds_spreads_multiplications() {
        let (lib, types) = paper_library();
        let mut b = SystemBuilder::new(lib);
        let (_, blk) = add_ewf_process(&mut b, "P", 20, types).unwrap();
        let sys = b.build().unwrap();
        let out = schedule_block_fds(&sys, blk, &FdsConfig::default());
        out.schedule.verify(&sys).unwrap();
        // 8 multiplications in 20 steps: FDS should need far fewer than the
        // 8 instances of a naive ASAP schedule; 3 is what classic FDS
        // reaches on EWF-like graphs with moderate slack.
        let peak = out.schedule.peak_usage(&sys, blk, types.mul);
        assert!(peak <= 3, "multiplier peak {peak} too high");
    }

    #[test]
    fn fds_respects_uniform_weights() {
        let (lib, types) = paper_library();
        let mut b = SystemBuilder::new(lib);
        let (_, blk) = add_diffeq_process(&mut b, "P", 12, types).unwrap();
        let sys = b.build().unwrap();
        let cfg = FdsConfig {
            lookahead: 0.0,
            spring_weights: SpringWeights::Uniform,
            ..FdsConfig::default()
        };
        let out = schedule_block_fds(&sys, blk, &cfg);
        out.schedule.verify(&sys).unwrap();
    }
}
