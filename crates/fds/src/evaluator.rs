//! The force model abstraction and its classical implementation.
//!
//! The IFDS engine ([`crate::engine`]) is generic over a [`ForceEvaluator`]:
//! the classical per-block model lives here, while `tcms-core` plugs in the
//! paper's modified model (modulo-maximum transformation plus global
//! balancing) without duplicating the engine.

use tcms_ir::{BlockId, FrameTable, OpId, ResourceTypeId, System, TimeFrame};
use tcms_obs::Recorder;

use crate::config::FdsConfig;
use crate::dist::DistributionSet;
use crate::prob;

/// A pluggable force model for the IFDS engine.
///
/// `changed` always lists `(operation, new frame)` pairs for exactly the
/// operations whose frame differs from the committed state in `frames`;
/// implied predecessor/successor frame reductions are included, so the
/// returned force already contains the classical "self + neighbour" terms.
///
/// # Incremental contract
///
/// [`ForceEvaluator::force`] must be a pure function of the committed
/// state (frames plus whatever the evaluator maintains) and `changed`.
/// [`ForceEvaluator::context_stamp`] summarizes that committed state per
/// block, except for profiles a force reads through recorded terms. As
/// long as the stamp of a block is unchanged, a force for a change rooted
/// in that block is reproduced bit for bit either by its cached value —
/// when [`ForceEvaluator::force_batch`] recorded no terms for it —
/// or by [`ForceEvaluator::resum`] over the terms it recorded. Evaluators
/// that cannot provide this guarantee return `None` from `context_stamp`
/// (the default), which disables caching.
pub trait ForceEvaluator {
    /// Force of tentatively applying `changed` on top of `frames`.
    /// Lower is better; negative values reduce expected concurrency.
    fn force(&self, frames: &FrameTable, changed: &[(OpId, TimeFrame)]) -> f64;

    /// Batched evaluation: the forces of several candidate change sets
    /// against the *same* committed state, in order, with the terms of
    /// each candidate's force fold recorded into `log` (one
    /// [`TermLog::close`] per candidate, also for candidates with no
    /// terms).
    ///
    /// Must return exactly what [`ForceEvaluator::force`] would return for
    /// each candidate (bit-identically) — implementations may only share
    /// state-dependent intermediates across candidates, never change the
    /// per-candidate arithmetic. The engine's candidate sweep scores every
    /// candidate through this entry point; evaluators with expensive state
    /// folds (the modulo evaluator's sibling-block slot maxima) amortize
    /// them across the batch. Terms let a cached force be re-summed with
    /// [`ForceEvaluator::resum`] when a profile outside the context stamp
    /// moved. The default computes each candidate independently and
    /// records no terms, so every cached force is reused as it is.
    fn force_batch(
        &self,
        frames: &FrameTable,
        candidates: &[&[(OpId, TimeFrame)]],
        log: &mut TermLog,
    ) -> Vec<f64> {
        candidates
            .iter()
            .map(|c| {
                log.close();
                self.force(frames, c)
            })
            .collect()
    }

    /// Replays the recorded terms of one candidate against the live
    /// profiles. Called only with non-empty terms this evaluator recorded,
    /// and only while the candidate's frame generation and context stamp
    /// are those it was recorded under; must then return exactly what
    /// [`ForceEvaluator::force`] would.
    ///
    /// # Panics
    ///
    /// The default panics: an evaluator that records no terms is never
    /// asked to re-sum them.
    fn resum(&self, terms: Terms<'_>) -> f64 {
        let _ = terms;
        unreachable!("this evaluator records no force terms")
    }

    /// Commits `changed`. `frames` is the state *before* the change; the
    /// engine updates its frame table right after this call.
    fn commit(&mut self, frames: &FrameTable, changed: &[(OpId, TimeFrame)]);

    /// Notifies the evaluator that the frames of `ops` changed (or will
    /// change) through some path other than [`ForceEvaluator::commit`] —
    /// e.g. a driver mutating the engine's frame table directly. The
    /// evaluator must conservatively advance the affected context stamps so
    /// cached forces touching those ops are recomputed.
    ///
    /// The default implementation does nothing, which is sound only
    /// together with the default (`None`) [`ForceEvaluator::context_stamp`].
    fn invalidate(&mut self, ops: &[OpId]) {
        let _ = ops;
    }

    /// Monotone stamp covering every piece of evaluator state a force for
    /// a change rooted in `block` can read. `None` disables force caching
    /// for this evaluator.
    fn context_stamp(&self, block: BlockId) -> Option<u64> {
        let _ = block;
        None
    }

    /// Observability hook: called once per engine iteration (after the
    /// commit) when recording is enabled, so evaluators can sample their
    /// internal state — the modulo evaluator emits the slot occupancy of
    /// its `M_p`/`G_k` fields here. Only invoked when
    /// [`Recorder::enabled`] is true; the default records nothing.
    fn record_iteration(&self, rec: &dyn Recorder, iteration: u64) {
        let _ = (rec, iteration);
    }
}

/// One recorded term of a force fold. The evaluator that recorded it
/// replays it as `force_sum(total, &profile[lo..], x, w_k, lookahead)`
/// ([`crate::slab::force_sum`]), where `profile` is the live profile
/// `key` names, `w_k` the spring weight of its type and `x` the `len`
/// displacement values stored with it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ForceTerm {
    /// Evaluator-defined name of the profile the term is priced on.
    pub key: u32,
    /// First profile step the displacement covers.
    pub lo: u32,
    /// Number of displacement values.
    pub len: u32,
}

/// The fold terms of a sequence of candidates, back to back: each
/// candidate's [`ForceTerm`]s in fold order, and their displacement
/// values concatenated in the same order. Cleared and refilled per batch,
/// so its buffers keep their capacity.
#[derive(Debug, Clone, Default)]
pub struct TermLog {
    terms: Vec<ForceTerm>,
    xs: Vec<f64>,
    /// `ends[i]`: end of candidate `i` in `terms` and in `xs`.
    ends: Vec<(usize, usize)>,
}

impl TermLog {
    /// Forgets every candidate, keeping the buffers.
    pub fn clear(&mut self) {
        self.terms.clear();
        self.xs.clear();
        self.ends.clear();
    }

    /// Appends a term with displacement `x` to the open candidate.
    pub fn push(&mut self, key: u32, lo: usize, x: &[f64]) {
        self.terms.push(ForceTerm {
            key,
            lo: u32::try_from(lo).expect("profile step fits u32"),
            len: u32::try_from(x.len()).expect("displacement length fits u32"),
        });
        self.xs.extend_from_slice(x);
    }

    /// Closes the open candidate: the terms pushed since the last close.
    pub fn close(&mut self) {
        self.ends.push((self.terms.len(), self.xs.len()));
    }

    /// The terms of closed candidate `i`.
    pub fn candidate(&self, i: usize) -> Terms<'_> {
        let (t0, x0) = if i == 0 { (0, 0) } else { self.ends[i - 1] };
        let (t1, x1) = self.ends[i];
        Terms {
            terms: &self.terms[t0..t1],
            xs: &self.xs[x0..x1],
        }
    }
}

/// The recorded terms of one candidate: its [`ForceTerm`]s in fold order
/// and their displacement values back to back.
#[derive(Debug, Clone, Copy)]
pub struct Terms<'a> {
    /// The terms, in fold order.
    pub terms: &'a [ForceTerm],
    /// The displacement values of `terms`, concatenated.
    pub xs: &'a [f64],
}

impl<'a> Terms<'a> {
    /// Each term with its displacement values, in fold order.
    pub fn iter(&self) -> impl Iterator<Item = (&'a ForceTerm, &'a [f64])> + 'a {
        let xs = self.xs;
        self.terms.iter().scan(0, move |at, t| {
            let start = *at;
            *at += t.len as usize;
            Some((t, &xs[start..*at]))
        })
    }
}

/// The classical FDS force model of Paulin/Knight with the improvements of
/// Verhaegh et al.: per-block distribution graphs, look-ahead and per-type
/// spring weights.
#[derive(Debug, Clone)]
pub struct ClassicEvaluator<'a> {
    system: &'a System,
    config: FdsConfig,
    dist: DistributionSet,
    /// Staleness counter shared by the block stamps.
    epoch: u64,
    /// `block_epoch[b]`: epoch of the last commit/invalidation touching
    /// block `b`. The classical force of a change rooted in `b` reads only
    /// `b`-local state, so this single stamp covers it.
    block_epoch: Vec<u64>,
}

impl<'a> ClassicEvaluator<'a> {
    /// Builds the evaluator for the given scheduling scope (distributions
    /// are built for the whole system; `scope` documents intent and is
    /// validated in debug builds).
    pub fn new(system: &'a System, scope: &[BlockId], config: FdsConfig) -> Self {
        debug_assert!(!scope.is_empty(), "empty scheduling scope");
        let frames = FrameTable::initial(system);
        ClassicEvaluator {
            system,
            config,
            dist: DistributionSet::build(system, &frames),
            epoch: 0,
            block_epoch: vec![0; system.num_blocks()],
        }
    }

    /// Read access to the current distribution graphs.
    pub fn distributions(&self) -> &DistributionSet {
        &self.dist
    }

    /// Accumulates the probability deltas of `changed`, grouped per
    /// `(block, type)`, into reused buffers: `keys` is rebuilt, and only
    /// the first `keys.len()` entries of `bufs` are meaningful (spare
    /// buffers keep their capacity for the next call).
    fn deltas_into(
        &self,
        frames: &FrameTable,
        changed: &[(OpId, TimeFrame)],
        keys: &mut Vec<(BlockId, ResourceTypeId)>,
        bufs: &mut Vec<Vec<f64>>,
    ) {
        keys.clear();
        for &(o, nf) in changed {
            let op = self.system.op(o);
            let key = (op.block(), op.resource_type());
            let i = keys.iter().position(|&k| k == key).unwrap_or_else(|| {
                keys.push(key);
                let len = self.system.block(key.0).time_range() as usize;
                if bufs.len() < keys.len() {
                    bufs.push(vec![0.0; len]);
                } else {
                    let b = &mut bufs[keys.len() - 1];
                    b.clear();
                    b.resize(len, 0.0);
                }
                keys.len() - 1
            });
            let occ = self.system.occupancy(o);
            prob::accumulate(&mut bufs[i], nf, occ, 1.0);
            prob::accumulate(&mut bufs[i], frames.get(o), occ, -1.0);
        }
    }

    /// Allocating wrapper around [`ClassicEvaluator::deltas_into`].
    fn deltas(
        &self,
        frames: &FrameTable,
        changed: &[(OpId, TimeFrame)],
    ) -> (Vec<(BlockId, ResourceTypeId)>, Vec<Vec<f64>>) {
        let mut keys = Vec::new();
        let mut bufs = Vec::new();
        self.deltas_into(frames, changed, &mut keys, &mut bufs);
        bufs.truncate(keys.len());
        (keys, bufs)
    }

    /// Reference force computed against distributions rebuilt from scratch
    /// out of `frames` — the oracle the incremental path is property-tested
    /// against. Slow by design; only compiled for tests and the
    /// `naive-oracle` feature.
    #[cfg(any(test, feature = "naive-oracle"))]
    pub fn force_naive(&self, frames: &FrameTable, changed: &[(OpId, TimeFrame)]) -> f64 {
        let rebuilt = DistributionSet::build(self.system, frames);
        let (keys, bufs) = self.deltas(frames, changed);
        let mut total = 0.0;
        for (i, &(b, k)) in keys.iter().enumerate() {
            let w = self.config.spring_weights.weight(self.system.library(), k);
            total = crate::slab::force_sum(
                total,
                rebuilt.get(b, k),
                &bufs[i],
                w,
                self.config.lookahead,
            );
        }
        total
    }
}

impl ForceEvaluator for ClassicEvaluator<'_> {
    fn force(&self, frames: &FrameTable, changed: &[(OpId, TimeFrame)]) -> f64 {
        let (keys, bufs) = self.deltas(frames, changed);
        let mut total = 0.0;
        for (i, &(b, k)) in keys.iter().enumerate() {
            let w = self.config.spring_weights.weight(self.system.library(), k);
            total = crate::slab::force_sum(
                total,
                self.dist.get(b, k),
                &bufs[i],
                w,
                self.config.lookahead,
            );
        }
        total
    }

    /// Batched scoring sharing the delta scratch buffers across
    /// candidates; the per-candidate arithmetic is identical to
    /// [`ForceEvaluator::force`], so the results are bit-identical. The
    /// stamp covers every input, so no terms are recorded.
    fn force_batch(
        &self,
        frames: &FrameTable,
        candidates: &[&[(OpId, TimeFrame)]],
        log: &mut TermLog,
    ) -> Vec<f64> {
        let mut keys = Vec::new();
        let mut bufs = Vec::new();
        let mut out = Vec::with_capacity(candidates.len());
        for &changed in candidates {
            self.deltas_into(frames, changed, &mut keys, &mut bufs);
            let mut total = 0.0;
            for (i, &(b, k)) in keys.iter().enumerate() {
                let w = self.config.spring_weights.weight(self.system.library(), k);
                total = crate::slab::force_sum(
                    total,
                    self.dist.get(b, k),
                    &bufs[i],
                    w,
                    self.config.lookahead,
                );
            }
            log.close();
            out.push(total);
        }
        out
    }

    fn commit(&mut self, frames: &FrameTable, changed: &[(OpId, TimeFrame)]) {
        for &(o, nf) in changed {
            self.dist.apply_op_change(self.system, o, frames.get(o), nf);
        }
        self.invalidate_changed(changed);
    }

    fn invalidate(&mut self, ops: &[OpId]) {
        self.epoch += 1;
        for &o in ops {
            self.block_epoch[self.system.op(o).block().index()] = self.epoch;
        }
    }

    fn context_stamp(&self, block: BlockId) -> Option<u64> {
        Some(self.block_epoch[block.index()])
    }
}

impl ClassicEvaluator<'_> {
    fn invalidate_changed(&mut self, changed: &[(OpId, TimeFrame)]) {
        self.epoch += 1;
        for &(o, _) in changed {
            self.block_epoch[self.system.op(o).block().index()] = self.epoch;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SpringWeights;
    use tcms_ir::{ResourceLibrary, ResourceType, SystemBuilder};

    fn sample() -> (System, BlockId, Vec<OpId>) {
        let mut lib = ResourceLibrary::new();
        let add = lib.add(ResourceType::new("add", 1)).unwrap();
        let mut b = SystemBuilder::new(lib);
        let p = b.add_process("p");
        let blk = b.add_block(p, "b", 2).unwrap();
        let x = b.add_op(blk, "x", add).unwrap();
        let y = b.add_op(blk, "y", add).unwrap();
        (b.build().unwrap(), blk, vec![x, y])
    }

    #[test]
    fn balancing_placement_has_negative_force() {
        // Two adders, frames [0,1] each: D = [1, 1].
        // Fix x at 0: x's probability moves from (.5,.5) to (1,0):
        // delta (+.5,-.5); with lookahead 0 the force is D·x = .5 - .5 = 0.
        // Fix y at 1 once x is fixed at 0: D = (1.5,.5)... check relative
        // ordering instead of absolute numbers.
        let (sys, _, ops) = sample();
        let cfg = FdsConfig {
            lookahead: 0.0,
            spring_weights: SpringWeights::Uniform,
            ..FdsConfig::default()
        };
        let eval = ClassicEvaluator::new(&sys, &[BlockId::from_index(0)], cfg);
        let frames = FrameTable::initial(&sys);
        let f0 = eval.force(&frames, &[(ops[0], TimeFrame::new(0, 0))]);
        let f1 = eval.force(&frames, &[(ops[0], TimeFrame::new(1, 1))]);
        // Symmetric situation: both placements cost the same.
        assert!((f0 - f1).abs() < 1e-12);
    }

    #[test]
    fn lookahead_penalises_concentration() {
        let (sys, _, ops) = sample();
        let cfg = FdsConfig {
            lookahead: 1.0 / 3.0,
            spring_weights: SpringWeights::Uniform,
            ..FdsConfig::default()
        };
        let eval = ClassicEvaluator::new(&sys, &[BlockId::from_index(0)], cfg.clone());
        let frames = FrameTable::initial(&sys);
        let f_fix = eval.force(&frames, &[(ops[0], TimeFrame::new(0, 0))]);
        // With positive lookahead, any narrowing of a balanced solution has
        // positive cost (x² terms).
        assert!(f_fix > 0.0);
    }

    #[test]
    fn commit_tracks_distribution() {
        let (sys, blk, ops) = sample();
        let cfg = FdsConfig::default();
        let mut eval = ClassicEvaluator::new(&sys, &[blk], cfg);
        let mut frames = FrameTable::initial(&sys);
        let change = [(ops[0], TimeFrame::new(0, 0))];
        eval.commit(&frames, &change);
        frames.set(ops[0], TimeFrame::new(0, 0));
        let add = sys.library().by_name("add").unwrap();
        let d = eval.distributions().get(blk, add);
        assert!((d[0] - 1.5).abs() < 1e-12);
        assert!((d[1] - 0.5).abs() < 1e-12);
        // Re-build from scratch agrees with the incremental state.
        let rebuilt = DistributionSet::build(&sys, &frames);
        assert_eq!(rebuilt.get(blk, add), d);
    }

    #[test]
    fn after_commit_balancing_prefers_empty_slot() {
        let (sys, _, ops) = sample();
        let cfg = FdsConfig {
            lookahead: 0.0,
            spring_weights: SpringWeights::Uniform,
            ..FdsConfig::default()
        };
        let mut eval = ClassicEvaluator::new(&sys, &[BlockId::from_index(0)], cfg);
        let mut frames = FrameTable::initial(&sys);
        let change = [(ops[0], TimeFrame::new(0, 0))];
        eval.commit(&frames, &change);
        frames.set(ops[0], TimeFrame::new(0, 0));
        // Now D = (1.5, .5); placing y at 1 must beat placing y at 0.
        let f_at_0 = eval.force(&frames, &[(ops[1], TimeFrame::new(0, 0))]);
        let f_at_1 = eval.force(&frames, &[(ops[1], TimeFrame::new(1, 1))]);
        assert!(f_at_1 < f_at_0);
    }

    #[test]
    fn incremental_force_matches_naive_oracle() {
        let (sys, blk, ops) = sample();
        let mut eval = ClassicEvaluator::new(&sys, &[blk], FdsConfig::default());
        let mut frames = FrameTable::initial(&sys);
        let change = [(ops[0], TimeFrame::new(0, 0))];
        let f_inc = eval.force(&frames, &change);
        let f_ref = eval.force_naive(&frames, &change);
        assert!((f_inc - f_ref).abs() < 1e-12);
        // And after a commit too.
        eval.commit(&frames, &change);
        frames.set(ops[0], TimeFrame::new(0, 0));
        let change2 = [(ops[1], TimeFrame::new(1, 1))];
        let f_inc = eval.force(&frames, &change2);
        let f_ref = eval.force_naive(&frames, &change2);
        assert!((f_inc - f_ref).abs() < 1e-12);
    }

    #[test]
    fn context_stamp_moves_only_for_touched_blocks() {
        let mut lib = ResourceLibrary::new();
        let add = lib.add(ResourceType::new("add", 1)).unwrap();
        let mut b = SystemBuilder::new(lib);
        let p1 = b.add_process("p1");
        let b1 = b.add_block(p1, "b1", 2).unwrap();
        let x = b.add_op(b1, "x", add).unwrap();
        let p2 = b.add_process("p2");
        let b2 = b.add_block(p2, "b2", 2).unwrap();
        b.add_op(b2, "y", add).unwrap();
        let sys = b.build().unwrap();
        let mut eval = ClassicEvaluator::new(&sys, &[b1, b2], FdsConfig::default());
        let frames = FrameTable::initial(&sys);
        let s1 = eval.context_stamp(b1).unwrap();
        let s2 = eval.context_stamp(b2).unwrap();
        eval.commit(&frames, &[(x, TimeFrame::new(0, 0))]);
        assert_ne!(
            eval.context_stamp(b1).unwrap(),
            s1,
            "touched block restamped"
        );
        assert_eq!(
            eval.context_stamp(b2).unwrap(),
            s2,
            "untouched block stable"
        );
        // Explicit invalidation restamps too.
        eval.invalidate(&[x]);
        assert!(eval.context_stamp(b1).unwrap() > s1);
    }
}
