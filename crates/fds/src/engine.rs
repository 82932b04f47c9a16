//! The improved force-directed scheduling engine (Verhaegh et al.).
//!
//! The engine implements *gradual time-frame reduction*: per iteration it
//! evaluates, for every not-yet-fixed operation in scope, the force of the
//! two extreme placements (ASAP and ALAP end of the time frame), selects
//! the operation with the maximal force difference and shortens its frame
//! by one step on the side with the higher force. Implied frame reductions
//! of predecessors/successors are propagated and priced into the force.
//!
//! The force model itself is pluggable (see
//! [`ForceEvaluator`]); this hook is exactly what
//! the paper's modulo extension plugs into.
//!
//! # Incremental evaluation
//!
//! One reduction iteration touches the frames of a single block, yet the
//! classical loop re-evaluates the candidate forces of *every* unfixed
//! operation. [`IfdsEngine::run`] therefore keeps a per-operation cache of
//! the extreme-placement force pair `(f_lo, f_hi)`, keyed by
//!
//! * the frame generation of the operation's block (advanced by
//!   [`tcms_ir::FrameTable`] change tracking), and
//! * the evaluator's [`ForceEvaluator::context_stamp`] for that block.
//!
//! Next to each placement's force the cache keeps the record the
//! evaluator made of its fold ([`ForceEvaluator::force_batch`]), and the
//! *read mask* of the walk that produced its change set
//! ([`narrowing_changes_into`]). A placement is then scored by the
//! cheapest of three tiers:
//!
//! * **hit** — both keys are unchanged since the pair was computed: the
//!   force is reused as it is, or re-summed ([`ForceEvaluator::resum`])
//!   from the recorded displacements priced on a profile the stamp does
//!   not cover (in the modulo evaluator, the group profile `G_k` that
//!   other processes move) — the same fold over the same operands, so
//!   bit-identical to a fresh evaluation;
//! * **refold** — a key moved, but no op the placement's walk read has
//!   moved since: its change set, and so the probability deltas the
//!   record keeps, are the same, and the evaluator folds them again
//!   against the live state ([`Candidate::Kept`]);
//! * **fresh** — the walk read an op that moved (or there is no record):
//!   walk the implied changes and build the deltas anew.
//!
//! Each commit drops the records of the committed block whose read mask
//! meets the ops it moved; the implied changes of a pin never leave its
//! block, so no other record can be affected.
//! [`IfdsEngine::run_naive`] runs the identical selection loop without the
//! cache and serves as the oracle: its outcome must match `run` exactly.
//!
//! # Parallel evaluation
//!
//! The candidate sweep of one iteration splits into three passes: a
//! sequential cache consultation, an evaluation of the missing force
//! pairs, and a sequential selection fold in scope order. Pass 2 has one
//! path at every thread count: the pending pairs are cut into contiguous
//! chunks and each chunk is scored by one [`ForceEvaluator::force_batch`]
//! call — a single chunk inline at one thread, one chunk per pool thread
//! when the sweep walks enough placements. Chunks are cut by cost, a
//! walked placement counting as much as several refolded ones. `force_batch` takes `&self` and returns
//! per candidate exactly what a lone `force` call would, so the chunking
//! never changes a value; the epsilon tie-break of the selection
//! (`diff > best + 1e-12`) is *non-associative*, which is why pass 3 stays
//! a sequential index-ordered fold. The schedule is therefore bit-identical
//! at every thread count — the determinism suite and the `run_naive`
//! oracle pin this down.
//!
//! # Implied changes
//!
//! Every candidate pins an op to one end of its frame, and the force prices
//! the frame changes that pin implies for the op's ancestors or
//! descendants. [`narrowing_changes`] computes them by walking only the
//! ops the pin reaches, instead of re-solving the whole block.

use std::time::{Duration, Instant};

use tcms_ir::frames::{narrowing_changes, narrowing_changes_into};
use tcms_ir::{BlockId, FrameTable, OpId, System, TimeFrame};
use tcms_obs::{span, NoopRecorder, Recorder, TimelinePoint};

use crate::config::RunBudget;
use crate::error::{BudgetAxis, EngineError};
use crate::evaluator::{Candidate, ForceEvaluator, ForceTerm, TermLog, Terms};
use crate::schedule::Schedule;

/// Instrumentation counters of one engine run (or several merged ones).
///
/// Wall-clock fields are measured with [`Instant`] and are inherently
/// non-deterministic; they are excluded from [`IfdsOutcome`] equality.
#[derive(Debug, Clone, Copy, Default)]
pub struct IfdsStats {
    /// Frame-reduction iterations performed.
    pub iterations: u64,
    /// Candidate force pairs `(f_lo, f_hi)` computed by the evaluator.
    pub ops_evaluated: u64,
    /// Candidate force pairs served from the incremental cache.
    pub cache_hits: u64,
    /// The subset of `cache_hits` served by re-summing recorded force terms
    /// against the live profiles ([`ForceEvaluator::resum`]) rather than by
    /// reusing the cached values.
    pub resums: u64,
    /// Placements (sides of the pairs in `ops_evaluated`) scored by
    /// refolding their kept deltas instead of walking their implied
    /// changes; the other `2 * ops_evaluated - refolds` sides were walked.
    pub refolds: u64,
    /// Candidate force pairs that had to be recomputed although the cache
    /// was enabled (stamp moved). `ops_evaluated - cache_misses` pairs were
    /// computed with caching unavailable or disabled.
    pub cache_misses: u64,
    /// Candidate force pairs evaluated in sweeps split over several pool
    /// threads (a subset of `batched_evals`; the rest ran inline on the
    /// calling thread).
    pub parallel_evals: u64,
    /// Candidate force pairs evaluated through the evaluator's batched
    /// entry point ([`ForceEvaluator::force_batch`]) instead of one
    /// `force` call per placement. Equal to `ops_evaluated` except in the
    /// scalar oracle run, where it is 0.
    pub batched_evals: u64,
    /// Wall time spent in the candidate-evaluation phase.
    pub eval_time: Duration,
    /// Wall time spent committing changes (evaluator update + frames).
    pub commit_time: Duration,
    /// Total wall time of the run.
    pub total_time: Duration,
}

impl IfdsStats {
    /// Accumulates `other` into `self` (used when merging per-block runs).
    pub fn absorb(&mut self, other: &IfdsStats) {
        self.iterations += other.iterations;
        self.ops_evaluated += other.ops_evaluated;
        self.cache_hits += other.cache_hits;
        self.resums += other.resums;
        self.refolds += other.refolds;
        self.cache_misses += other.cache_misses;
        self.parallel_evals += other.parallel_evals;
        self.batched_evals += other.batched_evals;
        self.eval_time += other.eval_time;
        self.commit_time += other.commit_time;
        self.total_time += other.total_time;
    }

    /// Fraction of candidate pairs served from the cache, in `[0, 1]`.
    pub fn hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }

    /// Folds these counters into a recorder's metrics registry, so legacy
    /// stats blocks and the new observability layer report one consistent
    /// set of numbers. Wall-clock phases land in `*_us` counters.
    pub fn publish(&self, rec: &dyn Recorder) {
        if !rec.enabled() {
            return;
        }
        rec.counter_add("ifds.iterations", self.iterations);
        rec.counter_add("ifds.ops_evaluated", self.ops_evaluated);
        rec.counter_add("ifds.cache_hits", self.cache_hits);
        rec.counter_add("ifds.resums", self.resums);
        rec.counter_add("ifds.refolds", self.refolds);
        rec.counter_add("ifds.cache_misses", self.cache_misses);
        rec.counter_add("ifds.parallel_evals", self.parallel_evals);
        rec.counter_add("ifds.batched_evals", self.batched_evals);
        rec.counter_add("ifds.eval_us", self.eval_time.as_micros() as u64);
        rec.counter_add("ifds.commit_us", self.commit_time.as_micros() as u64);
        rec.counter_add("ifds.total_us", self.total_time.as_micros() as u64);
        rec.gauge_set("ifds.hit_rate", self.hit_rate());
    }
}

/// Result of an engine run.
///
/// Equality compares the deterministic outcome only (schedule and
/// iteration count); the wall-clock instrumentation in
/// [`IfdsOutcome::stats`] is ignored.
#[derive(Debug, Clone)]
pub struct IfdsOutcome {
    /// The final schedule (covering the ops of the engine's scope).
    pub schedule: Schedule,
    /// Number of frame-reduction iterations performed.
    pub iterations: u64,
    /// Instrumentation of the run that produced the schedule.
    pub stats: IfdsStats,
}

impl PartialEq for IfdsOutcome {
    fn eq(&self, other: &Self) -> bool {
        self.schedule == other.schedule && self.iterations == other.iterations
    }
}

impl Eq for IfdsOutcome {}

/// Where one candidate's force pair comes from in the current iteration:
/// the incremental cache, or slot `j` of the freshly evaluated batch.
#[derive(Clone, Copy)]
enum CandSource {
    Cached(f64, f64),
    Pending(usize),
}

/// One force pair awaiting evaluation.
#[derive(Clone, Copy)]
struct PendingEval {
    op: OpId,
    frame: TimeFrame,
    /// Cache write-back key `(block generation, context stamp)` when the
    /// incremental cache is on.
    key: Option<(u64, u64)>,
    /// Per side (ASAP end, ALAP end): refold the kept record instead of
    /// walking.
    kept: [bool; 2],
}

impl PendingEval {
    /// Placements of the pair that walk.
    fn walks(&self) -> usize {
        self.kept.iter().filter(|&&kept| !kept).count()
    }

    /// Relative cost of scoring the pair: a refold costs about a fifth of
    /// a walked placement.
    fn cost(&self) -> usize {
        2 + 4 * self.walks()
    }
}

/// One placement of a sweep chunk.
#[derive(Clone, Copy)]
enum Side {
    /// Walk the implied changes of pinning the op to a start time.
    Walk(OpId, u32),
    /// Refold the record kept in this cache slot.
    Kept(usize),
}

/// Buffers of one sweep chunk: the placements it scores, the change sets
/// of the walked ones back to back (`ends[i]` closes the i-th), and per
/// placement its read mask, its force and the record the evaluator kept.
/// Kept across iterations, so once they fit the first (largest) sweep the
/// candidate sweep stops reallocating them — allocating them afresh every
/// iteration left the threads' heaps fragmented.
#[derive(Default)]
struct ChunkBufs {
    sides: Vec<Side>,
    changes: Vec<(OpId, TimeFrame)>,
    ends: Vec<usize>,
    reads: Vec<u64>,
    forces: Vec<f64>,
    log: TermLog,
}

/// The candidate-force cache of one run. `entries[op]` holds the block
/// frame generation and evaluator context stamp the pair was computed
/// under, and the pair `(f_lo, f_hi)`. Slots `2 * op` (ASAP end) and
/// `2 * op + 1` (ALAP end) of `reads`, `terms` and `xs` hold each
/// placement's read mask and kept record; an empty record is not kept.
/// The sentinel generation `u64::MAX` is unreachable (generations count
/// frame mutations), so fresh entries never match.
struct ForceCache {
    entries: Vec<(u64, u64, f64, f64)>,
    reads: Vec<u64>,
    terms: Regions<ForceTerm>,
    xs: Regions<f64>,
}

impl ForceCache {
    fn new(num_ops: usize) -> Self {
        ForceCache {
            entries: vec![(u64::MAX, u64::MAX, 0.0, 0.0); num_ops],
            reads: vec![0; 2 * num_ops],
            terms: Regions::new(2 * num_ops),
            xs: Regions::new(2 * num_ops),
        }
    }

    /// The record kept in `slot`.
    fn record(&self, slot: usize) -> Terms<'_> {
        Terms {
            terms: self.terms.get(slot),
            xs: self.xs.get(slot),
        }
    }

    /// Whether `slot` keeps a record to refold.
    fn is_kept(&self, slot: usize) -> bool {
        !self.terms.get(slot).is_empty()
    }

    /// The force of one placement of `op` (`side` 0: ASAP end, 1: ALAP
    /// end) re-summed from its record, or `None` when the cached value
    /// stands as it is.
    fn resum<E: ForceEvaluator>(&self, eval: &E, op: OpId, side: usize) -> Option<f64> {
        let slot = 2 * op.index() + side;
        self.is_kept(slot)
            .then(|| eval.resum(self.record(slot)))
            .flatten()
    }

    /// Stores the record and read mask of `slot`.
    fn keep(&mut self, slot: usize, record: Terms<'_>, read: u64) {
        self.terms.set(slot, record.terms);
        self.xs.set(slot, record.xs);
        self.reads[slot] = read;
    }

    /// Overwrites, in the record kept in `slot`, the values of the entries
    /// `fresh` lists: each of its entries in turn replaces the next kept
    /// entry with the same key, start and length.
    ///
    /// # Panics
    ///
    /// Panics if an entry of `fresh` matches no kept entry in that order.
    fn refresh(&mut self, slot: usize, fresh: Terms<'_>) {
        let kept = self.terms.get(slot);
        let xs = self.xs.get_mut(slot);
        let (mut k, mut at) = (0, 0);
        for (t, values) in fresh.iter() {
            while kept[k] != *t {
                at += kept[k].len as usize;
                k += 1;
            }
            xs[at..at + values.len()].copy_from_slice(values);
            at += values.len();
            k += 1;
        }
    }

    /// After the commit of `changes` (`frames` already updated): drops
    /// every record of the committed block whose walk read an op that
    /// moved, and gives up the space of ops that are now fixed. Implied
    /// changes never leave the block of the op they start from, so no
    /// other record is affected.
    fn forget_moved(
        &mut self,
        system: &System,
        changes: &[(OpId, TimeFrame)],
        frames: &FrameTable,
    ) {
        let Some(&(first, _)) = changes.first() else {
            return;
        };
        let moved = changes
            .iter()
            .fold(0, |m, &(q, _)| m | 1 << (system.topo_position(q) % 64));
        for &q in system.block(system.op(first).block()).ops() {
            let fixed = frames.get(q).is_fixed();
            for slot in [2 * q.index(), 2 * q.index() + 1] {
                if fixed {
                    self.terms.release(slot);
                    self.xs.release(slot);
                } else if self.reads[slot] & moved != 0 {
                    self.terms.set(slot, &[]);
                    self.xs.set(slot, &[]);
                }
            }
        }
    }
}

/// Per-slot regions of one flat arena. A slot's contents are rewritten in
/// place while they fit its region; contents that outgrow it move to the
/// end of the arena, and the arena is compacted once the space left
/// behind outweighs the live space. Everything lives in one allocation
/// that grows with the largest contents, so rewriting a slot every
/// iteration does not churn the heap.
struct Regions<T> {
    data: Vec<T>,
    /// `(at, len, cap)` of each slot's region in `data`.
    slots: Vec<(u32, u32, u32)>,
    /// Sum of the slots' capacities — the part of `data` still in use.
    live: usize,
}

impl<T: Copy> Regions<T> {
    fn new(slots: usize) -> Self {
        Regions {
            data: Vec::new(),
            slots: vec![(0, 0, 0); slots],
            live: 0,
        }
    }

    fn get(&self, slot: usize) -> &[T] {
        let (at, len, _) = self.slots[slot];
        &self.data[at as usize..(at + len) as usize]
    }

    fn get_mut(&mut self, slot: usize) -> &mut [T] {
        let (at, len, _) = self.slots[slot];
        &mut self.data[at as usize..(at + len) as usize]
    }

    fn set(&mut self, slot: usize, src: &[T]) {
        let (at, _, cap) = self.slots[slot];
        let len = u32::try_from(src.len()).expect("region fits u32");
        if len <= cap {
            self.data[at as usize..(at + len) as usize].copy_from_slice(src);
            self.slots[slot].1 = len;
            return;
        }
        if self.data.len() - self.live > self.live {
            self.compact();
        }
        self.live += (len - cap) as usize;
        let at = u32::try_from(self.data.len()).expect("arena fits u32");
        self.slots[slot] = (at, len, len);
        self.data.extend_from_slice(src);
    }

    /// Empties `slot` and gives its region up to the next compaction.
    fn release(&mut self, slot: usize) {
        self.live -= self.slots[slot].2 as usize;
        self.slots[slot] = (0, 0, 0);
    }

    /// Moves every region down over the space left behind, in arena order.
    fn compact(&mut self) {
        let mut order: Vec<usize> = (0..self.slots.len())
            .filter(|&s| self.slots[s].2 > 0)
            .collect();
        order.sort_unstable_by_key(|&s| self.slots[s].0);
        let mut to = 0;
        for s in order {
            let (at, _, cap) = self.slots[s];
            self.data
                .copy_within(at as usize..(at + cap) as usize, to as usize);
            self.slots[s].0 = to;
            to += cap;
        }
        self.data.truncate(to as usize);
    }
}

/// Improved-FDS scheduling engine over a set of blocks.
pub struct IfdsEngine<'a> {
    system: &'a System,
    scope_ops: Vec<OpId>,
    frames: FrameTable,
    budget: RunBudget,
}

impl<'a> IfdsEngine<'a> {
    /// Creates an engine scheduling the blocks in `scope` simultaneously.
    ///
    /// # Panics
    ///
    /// Panics if `scope` is empty.
    pub fn new(system: &'a System, scope: Vec<BlockId>) -> Self {
        assert!(!scope.is_empty(), "empty scheduling scope");
        let scope_ops = scope
            .iter()
            .flat_map(|&b| system.block(b).ops().iter().copied())
            .collect();
        IfdsEngine {
            system,
            scope_ops,
            frames: FrameTable::initial(system),
            budget: RunBudget::UNLIMITED,
        }
    }

    /// Replaces the engine's run budget (unlimited by default). The budget
    /// is enforced by the watchdog inside the reduction loop; tripping it
    /// aborts the run with [`EngineError::BudgetExhausted`].
    pub fn with_budget(mut self, budget: RunBudget) -> Self {
        self.budget = budget;
        self
    }

    /// The current frame table (initial ASAP/ALAP before [`IfdsEngine::run`]).
    pub fn frames(&self) -> &FrameTable {
        &self.frames
    }

    /// Frame changes implied by constraining `op` to `frame`, including
    /// `op` itself. Only actually-changing frames are listed, in the
    /// block's topological order; only the ops the change reaches are
    /// visited (see [`narrowing_changes`]).
    ///
    /// # Panics
    ///
    /// Panics if `frame` is not a sub-range of `op`'s current frame (such a
    /// pin could be infeasible).
    pub fn implied_changes(&self, op: OpId, frame: TimeFrame) -> Vec<(OpId, TimeFrame)> {
        narrowing_changes(self.system, &self.frames, op, frame)
    }

    /// Applies committed frame changes to the engine's table. Drivers that
    /// reuse the engine's propagation (like the original-FDS baseline) call
    /// this after [`ForceEvaluator::commit`].
    pub fn apply(&mut self, changes: &[(OpId, TimeFrame)]) {
        for &(q, f) in changes {
            self.frames.set(q, f);
        }
    }

    /// Forces of placing each `(op, t)` at its start time, scored in one
    /// [`ForceEvaluator::force_batch`] call against the current frames.
    pub fn placement_forces<E: ForceEvaluator>(
        &self,
        eval: &E,
        placements: &[(OpId, u32)],
    ) -> Vec<f64> {
        let mut bufs = ChunkBufs::default();
        bufs.sides
            .extend(placements.iter().map(|&(o, t)| Side::Walk(o, t)));
        self.score(eval, &ForceCache::new(0), &mut bufs);
        bufs.forces
    }

    /// Scores `bufs.sides` through one [`ForceEvaluator::force_batch`]
    /// call — walked placements as their change sets, the others as the
    /// records `cache` keeps — into `bufs.forces`, with each placement's
    /// read mask in `bufs.reads` and its record in `bufs.log`.
    fn score<E: ForceEvaluator>(&self, eval: &E, cache: &ForceCache, bufs: &mut ChunkBufs) {
        let ChunkBufs {
            sides,
            changes,
            ends,
            reads,
            forces,
            log,
        } = bufs;
        changes.clear();
        ends.clear();
        reads.clear();
        for &side in sides.iter() {
            reads.push(match side {
                Side::Walk(o, t) => {
                    let pin = TimeFrame::new(t, t);
                    let read = narrowing_changes_into(self.system, &self.frames, o, pin, changes);
                    ends.push(changes.len());
                    read
                }
                Side::Kept(slot) => cache.reads[slot],
            });
        }
        log.clear();
        let mut walked = ends.iter().scan(0, |start, &end| {
            Some(&changes[std::mem::replace(start, end)..end])
        });
        let candidates = sides.iter().map(|&side| match side {
            Side::Walk(..) => Candidate::Changes(walked.next().expect("one change set per walk")),
            Side::Kept(slot) => Candidate::Kept(cache.record(slot)),
        });
        *forces = eval.force_batch(&self.frames, candidates, log);
    }

    /// Under the oracle feature in debug builds: every refolded placement
    /// of `bufs` scored bitwise what [`ForceEvaluator::force`] returns for
    /// a fresh walk of it.
    #[cfg(all(debug_assertions, any(test, feature = "naive-oracle")))]
    fn check_refolds<E: ForceEvaluator>(&self, eval: &E, bufs: &ChunkBufs) {
        for (&side, &force) in bufs.sides.iter().zip(&bufs.forces) {
            if let Side::Kept(slot) = side {
                let op = OpId::from_index(slot / 2);
                let fr = self.frames.get(op);
                let t = if slot % 2 == 0 { fr.asap } else { fr.alap };
                let fresh = eval.force(
                    &self.frames,
                    &self.implied_changes(op, TimeFrame::new(t, t)),
                );
                assert_eq!(
                    force.to_bits(),
                    fresh.to_bits(),
                    "refold of {op} at {t} differs from a fresh walk"
                );
            }
        }
    }

    /// Forces of the two extreme placements `(f_lo, f_hi)` of every
    /// pending candidate of a round: one batch per contiguous chunk of
    /// `pending`,
    /// chunk `c` covering `pending[bounds[c]..bounds[c + 1]]` and scored
    /// with `bufs[c]`, whose `forces` and `log` hold its placements two
    /// per pair. One chunk runs inline on the calling thread; more run one
    /// per pool thread. [`ForceEvaluator::force_batch`] returns what a
    /// lone `force` call would for every candidate whatever the batch
    /// holds, so the chunking never changes a value.
    fn pair_forces<E: ForceEvaluator + Sync>(
        &self,
        eval: &E,
        cache: &ForceCache,
        pending: &[PendingEval],
        bounds: &[usize],
        bufs: &mut [ChunkBufs],
    ) {
        rayon::par_chunks_mut(&mut bufs[..bounds.len() - 1], 1, |c, b| {
            let b = &mut b[0];
            b.sides.clear();
            for p in &pending[bounds[c]..bounds[c + 1]] {
                b.sides
                    .extend(
                        [p.frame.asap, p.frame.alap]
                            .into_iter()
                            .zip(0..)
                            .map(|(t, side)| match p.kept[side] {
                                true => Side::Kept(2 * p.op.index() + side),
                                false => Side::Walk(p.op, t),
                            }),
                    );
            }
            self.score(eval, cache, b);
            #[cfg(all(debug_assertions, any(test, feature = "naive-oracle")))]
            self.check_refolds(eval, b);
        });
    }

    /// Runs gradual time-frame reduction to completion and extracts the
    /// schedule, reusing cached candidate forces for operations whose block
    /// frames and evaluator context are untouched since the last iteration.
    ///
    /// Produces a schedule identical to [`IfdsEngine::run_naive`].
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::BudgetExhausted`] if a budget installed with
    /// [`IfdsEngine::with_budget`] trips before every frame is fixed. With
    /// the default unlimited budget the run always succeeds.
    pub fn run<E: ForceEvaluator + Sync>(self, eval: &mut E) -> Result<IfdsOutcome, EngineError> {
        self.run_impl(eval, true, &NoopRecorder)
    }

    /// [`IfdsEngine::run`] with observability: spans, per-iteration
    /// convergence samples and final counters flow into `rec`. Recording
    /// is read-only observation — the outcome is bit-identical to
    /// [`IfdsEngine::run`] (the integration suite asserts this).
    ///
    /// # Errors
    ///
    /// Same as [`IfdsEngine::run`]. On a budget trip an
    /// `ifds.budget_exhausted` event carrying the partial-progress counters
    /// is emitted through `rec` before the error is returned.
    pub fn run_recorded<E: ForceEvaluator + Sync>(
        self,
        eval: &mut E,
        rec: &dyn Recorder,
    ) -> Result<IfdsOutcome, EngineError> {
        self.run_impl(eval, true, rec)
    }

    /// Reference run without the candidate-force cache, without batched
    /// evaluation and without parallelism: every candidate placement is
    /// re-evaluated inline with its own [`ForceEvaluator::force`] call each
    /// iteration, exactly like the pre-incremental engine. Kept as the
    /// equivalence oracle for tests and benches — matching it pins the
    /// cache, the batched sweep and its chunking in one comparison.
    ///
    /// # Errors
    ///
    /// Same as [`IfdsEngine::run`].
    #[cfg(any(test, feature = "naive-oracle"))]
    pub fn run_naive<E: ForceEvaluator + Sync>(
        self,
        eval: &mut E,
    ) -> Result<IfdsOutcome, EngineError> {
        self.run_impl(eval, false, &NoopRecorder)
    }

    /// Returns the budget axis that is exhausted given the loop counters,
    /// if any. Iteration/eval limits are checked before the wall clock so
    /// deterministic axes win ties against the non-deterministic one.
    fn tripped_axis(&self, iterations: u64, evals: u64, started: Instant) -> Option<BudgetAxis> {
        let b = &self.budget;
        if b.max_iterations.is_some_and(|cap| iterations >= cap) {
            Some(BudgetAxis::Iterations)
        } else if b.max_evals.is_some_and(|cap| evals >= cap) {
            Some(BudgetAxis::Evaluations)
        } else if b.wall_deadline.is_some_and(|cap| started.elapsed() >= cap) {
            Some(BudgetAxis::WallClock)
        } else {
            None
        }
    }

    fn run_impl<E: ForceEvaluator + Sync>(
        mut self,
        eval: &mut E,
        incremental: bool,
        rec: &dyn Recorder,
    ) -> Result<IfdsOutcome, EngineError> {
        let run_started = Instant::now();
        let _reduce_span = span!(rec, "ifds.reduce", ops = self.scope_ops.len());
        let mut stats = IfdsStats::default();
        // Thread count is resolved once per run; 1 keeps the whole sweep
        // inline. A chunk gets at least this many walked placements:
        // handing a thread fewer is slower than computing them on the
        // caller (a broadcast costs a few microseconds, and each chunk
        // rebuilds the evaluator's batch-wide intermediates). A refold
        // costs about a fifth of a walked placement, so it weighs that
        // much when the chunks are cut.
        let threads = rayon::current_num_threads();
        const PAR_MIN_WALKS: usize = 32;
        const ROUND_WALKS: usize = 64;
        if rec.enabled() {
            rec.gauge_set("ifds.threads", threads as f64);
        }
        // `incremental` turns on the candidate cache and the batched sweep
        // together; off, the run is the scalar, cache-free oracle.
        let mut cache = ForceCache::new(if incremental {
            self.system.num_ops()
        } else {
            0
        });
        // Frame generation of the youngest change per block, mirrored off
        // the table's per-op stamps as commits are applied.
        let mut block_gen: Vec<u64> = vec![0; self.system.num_blocks()];
        // Per-iteration scratch: every unfixed candidate in scope order
        // (`cands`) and the subset whose force pair must be computed this
        // iteration (`to_eval`, with the cache write-back key when the
        // cache is on).
        let mut cands: Vec<(OpId, CandSource)> = Vec::new();
        let mut to_eval: Vec<PendingEval> = Vec::new();
        let mut forces: Vec<(f64, f64)> = Vec::new();
        let mut bounds: Vec<usize> = Vec::new();
        let mut chunk_bufs: Vec<ChunkBufs> = (0..threads).map(|_| ChunkBufs::default()).collect();
        let mut iterations = 0;
        let watchdog_armed = !self.budget.is_unlimited();
        loop {
            if watchdog_armed {
                if let Some(axis) = self.tripped_axis(iterations, stats.ops_evaluated, run_started)
                {
                    let unfixed_ops = self
                        .scope_ops
                        .iter()
                        .filter(|&&q| !self.frames.get(q).is_fixed())
                        .count();
                    if unfixed_ops == 0 {
                        // All frames are already fixed: the run is complete,
                        // not aborted — fall through to schedule extraction.
                        break;
                    }
                    let elapsed = run_started.elapsed();
                    stats.iterations = iterations;
                    stats.total_time = elapsed;
                    // Partial-progress report: the counters so far plus the
                    // trip event, so a tripped run is still observable.
                    if rec.enabled() {
                        rec.event(
                            "ifds.budget_exhausted",
                            &[
                                ("axis", format!("{axis}").into()),
                                ("iterations", iterations.into()),
                                ("evals", stats.ops_evaluated.into()),
                                ("unfixed_ops", unfixed_ops.into()),
                            ],
                        );
                    }
                    stats.publish(rec);
                    return Err(EngineError::BudgetExhausted {
                        axis,
                        iterations,
                        evals: stats.ops_evaluated,
                        unfixed_ops,
                        elapsed,
                    });
                }
            }
            let eval_started = Instant::now();
            // Pass 1 (sequential, scope order): consult the cache and
            // collect the force pairs that actually need computing, each
            // side marked for a refold while its record is kept.
            cands.clear();
            to_eval.clear();
            for &o in &self.scope_ops {
                let fr = self.frames.get(o);
                if fr.is_fixed() {
                    continue;
                }
                let ctx = if incremental {
                    let block = self.system.op(o).block();
                    eval.context_stamp(block)
                        .map(|ctx| (block_gen[block.index()], ctx))
                } else {
                    None
                };
                let src = match ctx {
                    Some(key)
                        if (cache.entries[o.index()].0, cache.entries[o.index()].1) == key =>
                    {
                        let (_, _, f_lo, f_hi) = cache.entries[o.index()];
                        stats.cache_hits += 1;
                        let lo = cache.resum(&*eval, o, 0);
                        let hi = cache.resum(&*eval, o, 1);
                        if lo.is_some() || hi.is_some() {
                            stats.resums += 1;
                        }
                        CandSource::Cached(lo.unwrap_or(f_lo), hi.unwrap_or(f_hi))
                    }
                    _ => {
                        let kept =
                            [0, 1].map(|side| ctx.is_some() && cache.is_kept(2 * o.index() + side));
                        let pending = PendingEval {
                            op: o,
                            frame: fr,
                            key: ctx,
                            kept,
                        };
                        if ctx.is_some() {
                            stats.cache_misses += 1;
                        }
                        stats.ops_evaluated += 1;
                        stats.refolds += (2 - pending.walks()) as u64;
                        to_eval.push(pending);
                        CandSource::Pending(to_eval.len() - 1)
                    }
                };
                cands.push((o, src));
            }
            // Pass 2: compute the missing pairs. Production runs score them
            // through `force_batch`, so the evaluator shares candidate-
            // independent intermediates (delta scratch, sibling profiles,
            // per-op removal tables) across a whole chunk: one chunk at one
            // thread, one chunk per thread when the sweep walks enough
            // placements to pay for the fan-out, cut into equal costs. A
            // sweep that walks more than a round's worth of placements (the
            // first iterations, before anything is kept) runs in rounds, so
            // the chunks' logs hold a round's records at most. Each round
            // is written back into the cache before the next, here on the
            // engine thread. Only the selection fold of pass 3 matters for
            // the tie-break, and it does not depend on the chunking.
            forces.clear();
            if incremental {
                stats.batched_evals += to_eval.len() as u64;
                let mut start = 0;
                while start < to_eval.len() {
                    let mut end = start;
                    let mut walks = 0;
                    while end < to_eval.len() && walks < ROUND_WALKS {
                        walks += to_eval[end].walks();
                        end += 1;
                    }
                    let round = &to_eval[start..end];
                    start = end;
                    let chunks = threads.min(walks / PAR_MIN_WALKS).max(1);
                    if chunks > 1 {
                        stats.parallel_evals += round.len() as u64;
                    }
                    let total: usize = round.iter().map(PendingEval::cost).sum();
                    bounds.clear();
                    bounds.push(0);
                    let mut acc = 0;
                    for (j, p) in round.iter().enumerate() {
                        acc += p.cost();
                        if acc * chunks >= total * bounds.len() && bounds.len() < chunks {
                            bounds.push(j + 1);
                        }
                    }
                    bounds.push(round.len());
                    self.pair_forces(&*eval, &cache, round, &bounds, &mut chunk_bufs);
                    for (c, b) in chunk_bufs.iter().enumerate().take(chunks) {
                        for (i, p) in round[bounds[c]..bounds[c + 1]].iter().enumerate() {
                            let (f_lo, f_hi) = (b.forces[2 * i], b.forces[2 * i + 1]);
                            forces.push((f_lo, f_hi));
                            let Some((gen, ctx)) = p.key else { continue };
                            cache.entries[p.op.index()] = (gen, ctx, f_lo, f_hi);
                            for side in 0..2 {
                                let slot = 2 * p.op.index() + side;
                                let record = b.log.candidate(2 * i + side);
                                if p.kept[side] {
                                    cache.refresh(slot, record);
                                } else {
                                    cache.keep(slot, record, b.reads[2 * i + side]);
                                }
                            }
                        }
                    }
                }
            } else {
                // The oracle: one scalar `force` per placement, inline.
                forces.extend(to_eval.iter().map(|p| {
                    let at = |t| {
                        eval.force(
                            &self.frames,
                            &self.implied_changes(p.op, TimeFrame::new(t, t)),
                        )
                    };
                    (at(p.frame.asap), at(p.frame.alap))
                }));
            }
            // Pass 3 (sequential, scope order): the selection fold. The
            // epsilon tie-break is non-associative, so this fold must run in
            // scope order on one thread — that is what keeps the parallel
            // run bit-identical to the sequential loop.
            let mut best: Option<(f64, OpId, bool)> = None;
            for &(o, src) in &cands {
                let (f_lo, f_hi) = match src {
                    CandSource::Cached(f_lo, f_hi) => (f_lo, f_hi),
                    CandSource::Pending(j) => forces[j],
                };
                let diff = (f_lo - f_hi).abs();
                // Shorten at the side with the higher force; on a tie keep
                // the ASAP end (deterministic stand-in for the paper's
                // "arbitrarily selects").
                let cut_low = f_lo > f_hi;
                if best.as_ref().is_none_or(|b| diff > b.0 + 1e-12) {
                    best = Some((diff, o, cut_low));
                }
            }
            let eval_elapsed = eval_started.elapsed();
            stats.eval_time += eval_elapsed;
            let Some((best_diff, o, cut_low)) = best else {
                break;
            };
            let commit_started = Instant::now();
            let fr = self.frames.get(o);
            let nf = if cut_low {
                TimeFrame::new(fr.asap + 1, fr.alap)
            } else {
                TimeFrame::new(fr.asap, fr.alap - 1)
            };
            let changes = self.implied_changes(o, nf);
            eval.commit(&self.frames, &changes);
            for &(q, f) in &changes {
                self.frames.set(q, f);
            }
            if incremental {
                block_gen[self.system.op(o).block().index()] = self.frames.generation();
                cache.forget_moved(self.system, &changes, &self.frames);
            }
            let commit_elapsed = commit_started.elapsed();
            stats.commit_time += commit_elapsed;
            iterations += 1;
            // Observation only: everything below reads state, never writes
            // it, so the reduction sequence is identical with recording on.
            if rec.enabled() {
                let unfixed = self
                    .scope_ops
                    .iter()
                    .filter(|&&q| !self.frames.get(q).is_fixed())
                    .count();
                rec.histogram_record("ifds.iter_eval_us", eval_elapsed.as_micros() as f64);
                rec.histogram_record("ifds.iter_commit_us", commit_elapsed.as_micros() as f64);
                rec.event(
                    "ifds.cut",
                    &[
                        ("op", o.index().into()),
                        ("low_side", cut_low.into()),
                        ("force_diff", best_diff.into()),
                    ],
                );
                rec.timeline(TimelinePoint {
                    phase: "ifds",
                    iteration: iterations,
                    values: vec![
                        ("force_diff".into(), best_diff),
                        ("unfixed_ops".into(), unfixed as f64),
                    ],
                });
                eval.record_iteration(rec, iterations);
            }
        }
        let mut schedule = Schedule::new(self.system.num_ops());
        for &o in &self.scope_ops {
            schedule.set(o, self.frames.fixed_start(o));
        }
        stats.iterations = iterations;
        stats.total_time = run_started.elapsed();
        stats.publish(rec);
        Ok(IfdsOutcome {
            schedule,
            iterations,
            stats,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{FdsConfig, SpringWeights};
    use crate::evaluator::ClassicEvaluator;
    use tcms_ir::generators::{add_ewf_process, paper_library};
    use tcms_ir::{ResourceLibrary, ResourceType, ResourceTypeId, SystemBuilder};

    /// The classical force model with kept records: each candidate keeps
    /// its per-`(block, type)` probability deltas, as the modulo evaluator
    /// does, and a kept record is refolded against the live distributions.
    /// The fold is the classical one over the same operands, so every
    /// force is bitwise [`ClassicEvaluator::force`]'s — which the engine
    /// checks for every refold in test builds.
    struct Refolding<'a> {
        inner: ClassicEvaluator<'a>,
        system: &'a System,
        config: FdsConfig,
    }

    impl<'a> Refolding<'a> {
        fn new(system: &'a System, scope: &[BlockId]) -> Self {
            let config = FdsConfig::default();
            Refolding {
                inner: ClassicEvaluator::new(system, scope, config.clone()),
                system,
                config,
            }
        }

        fn pair(&self, key: u32) -> (BlockId, ResourceTypeId) {
            let types = self.system.library().len();
            let key = key as usize;
            (
                BlockId::from_index(key / types),
                ResourceTypeId::from_index(key % types),
            )
        }
    }

    impl ForceEvaluator for Refolding<'_> {
        fn force(&self, frames: &FrameTable, changed: &[(OpId, TimeFrame)]) -> f64 {
            self.inner.force(frames, changed)
        }

        fn force_batch<'c>(
            &self,
            frames: &FrameTable,
            candidates: impl IntoIterator<Item = Candidate<'c>>,
            log: &mut TermLog,
        ) -> Vec<f64> {
            let types = self.system.library().len();
            let mut out = Vec::new();
            for candidate in candidates {
                let mut keys: Vec<u32> = Vec::new();
                let mut deltas: Vec<Vec<f64>> = Vec::new();
                match candidate {
                    Candidate::Changes(changed) => {
                        for &(o, nf) in changed {
                            let op = self.system.op(o);
                            let key =
                                (op.block().index() * types + op.resource_type().index()) as u32;
                            let i = keys.iter().position(|&k| k == key).unwrap_or_else(|| {
                                keys.push(key);
                                let len = self.system.block(op.block()).time_range();
                                deltas.push(vec![0.0; len as usize]);
                                keys.len() - 1
                            });
                            let occ = self.system.occupancy(o);
                            crate::prob::accumulate(&mut deltas[i], nf, occ, 1.0);
                            crate::prob::accumulate(&mut deltas[i], frames.get(o), occ, -1.0);
                        }
                    }
                    Candidate::Kept(kept) => {
                        for (t, x) in kept.iter() {
                            keys.push(t.key);
                            deltas.push(x.to_vec());
                        }
                    }
                }
                let mut total = 0.0;
                for (&key, x) in keys.iter().zip(&deltas) {
                    let (b, k) = self.pair(key);
                    let w = self.config.spring_weights.weight(self.system.library(), k);
                    let d = self.inner.distributions().get(b, k);
                    total = crate::slab::force_sum(total, d, x, w, self.config.lookahead);
                    log.push(key, 0, x);
                }
                log.close();
                out.push(total);
            }
            out
        }

        fn resum(&self, _: Terms<'_>) -> Option<f64> {
            None
        }

        fn commit(&mut self, frames: &FrameTable, changed: &[(OpId, TimeFrame)]) {
            self.inner.commit(frames, changed);
        }

        fn context_stamp(&self, block: BlockId) -> Option<u64> {
            self.inner.context_stamp(block)
        }
    }

    fn two_adder_block() -> (System, BlockId, Vec<OpId>) {
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
    fn engine_balances_two_independent_adders() {
        let (sys, blk, ops) = two_adder_block();
        let cfg = FdsConfig {
            lookahead: 1.0 / 3.0,
            spring_weights: SpringWeights::Uniform,
            ..FdsConfig::default()
        };
        let mut eval = ClassicEvaluator::new(&sys, &[blk], cfg);
        let out = IfdsEngine::new(&sys, vec![blk]).run(&mut eval).unwrap();
        out.schedule.verify(&sys).unwrap();
        let s0 = out.schedule.expect_start(ops[0]);
        let s1 = out.schedule.expect_start(ops[1]);
        assert_ne!(s0, s1, "FDS must spread the two adders over both steps");
        let add = sys.library().by_name("add").unwrap();
        assert_eq!(out.schedule.peak_usage(&sys, blk, add), 1);
        assert!(out.iterations >= 1);
    }

    #[test]
    fn chain_is_scheduled_respecting_precedence() {
        let mut lib = ResourceLibrary::new();
        let add = lib.add(ResourceType::new("add", 1)).unwrap();
        let mul = lib.add(ResourceType::new("mul", 2).pipelined()).unwrap();
        let mut b = SystemBuilder::new(lib);
        let p = b.add_process("p");
        let blk = b.add_block(p, "b", 8).unwrap();
        let a = b.add_op(blk, "a", add).unwrap();
        let m = b.add_op(blk, "m", mul).unwrap();
        let c = b.add_op(blk, "c", add).unwrap();
        b.add_dep(a, m).unwrap();
        b.add_dep(m, c).unwrap();
        let sys = b.build().unwrap();
        let mut eval = ClassicEvaluator::new(&sys, &[blk], FdsConfig::default());
        let out = IfdsEngine::new(&sys, vec![blk]).run(&mut eval).unwrap();
        out.schedule.verify(&sys).unwrap();
    }

    #[test]
    fn implied_changes_propagate() {
        let mut lib = ResourceLibrary::new();
        let add = lib.add(ResourceType::new("add", 1)).unwrap();
        let mut b = SystemBuilder::new(lib);
        let p = b.add_process("p");
        let blk = b.add_block(p, "b", 3).unwrap();
        let x = b.add_op(blk, "x", add).unwrap();
        let y = b.add_op(blk, "y", add).unwrap();
        b.add_dep(x, y).unwrap();
        let sys = b.build().unwrap();
        let eng = IfdsEngine::new(&sys, vec![blk]);
        // Pin x to 2 -> y is forced from [1,2] to [3,...]? No: range is 3,
        // y in [1,2]; x at [0,1]. Pin x to 1 -> y forced to 2.
        let ch = eng.implied_changes(x, TimeFrame::new(1, 1));
        assert!(ch.contains(&(x, TimeFrame::new(1, 1))));
        assert!(ch.contains(&(y, TimeFrame::new(2, 2))));
    }

    #[test]
    #[should_panic(expected = "within the current frame")]
    fn pin_outside_frame_panics() {
        let (sys, blk, ops) = two_adder_block();
        let eng = IfdsEngine::new(&sys, vec![blk]);
        let _ = eng.implied_changes(ops[0], TimeFrame::new(5, 5));
    }

    #[test]
    fn deterministic_across_runs() {
        let (sys, blk, _) = two_adder_block();
        let run = || {
            let mut eval = ClassicEvaluator::new(&sys, &[blk], FdsConfig::default());
            IfdsEngine::new(&sys, vec![blk]).run(&mut eval).unwrap()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn cached_run_matches_naive_run_exactly() {
        // Two processes scheduled in one scope: a commit touches a single
        // block, so candidates of the *other* block stay cached. In a
        // single-block scope every commit invalidates everything and the
        // cache (correctly) never hits.
        let (lib, types) = paper_library();
        let mut b = SystemBuilder::new(lib);
        let (_, b1) = add_ewf_process(&mut b, "P1", 20, types).unwrap();
        let (_, b2) = add_ewf_process(&mut b, "P2", 22, types).unwrap();
        let sys = b.build().unwrap();
        let scope = vec![b1, b2];
        let cached = {
            let mut eval = ClassicEvaluator::new(&sys, &scope, FdsConfig::default());
            IfdsEngine::new(&sys, scope.clone()).run(&mut eval).unwrap()
        };
        let naive = {
            let mut eval = ClassicEvaluator::new(&sys, &scope, FdsConfig::default());
            IfdsEngine::new(&sys, scope.clone())
                .run_naive(&mut eval)
                .unwrap()
        };
        assert_eq!(cached, naive);
        assert_eq!(
            cached.schedule.starts(),
            naive.schedule.starts(),
            "start times must be bit-identical"
        );
        assert!(cached.stats.cache_hits > 0, "two-block run must hit");
        assert_eq!(naive.stats.cache_hits, 0);
        assert_eq!(naive.stats.cache_misses, 0);
        assert_eq!(
            naive.stats.batched_evals, 0,
            "the oracle run must stay on the scalar force path"
        );
        assert!(cached.stats.ops_evaluated < naive.stats.ops_evaluated);
    }

    #[test]
    fn regions_rewrite_in_place_and_compact_without_losing_contents() {
        let mut r: Regions<u32> = Regions::new(3);
        r.set(0, &[1, 2, 3]);
        r.set(1, &[4]);
        r.set(0, &[5, 6]);
        assert_eq!(r.get(0), &[5, 6], "shorter contents rewrite in place");
        assert_eq!(r.data.len(), 4);
        // Growing slot 1 one value at a time moves it to the end each
        // time; once the space left behind outweighs the live space, a
        // move compacts the arena first.
        for n in 2..=6 {
            let grown: Vec<u32> = (0..n).collect();
            r.set(1, &grown);
            assert_eq!(r.get(1), &grown[..]);
            assert_eq!(r.get(0), &[5, 6]);
        }
        assert!(
            r.data.len() < 3 + (1..=6).sum::<usize>(),
            "compaction reclaimed the moved-out space"
        );
        r.set(2, &[9]);
        r.set(1, &[]);
        assert!(r.get(1).is_empty());
        assert_eq!(r.get(2), &[9]);
    }

    /// Both evaluators, at every thread count, schedule bit-identically:
    /// the chunking never changes a value, and neither does refolding
    /// kept records (the refolding run does refold, and each refold is
    /// checked against a fresh walk).
    #[test]
    fn chunked_sweep_is_bit_identical_at_every_thread_count() {
        let (lib, types) = paper_library();
        let mut b = SystemBuilder::new(lib);
        let (_, b1) = add_ewf_process(&mut b, "P1", 20, types).unwrap();
        let (_, b2) = add_ewf_process(&mut b, "P2", 22, types).unwrap();
        let sys = b.build().unwrap();
        let scope = vec![b1, b2];
        let run = |threads, refold: bool| {
            rayon::set_num_threads(threads);
            let engine = IfdsEngine::new(&sys, scope.clone());
            let out = if refold {
                engine.run(&mut Refolding::new(&sys, &scope))
            } else {
                engine.run(&mut ClassicEvaluator::new(
                    &sys,
                    &scope,
                    FdsConfig::default(),
                ))
            };
            rayon::set_num_threads(0);
            out.unwrap()
        };
        let reference = run(1, false);
        assert_eq!(
            reference.stats.parallel_evals, 0,
            "one thread never fans out"
        );
        assert_eq!(
            reference.stats.refolds, 0,
            "the classic model keeps nothing"
        );
        for threads in [1, 2, 3, 4] {
            for refold in [false, true] {
                let out = run(threads, refold);
                assert_eq!(out, reference, "threads = {threads}, refold = {refold}");
                assert_eq!(out.schedule.starts(), reference.schedule.starts());
                assert_eq!(out.stats.ops_evaluated, reference.stats.ops_evaluated);
                assert_eq!(out.stats.batched_evals, out.stats.ops_evaluated);
                if threads > 1 {
                    assert!(
                        out.stats.parallel_evals > 0,
                        "threads = {threads}: the 68-op sweep must be split over the pool"
                    );
                }
                if refold {
                    assert!(out.stats.refolds > 0, "threads = {threads}: no refold");
                    assert!(out.stats.refolds < 2 * out.stats.ops_evaluated);
                }
            }
        }
    }

    /// A commit that moves an op a placement's walk read but did not
    /// change — here an op that absorbed the narrowing — drops that
    /// placement's record, so it is walked again rather than refolded.
    #[test]
    fn commit_drops_records_whose_walk_read_a_moved_op() {
        let mut lib = ResourceLibrary::new();
        let add = lib.add(ResourceType::new("add", 1)).unwrap();
        let mut b = SystemBuilder::new(lib);
        let p = b.add_process("p");
        let blk = b.add_block(p, "b", 6).unwrap();
        let op = |b: &mut SystemBuilder, name| b.add_op(blk, name, add).unwrap();
        // a -> x -> y -> z bounds a to [0, 2]; e -> f -> g -> s and
        // a -> s hold s at 3 or later, so pinning a at 2 leaves s alone.
        let [a, x, y, z, e, f, g, s] =
            ["a", "x", "y", "z", "e", "f", "g", "s"].map(|n| op(&mut b, n));
        for (from, to) in [(a, x), (x, y), (y, z), (e, f), (f, g), (g, s), (a, s)] {
            b.add_dep(from, to).unwrap();
        }
        let sys = b.build().unwrap();
        let mut frames = FrameTable::initial(&sys);
        assert_eq!(
            (frames.get(a), frames.get(s)),
            (TimeFrame::new(0, 2), TimeFrame::new(3, 5))
        );

        let mut cache = ForceCache::new(sys.num_ops());
        let mut walk = Vec::new();
        let read = narrowing_changes_into(&sys, &frames, a, TimeFrame::new(2, 2), &mut walk);
        assert_eq!(walk.iter().map(|c| c.0).collect::<Vec<_>>(), [a, x, y, z]);
        let alap_side = 2 * a.index() + 1;
        let record = [ForceTerm {
            key: 0,
            lo: 0,
            len: 1,
        }];
        cache.keep(
            alap_side,
            Terms {
                terms: &record,
                xs: &[1.0],
            },
            read,
        );

        // Moving z, which the walk changed, drops the record ...
        let commit = narrowing_changes(&sys, &frames, z, TimeFrame::new(4, 4));
        let mut after = frames.clone();
        for &(q, fr) in &commit {
            after.set(q, fr);
        }
        let mut dropped = ForceCache::new(sys.num_ops());
        dropped.keep(
            alap_side,
            Terms {
                terms: &record,
                xs: &[1.0],
            },
            read,
        );
        dropped.forget_moved(&sys, &commit, &after);
        assert!(!dropped.is_kept(alap_side));

        // ... and so does moving s, which the walk only read.
        let commit = narrowing_changes(&sys, &frames, s, TimeFrame::new(4, 5));
        assert_eq!(commit, [(s, TimeFrame::new(4, 5))], "only s moves");
        for &(q, fr) in &commit {
            frames.set(q, fr);
        }
        cache.forget_moved(&sys, &commit, &frames);
        assert!(!cache.is_kept(alap_side), "the walk read s, which moved");
        let mut rewalk = Vec::new();
        narrowing_changes_into(&sys, &frames, a, TimeFrame::new(2, 2), &mut rewalk);
        assert_eq!(rewalk, walk, "here the walk still implies the same changes");

        // A whole run on this block refolds, and matches the oracle.
        let scope = vec![blk];
        let cached = IfdsEngine::new(&sys, scope.clone())
            .run(&mut Refolding::new(&sys, &scope))
            .unwrap();
        let naive = IfdsEngine::new(&sys, scope.clone())
            .run_naive(&mut Refolding::new(&sys, &scope))
            .unwrap();
        assert_eq!(cached, naive);
        assert!(cached.stats.refolds > 0);
    }

    #[test]
    fn recorded_run_is_bit_identical_and_captures_iterations() {
        use tcms_obs::TraceRecorder;
        let (sys, blk, _) = two_adder_block();
        let plain = {
            let mut eval = ClassicEvaluator::new(&sys, &[blk], FdsConfig::default());
            IfdsEngine::new(&sys, vec![blk]).run(&mut eval).unwrap()
        };
        let rec = TraceRecorder::new();
        let recorded = {
            let mut eval = ClassicEvaluator::new(&sys, &[blk], FdsConfig::default());
            IfdsEngine::new(&sys, vec![blk])
                .run_recorded(&mut eval, &rec)
                .unwrap()
        };
        assert_eq!(plain, recorded);
        assert_eq!(plain.schedule.starts(), recorded.schedule.starts());
        let data = rec.finish();
        assert_eq!(data.metrics.counter("ifds.iterations"), recorded.iterations);
        tcms_obs::sink::check_span_nesting(&data.events).unwrap();
        let points = data
            .events
            .iter()
            .filter(|e| matches!(e.kind, tcms_obs::TraceEventKind::Point(_)))
            .count();
        assert_eq!(points as u64, recorded.iterations);
    }

    #[test]
    fn stats_are_consistent() {
        let (sys, blk, _) = two_adder_block();
        let mut eval = ClassicEvaluator::new(&sys, &[blk], FdsConfig::default());
        let out = IfdsEngine::new(&sys, vec![blk]).run(&mut eval).unwrap();
        assert_eq!(out.stats.iterations, out.iterations);
        assert_eq!(
            out.stats.ops_evaluated, out.stats.cache_misses,
            "with caching on, every fresh evaluation is a miss"
        );
        assert_eq!(
            out.stats.ops_evaluated, out.stats.batched_evals,
            "run() scores every fresh pair through the batched entry point"
        );
        assert!(out.stats.total_time >= out.stats.eval_time);
        let mut merged = IfdsStats::default();
        merged.absorb(&out.stats);
        merged.absorb(&out.stats);
        assert_eq!(merged.iterations, 2 * out.stats.iterations);
        assert!(merged.hit_rate() >= 0.0 && merged.hit_rate() <= 1.0);
    }

    #[test]
    fn iteration_budget_trips_with_partial_progress() {
        use crate::config::RunBudget;
        let (lib, types) = paper_library();
        let mut b = SystemBuilder::new(lib);
        let (_, blk) = add_ewf_process(&mut b, "P1", 20, types).unwrap();
        let sys = b.build().unwrap();
        let budget = RunBudget {
            max_iterations: Some(1),
            ..RunBudget::default()
        };
        let mut eval = ClassicEvaluator::new(&sys, &[blk], FdsConfig::default());
        let err = IfdsEngine::new(&sys, vec![blk])
            .with_budget(budget)
            .run(&mut eval)
            .unwrap_err();
        match err {
            EngineError::BudgetExhausted {
                axis,
                iterations,
                evals,
                unfixed_ops,
                ..
            } => {
                assert_eq!(axis, BudgetAxis::Iterations);
                assert_eq!(iterations, 1);
                assert!(evals > 0, "one iteration must have evaluated");
                assert!(unfixed_ops > 0, "EWF cannot finish in one iteration");
            }
        }
    }

    #[test]
    fn eval_budget_trip_is_deterministic() {
        use crate::config::RunBudget;
        let (lib, types) = paper_library();
        let mut b = SystemBuilder::new(lib);
        let (_, blk) = add_ewf_process(&mut b, "P1", 20, types).unwrap();
        let sys = b.build().unwrap();
        let trip = || {
            let budget = RunBudget {
                max_evals: Some(50),
                ..RunBudget::default()
            };
            let mut eval = ClassicEvaluator::new(&sys, &[blk], FdsConfig::default());
            IfdsEngine::new(&sys, vec![blk])
                .with_budget(budget)
                .run(&mut eval)
                .unwrap_err()
        };
        let (a, b) = (trip(), trip());
        assert_eq!(a, b, "deterministic axes must trip identically");
        let EngineError::BudgetExhausted { axis, .. } = a;
        assert_eq!(axis, BudgetAxis::Evaluations);
    }

    #[test]
    fn generous_budget_matches_unbudgeted_run() {
        let (sys, blk, _) = two_adder_block();
        use crate::config::RunBudget;
        let plain = {
            let mut eval = ClassicEvaluator::new(&sys, &[blk], FdsConfig::default());
            IfdsEngine::new(&sys, vec![blk]).run(&mut eval).unwrap()
        };
        let budgeted = {
            let mut eval = ClassicEvaluator::new(&sys, &[blk], FdsConfig::default());
            IfdsEngine::new(&sys, vec![blk])
                .with_budget(RunBudget {
                    max_iterations: Some(1_000_000),
                    max_evals: Some(1_000_000),
                    ..RunBudget::default()
                })
                .run(&mut eval)
                .unwrap()
        };
        assert_eq!(plain, budgeted);
        assert_eq!(plain.schedule.starts(), budgeted.schedule.starts());
    }

    #[test]
    fn budget_trip_emits_recorder_event() {
        use crate::config::RunBudget;
        use tcms_obs::TraceRecorder;
        let (lib, types) = paper_library();
        let mut b = SystemBuilder::new(lib);
        let (_, blk) = add_ewf_process(&mut b, "P1", 20, types).unwrap();
        let sys = b.build().unwrap();
        let rec = TraceRecorder::new();
        let mut eval = ClassicEvaluator::new(&sys, &[blk], FdsConfig::default());
        let err = IfdsEngine::new(&sys, vec![blk])
            .with_budget(RunBudget {
                max_iterations: Some(2),
                ..RunBudget::default()
            })
            .run_recorded(&mut eval, &rec)
            .unwrap_err();
        assert!(matches!(err, EngineError::BudgetExhausted { .. }));
        let data = rec.finish();
        assert!(
            data.events.iter().any(|e| matches!(
                &e.kind,
                tcms_obs::TraceEventKind::Instant { name, .. } if *name == "ifds.budget_exhausted"
            )),
            "trip must be observable as an event"
        );
        assert_eq!(
            data.metrics.counter("ifds.iterations"),
            2,
            "partial-progress counters must still be published"
        );
    }
}
