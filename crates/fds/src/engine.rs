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
//! Next to each force the cache keeps the terms of its fold that the
//! evaluator recorded ([`ForceEvaluator::force_batch`]): the
//! displacements priced on a profile the stamp does not cover — in the
//! modulo evaluator, the group profile `G_k` that other processes move.
//! When both keys are unchanged since the pair was computed, a force
//! without terms is reused as it is, and a force with terms is re-summed
//! ([`ForceEvaluator::resum`]) against the live profiles: the same fold
//! over the same operands, so bit-identical to a fresh evaluation, at the
//! cost of one multiply-add per recorded displacement value.
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
//! when the sweep is large enough. `force_batch` takes `&self` and returns
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
use crate::evaluator::{ForceEvaluator, ForceTerm, TermLog, Terms};
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

/// One force pair awaiting evaluation: the op, its time frame, and the
/// cache write-back key `(block generation, context stamp)` when the
/// incremental cache is on.
type PendingEval = (OpId, TimeFrame, Option<(u64, u64)>);

/// Buffers of one sweep chunk: the placements it scores, their change
/// sets back to back (`ends[i]` closes the i-th), the resulting force
/// pairs and the fold terms the evaluator recorded for them. Kept across
/// iterations, so once they fit the first (largest) sweep the candidate
/// sweep stops reallocating them — allocating them afresh every iteration
/// left the threads' heaps fragmented.
#[derive(Default)]
struct ChunkBufs {
    placements: Vec<(OpId, u32)>,
    changes: Vec<(OpId, TimeFrame)>,
    ends: Vec<usize>,
    forces: Vec<(f64, f64)>,
    log: TermLog,
}

/// The candidate-force cache of one run. `entries[op]` holds the block
/// frame generation and evaluator context stamp the pair was computed
/// under, and the pair `(f_lo, f_hi)`; slots `2 * op` (ASAP end) and
/// `2 * op + 1` (ALAP end) of `terms`/`xs` hold the fold terms recorded
/// for each placement. The sentinel generation `u64::MAX` is unreachable
/// (generations count frame mutations), so fresh entries never match.
struct ForceCache {
    entries: Vec<(u64, u64, f64, f64)>,
    terms: Regions<ForceTerm>,
    xs: Regions<f64>,
}

impl ForceCache {
    fn new(num_ops: usize) -> Self {
        ForceCache {
            entries: vec![(u64::MAX, u64::MAX, 0.0, 0.0); num_ops],
            terms: Regions::new(2 * num_ops),
            xs: Regions::new(2 * num_ops),
        }
    }

    /// The force of one placement of `op` (`side` 0: ASAP end, 1: ALAP
    /// end) re-summed from its recorded terms, or `None` when none were
    /// recorded and the cached value stands as it is.
    fn resum<E: ForceEvaluator>(&self, eval: &E, op: OpId, side: usize) -> Option<f64> {
        let slot = 2 * op.index() + side;
        let terms = self.terms.get(slot);
        (!terms.is_empty()).then(|| {
            eval.resum(Terms {
                terms,
                xs: self.xs.get(slot),
            })
        })
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
        bufs.placements.extend_from_slice(placements);
        self.score(eval, &mut bufs)
    }

    /// Scores `bufs.placements` through one
    /// [`ForceEvaluator::force_batch`] call, collecting their change
    /// sets back to back and their fold terms in `bufs`.
    fn score<E: ForceEvaluator>(&self, eval: &E, bufs: &mut ChunkBufs) -> Vec<f64> {
        bufs.changes.clear();
        bufs.ends.clear();
        for &(o, t) in &bufs.placements {
            let pin = TimeFrame::new(t, t);
            narrowing_changes_into(self.system, &self.frames, o, pin, &mut bufs.changes);
            bufs.ends.push(bufs.changes.len());
        }
        let views: Vec<&[(OpId, TimeFrame)]> = bufs
            .ends
            .iter()
            .scan(0, |start, &end| {
                Some(&bufs.changes[std::mem::replace(start, end)..end])
            })
            .collect();
        bufs.log.clear();
        eval.force_batch(&self.frames, &views, &mut bufs.log)
    }

    /// Forces of the two extreme placements `(f_lo, f_hi)` of every
    /// pending candidate, into `forces`: one batch per contiguous chunk of
    /// `pending`, chunk `c` scored with `bufs[c]`. One chunk runs inline on
    /// the calling thread; more run one per pool thread.
    /// [`ForceEvaluator::force_batch`] returns what a lone `force` call
    /// would for every candidate whatever the batch holds, so the chunking
    /// never changes a value. Returns the pairs per chunk: pending pair `j`
    /// was scored as pair `j % per` of chunk `j / per`, whose log holds
    /// its terms.
    fn pair_forces<E: ForceEvaluator + Sync>(
        &self,
        eval: &E,
        pending: &[PendingEval],
        bufs: &mut [ChunkBufs],
        forces: &mut Vec<(f64, f64)>,
    ) -> usize {
        let per = pending.len().div_ceil(bufs.len()).max(1);
        let chunks = pending.len().div_ceil(per);
        rayon::par_chunks_mut(&mut bufs[..chunks], 1, |c, b| {
            let b = &mut b[0];
            b.placements.clear();
            for &(o, fr, _) in &pending[c * per..pending.len().min((c + 1) * per)] {
                b.placements.extend([(o, fr.asap), (o, fr.alap)]);
            }
            let f = self.score(eval, b);
            b.forces.clear();
            b.forces.extend(f.chunks_exact(2).map(|p| (p[0], p[1])));
        });
        forces.clear();
        for b in &bufs[..chunks] {
            forces.extend_from_slice(&b.forces);
        }
        per
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
        // inline. A chunk gets at least this many pairs: handing a thread
        // fewer is slower than computing them on the caller (a broadcast
        // costs a few microseconds, and each chunk rebuilds the
        // evaluator's batch-wide intermediates).
        let threads = rayon::current_num_threads();
        const PAR_MIN_PAIRS: usize = 16;
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
            // collect the force pairs that actually need computing.
            cands.clear();
            to_eval.clear();
            for &o in &self.scope_ops {
                let fr = self.frames.get(o);
                if fr.is_fixed() {
                    continue;
                }
                let src = if incremental {
                    let block = self.system.op(o).block();
                    match eval.context_stamp(block) {
                        Some(ctx) => {
                            let gen = block_gen[block.index()];
                            let (g, c, f_lo, f_hi) = cache.entries[o.index()];
                            if g == gen && c == ctx {
                                stats.cache_hits += 1;
                                let lo = cache.resum(&*eval, o, 0);
                                let hi = cache.resum(&*eval, o, 1);
                                if lo.is_some() || hi.is_some() {
                                    stats.resums += 1;
                                }
                                CandSource::Cached(lo.unwrap_or(f_lo), hi.unwrap_or(f_hi))
                            } else {
                                stats.cache_misses += 1;
                                stats.ops_evaluated += 1;
                                to_eval.push((o, fr, Some((gen, ctx))));
                                CandSource::Pending(to_eval.len() - 1)
                            }
                        }
                        None => {
                            stats.ops_evaluated += 1;
                            to_eval.push((o, fr, None));
                            CandSource::Pending(to_eval.len() - 1)
                        }
                    }
                } else {
                    stats.ops_evaluated += 1;
                    to_eval.push((o, fr, None));
                    CandSource::Pending(to_eval.len() - 1)
                };
                cands.push((o, src));
            }
            // Pass 2: compute the missing pairs. Production runs score them
            // through `force_batch`, so the evaluator shares candidate-
            // independent intermediates (delta scratch, sibling profiles,
            // per-op removal tables) across a whole chunk: one chunk at one
            // thread, one chunk per thread when the sweep is big enough to
            // pay for the fan-out. Only the *fold* order below matters for
            // the tie-break, and it does not depend on the chunking.
            let mut per = 0;
            if incremental {
                let chunks = threads.min(to_eval.len() / PAR_MIN_PAIRS).max(1);
                stats.batched_evals += to_eval.len() as u64;
                if chunks > 1 {
                    stats.parallel_evals += to_eval.len() as u64;
                }
                per = self.pair_forces(&*eval, &to_eval, &mut chunk_bufs[..chunks], &mut forces);
            } else {
                // The oracle: one scalar `force` per placement, inline.
                forces.clear();
                forces.extend(to_eval.iter().map(|&(o, fr, _)| {
                    let at = |t| {
                        eval.force(&self.frames, &self.implied_changes(o, TimeFrame::new(t, t)))
                    };
                    (at(fr.asap), at(fr.alap))
                }));
            }
            // Pass 3 (sequential, scope order): cache write-back and the
            // selection fold. The epsilon tie-break is non-associative, so
            // this fold must run in scope order on one thread — that is
            // what keeps the parallel run bit-identical to the sequential
            // loop. The write-back copies each pair's recorded terms out of
            // its chunk's log into the cache's arenas, here on the engine
            // thread.
            let mut best: Option<(f64, OpId, bool)> = None;
            for &(o, src) in &cands {
                let (f_lo, f_hi) = match src {
                    CandSource::Cached(f_lo, f_hi) => (f_lo, f_hi),
                    CandSource::Pending(j) => {
                        let (f_lo, f_hi) = forces[j];
                        if let Some((gen, ctx)) = to_eval[j].2 {
                            cache.entries[o.index()] = (gen, ctx, f_lo, f_hi);
                            let log = &chunk_bufs[j / per].log;
                            for side in 0..2 {
                                let terms = log.candidate(2 * (j % per) + side);
                                cache.terms.set(2 * o.index() + side, terms.terms);
                                cache.xs.set(2 * o.index() + side, terms.xs);
                            }
                        }
                        (f_lo, f_hi)
                    }
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
                for &(q, _) in &changes {
                    block_gen[self.system.op(q).block().index()] = self.frames.generation();
                }
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
    use tcms_ir::{ResourceLibrary, ResourceType, SystemBuilder};

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

    #[test]
    fn chunked_sweep_is_bit_identical_at_every_thread_count() {
        let (lib, types) = paper_library();
        let mut b = SystemBuilder::new(lib);
        let (_, b1) = add_ewf_process(&mut b, "P1", 20, types).unwrap();
        let (_, b2) = add_ewf_process(&mut b, "P2", 22, types).unwrap();
        let sys = b.build().unwrap();
        let scope = vec![b1, b2];
        let run = |threads| {
            rayon::set_num_threads(threads);
            let mut eval = ClassicEvaluator::new(&sys, &scope, FdsConfig::default());
            let out = IfdsEngine::new(&sys, scope.clone()).run(&mut eval).unwrap();
            rayon::set_num_threads(0);
            out
        };
        let reference = run(1);
        assert_eq!(
            reference.stats.parallel_evals, 0,
            "one thread never fans out"
        );
        for threads in [2, 3, 4] {
            let out = run(threads);
            assert_eq!(out, reference, "threads = {threads}");
            assert_eq!(out.schedule.starts(), reference.schedule.starts());
            assert!(
                out.stats.parallel_evals > 0,
                "threads = {threads}: the 68-op sweep must be split over the pool"
            );
            assert_eq!(out.stats.batched_evals, out.stats.ops_evaluated);
        }
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
