//! The modified force model (paper §5, equation 10).
//!
//! The modification is two-part:
//!
//! 1. **Periodic alignment** (§5.1): for globally shared types the spring
//!    displacement is measured on the modulo-max-transformed profile, so
//!    changes hidden under the slot maximum are free and operations align
//!    to already-authorized slots.
//! 2. **Global balancing** (§5.2): the springs themselves are the
//!    group-summed profile `G_k`, so the force balances the requirement
//!    across all processes of the sharing group.
//!
//! Local types keep the classical per-block force, and precedence-implied
//! frame changes are priced exactly like in the unmodified algorithm.

use std::cell::Cell;

use tcms_fds::slab::force_sum;
use tcms_fds::{Candidate, FdsConfig, ForceEvaluator, TermLog, Terms};
use tcms_ir::{BlockId, FrameTable, OpId, ResourceTypeId, System, TimeFrame};
use tcms_obs::{Recorder, TimelinePoint};

use crate::assign::SharingSpec;
use crate::field::ModuloField;

/// Force evaluator implementing the two-part modification of the IFDS
/// algorithm. Plugs into [`tcms_fds::IfdsEngine`].
///
/// # Context stamps and re-summed forces
///
/// The evaluator supports the engine's candidate-force cache through
/// [`ForceEvaluator::context_stamp`], maintained at two granularities
/// mirroring the field's layers:
///
/// * per block — the classical distribution `D_{b,k}` moved,
/// * per process — some block's modulo-max `D̂` moved, which sibling
///   blocks of the same process read through `M_p`.
///
/// The stamp covers every input of a force except the group profile
/// `G_k`, which the other processes of the sharing group move. What a
/// global term prices on `G_k` is the displacement `x = M̃_p − M_p`, and
/// that depends only on the candidate's own block and process. So
/// [`ForceEvaluator::force_batch`] records the fold of every candidate,
/// in fold order: per local key its delta span `(D_{b,k}, lo, x)`, which
/// is also its term, and per global key its delta span followed by its
/// term `(G_k, x)`. [`ForceEvaluator::resum`] replays the terms against
/// the live profiles: a commit in one process therefore leaves the
/// cached forces of the other processes in its group valid at the price
/// of a re-sum.
///
/// # Kept deltas
///
/// The delta spans depend only on the frames the candidate's change set
/// was walked from. While none of those moved, the engine hands the
/// record back as [`Candidate::Kept`], and the spans are loaded into the
/// delta buffers exactly as the delta build left them and folded by the
/// same fold as a fresh evaluation, against the live `D_{b,k}`, sibling
/// `D̂`, `M_p` and `G_k` — a fresh evaluation minus the walk and the
/// delta build.
#[derive(Debug, Clone)]
pub struct ModuloEvaluator<'a> {
    system: &'a System,
    config: FdsConfig,
    field: ModuloField<'a>,
    /// Monotone counter the stamps below are drawn from.
    counter: u64,
    /// Last mutation of a block's distribution `D_{b,·}`.
    block_epoch: Vec<u64>,
    /// Last mutation of any `D̂` profile of the process's blocks.
    proc_epoch: Vec<u64>,
    /// Per-op `(block, type, occupancy, block time range)` resolved once
    /// at construction — the delta path reads one flat entry per change
    /// instead of chasing the op, block and library tables per candidate.
    op_meta: Vec<(BlockId, ResourceTypeId, u32, u32)>,
}

impl<'a> ModuloEvaluator<'a> {
    /// Builds the evaluator; `frames` must be the engine's initial table.
    pub fn new(
        system: &'a System,
        spec: SharingSpec,
        config: FdsConfig,
        frames: &FrameTable,
    ) -> Self {
        let op_meta = system
            .op_ids()
            .map(|o| {
                let op = system.op(o);
                let len = system.block(op.block()).time_range();
                (op.block(), op.resource_type(), system.occupancy(o), len)
            })
            .collect();
        ModuloEvaluator {
            system,
            config,
            field: ModuloField::new(system, spec, frames),
            counter: 0,
            block_epoch: vec![0; system.num_blocks()],
            proc_epoch: vec![0; system.num_processes()],
            op_meta,
        }
    }

    /// Read access to the maintained field (used by reports and tests).
    pub fn field(&self) -> &ModuloField<'a> {
        &self.field
    }

    /// Reference force computed against a field rebuilt from scratch out
    /// of `frames` — the oracle the incremental path is property-tested
    /// against. Slow by design; only compiled for tests and the
    /// `naive-oracle` feature.
    #[cfg(any(test, feature = "naive-oracle"))]
    pub fn force_naive(&self, frames: &FrameTable, changed: &[(OpId, TimeFrame)]) -> f64 {
        let rebuilt = ModuloField::new(self.system, self.field.spec().clone(), frames);
        self.force_with_field(&rebuilt, frames, changed)
    }

    fn force_with_field(
        &self,
        field: &ModuloField<'_>,
        frames: &FrameTable,
        changed: &[(OpId, TimeFrame)],
    ) -> f64 {
        let mut scratch = EvalScratch::default();
        let mut state = DeltaBufs::default();
        self.deltas_into(frames, changed, &mut state);
        self.force_from_deltas(field, &state, &mut scratch, None, false)
    }

    /// Force of one candidate given its per-`(block, type)` deltas,
    /// reusing (and filling) the sibling-profile cache in `scratch`.
    ///
    /// The term accumulation runs key by key, slot by slot, threading one
    /// running total — exactly the seed's summation order — so the result
    /// is bit-identical to the pre-slab implementation.
    /// Every delta term outside `spans[i]` is exactly `+0.0` (the buffer
    /// was span-zeroed and [`tcms_fds::prob::accumulate`] wrote only the
    /// span), so truncating the fused fold's delta to the span and
    /// span-limiting the local force sum are bitwise free: `d + 0.0 == d`
    /// for the never-`-0.0` distribution values, and a zero delta term
    /// contributes `±0.0`, which cannot move the running total.
    ///
    /// With a `log`, the candidate's record is kept there (see
    /// [`ModuloEvaluator`]): all of it with `spans`, else — for a refold,
    /// whose spans are kept already — only its global terms.
    fn force_from_deltas<'f>(
        &self,
        field: &'f ModuloField<'_>,
        state: &DeltaBufs,
        scratch: &mut EvalScratch<'f>,
        mut log: Option<&mut TermLog>,
        spans: bool,
    ) -> f64 {
        let bufs = &state.bufs;
        let mut total = 0.0;
        for (i, &(b, k)) in state.keys.iter().enumerate() {
            let pos = scratch.plan_pos(self, field, b, k);
            let plan = &mut scratch.plans[pos];
            let (lo, hi) = state.spans[i];
            if let Some(g) = &mut plan.global {
                if let Some(log) = log.as_deref_mut().filter(|_| spans) {
                    log.push(self.pair_term(b, k) | DELTA_TERM, lo, &bufs[i][lo..hi]);
                }
                // Modified force: displacement of the balanced global
                // profile (equations 7-10) from the plan's resolved
                // slices — the fused fold of `D + delta` (equation 7),
                // the slot max with the sibling `D̂`s (equation 9) and the
                // difference to the committed `M_p`.
                let gdelta = &mut scratch.gdelta;
                if gdelta.len() != g.rho {
                    gdelta.resize(g.rho, 0.0);
                }
                g.uses += 1;
                if g.uses > 2 && g.tables.is_none() {
                    let (mut pre, mut suf) = scratch.spare_tables.pop().unwrap_or_default();
                    crate::kernel::modulo_boundary_max_tables_into(
                        plan.dist, g.rho, &mut pre, &mut suf,
                    );
                    g.tables = Some((pre, suf));
                }
                if let Some((pre, suf)) = &g.tables {
                    crate::kernel::modulo_max_delta_span_into(
                        pre,
                        suf,
                        plan.dist,
                        &bufs[i][lo..hi],
                        lo,
                        gdelta,
                    );
                } else {
                    crate::kernel::modulo_max_delta_into(plan.dist, &bufs[i][..hi], gdelta);
                }
                if let Some(sib) = &g.siblings {
                    crate::kernel::slot_max_into(gdelta, sib);
                }
                crate::kernel::sub_into(gdelta, g.mold);
                total = force_sum(total, g.gprof, gdelta, plan.weight, self.config.lookahead);
                if let Some(log) = log.as_deref_mut() {
                    log.push(global_term(k), 0, gdelta);
                }
            } else {
                // Classical force on the per-block distribution.
                let x = &bufs[i][lo..hi];
                total = force_sum(
                    total,
                    &plan.dist[lo..hi],
                    x,
                    plan.weight,
                    self.config.lookahead,
                );
                if let Some(log) = log.as_deref_mut().filter(|_| spans) {
                    log.push(self.pair_term(b, k), lo, x);
                }
            }
        }
        total
    }

    /// Probability deltas of `changed`, grouped per `(block, type)`, into
    /// the reused buffers of `state` (only the first `state.keys.len()`
    /// entries of `bufs`/`spans` are meaningful after the call).
    ///
    /// `spans[i]` is the half-open dirty span of `bufs[i]` — everything
    /// outside it is exactly `+0.0`. Reusing a buffer therefore zeroes
    /// only its previous span instead of the whole block range.
    ///
    /// The removal term of an op (its occupancy over the *current* frame,
    /// subtracted) does not depend on the candidate, so it is computed
    /// once per op per batch and replayed from `state.removals` — by copy
    /// into a fresh buffer, element-wise add into a dirty one. Both are
    /// bitwise identical to re-running the accumulation: the copy swaps
    /// two addends landing on a zeroed element (IEEE addition is
    /// commutative), the add contributes the exact same terms in the
    /// exact same order.
    fn deltas_into(
        &self,
        frames: &FrameTable,
        changed: &[(OpId, TimeFrame)],
        state: &mut DeltaBufs,
    ) {
        state.keys.clear();
        for &(o, nf) in changed {
            let (block, rtype, occ, range) = self.op_meta[o.index()];
            let key = (block, rtype);
            let i = state
                .keys
                .iter()
                .position(|&k| k == key)
                .unwrap_or_else(|| state.open(key, range as usize));
            if !state.cache_removals {
                // One-shot evaluation: the removal term is used once, so
                // accumulate both terms directly in the seed's order.
                let buf = &mut state.bufs[i];
                let a = tcms_fds::prob::accumulate(buf, nf, occ, 1.0);
                let r = tcms_fds::prob::accumulate(buf, frames.get(o), occ, -1.0);
                state.spans[i] = span_union(state.spans[i], span_union(a, r));
                continue;
            }
            let len = state.bufs[i].len();
            let (removal, rspan) = state.ops.removal(o, frames.get(o), occ, len);
            let buf = &mut state.bufs[i];
            let (rlo, rhi) = rspan;
            if state.spans[i].0 >= state.spans[i].1 {
                // Fresh buffer: land the removal term by copy, then add
                // the placement term on top.
                buf[rlo..rhi].copy_from_slice(removal);
                state.spans[i] = rspan;
                let a = tcms_fds::prob::accumulate(buf, nf, occ, 1.0);
                state.spans[i] = span_union(state.spans[i], a);
            } else {
                // Dirty buffer: keep the seed's exact term order —
                // placement first, then the removal terms.
                let a = tcms_fds::prob::accumulate(buf, nf, occ, 1.0);
                for (b, &r) in buf[rlo..rhi].iter_mut().zip(removal) {
                    *b += r;
                }
                state.spans[i] = span_union(state.spans[i], span_union(a, rspan));
            }
        }
    }

    /// Loads the delta spans of a kept record into the buffers of `state`
    /// (see [`ModuloEvaluator`]): every value outside a span is `+0.0`,
    /// as [`ModuloEvaluator::deltas_into`] left it.
    fn kept_deltas_into(&self, kept: Terms<'_>, state: &mut DeltaBufs) {
        state.keys.clear();
        for (t, x) in kept.iter().filter(|(t, _)| t.key & GLOBAL_TERM == 0) {
            let (b, k) = self.term_pair(t.key);
            let i = state.open((b, k), self.system.block(b).time_range() as usize);
            let lo = t.lo as usize;
            state.bufs[i][lo..lo + x.len()].copy_from_slice(x);
            state.spans[i] = (lo, lo + x.len());
        }
    }

    /// Batched fast path for the overwhelmingly common candidate shape:
    /// one op moved onto a global type. The removal term *and* the
    /// committed distribution are candidate-independent, so their sum is
    /// folded into per-op modulo boundary tables
    /// ([`crate::kernel::modulo_boundary_max_tables_into`] over
    /// `D_{b,k} - removal`) once per batch; each candidate then only
    /// scans its placement span — `occ` steps for the width-1 frames the
    /// engine sweeps — instead of the whole removal span.
    ///
    /// Bitwise identical to the generic path: outside the placement span
    /// the delta buffer holds exactly the removal term (`d + r` — the
    /// same two operands the tables pre-add), inside it holds
    /// `r + p` accumulated onto a zeroed element (`0.0 + p == p`
    /// bitwise for the positive placement terms), and regrouping the
    /// zero-seeded per-slot max is order-insensitive over the
    /// never-`NaN`/`-0.0` profile values.
    ///
    /// Returns `None` (caller falls back to the generic path, and nothing
    /// is recorded) for local pairs and empty blocks. Otherwise the
    /// candidate's delta span and its one global term are recorded in
    /// `log`: the delta holds the removal term, plus the placement term
    /// over the placement span — the buffer the generic path folds.
    #[allow(clippy::too_many_arguments)]
    fn force_single_fast<'f>(
        &self,
        field: &'f ModuloField<'_>,
        o: OpId,
        nf: TimeFrame,
        frames: &FrameTable,
        state: &mut DeltaBufs,
        scratch: &mut EvalScratch<'f>,
        log: &mut TermLog,
    ) -> Option<f64> {
        let (block, rtype, occ, range) = self.op_meta[o.index()];
        let len = range as usize;
        if len == 0 {
            return None;
        }
        let pos = scratch.plan_pos(self, field, block, rtype);
        let plan = &scratch.plans[pos];
        let g = plan.global.as_ref()?;
        // The tables only pay off once an op is scored against more than
        // one slot (the build walks the whole block range); the op's
        // first candidate takes the generic span fold instead.
        if state.op_table_of != Some(o) && !state.ops.seen_single(o) {
            return None;
        }
        let (rbuf, (rlo, rhi)) = state.ops.removal(o, frames.get(o), occ, len);
        // Placement span, clamped exactly like
        // [`tcms_fds::prob::accumulate`] clamps its writes. A placement
        // inside the current frame lies inside the removal span; anything
        // else takes the generic path.
        let last = (nf.alap + occ - 1).min(range - 1);
        let (plo, phi) = if nf.asap > last {
            (0, 0)
        } else {
            (nf.asap as usize, last as usize + 1)
        };
        if plo < rlo || phi > rhi {
            return None;
        }
        if state.op_table_of != Some(o) {
            let combined = &mut state.op_combined;
            combined.clear();
            combined.extend_from_slice(plan.dist);
            for (c, &r) in combined[rlo..rhi].iter_mut().zip(rbuf) {
                *c += r;
            }
            let (pre, suf) = &mut state.op_table;
            crate::kernel::modulo_boundary_max_tables_into(combined, g.rho, pre, suf);
            state.op_table_of = Some(o);
        }
        let (pre, suf) = &state.op_table;
        let delta = log.push(self.pair_term(block, rtype) | DELTA_TERM, rlo, rbuf);
        let gdelta = &mut scratch.gdelta;
        if gdelta.len() != g.rho {
            gdelta.resize(g.rho, 0.0);
        }
        let pre_row = &pre[plo * g.rho..(plo + 1) * g.rho];
        let suf_row = &suf[phi * g.rho..(phi + 1) * g.rho];
        for ((d, &a), &b) in gdelta.iter_mut().zip(pre_row).zip(suf_row) {
            *d = a.max(b);
        }
        // The placement terms are the run-cached quotients `accumulate`
        // would write onto a zeroed buffer (`0.0 + p == p` bitwise for
        // the positive terms), folded in place of reading them back.
        let width = f64::from(nf.width());
        let mut count_cached = 0u32;
        let mut term = 0.0f64;
        let mut slot = plo % g.rho;
        let place = &mut delta[plo - rlo..phi - rlo];
        for ((t, &d), x) in (plo..).zip(&plan.dist[plo..phi]).zip(place) {
            let t32 = t as u32;
            let lo = nf.asap.max(t32.saturating_sub(occ - 1));
            let hi = nf.alap.min(t32);
            let count = hi - lo + 1;
            if count != count_cached {
                count_cached = count;
                term = f64::from(count) / width;
            }
            *x += term;
            gdelta[slot] = gdelta[slot].max(d + *x);
            slot += 1;
            if slot == g.rho {
                slot = 0;
            }
        }
        if let Some(sib) = &g.siblings {
            crate::kernel::slot_max_into(gdelta, sib);
        }
        crate::kernel::sub_into(gdelta, g.mold);
        let force = force_sum(0.0, g.gprof, gdelta, plan.weight, self.config.lookahead);
        log.push(global_term(rtype), 0, gdelta);
        Some(force)
    }

    /// [`tcms_fds::ForceTerm::key`] of a delta span of `D_{b,k}`: the
    /// pair number. Unflagged, the span is also a local term.
    fn pair_term(&self, block: BlockId, rtype: ResourceTypeId) -> u32 {
        let pair = block.index() * self.system.library().len() + rtype.index();
        let key = u32::try_from(pair).expect("pair number fits u32");
        assert_eq!(
            key & (GLOBAL_TERM | DELTA_TERM),
            0,
            "pair number fits below the flags"
        );
        key
    }

    /// The `(block, type)` pair a delta-span key names.
    fn term_pair(&self, key: u32) -> (BlockId, ResourceTypeId) {
        let pair = (key & !DELTA_TERM) as usize;
        let types = self.system.library().len();
        (
            BlockId::from_index(pair / types),
            ResourceTypeId::from_index(pair % types),
        )
    }

    /// Probability deltas of `changed`, grouped per `(block, type)`.
    fn deltas(
        &self,
        frames: &FrameTable,
        changed: &[(OpId, TimeFrame)],
    ) -> (Vec<(BlockId, ResourceTypeId)>, Vec<Vec<f64>>) {
        let mut state = DeltaBufs::default();
        self.deltas_into(frames, changed, &mut state);
        state.bufs.truncate(state.keys.len());
        (state.keys, state.bufs)
    }
}

/// [`tcms_fds::ForceTerm::key`] flag of a term priced on the group profile
/// `G_k`, whose type index fills the low bits; a key without it is the
/// pair number of the distribution `D_{b,k}` (see
/// [`ModuloEvaluator::pair_term`]).
const GLOBAL_TERM: u32 = 1 << 31;

/// [`tcms_fds::ForceTerm::key`] flag of the delta span of a global pair:
/// kept for refolds, but not a term — the pair is priced through the
/// [`GLOBAL_TERM`] that follows it.
const DELTA_TERM: u32 = 1 << 30;

/// Term key of the group profile `G_k`.
fn global_term(rtype: ResourceTypeId) -> u32 {
    GLOBAL_TERM | u32::try_from(rtype.index()).expect("type index fits u32")
}

/// Reused delta-computation state of one batch: grouped keys, the delta
/// buffers with their dirty spans, and the per-op removal terms (valid
/// for one frame table — batches create a fresh `DeltaBufs`).
#[derive(Default)]
struct DeltaBufs {
    keys: Vec<(BlockId, ResourceTypeId)>,
    bufs: Vec<Vec<f64>>,
    spans: Vec<(usize, usize)>,
    ops: OpCache,
    /// Modulo boundary tables over `D_{b,k} + removal` of the op
    /// `op_table_of` — the candidate-independent part of the single-op
    /// tentative fold, pre-reduced so
    /// [`ModuloEvaluator::force_single_fast`] only scans the placement
    /// span. One op at a time: the engine's sweep scores each op's
    /// candidates back to back, so keeping every op's tables would only
    /// hold memory without adding hits.
    op_table: (Vec<f64>, Vec<f64>),
    op_table_of: Option<OpId>,
    /// Scratch for `D_{b,k} + removal` while `op_table` is built.
    op_combined: Vec<f64>,
    /// Whether the removal terms are cached in `ops`. Only worth it for
    /// batches, where an op's removal is replayed for many candidate
    /// frames; one-shot evaluations accumulate directly.
    cache_removals: bool,
}

impl DeltaBufs {
    /// Appends `key` with a zeroed buffer of `len` steps and an empty
    /// span; returns its index.
    fn open(&mut self, key: (BlockId, ResourceTypeId), len: usize) -> usize {
        self.keys.push(key);
        let i = self.keys.len() - 1;
        if self.bufs.len() <= i {
            self.bufs.push(vec![0.0; len]);
            self.spans.push((0, 0));
        } else if self.bufs[i].len() == len {
            let (lo, hi) = self.spans[i];
            self.bufs[i][lo..hi].fill(0.0);
            self.spans[i] = (0, 0);
        } else {
            self.bufs[i].clear();
            self.bufs[i].resize(len, 0.0);
            self.spans[i] = (0, 0);
        }
        i
    }

    /// Readies retired (or fresh) state for a batch over a system of
    /// `num_ops` operations.
    fn prepare(&mut self, num_ops: usize) {
        self.ops.removal_at.resize(num_ops, None);
        self.ops.single_seen.resize(num_ops, false);
        self.cache_removals = true;
    }

    /// Forgets every per-op cache entry (removal terms, single-op flags,
    /// the op table), keeping the allocations for the next block.
    fn retire_ops(&mut self) {
        self.ops.retire();
        self.op_table_of = None;
    }
}

/// The allocations of one batch's [`DeltaBufs`] and [`EvalScratch`],
/// retired (every cache entry dropped) and kept for the next batch.
#[derive(Default)]
struct KeptBufs {
    state: DeltaBufs,
    gdelta: Vec<f64>,
    plan_idx: Vec<u32>,
    spare_tables: Vec<(Vec<f64>, Vec<f64>)>,
}

thread_local! {
    /// The buffers of the last [`ForceEvaluator::force_batch`] call on
    /// this thread. The engine scores a batch every iteration on every
    /// sweep thread; allocating the batch state afresh each time left each
    /// thread's heap fragmented, with a peak resident set far above the
    /// live data. Taken for the duration of a batch, so a batch that
    /// unwinds simply leaves the next one to start fresh.
    static KEPT_BUFS: Cell<Option<KeptBufs>> = const { Cell::new(None) };
}

/// Per-op intermediates of a batch. The removal terms live back to back
/// in one slab, each stored over its dirty span only, so retiring them
/// frees nothing and the next block reuses the memory.
#[derive(Default)]
struct OpCache {
    /// `removal_at[op]`: offset of the op's removal term in `slab` and its
    /// dirty span `(lo, hi)`; the term occupies `slab[at..at + hi - lo]`.
    removal_at: Vec<Option<(usize, (usize, usize))>>,
    slab: Vec<f64>,
    /// Per-op "already scored as a single-op candidate" flags — the
    /// lazy-build trigger for [`DeltaBufs::op_table`].
    single_seen: Vec<bool>,
    /// Ops with an entry in `removal_at` or `single_seen`.
    touched: Vec<OpId>,
}

impl OpCache {
    /// The removal term of `o` — its occupancy over its `current` frame,
    /// subtracted, in a block of `len` steps — over its dirty span
    /// `(lo, hi)` (the term is exactly `+0.0` elsewhere), computed on
    /// first use.
    ///
    /// The span is accumulated on its own, with the frame shifted to start
    /// at 0: [`tcms_fds::prob::accumulate`]'s per-step overlap counts only
    /// depend on the distance to the frame ends, and the shortened buffer
    /// ends exactly where the block range clamps the full one, so every
    /// value is bitwise the one the full-length accumulation writes.
    fn removal(
        &mut self,
        o: OpId,
        current: TimeFrame,
        occ: u32,
        len: usize,
    ) -> (&[f64], (usize, usize)) {
        let (at, span) = match self.removal_at[o.index()] {
            Some(entry) => entry,
            None => {
                let lo = current.asap as usize;
                let hi = (current.alap + occ).min(len as u32) as usize;
                let at = self.slab.len();
                let span = if lo < hi {
                    self.slab.resize(at + hi - lo, 0.0);
                    let shifted = TimeFrame::new(0, current.alap - current.asap);
                    let (slo, shi) =
                        tcms_fds::prob::accumulate(&mut self.slab[at..], shifted, occ, -1.0);
                    (slo + lo, shi + lo)
                } else {
                    (0, 0)
                };
                self.removal_at[o.index()] = Some((at, span));
                self.touched.push(o);
                (at, span)
            }
        };
        (&self.slab[at..at + span.1 - span.0], span)
    }

    /// Marks `o` as scored as a single-op candidate; `true` if it already
    /// was.
    fn seen_single(&mut self, o: OpId) -> bool {
        let seen = std::mem::replace(&mut self.single_seen[o.index()], true);
        if !seen {
            self.touched.push(o);
        }
        seen
    }

    /// Forgets every entry.
    fn retire(&mut self) {
        for o in self.touched.drain(..) {
            self.removal_at[o.index()] = None;
            self.single_seen[o.index()] = false;
        }
        self.slab.clear();
    }
}

/// Union of two half-open spans, treating empty spans as neutral.
fn span_union(a: (usize, usize), b: (usize, usize)) -> (usize, usize) {
    if a.0 >= a.1 {
        b
    } else if b.0 >= b.1 {
        a
    } else {
        (a.0.min(b.0), a.1.max(b.1))
    }
}

/// Reused state for repeated force evaluations against one committed
/// field: the `ΔG` slot scratch plus a small cache of per-`(block, type)`
/// evaluation plans. Everything in a plan depends only on the committed
/// field, never on the candidate, so sharing it across a batch is
/// bitwise free; the cache is only valid against one committed state —
/// batched evaluation creates one scratch per batch.
#[derive(Default)]
struct EvalScratch<'f> {
    gdelta: Vec<f64>,
    plans: Vec<PairPlan<'f>>,
    /// `plan_idx[block * num_types + type]`: position in `plans` plus
    /// one, `0` for "not built yet" — a direct-indexed lookup so the hot
    /// loop never scans.
    plan_idx: Vec<u32>,
    /// Boundary table buffers of dropped plans, reused by new ones.
    spare_tables: Vec<(Vec<f64>, Vec<f64>)>,
}

/// Candidate-independent inputs of one `(block, type)` force term,
/// resolved once per batch: the spring weight, the committed
/// distribution slice, and (for global pairs) the profile slices and the
/// sibling slot max of the tentative evaluation.
struct PairPlan<'f> {
    /// Spring weight `w_k`.
    weight: f64,
    /// Committed distribution `D_{b,k}`.
    dist: &'f [f64],
    /// `None` for local pairs (classical force applies).
    global: Option<GlobalPlan<'f>>,
}

/// The global-pair half of a [`PairPlan`]: inputs of equations 7-10.
struct GlobalPlan<'f> {
    /// Period `ρ` of the sharing group.
    rho: usize,
    /// Group profile `G_k` — the spring the displacement is priced on.
    gprof: &'f [f64],
    /// Committed `M_{p,k}` the tentative process max is differenced
    /// against.
    mold: &'f [f64],
    /// Slot max over the sibling blocks' `D̂` profiles. `None` when the
    /// block has no siblings: the fold's result *is* the process max
    /// then, and `max(v, 0.0)` over the zero-seeded, never-negative fold
    /// values would be the identity bitwise — skipping it is free.
    siblings: Option<Vec<f64>>,
    /// How many candidates have evaluated this pair so far — the lazy
    /// trigger for `tables`.
    uses: u32,
    /// Prefix/suffix boundary tables of the committed distribution
    /// ([`crate::kernel::modulo_boundary_max_tables_into`]), built once a pair
    /// proves hot (3rd use): they turn the fused fold from a full scan
    /// into a span scan, which only pays off when the build cost is
    /// amortized over many candidates. Either fold variant is bitwise
    /// identical, so the switch-over is free.
    tables: Option<(Vec<f64>, Vec<f64>)>,
}

impl<'f> EvalScratch<'f> {
    /// Drops every plan, keeping the slot scratch and the plans' boundary
    /// table buffers for the next block's plans.
    fn reset(&mut self) {
        for plan in self.plans.drain(..) {
            if let Some(tables) = plan.global.and_then(|g| g.tables) {
                self.spare_tables.push(tables);
            }
        }
        self.plan_idx.fill(0);
    }

    /// Position of the plan of `(block, rtype)` in `self.plans`, computed
    /// on first use and shared afterwards. Returns an index rather than a
    /// reference so callers can borrow `gdelta` alongside.
    fn plan_pos(
        &mut self,
        eval: &ModuloEvaluator<'_>,
        field: &'f ModuloField<'_>,
        block: BlockId,
        rtype: ResourceTypeId,
    ) -> usize {
        let num_types = eval.system.library().len();
        if self.plan_idx.len() != eval.system.num_blocks() * num_types {
            self.plan_idx = vec![0; eval.system.num_blocks() * num_types];
        }
        let slot = block.index() * num_types + rtype.index();
        let cached = self.plan_idx[slot];
        if cached != 0 {
            return cached as usize - 1;
        }
        let weight = eval
            .config
            .spring_weights
            .weight(eval.system.library(), rtype);
        let process = eval.system.block(block).process();
        let global = field.spec().is_global_for(rtype, process).then(|| {
            let rho = field.slot_count(rtype);
            let siblings = (eval.system.process(process).blocks().len() > 1).then(|| {
                let mut buf = vec![0.0; rho];
                field.sibling_profile_into(block, rtype, &mut buf);
                buf
            });
            GlobalPlan {
                rho,
                gprof: field.group_profile(rtype),
                mold: field.process_profile(process, rtype),
                siblings,
                uses: 0,
                tables: None,
            }
        });
        self.plans.push(PairPlan {
            weight,
            dist: field.distributions().get(block, rtype),
            global,
        });
        let pos = self.plans.len() - 1;
        self.plan_idx[slot] = u32::try_from(pos + 1).expect("plan count fits u32");
        pos
    }
}

impl ForceEvaluator for ModuloEvaluator<'_> {
    fn force(&self, frames: &FrameTable, changed: &[(OpId, TimeFrame)]) -> f64 {
        self.force_with_field(&self.field, frames, changed)
    }

    /// Scores every candidate against the current committed field,
    /// bit-identical to calling [`ForceEvaluator::force`] per change set,
    /// and keeps the record of every candidate: both fold paths record the
    /// exact operands their last fold step reads. A kept record is
    /// refolded from its delta spans (see [`ModuloEvaluator`]).
    ///
    /// The win over the default implementation: delta buffers are reused
    /// and every intermediate that depends only on committed state — the
    /// sibling slot-max profiles, the per-op removal terms and boundary
    /// tables — is computed once and shared. Every shared intermediate
    /// belongs to one `(block, type)` pair or one op, and implied changes
    /// never leave the block of the op they start from, so the
    /// intermediates are dropped whenever the block of the candidates
    /// changes. The engine sweeps a block's candidates back to back, so
    /// this loses no reuse and holds one block's worth of tables at a
    /// time. (Dropping a cache never changes a value, only what is
    /// recomputed.)
    ///
    /// The batch's buffers are taken from (and returned to) this thread's
    /// `KEPT_BUFS`, so a sweep that scores a batch every iteration stops
    /// allocating once the buffers have grown to fit.
    fn force_batch<'c>(
        &self,
        frames: &FrameTable,
        candidates: impl IntoIterator<Item = Candidate<'c>>,
        log: &mut TermLog,
    ) -> Vec<f64> {
        let kept = KEPT_BUFS.take().unwrap_or_default();
        let mut state = kept.state;
        state.prepare(self.op_meta.len());
        let mut scratch = EvalScratch {
            gdelta: kept.gdelta,
            plans: Vec::new(),
            plan_idx: kept.plan_idx,
            spare_tables: kept.spare_tables,
        };
        let mut block = None;
        let forces = candidates
            .into_iter()
            .map(|candidate| {
                let first = match candidate {
                    Candidate::Changes(changed) => {
                        changed.first().map(|&(o, _)| self.op_meta[o.index()].0)
                    }
                    Candidate::Kept(kept) => kept.terms.first().map(|t| self.term_pair(t.key).0),
                };
                if first != block {
                    scratch.reset();
                    state.retire_ops();
                    block = first;
                }
                let force = match candidate {
                    Candidate::Changes(&[(o, nf)]) => self.force_single_fast(
                        &self.field,
                        o,
                        nf,
                        frames,
                        &mut state,
                        &mut scratch,
                        &mut *log,
                    ),
                    _ => None,
                };
                let force = force.unwrap_or_else(|| {
                    let spans = match candidate {
                        Candidate::Changes(changed) => {
                            self.deltas_into(frames, changed, &mut state);
                            true
                        }
                        Candidate::Kept(kept) => {
                            self.kept_deltas_into(kept, &mut state);
                            false
                        }
                    };
                    let log = Some(&mut *log);
                    self.force_from_deltas(&self.field, &state, &mut scratch, log, spans)
                });
                log.close();
                force
            })
            .collect();
        scratch.reset();
        state.retire_ops();
        KEPT_BUFS.set(Some(KeptBufs {
            state,
            gdelta: scratch.gdelta,
            plan_idx: scratch.plan_idx,
            spare_tables: scratch.spare_tables,
        }));
        forces
    }

    /// Replays the terms of a record against the live `G_k` and
    /// `D_{b,k}`: `force_sum` over the same operands in the same order as
    /// the fold that recorded it, threading one running total. While the
    /// stamp the record was kept under holds, every displacement and
    /// every `D_{b,k}` is bitwise what a fresh evaluation would compute,
    /// so the result is bitwise that evaluation's force. (The single-op
    /// fast path folds `force_sum(0, G, t − m)` like the generic path, so
    /// one replay serves both.) A record without a global term prices
    /// nothing the stamp does not cover, so its cached force stands.
    fn resum(&self, terms: Terms<'_>) -> Option<f64> {
        if !terms.terms.iter().any(|t| t.key & GLOBAL_TERM != 0) {
            return None;
        }
        let lib = self.system.library();
        let mut total = 0.0;
        for (t, x) in terms.iter() {
            let (k, profile) = if t.key & GLOBAL_TERM != 0 {
                let k = ResourceTypeId::from_index((t.key & !GLOBAL_TERM) as usize);
                (k, self.field.group_profile(k))
            } else if t.key & DELTA_TERM != 0 {
                continue;
            } else {
                let (b, k) = self.term_pair(t.key);
                (k, &self.field.distributions().get(b, k)[t.lo as usize..])
            };
            let w = self.config.spring_weights.weight(lib, k);
            total = force_sum(total, profile, x, w, self.config.lookahead);
        }
        Some(total)
    }

    fn commit(&mut self, frames: &FrameTable, changed: &[(OpId, TimeFrame)]) {
        let (keys, bufs) = self.deltas(frames, changed);
        self.counter += 1;
        for (i, &(b, k)) in keys.iter().enumerate() {
            let effect = self.field.apply_delta(b, k, &bufs[i]);
            if !effect.dist_changed {
                // The candidate's deltas cancelled out bitwise (e.g. two
                // ops of one pair swapping probability mass): nothing any
                // cached force could observe moved, so the stamps — and
                // with them the engine's candidate cache — survive.
                continue;
            }
            self.block_epoch[b.index()] = self.counter;
            if effect.dhat_changed {
                // Sibling blocks read this block's D̂ through M_p.
                let p = self.system.block(b).process();
                self.proc_epoch[p.index()] = self.counter;
            }
            // A moved G_k stamps nothing: the other processes' cached
            // forces price it through recorded terms, re-summed live.
        }
    }

    fn context_stamp(&self, block: BlockId) -> Option<u64> {
        let p = self.system.block(block).process();
        Some(self.block_epoch[block.index()].max(self.proc_epoch[p.index()]))
    }

    /// Samples the slot occupancy of every `M_p` and `G_k` profile — the
    /// paper's Figure-1/2 quantities — as one `"field"` timeline point.
    /// Called by the engine once per iteration, only while recording.
    fn record_iteration(&self, rec: &dyn Recorder, iteration: u64) {
        let lib = self.system.library();
        let spec = self.field.spec();
        let mut values = Vec::new();
        for k in lib.ids() {
            let Some(group) = spec.group(k) else { continue };
            let tname = lib.get(k).name();
            for (slot, &v) in self.field.group_profile(k).iter().enumerate() {
                values.push((format!("G.{tname}.slot{slot}"), v));
            }
            values.push((format!("G.{tname}.peak"), self.field.group_peak(k)));
            for &p in group {
                let pname = self.system.process(p).name();
                for (slot, &v) in self.field.process_profile(p, k).iter().enumerate() {
                    values.push((format!("M.{tname}.{pname}.slot{slot}"), v));
                }
            }
        }
        rec.timeline(TimelinePoint {
            phase: "field",
            iteration,
            values,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcms_fds::IfdsEngine;
    use tcms_ir::frames::narrowing_changes;
    use tcms_ir::generators::{paper_library, paper_system};
    use tcms_ir::SystemBuilder;

    #[test]
    fn modified_force_prefers_periodic_alignment() {
        // The Figure-2 situation: with y fixed at time 1 and period 2, the
        // modified force must prefer placing x at time 3 (same slot as y,
        // hidden under the max) over time 0 or 2 in a fresh slot.
        let (lib, types) = paper_library();
        let mut b = SystemBuilder::new(lib);
        let p1 = b.add_process("P1");
        let blk1 = b.add_block(p1, "body", 4).unwrap();
        let x = b.add_op(blk1, "x", types.add).unwrap();
        let y = b.add_op(blk1, "y", types.add).unwrap();
        let p2 = b.add_process("P2");
        let blk2 = b.add_block(p2, "body", 4).unwrap();
        let z = b.add_op(blk2, "z", types.add).unwrap();
        let sys2 = b.build().unwrap();
        let mut spec = SharingSpec::all_local(&sys2);
        spec.set_global(types.add, vec![p1, p2], 2);
        spec.validate(&sys2).unwrap();

        let mut frames = FrameTable::initial(&sys2);
        frames.set(y, TimeFrame::new(1, 1));
        frames.set(z, TimeFrame::new(0, 0));
        let eval = ModuloEvaluator::new(&sys2, spec, FdsConfig::default(), &frames);

        let f_slot1 = eval.force(&frames, &[(x, TimeFrame::new(3, 3))]);
        let f_slot0 = eval.force(&frames, &[(x, TimeFrame::new(0, 0))]);
        let f_slot0b = eval.force(&frames, &[(x, TimeFrame::new(2, 2))]);
        assert!(
            f_slot1 < f_slot0 && f_slot1 < f_slot0b,
            "aligned placement {f_slot1} must beat {f_slot0}/{f_slot0b}"
        );
    }

    #[test]
    fn commit_keeps_field_consistent_with_rebuild() {
        let (sys, t) = paper_system().unwrap();
        let spec = SharingSpec::all_global(&sys, 5);
        let frames = FrameTable::initial(&sys);
        let mut eval = ModuloEvaluator::new(&sys, spec.clone(), FdsConfig::default(), &frames);
        // Fix the first op of the first block to its ASAP time and commit.
        let block = sys.block_ids().next().unwrap();
        let op = sys.block(block).ops()[0];
        let nf = TimeFrame::new(frames.get(op).asap, frames.get(op).asap);
        let mut new_frames = frames.clone();
        new_frames.set(op, nf);
        eval.commit(&frames, &[(op, nf)]);
        let rebuilt = ModuloField::new(&sys, spec, &new_frames);
        for slot in 0..5 {
            assert!(
                (eval.field().group_profile(t.mul)[slot] - rebuilt.group_profile(t.mul)[slot])
                    .abs()
                    < 1e-9
            );
            assert!(
                (eval.field().group_profile(t.add)[slot] - rebuilt.group_profile(t.add)[slot])
                    .abs()
                    < 1e-9
            );
        }
    }

    #[test]
    fn cancelling_commit_preserves_context_stamps() {
        // Two ops of the same (block, type) swap their probability mass:
        // A collapses [0,1] -> [0,0] (delta +0.5/-0.5) while B collapses
        // [0,1] -> [1,1] (delta -0.5/+0.5). The summed pair delta is
        // bitwise zero, so the commit must leave every context stamp — and
        // with it the engine's candidate cache — untouched.
        let (lib, types) = paper_library();
        let mut b = SystemBuilder::new(lib);
        let p1 = b.add_process("P1");
        let blk = b.add_block(p1, "body", 2).unwrap();
        let a = b.add_op(blk, "a", types.add).unwrap();
        let c = b.add_op(blk, "c", types.add).unwrap();
        let p2 = b.add_process("P2");
        let blk2 = b.add_block(p2, "body", 2).unwrap();
        b.add_op(blk2, "z", types.add).unwrap();
        let sys = b.build().unwrap();
        let mut spec = SharingSpec::all_local(&sys);
        spec.set_global(types.add, vec![p1, p2], 2);
        spec.validate(&sys).unwrap();

        let mut frames = FrameTable::initial(&sys);
        frames.set(a, TimeFrame::new(0, 1));
        frames.set(c, TimeFrame::new(0, 1));
        let mut eval = ModuloEvaluator::new(&sys, spec, FdsConfig::default(), &frames);
        let before = eval.context_stamp(blk);

        eval.commit(
            &frames,
            &[(a, TimeFrame::new(0, 0)), (c, TimeFrame::new(1, 1))],
        );
        assert_eq!(
            eval.context_stamp(blk),
            before,
            "a bitwise-cancelled delta must not dirty any stamp"
        );

        // A genuine move does bump the stamp.
        eval.commit(&frames, &[(a, TimeFrame::new(0, 0))]);
        assert_ne!(eval.context_stamp(blk), before);
    }

    #[test]
    fn resum_after_other_process_commit_matches_fresh_force() {
        // P2's candidate pins `z` (global add) to its ALAP end, which also
        // narrows `m` (local mul): its fold has a global and a local term.
        // A commit in P1 then moves G_add without touching P2's stamp; the
        // re-sum of the recorded terms must equal a fresh force bitwise.
        let (lib, types) = paper_library();
        let mut b = SystemBuilder::new(lib);
        let p1 = b.add_process("P1");
        let blk1 = b.add_block(p1, "body", 4).unwrap();
        let x = b.add_op(blk1, "x", types.add).unwrap();
        let p2 = b.add_process("P2");
        let blk2 = b.add_block(p2, "body", 6).unwrap();
        let z = b.add_op(blk2, "z", types.add).unwrap();
        let m = b.add_op(blk2, "m", types.mul).unwrap();
        b.add_dep(z, m).unwrap();
        let sys = b.build().unwrap();
        let mut spec = SharingSpec::all_local(&sys);
        spec.set_global(types.add, vec![p1, p2], 2);
        spec.validate(&sys).unwrap();

        let frames = FrameTable::initial(&sys);
        let mut eval = ModuloEvaluator::new(&sys, spec, FdsConfig::default(), &frames);
        let fz = frames.get(z);
        let cand = narrowing_changes(&sys, &frames, z, TimeFrame::new(fz.alap, fz.alap));
        assert_eq!(cand.len(), 2, "pinning z must narrow m too");
        let mut log = TermLog::default();
        let recorded = eval.force_batch(&frames, [Candidate::Changes(&cand)], &mut log)[0];
        let terms = log.candidate(0);
        assert_eq!(
            terms.terms.len(),
            3,
            "the global pair's delta span and term, and the local term"
        );
        let stamp = eval.context_stamp(blk2);
        let g_before = eval.field().group_profile(types.add).to_vec();

        let fx = frames.get(x);
        let fixed = [(x, TimeFrame::new(fx.asap, fx.asap))];
        eval.commit(&frames, &fixed);
        let mut after = frames.clone();
        after.set(x, fixed[0].1);
        assert_ne!(
            eval.field().group_profile(types.add),
            &g_before[..],
            "the P1 commit must move G_add"
        );
        assert_eq!(eval.context_stamp(blk2), stamp, "P2's stamp must hold");

        let fresh = eval.force(&after, &cand);
        assert_ne!(fresh.to_bits(), recorded.to_bits(), "P2's force must move");
        assert_eq!(eval.resum(terms).unwrap().to_bits(), fresh.to_bits());
        assert_eq!(fresh.to_bits(), eval.force_naive(&after, &cand).to_bits());
        // P2's frames did not move, so its kept deltas refold to the same
        // force; the refold refreshes only the global term, whose
        // `x = M̃_p − M_p` held.
        let mut again = TermLog::default();
        let refolded = eval.force_batch(&after, [Candidate::Kept(terms)], &mut again)[0];
        assert_eq!(refolded.to_bits(), fresh.to_bits());
        let refreshed = again.candidate(0);
        assert_eq!(refreshed.terms, &terms.terms[1..2]);
        assert_eq!(refreshed.xs, &terms.xs[4..6]);
    }

    /// A global term prices `x = slotmax(modmax(D_{b,k} + δ), sib) − M_p`,
    /// which reads every entry of `D_{b,k}`, not only its slot maxima
    /// `D̂_{b,k}`. So a force cache keyed on a `D̂` version plus the ops a
    /// candidate's walk touched would be unsound. This finds a commit of
    /// the Table-1 run that moves `D` but no `D̂` (hence no `M_p` and no
    /// `G_k`), and a candidate of the same block whose implied changes
    /// the commit leaves alone, yet whose force moves.
    #[test]
    fn global_forces_read_all_of_d_not_only_its_slot_maxima() {
        type Changes = Vec<(OpId, TimeFrame)>;
        /// Delegates to the evaluator, checking each commit until one
        /// shows the fact above.
        struct Probe<'a> {
            eval: ModuloEvaluator<'a>,
            found: Option<(Changes, Changes)>,
        }
        fn bits(profile: &[f64]) -> Vec<u64> {
            profile.iter().map(|v| v.to_bits()).collect()
        }
        impl ForceEvaluator for Probe<'_> {
            fn force(&self, frames: &FrameTable, changed: &[(OpId, TimeFrame)]) -> f64 {
                self.eval.force(frames, changed)
            }
            fn force_batch<'c>(
                &self,
                frames: &FrameTable,
                candidates: impl IntoIterator<Item = Candidate<'c>>,
                log: &mut TermLog,
            ) -> Vec<f64> {
                self.eval.force_batch(frames, candidates, log)
            }
            fn resum(&self, terms: Terms<'_>) -> Option<f64> {
                self.eval.resum(terms)
            }
            fn context_stamp(&self, block: BlockId) -> Option<u64> {
                self.eval.context_stamp(block)
            }
            fn commit(&mut self, frames: &FrameTable, changed: &[(OpId, TimeFrame)]) {
                if self.found.is_some() {
                    return self.eval.commit(frames, changed);
                }
                let sys = self.eval.system;
                let block = sys.op(changed[0].0).block();
                let mut after = frames.clone();
                for &(o, f) in changed {
                    after.set(o, f);
                }
                let moved = |o: OpId| changed.iter().any(|&(q, _)| q == o);
                let mut candidates = Vec::new();
                for &o in sys.block(block).ops() {
                    let f = after.get(o);
                    if moved(o) || f.is_fixed() {
                        continue;
                    }
                    for t in f.asap..=f.alap {
                        let pin = TimeFrame::new(t, t);
                        let c = narrowing_changes(sys, frames, o, pin);
                        if c == narrowing_changes(sys, &after, o, pin)
                            && c.iter().all(|&(q, _)| !moved(q))
                        {
                            candidates.push(c);
                        }
                    }
                }
                let before: Vec<u64> = candidates
                    .iter()
                    .map(|c| self.eval.force(frames, c).to_bits())
                    .collect();
                let mut types: Vec<_> = changed
                    .iter()
                    .map(|&(o, _)| sys.op(o).resource_type())
                    .collect();
                types.dedup();
                let process = sys.block(block).process();
                assert!(types
                    .iter()
                    .all(|&k| self.eval.field.spec().is_global_for(k, process)));
                let layers = |eval: &ModuloEvaluator<'_>| -> Vec<_> {
                    types
                        .iter()
                        .map(|&k| {
                            let field = eval.field();
                            (
                                bits(field.distributions().get(block, k)),
                                bits(field.block_profile(block, k)),
                            )
                        })
                        .collect()
                };
                let old = layers(&self.eval);
                self.eval.commit(frames, changed);
                let new = layers(&self.eval);
                let dist_changed = old.iter().zip(&new).any(|(a, b)| a.0 != b.0);
                let dhat_changed = old.iter().zip(&new).any(|(a, b)| a.1 != b.1);
                if !dist_changed || dhat_changed {
                    return;
                }
                for (c, was) in candidates.into_iter().zip(before) {
                    let now = self.eval.force(&after, &c);
                    // A real move, not a rounding difference.
                    if (now - f64::from_bits(was)).abs() > 1e-6 {
                        self.found = Some((changed.to_vec(), c));
                        return;
                    }
                }
            }
        }

        let (sys, _) = paper_system().unwrap();
        let spec = SharingSpec::all_global(&sys, 5);
        let engine = IfdsEngine::new(&sys, sys.block_ids().collect());
        let mut probe = Probe {
            eval: ModuloEvaluator::new(&sys, spec, FdsConfig::default(), engine.frames()),
            found: None,
        };
        engine.run(&mut probe).unwrap();
        let (commit, candidate) = probe
            .found
            .expect("a D-only commit that moves an untouched candidate's force");
        assert!(!commit.is_empty() && !candidate.is_empty());
    }

    #[test]
    fn batched_forces_match_scalar_forces_bitwise() {
        let (sys, _) = paper_system().unwrap();
        let spec = SharingSpec::all_global(&sys, 5);
        let frames = FrameTable::initial(&sys);
        let eval = ModuloEvaluator::new(&sys, spec, FdsConfig::default(), &frames);

        let mut candidates: Vec<Vec<(tcms_ir::OpId, TimeFrame)>> = Vec::new();
        for o in sys.op_ids() {
            let f = frames.get(o);
            candidates.push(vec![(o, TimeFrame::new(f.asap, f.asap))]);
            candidates.push(vec![(o, TimeFrame::new(f.alap, f.alap))]);
        }
        let views: Vec<&[(tcms_ir::OpId, TimeFrame)]> =
            candidates.iter().map(|c| c.as_slice()).collect();
        let batched = eval.force_batch(
            &frames,
            views.iter().copied().map(Candidate::Changes),
            &mut TermLog::default(),
        );
        assert_eq!(batched.len(), views.len());
        for (i, c) in views.iter().enumerate() {
            let scalar = eval.force(&frames, c);
            assert_eq!(
                batched[i].to_bits(),
                scalar.to_bits(),
                "candidate {i} diverged: batched {} vs scalar {scalar}",
                batched[i]
            );
            // And both agree bitwise with the from-scratch oracle.
            assert_eq!(scalar.to_bits(), eval.force_naive(&frames, c).to_bits());
        }
    }

    #[test]
    fn engine_with_modulo_evaluator_produces_valid_schedule() {
        let (sys, _) = paper_system().unwrap();
        let spec = SharingSpec::all_global(&sys, 5);
        let scope: Vec<_> = sys.block_ids().collect();
        let engine = IfdsEngine::new(&sys, scope);
        let mut eval = ModuloEvaluator::new(&sys, spec, FdsConfig::default(), engine.frames());
        let out = engine.run(&mut eval).unwrap();
        out.schedule.verify(&sys).unwrap();
        assert!(out.iterations > 0);
    }
}
