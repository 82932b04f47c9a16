//! ASAP/ALAP time frames and constrained frame propagation.
//!
//! A *time frame* is the inclusive range of start times an operation may
//! still take. Force-directed schedulers work by gradually shrinking frames;
//! every shrink is propagated through the precedence constraints with
//! [`narrowing_changes`], which visits only the ops the shrink reaches.
//! [`constrained_frames`] re-solves a whole block from arbitrary bounds.

use crate::block::BlockId;
use crate::op::OpId;
use crate::system::System;

/// Inclusive range of feasible start times for one operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TimeFrame {
    /// Earliest feasible start time (as soon as possible).
    pub asap: u32,
    /// Latest feasible start time (as late as possible).
    pub alap: u32,
}

impl TimeFrame {
    /// Creates a frame; `asap` must not exceed `alap`.
    ///
    /// # Panics
    ///
    /// Panics if `asap > alap`.
    pub fn new(asap: u32, alap: u32) -> Self {
        assert!(asap <= alap, "empty time frame {asap}..{alap}");
        TimeFrame { asap, alap }
    }

    /// Number of feasible start times.
    #[inline]
    pub fn width(self) -> u32 {
        self.alap - self.asap + 1
    }

    /// `true` once only a single start time remains.
    #[inline]
    pub fn is_fixed(self) -> bool {
        self.asap == self.alap
    }

    /// `true` if `t` is a feasible start time.
    #[inline]
    pub fn contains(self, t: u32) -> bool {
        self.asap <= t && t <= self.alap
    }

    /// Intersection with another frame, `None` if disjoint.
    pub fn intersect(self, other: TimeFrame) -> Option<TimeFrame> {
        let asap = self.asap.max(other.asap);
        let alap = self.alap.min(other.alap);
        (asap <= alap).then_some(TimeFrame { asap, alap })
    }
}

/// Start-time frames for every operation of a system, indexed by [`OpId`].
///
/// The table is *change-tracking*: every effective [`FrameTable::set`]
/// bumps a table-wide [generation counter](FrameTable::generation), stamps
/// the touched operation with it and records the operation in a dirty set.
/// Downstream layers (distribution graphs, force caches) key their cached
/// state on these stamps to tell exactly what moved since their last look
/// without diffing the whole table.
///
/// Equality ([`PartialEq`]) compares the frames only, not the tracking
/// state, so tables reaching the same frames along different histories
/// compare equal.
#[derive(Debug, Clone)]
pub struct FrameTable {
    frames: Vec<TimeFrame>,
    /// Total number of effective frame changes since construction.
    generation: u64,
    /// Generation at which each op's frame last changed (0 = untouched).
    op_generation: Vec<u64>,
    /// Ops changed since the last [`FrameTable::take_dirty`], deduplicated.
    dirty: Vec<OpId>,
    dirty_flags: Vec<bool>,
}

impl PartialEq for FrameTable {
    fn eq(&self, other: &Self) -> bool {
        self.frames == other.frames
    }
}

impl Eq for FrameTable {}

impl FrameTable {
    /// Computes the unconstrained ASAP/ALAP frames of every block.
    ///
    /// # Panics
    ///
    /// Panics if any block is infeasible; [`crate::SystemBuilder::build`]
    /// guarantees feasibility for built systems.
    pub fn initial(system: &System) -> Self {
        let mut frames = vec![TimeFrame { asap: 0, alap: 0 }; system.num_ops()];
        for (bid, block) in system.blocks() {
            let max = |o: OpId| block.time_range() - system.delay(o);
            let solved = constrained_frames(system, bid, |o| TimeFrame::new(0, max(o)))
                .expect("built systems have feasible deadlines");
            for (o, f) in solved {
                frames[o.index()] = f;
            }
        }
        let n = frames.len();
        FrameTable {
            frames,
            generation: 0,
            op_generation: vec![0; n],
            dirty: Vec::new(),
            dirty_flags: vec![false; n],
        }
    }

    /// The current frame of `op`.
    ///
    /// # Panics
    ///
    /// Panics if `op` does not belong to the originating system.
    #[inline]
    pub fn get(&self, op: OpId) -> TimeFrame {
        self.frames[op.index()]
    }

    /// Overwrites the frame of `op`, recording the change.
    ///
    /// Setting the frame an op already has is a no-op: it neither bumps the
    /// generation nor dirties the op.
    #[inline]
    pub fn set(&mut self, op: OpId, frame: TimeFrame) {
        let i = op.index();
        if self.frames[i] == frame {
            return;
        }
        self.frames[i] = frame;
        self.generation += 1;
        self.op_generation[i] = self.generation;
        if !self.dirty_flags[i] {
            self.dirty_flags[i] = true;
            self.dirty.push(op);
        }
    }

    /// Count of effective frame changes since construction. Strictly
    /// monotone: two observations with the same generation guarantee no
    /// frame moved in between.
    #[inline]
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The generation at which `op`'s frame last changed (0 if it still has
    /// its initial frame).
    #[inline]
    pub fn op_generation(&self, op: OpId) -> u64 {
        self.op_generation[op.index()]
    }

    /// Ops whose frames changed since the last [`FrameTable::take_dirty`]
    /// (or construction), in first-touched order.
    pub fn dirty(&self) -> &[OpId] {
        &self.dirty
    }

    /// Drains and returns the dirty set.
    pub fn take_dirty(&mut self) -> Vec<OpId> {
        for o in &self.dirty {
            self.dirty_flags[o.index()] = false;
        }
        std::mem::take(&mut self.dirty)
    }

    /// Mobility of `op` (frame width minus one).
    #[inline]
    pub fn mobility(&self, op: OpId) -> u32 {
        self.get(op).width() - 1
    }

    /// `true` once every operation of `block` is fixed to one start time.
    pub fn block_fixed(&self, system: &System, block: BlockId) -> bool {
        system
            .block(block)
            .ops()
            .iter()
            .all(|&o| self.get(o).is_fixed())
    }

    /// Sum of all frame widths minus the operation count: the remaining
    /// scheduling freedom. Zero means fully scheduled.
    pub fn total_mobility(&self) -> u64 {
        self.frames.iter().map(|f| (f.width() - 1) as u64).sum()
    }

    /// Extracts the start time of a fixed operation.
    ///
    /// # Panics
    ///
    /// Panics if the frame still has more than one feasible start time.
    pub fn fixed_start(&self, op: OpId) -> u32 {
        let f = self.get(op);
        assert!(f.is_fixed(), "operation {op} not yet fixed");
        f.asap
    }
}

/// Frame changes implied by narrowing `op` to `frame` on top of the
/// precedence-consistent table `frames`, including `op` itself. Only
/// frames that actually change are listed, in the topological order of
/// `op`'s block.
///
/// The result equals [`constrained_frames`] run with `op` bounded by
/// `frame` and every other op by its current frame, filtered to the
/// changed entries — but only the ops the narrowing reaches are visited.
/// Raising `op`'s earliest start can only raise the earliest starts of
/// its descendants, and lowering its latest start can only lower the
/// latest starts of its ancestors; each walk stops at the ops whose frame
/// absorbs the change. Ops are relaxed in topological order (forward) or
/// its reverse (backward), so each one is settled before it propagates,
/// exactly like one pass of [`constrained_frames`].
///
/// `frames` must be a fixpoint of [`constrained_frames`], which
/// [`FrameTable::initial`] is and every update made of these changes
/// keeps.
///
/// # Panics
///
/// Panics if `frame` is not a sub-range of `op`'s current frame (such a
/// narrowing could be infeasible).
pub fn narrowing_changes(
    system: &System,
    frames: &FrameTable,
    op: OpId,
    frame: TimeFrame,
) -> Vec<(OpId, TimeFrame)> {
    let mut changes = Vec::new();
    narrowing_changes_into(system, frames, op, frame, &mut changes);
    changes
}

/// [`narrowing_changes`] appended to `out` (entries already in `out` are
/// kept and ignored), so callers collecting many change sets can keep
/// them in one buffer.
///
/// # Panics
///
/// Same as [`narrowing_changes`].
pub fn narrowing_changes_into(
    system: &System,
    frames: &FrameTable,
    op: OpId,
    frame: TimeFrame,
    out: &mut Vec<(OpId, TimeFrame)>,
) {
    let current = frames.get(op);
    assert!(
        current.intersect(frame) == Some(frame),
        "pinned frame must be within the current frame"
    );
    if frame == current {
        return;
    }
    let start = out.len();
    out.push((op, frame));
    let mut pending = Vec::new();
    if frame.asap > current.asap {
        pending.push(op);
        while let Some(q) = pop_extreme(system, &mut pending, true) {
            let earliest = frame_in(frames, &out[start..], q).asap + system.delay(q);
            for &s in system.succs(q) {
                let f = frame_in(frames, &out[start..], s);
                if earliest > f.asap {
                    set_in(out, start, s, TimeFrame::new(earliest, f.alap));
                    if !pending.contains(&s) {
                        pending.push(s);
                    }
                }
            }
        }
    }
    if frame.alap < current.alap {
        pending.push(op);
        while let Some(q) = pop_extreme(system, &mut pending, false) {
            let bound = frame_in(frames, &out[start..], q).alap;
            for &p in system.preds(q) {
                let f = frame_in(frames, &out[start..], p);
                let latest = bound
                    .checked_sub(system.delay(p))
                    .expect("narrowing a consistent frame stays feasible");
                if latest < f.alap {
                    set_in(out, start, p, TimeFrame::new(f.asap, latest));
                    if !pending.contains(&p) {
                        pending.push(p);
                    }
                }
            }
        }
    }
    out[start..].sort_unstable_by_key(|&(q, _)| system.topo_position(q));
}

/// The frame of `q` with the changes collected so far applied.
fn frame_in(frames: &FrameTable, changes: &[(OpId, TimeFrame)], q: OpId) -> TimeFrame {
    changes
        .iter()
        .find(|c| c.0 == q)
        .map_or_else(|| frames.get(q), |c| c.1)
}

/// Records `q`'s new frame in the changes `out[start..]`, replacing an
/// earlier change of `q`.
fn set_in(out: &mut Vec<(OpId, TimeFrame)>, start: usize, q: OpId, f: TimeFrame) {
    match out[start..].iter_mut().find(|c| c.0 == q) {
        Some(c) => c.1 = f,
        None => out.push((q, f)),
    }
}

/// Removes and returns the pending op first (`earliest`) or last in
/// topological order.
fn pop_extreme(system: &System, pending: &mut Vec<OpId>, earliest: bool) -> Option<OpId> {
    let key = |q: &OpId| system.topo_position(*q);
    let at = if earliest {
        (0..pending.len()).min_by_key(|&i| key(&pending[i]))?
    } else {
        (0..pending.len()).max_by_key(|&i| key(&pending[i]))?
    };
    Some(pending.swap_remove(at))
}

/// Recomputes consistent frames for all operations of `block`, treating
/// `bounds(op)` as hard start-time bounds.
///
/// Propagation runs a forward ASAP pass and a backward ALAP pass over a
/// topological order. Returns `None` if the bounds are contradictory (some
/// frame becomes empty), which schedulers interpret as "this tentative
/// placement is impossible".
pub fn constrained_frames(
    system: &System,
    block: BlockId,
    mut bounds: impl FnMut(OpId) -> TimeFrame,
) -> Option<Vec<(OpId, TimeFrame)>> {
    let order = system.topo_order(block);
    let n = system.num_ops();
    let mut asap = vec![0u32; n];
    let mut alap = vec![0u32; n];
    // Forward: earliest starts.
    for &o in order {
        let mut lo = bounds(o).asap;
        for &p in system.preds(o) {
            lo = lo.max(asap[p.index()] + system.delay(p));
        }
        asap[o.index()] = lo;
    }
    // Backward: latest starts.
    for &o in order.iter().rev() {
        let mut hi = bounds(o).alap;
        for &s in system.succs(o) {
            let latest_pred_start = alap[s.index()].checked_sub(system.delay(o))?;
            hi = hi.min(latest_pred_start);
        }
        if asap[o.index()] > hi {
            return None;
        }
        alap[o.index()] = hi;
    }
    Some(
        order
            .iter()
            .map(|&o| {
                (
                    o,
                    TimeFrame {
                        asap: asap[o.index()],
                        alap: alap[o.index()],
                    },
                )
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resource::{ResourceLibrary, ResourceType};
    use crate::system::SystemBuilder;

    fn chain_system() -> (System, BlockId, Vec<OpId>) {
        let mut lib = ResourceLibrary::new();
        let add = lib.add(ResourceType::new("add", 1)).unwrap();
        let mul = lib.add(ResourceType::new("mul", 2).pipelined()).unwrap();
        let mut b = SystemBuilder::new(lib);
        let p = b.add_process("p");
        let blk = b.add_block(p, "b", 8).unwrap();
        // a(1) -> m(2) -> c(1), plus independent d(1).
        let a = b.add_op(blk, "a", add).unwrap();
        let m = b.add_op(blk, "m", mul).unwrap();
        let c = b.add_op(blk, "c", add).unwrap();
        let d = b.add_op(blk, "d", add).unwrap();
        b.add_dep(a, m).unwrap();
        b.add_dep(m, c).unwrap();
        let sys = b.build().unwrap();
        (sys, blk, vec![a, m, c, d])
    }

    #[test]
    fn frame_basics() {
        let f = TimeFrame::new(2, 5);
        assert_eq!(f.width(), 4);
        assert!(!f.is_fixed());
        assert!(f.contains(2) && f.contains(5) && !f.contains(6));
        assert_eq!(
            f.intersect(TimeFrame::new(4, 9)),
            Some(TimeFrame::new(4, 5))
        );
        assert_eq!(f.intersect(TimeFrame::new(6, 9)), None);
        assert!(TimeFrame::new(3, 3).is_fixed());
    }

    #[test]
    #[should_panic(expected = "empty time frame")]
    fn inverted_frame_panics() {
        let _ = TimeFrame::new(5, 2);
    }

    #[test]
    fn initial_frames_chain() {
        let (sys, _, ops) = chain_system();
        let ft = FrameTable::initial(&sys);
        // Chain a(1) m(2) c(1) in 8 steps: slack 4.
        assert_eq!(ft.get(ops[0]), TimeFrame::new(0, 4)); // a
        assert_eq!(ft.get(ops[1]), TimeFrame::new(1, 5)); // m
        assert_eq!(ft.get(ops[2]), TimeFrame::new(3, 7)); // c
        assert_eq!(ft.get(ops[3]), TimeFrame::new(0, 7)); // d independent
        assert_eq!(ft.mobility(ops[0]), 4);
    }

    #[test]
    fn constrained_propagation_forward_and_backward() {
        let (sys, blk, ops) = chain_system();
        let ft = FrameTable::initial(&sys);
        // Pin m to start at 5 -> a must end by 5, c must start at 7.
        let solved = constrained_frames(&sys, blk, |o| {
            if o == ops[1] {
                TimeFrame::new(5, 5)
            } else {
                ft.get(o)
            }
        })
        .unwrap();
        let find = |o: OpId| solved.iter().find(|(q, _)| *q == o).unwrap().1;
        assert_eq!(find(ops[0]), TimeFrame::new(0, 4));
        assert_eq!(find(ops[1]), TimeFrame::new(5, 5));
        assert_eq!(find(ops[2]), TimeFrame::new(7, 7));
        assert_eq!(find(ops[3]), TimeFrame::new(0, 7));
    }

    /// `narrowing_changes` against `constrained_frames` + filter for every
    /// narrowing of every op of the chain system, order included.
    #[test]
    fn narrowing_matches_full_propagation() {
        let (sys, blk, ops) = chain_system();
        let ft = FrameTable::initial(&sys);
        for &o in &ops {
            let cur = ft.get(o);
            for asap in cur.asap..=cur.alap {
                for alap in asap..=cur.alap {
                    let nf = TimeFrame::new(asap, alap);
                    let full: Vec<_> =
                        constrained_frames(&sys, blk, |q| if q == o { nf } else { ft.get(q) })
                            .unwrap()
                            .into_iter()
                            .filter(|&(q, f)| f != ft.get(q))
                            .collect();
                    assert_eq!(narrowing_changes(&sys, &ft, o, nf), full, "{o:?} -> {nf:?}");
                }
            }
        }
        // Pinning m late pushes c; pinning it early pulls a.
        assert_eq!(
            narrowing_changes(&sys, &ft, ops[1], TimeFrame::new(5, 5)),
            vec![
                (ops[1], TimeFrame::new(5, 5)),
                (ops[2], TimeFrame::new(7, 7))
            ]
        );
        assert_eq!(
            narrowing_changes(&sys, &ft, ops[1], TimeFrame::new(1, 1)),
            vec![
                (ops[0], TimeFrame::new(0, 0)),
                (ops[1], TimeFrame::new(1, 1))
            ]
        );
    }

    #[test]
    #[should_panic(expected = "within the current frame")]
    fn narrowing_outside_frame_panics() {
        let (sys, _, ops) = chain_system();
        let ft = FrameTable::initial(&sys);
        let _ = narrowing_changes(&sys, &ft, ops[0], TimeFrame::new(5, 5));
    }

    #[test]
    fn contradictory_bounds_return_none() {
        let (sys, blk, ops) = chain_system();
        // a not before 5 and m not after 4 is impossible.
        let r = constrained_frames(&sys, blk, |o| {
            if o == ops[0] {
                TimeFrame::new(5, 7)
            } else if o == ops[1] {
                TimeFrame::new(1, 4)
            } else {
                TimeFrame::new(0, 7)
            }
        });
        assert!(r.is_none());
    }

    #[test]
    fn fixed_start_and_block_fixed() {
        let (sys, blk, ops) = chain_system();
        let mut ft = FrameTable::initial(&sys);
        assert!(!ft.block_fixed(&sys, blk));
        for (i, &o) in ops.iter().enumerate() {
            let t = [0u32, 1, 3, 0][i];
            ft.set(o, TimeFrame::new(t, t));
        }
        assert!(ft.block_fixed(&sys, blk));
        assert_eq!(ft.fixed_start(ops[2]), 3);
        assert_eq!(ft.total_mobility(), 0);
    }

    #[test]
    #[should_panic(expected = "not yet fixed")]
    fn fixed_start_panics_on_wide_frame() {
        let (sys, _, ops) = chain_system();
        let ft = FrameTable::initial(&sys);
        let _ = ft.fixed_start(ops[0]);
    }

    #[test]
    fn total_mobility_matches_sum() {
        let (sys, _, _) = chain_system();
        let ft = FrameTable::initial(&sys);
        assert_eq!(ft.total_mobility(), 4 + 4 + 4 + 7);
    }

    #[test]
    fn generation_counts_effective_changes_only() {
        let (sys, _, ops) = chain_system();
        let mut ft = FrameTable::initial(&sys);
        assert_eq!(ft.generation(), 0);
        assert_eq!(ft.op_generation(ops[0]), 0);

        ft.set(ops[0], ft.get(ops[0])); // identical frame: no-op
        assert_eq!(ft.generation(), 0);
        assert!(ft.dirty().is_empty());

        ft.set(ops[0], TimeFrame::new(1, 4));
        assert_eq!(ft.generation(), 1);
        assert_eq!(ft.op_generation(ops[0]), 1);
        ft.set(ops[1], TimeFrame::new(2, 5));
        assert_eq!(ft.generation(), 2);
        assert_eq!(ft.op_generation(ops[1]), 2);
        // Re-touching an op keeps it listed once but restamps it.
        ft.set(ops[0], TimeFrame::new(2, 4));
        assert_eq!(ft.generation(), 3);
        assert_eq!(ft.op_generation(ops[0]), 3);
        assert_eq!(ft.dirty(), &[ops[0], ops[1]]);
    }

    #[test]
    fn take_dirty_drains_and_rearms() {
        let (sys, _, ops) = chain_system();
        let mut ft = FrameTable::initial(&sys);
        ft.set(ops[2], TimeFrame::new(4, 7));
        assert_eq!(ft.take_dirty(), vec![ops[2]]);
        assert!(ft.dirty().is_empty());
        // The op can get dirty again after the drain.
        ft.set(ops[2], TimeFrame::new(5, 7));
        assert_eq!(ft.dirty(), &[ops[2]]);
        assert_eq!(ft.generation(), 2);
    }

    #[test]
    fn equality_ignores_tracking_state() {
        let (sys, _, ops) = chain_system();
        let a = FrameTable::initial(&sys);
        let mut b = FrameTable::initial(&sys);
        let orig = b.get(ops[0]);
        b.set(ops[0], TimeFrame::new(1, 4));
        b.set(ops[0], orig); // same frames as `a`, different history
        assert_eq!(a, b);
        assert_ne!(a.generation(), b.generation());
    }
}
