//! The layered spring field of the modified force model.
//!
//! For every global resource type `k` with period ρ the field maintains
//! three layers, recomputed incrementally as time frames shrink:
//!
//! 1. per block: the classical distribution `D_{b,k}(t)` (equation 4) and
//!    its modulo-maximum `D̂_{b,k}(τ)` (equation 7),
//! 2. per process: `M_{p,k}(τ) = max_b D̂_{b,k}(τ)` — blocks of one process
//!    never overlap (condition C2), so they behave like alternation
//!    branches (equation 9),
//! 3. per group: `G_k(τ) = Σ_{p∈group} M_{p,k}(τ)` — the balanced global
//!    requirement whose peak is the shared instance count.
//!
//! Each layer is one contiguous `f64` arena (see DESIGN.md §10): a
//! per-key offset table maps `(block, type)`, `(process, type)` or `type`
//! to a period-length slice, with `u32::MAX` marking keys that are not
//! globally shared. The fold kernels of [`crate::kernel`] stream over
//! those slices without allocating.

use tcms_fds::dist::DistributionSet;
use tcms_ir::{BlockId, FrameTable, ProcessId, ResourceTypeId, System};

use crate::assign::SharingSpec;
use crate::kernel;

/// Offset sentinel for keys without a profile (not globally shared).
const ABSENT: u32 = u32::MAX;

/// One arena layer: a flat `f64` store plus a per-key offset table.
/// Every present profile of one layer has the period of its type as
/// length, so `(offset, period)` fully locates a slice.
#[derive(Debug, Clone)]
struct Layer {
    off: Vec<u32>,
    data: Vec<f64>,
}

impl Layer {
    fn new(keys: usize) -> Self {
        Layer {
            off: vec![ABSENT; keys],
            data: Vec::new(),
        }
    }

    /// Appends a zeroed profile of `len` slots for `key`.
    fn insert(&mut self, key: usize, len: usize) {
        debug_assert_eq!(self.off[key], ABSENT, "profile inserted twice");
        self.off[key] = self.data.len() as u32;
        self.data.resize(self.data.len() + len, 0.0);
    }

    fn try_slice(&self, key: usize, len: usize) -> Option<&[f64]> {
        let o = self.off[key];
        (o != ABSENT).then(|| &self.data[o as usize..o as usize + len])
    }

    fn slice_mut(&mut self, key: usize, len: usize) -> &mut [f64] {
        let o = self.off[key] as usize;
        &mut self.data[o..o + len]
    }
}

/// Incrementally maintained distributions for the modified force model.
#[derive(Debug, Clone)]
pub struct ModuloField<'a> {
    system: &'a System,
    spec: SharingSpec,
    dist: DistributionSet,
    /// `periods[k]`: ρ of a globally shared type, 0 for local types
    /// (cached off the spec — the hot paths must not chase spec lookups).
    periods: Vec<u32>,
    /// Modulo-max profiles `D̂`, keyed by `block * num_types + type`.
    dhat: Layer,
    /// Balanced process profiles `M_p`, keyed by `process * num_types + type`.
    mproc: Layer,
    /// Group profiles `G_k`, keyed by `type`.
    gdist: Layer,
    /// Reused per-slot mask scratch for [`ModuloField::apply_delta`]
    /// (bits: 1 = delta touches slot, 2 = `D̂` moved, 4 = `M_p` moved).
    mask: Vec<u8>,
}

impl<'a> ModuloField<'a> {
    /// Builds the field from the initial time frames.
    pub fn new(system: &'a System, spec: SharingSpec, frames: &FrameTable) -> Self {
        let num_types = system.library().len();
        let dist = DistributionSet::build(system, frames);
        let mut periods = vec![0u32; num_types];
        let mut dhat = Layer::new(system.num_blocks() * num_types);
        let mut mproc = Layer::new(system.num_processes() * num_types);
        let mut gdist = Layer::new(num_types);
        for k in system.library().ids() {
            let Some(rho) = spec.period(k).filter(|_| spec.is_global(k)) else {
                continue;
            };
            let rho = rho as usize;
            periods[k.index()] = rho as u32;
            for &p in spec.group(k).expect("global") {
                for &b in system.process(p).blocks() {
                    dhat.insert(b.index() * num_types + k.index(), rho);
                }
                mproc.insert(p.index() * num_types + k.index(), rho);
            }
            gdist.insert(k.index(), rho);
        }
        let mut field = ModuloField {
            system,
            spec,
            dist,
            periods,
            dhat,
            mproc,
            gdist,
            mask: Vec::new(),
        };
        for k in system.library().ids() {
            if !field.spec.is_global(k) {
                continue;
            }
            let group: Vec<ProcessId> = field.spec.group(k).expect("global").to_vec();
            for &p in &group {
                for &b in system.process(p).blocks() {
                    field.fold_block(b, k);
                }
                field.fold_process(p, k);
            }
            field.fold_group(k);
        }
        field
    }

    /// The sharing specification driving this field.
    pub fn spec(&self) -> &SharingSpec {
        &self.spec
    }

    /// The classical per-block distributions.
    pub fn distributions(&self) -> &DistributionSet {
        &self.dist
    }

    /// Number of period slots of a globally shared type (its ρ), or 0 for
    /// a local type. Callers sizing scratch buffers use this instead of a
    /// spec lookup.
    pub fn slot_count(&self, rtype: ResourceTypeId) -> usize {
        self.periods[rtype.index()] as usize
    }

    #[inline]
    fn dhat_key(&self, block: BlockId, rtype: ResourceTypeId) -> usize {
        block.index() * self.periods.len() + rtype.index()
    }

    #[inline]
    fn mproc_key(&self, process: ProcessId, rtype: ResourceTypeId) -> usize {
        process.index() * self.periods.len() + rtype.index()
    }

    /// Modulo-max profile of a globally shared `(block, type)` pair.
    ///
    /// # Panics
    ///
    /// Panics if the pair is not globally shared.
    pub fn block_profile(&self, block: BlockId, rtype: ResourceTypeId) -> &[f64] {
        self.dhat
            .try_slice(self.dhat_key(block, rtype), self.slot_count(rtype))
            .expect("pair is not globally shared")
    }

    /// Balanced per-process profile `M_{p,k}`.
    ///
    /// # Panics
    ///
    /// Panics if `process` is not in the group of `rtype`.
    pub fn process_profile(&self, process: ProcessId, rtype: ResourceTypeId) -> &[f64] {
        self.mproc
            .try_slice(self.mproc_key(process, rtype), self.slot_count(rtype))
            .expect("process is not in the sharing group")
    }

    /// Group profile `G_k` of a global type.
    ///
    /// # Panics
    ///
    /// Panics if `rtype` is local.
    pub fn group_profile(&self, rtype: ResourceTypeId) -> &[f64] {
        self.gdist
            .try_slice(rtype.index(), self.slot_count(rtype))
            .expect("type is not globally shared")
    }

    /// Expected shared instance count: the peak of `G_k`.
    pub fn group_peak(&self, rtype: ResourceTypeId) -> f64 {
        self.group_profile(rtype)
            .iter()
            .copied()
            .fold(0.0, f64::max)
    }

    /// Refolds `D̂_{b,k}` from the block's distribution.
    fn fold_block(&mut self, block: BlockId, rtype: ResourceTypeId) {
        let rho = self.slot_count(rtype);
        let key = self.dhat_key(block, rtype);
        let d = self.dist.get(block, rtype);
        kernel::modulo_max_into(d, self.dhat.slice_mut(key, rho));
    }

    /// Refolds `M_{p,k}` from the process's `D̂` profiles (zero-seeded
    /// slot max in block order).
    fn fold_process(&mut self, process: ProcessId, rtype: ResourceTypeId) {
        let rho = self.slot_count(rtype);
        let key = self.mproc_key(process, rtype);
        let acc = self.mproc.slice_mut(key, rho);
        acc.fill(0.0);
        for &b in self.system.process(process).blocks() {
            let dkey = b.index() * self.periods.len() + rtype.index();
            let dh = self
                .dhat
                .try_slice(dkey, rho)
                .expect("group blocks carry D-hat profiles");
            kernel::slot_max_into(acc, dh);
        }
    }

    /// Refolds `G_k` from the group's `M_p` profiles (zero-seeded sum in
    /// group order).
    fn fold_group(&mut self, rtype: ResourceTypeId) {
        let rho = self.slot_count(rtype);
        let acc = self.gdist.slice_mut(rtype.index(), rho);
        acc.fill(0.0);
        for &p in self.spec.group(rtype).expect("global") {
            let mkey = p.index() * self.periods.len() + rtype.index();
            let m = self
                .mproc
                .try_slice(mkey, rho)
                .expect("group processes carry M profiles");
            kernel::add_into(acc, m);
        }
    }

    /// Zero-seeded slot max of the `D̂` profiles of every *other* block of
    /// `block`'s process — the part of `M_p` that does not depend on
    /// `block`. Batched candidate evaluation computes this once per
    /// `(block, type)` and shares it across all candidates.
    ///
    /// # Panics
    ///
    /// Panics if the pair is not globally shared or `out` is not
    /// period-sized.
    pub fn sibling_profile_into(&self, block: BlockId, rtype: ResourceTypeId, out: &mut [f64]) {
        let rho = self.slot_count(rtype);
        assert_eq!(out.len(), rho, "scratch must cover one period");
        out.fill(0.0);
        let process = self.system.block(block).process();
        for &b in self.system.process(process).blocks() {
            if b != block {
                kernel::slot_max_into(out, self.block_profile(b, rtype));
            }
        }
    }

    /// Commits `delta` to the distribution of `(block, type)` and refreshes
    /// the dependent layers (for any type; global layers only when shared).
    ///
    /// The refresh is a *dirty-region* update: only the period slots that
    /// `delta` maps onto are refolded, and a layer is touched only when the
    /// layer below it actually changed (bitwise), so a commit hidden under
    /// the slot maximum — the paper's modulo-hiding effect — stops right at
    /// the `D̂` layer, and a delta that cancels to nothing (implied frame
    /// changes can sum to a net zero) stops at the distribution itself.
    /// Each refolded slot replays the corresponding from-scratch fold
    /// ([`crate::modulo::modulo_max`], [`crate::modulo::slot_max`], group
    /// sum) in the same order, so the maintained profiles stay
    /// bit-identical to a full rebuild.
    ///
    /// The returned [`DeltaEffect`] reports how far the change propagated;
    /// evaluator caches use it to decide which context stamps to advance.
    pub fn apply_delta(
        &mut self,
        block: BlockId,
        rtype: ResourceTypeId,
        delta: &[f64],
    ) -> DeltaEffect {
        // Precise dirtying: write through the scoped API, bumping the
        // pair's version only when some entry actually changed bitwise.
        // (`d + 0.0 == d` bitwise — distributions never hold `-0.0` — so
        // every changed entry sits under a non-zero delta entry.)
        let dist_changed = self.dist.write_scoped(block, rtype, |d| {
            let mut changed = false;
            for (t, &x) in delta.iter().enumerate() {
                let new = d[t] + x;
                changed |= d[t].to_bits() != new.to_bits();
                d[t] = new;
            }
            (changed, changed)
        });
        let mut effect = DeltaEffect {
            dist_changed,
            ..DeltaEffect::default()
        };
        let process = self.system.block(block).process();
        if !self.spec.is_global_for(rtype, process) {
            return effect;
        }
        effect.global = true;
        if !effect.dist_changed {
            // The folds are pure functions of the distribution: an
            // absorbed or cancelled delta cannot move any layer.
            return effect;
        }
        let period = self.slot_count(rtype);
        let nt = self.periods.len();
        const DELTA_DIRTY: u8 = 1;
        const DHAT_DIRTY: u8 = 2;
        const MPROC_DIRTY: u8 = 4;
        // Period slots the delta maps onto (dirty region of D̂), collected
        // into the reused mask scratch.
        self.mask.clear();
        self.mask.resize(period, 0);
        for (t, &x) in delta.iter().enumerate() {
            if x != 0.0 {
                self.mask[t % period] |= DELTA_DIRTY;
            }
        }
        let d = self.dist.get(block, rtype);
        let dhat = self
            .dhat
            .slice_mut(block.index() * nt + rtype.index(), period);
        for (slot, m) in self.mask.iter_mut().enumerate() {
            if *m & DELTA_DIRTY == 0 {
                continue;
            }
            // Per-slot replay of `modulo_max`: ascending t, strictly
            // greater wins — bitwise identical to the full fold.
            let mut v = 0.0;
            let mut t = slot;
            while t < d.len() {
                if d[t] > v {
                    v = d[t];
                }
                t += period;
            }
            if dhat[slot].to_bits() != v.to_bits() {
                dhat[slot] = v;
                *m |= DHAT_DIRTY;
                effect.dhat_changed = true;
            }
        }
        if !effect.dhat_changed {
            return effect;
        }
        let mproc = self
            .mproc
            .slice_mut(process.index() * nt + rtype.index(), period);
        let blocks = self.system.process(process).blocks();
        for (slot, m) in self.mask.iter_mut().enumerate() {
            if *m & DHAT_DIRTY == 0 {
                continue;
            }
            // Per-slot replay of `fold_process` (zero-seeded `slot_max`
            // over the process's blocks, in block order).
            let mut v = 0.0f64;
            for &b in blocks {
                let off = self.dhat.off[b.index() * nt + rtype.index()] as usize;
                v = v.max(self.dhat.data[off + slot]);
            }
            if mproc[slot].to_bits() != v.to_bits() {
                mproc[slot] = v;
                *m |= MPROC_DIRTY;
                effect.mproc_changed = true;
            }
        }
        if !effect.mproc_changed {
            return effect;
        }
        let gdist = self.gdist.slice_mut(rtype.index(), period);
        for (slot, m) in self.mask.iter().enumerate() {
            if *m & MPROC_DIRTY == 0 {
                continue;
            }
            // Per-slot replay of `fold_group` (zero-seeded sum in group
            // order).
            let mut v = 0.0f64;
            for &p in self.spec.group(rtype).expect("global") {
                let off = self.mproc.off[p.index() * nt + rtype.index()] as usize;
                v += self.mproc.data[off + slot];
            }
            if gdist[slot].to_bits() != v.to_bits() {
                gdist[slot] = v;
                effect.gdist_changed = true;
            }
        }
        effect
    }
}

/// How far a committed delta propagated through the field's layers; the
/// flags are cumulative upper layers of a strictly narrowing chain
/// (`gdist_changed` implies `mproc_changed` implies `dhat_changed`
/// implies `dist_changed`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeltaEffect {
    /// Some entry of the block's distribution `D` actually changed
    /// (bitwise). A delta that cancels to a net zero leaves this false —
    /// and then no downstream cache needs invalidating at all.
    pub dist_changed: bool,
    /// The pair is globally shared for its process (the layered profiles
    /// exist and were examined).
    pub global: bool,
    /// The block's modulo-max profile `D̂` moved in some slot.
    pub dhat_changed: bool,
    /// The process profile `M_p` moved in some slot.
    pub mproc_changed: bool,
    /// The group profile `G` moved in some slot — only then do forces of
    /// other processes in the sharing group change.
    pub gdist_changed: bool,
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcms_ir::generators::paper_system;
    use tcms_ir::FrameTable;

    #[test]
    fn group_profile_sums_process_profiles() {
        let (sys, t) = paper_system().unwrap();
        let spec = SharingSpec::all_global(&sys, 5);
        let frames = FrameTable::initial(&sys);
        let field = ModuloField::new(&sys, spec.clone(), &frames);
        let g = field.group_profile(t.mul).to_vec();
        let mut manual = vec![0.0; 5];
        for &p in spec.group(t.mul).unwrap() {
            for (slot, v) in field.process_profile(p, t.mul).iter().enumerate() {
                manual[slot] += v;
            }
        }
        for (a, b) in g.iter().zip(&manual) {
            assert!((a - b).abs() < 1e-12);
        }
        assert!(field.group_peak(t.mul) > 0.0);
    }

    #[test]
    fn local_type_delta_only_touches_distribution() {
        let (sys, t) = paper_system().unwrap();
        let mut spec = SharingSpec::all_local(&sys);
        spec.set_global(t.mul, sys.users_of_type(t.mul), 5);
        let frames = FrameTable::initial(&sys);
        let mut field = ModuloField::new(&sys, spec, &frames);
        let block = sys.block_ids().next().unwrap();
        let len = sys.block(block).time_range() as usize;
        let delta = vec![0.1; len];
        let before = field.distributions().get(block, t.add)[0];
        field.apply_delta(block, t.add, &delta);
        let after = field.distributions().get(block, t.add)[0];
        assert!((after - before - 0.1).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "not globally shared")]
    fn group_profile_of_local_type_panics() {
        let (sys, t) = paper_system().unwrap();
        let spec = SharingSpec::all_local(&sys);
        let frames = FrameTable::initial(&sys);
        let field = ModuloField::new(&sys, spec, &frames);
        let _ = field.group_profile(t.add);
    }

    #[test]
    fn incremental_apply_matches_full_rebuild_bitwise() {
        let (sys, _) = paper_system().unwrap();
        let spec = SharingSpec::all_global(&sys, 5);
        let mut frames = FrameTable::initial(&sys);
        let mut field = ModuloField::new(&sys, spec.clone(), &frames);
        // Commit a sequence of op fixings through apply_delta and compare
        // every layer against a from-scratch rebuild after each step.
        for block in sys.block_ids().take(3) {
            let op = sys.block(block).ops()[0];
            let fr = frames.get(op);
            let nf = tcms_ir::TimeFrame::new(fr.asap, fr.asap);
            let len = sys.block(block).time_range() as usize;
            let mut delta = vec![0.0; len];
            tcms_fds::prob::accumulate(&mut delta, nf, sys.occupancy(op), 1.0);
            tcms_fds::prob::accumulate(&mut delta, fr, sys.occupancy(op), -1.0);
            let k = sys.op(op).resource_type();
            field.apply_delta(block, k, &delta);
            frames.set(op, nf);
            let p = sys.block(block).process();
            // The folded layers must equal a from-scratch refold of the
            // *current incremental* distribution bitwise: that is the
            // invariant force caching relies on. (The distribution itself
            // may drift from a full rebuild by summation-order ULPs, which
            // the tolerance-based rebuild test below covers.)
            assert_eq!(
                field.block_profile(block, k),
                crate::modulo::modulo_max(field.distributions().get(block, k), 5),
                "dhat must be an exact fold of the maintained distribution"
            );
            let mut mref = vec![0.0; 5];
            for &b in sys.process(p).blocks() {
                mref = crate::modulo::slot_max(&mref, field.block_profile(b, k));
            }
            assert_eq!(
                field.process_profile(p, k),
                mref,
                "mproc must be an exact fold of the maintained dhat layer"
            );
            let mut gref = vec![0.0; 5];
            for &q in field.spec().group(k).unwrap() {
                for (slot, v) in field.process_profile(q, k).iter().enumerate() {
                    gref[slot] += v;
                }
            }
            assert_eq!(
                field.group_profile(k),
                gref,
                "gdist must be an exact fold of the maintained mproc layer"
            );
            // And every layer stays within fp tolerance of a full rebuild.
            let rebuilt = ModuloField::new(&sys, spec.clone(), &frames);
            for (a, b) in field.group_profile(k).iter().zip(rebuilt.group_profile(k)) {
                assert!((a - b).abs() < 1e-9, "gdist drifted from rebuild");
            }
        }
    }

    #[test]
    fn hidden_delta_stops_at_dhat_layer() {
        let (sys, t) = paper_system().unwrap();
        let spec = SharingSpec::all_global(&sys, 5);
        let frames = FrameTable::initial(&sys);
        let mut field = ModuloField::new(&sys, spec, &frames);
        let block = sys.block_ids().next().unwrap();
        let d = field.distributions().get(block, t.add);
        // Find a time strictly below its slot maximum and raise it halfway:
        // the group profile must not move and the effect must say so.
        let dhat = field.block_profile(block, t.add).to_vec();
        let mut pick = None;
        for (time, &v) in d.iter().enumerate() {
            if v < dhat[time % 5] - 0.05 {
                pick = Some((time, dhat[time % 5] - v));
                break;
            }
        }
        let Some((time, headroom)) = pick else { return };
        let mut delta = vec![0.0; d.len()];
        delta[time] = headroom / 2.0;
        let effect = field.apply_delta(block, t.add, &delta);
        assert!(effect.global && effect.dist_changed);
        assert!(
            !effect.gdist_changed,
            "hidden delta must not reach G: {effect:?}"
        );
    }

    #[test]
    fn cancelled_delta_leaves_version_untouched() {
        let (sys, t) = paper_system().unwrap();
        let spec = SharingSpec::all_global(&sys, 5);
        let frames = FrameTable::initial(&sys);
        let mut field = ModuloField::new(&sys, spec, &frames);
        let block = sys.block_ids().next().unwrap();
        let len = sys.block(block).time_range() as usize;
        let before = field.distributions().version(block, t.add);
        // A delta of exact zeros writes nothing and must not dirty the
        // pair — the precise-dirtying fix this effect flag exists for.
        let effect = field.apply_delta(block, t.add, &vec![0.0; len]);
        assert!(!effect.dist_changed && effect.global);
        assert!(!effect.dhat_changed);
        assert_eq!(field.distributions().version(block, t.add), before);
        // A real delta still dirties it.
        let mut delta = vec![0.0; len];
        delta[0] = 0.25;
        let effect = field.apply_delta(block, t.add, &delta);
        assert!(effect.dist_changed);
        assert!(field.distributions().version(block, t.add) > before);
    }

    #[test]
    fn visible_delta_propagates_to_group() {
        let (sys, t) = paper_system().unwrap();
        let spec = SharingSpec::all_global(&sys, 5);
        let frames = FrameTable::initial(&sys);
        let mut field = ModuloField::new(&sys, spec, &frames);
        let block = sys.block_ids().next().unwrap();
        let len = sys.block(block).time_range() as usize;
        // A large increase everywhere definitely raises the slot maxima.
        let delta = vec![10.0; len];
        let effect = field.apply_delta(block, t.add, &delta);
        assert!(effect.global && effect.dist_changed && effect.dhat_changed);
        assert!(effect.mproc_changed && effect.gdist_changed);
    }
}
