//! Flat structure-of-arrays storage for per-`(block, type)` profiles.
//!
//! The force kernels spend their time folding and accumulating profile
//! arrays. Storing each profile as its own `Vec` (the seed layout was
//! `Vec<Vec<Vec<f64>>>`) scatters those loops across the heap; this module
//! instead packs every profile of one layer into a single contiguous `f64`
//! arena with a fixed-stride index precomputed from the [`System`]:
//!
//! ```text
//! offset(b, k) = base[b] + k * len[b]      len[b] = time_range of block b
//! ```
//!
//! All types of one block are adjacent (the block's pair slices share one
//! length), so a kernel walking `(block, type)` pairs streams through
//! memory. The index never changes after construction — only the arena
//! values do — which is what lets [`crate::dist::DistributionSet`] and the
//! modulo field hand out plain slices as thin views.

use std::ops::Range;

use tcms_ir::{BlockId, ResourceTypeId, System};

/// Fixed-stride index of a per-`(block, type)` profile arena.
///
/// Immutable after construction; cheap to clone (two small `Vec<u32>`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlabIndex {
    /// `base[b]`: arena offset of block `b`'s first pair slice.
    base: Vec<u32>,
    /// `len[b]`: length of every pair slice of block `b` (its time range).
    len: Vec<u32>,
    num_types: usize,
    total: usize,
}

impl SlabIndex {
    /// Builds the index for all `(block, type)` pairs of `system`, with
    /// one slice of the block's time range per pair.
    pub fn from_system(system: &System) -> Self {
        let num_types = system.library().len();
        let mut base = Vec::with_capacity(system.num_blocks());
        let mut len = Vec::with_capacity(system.num_blocks());
        let mut total = 0u32;
        for (_, b) in system.blocks() {
            base.push(total);
            len.push(b.time_range());
            total += b.time_range() * num_types as u32;
        }
        SlabIndex {
            base,
            len,
            num_types,
            total: total as usize,
        }
    }

    /// Number of resource types per block.
    pub fn num_types(&self) -> usize {
        self.num_types
    }

    /// Number of `(block, type)` pairs indexed.
    pub fn num_pairs(&self) -> usize {
        self.base.len() * self.num_types
    }

    /// Dense pair number of `(block, type)` — the stride-`num_types` key
    /// used for per-pair side tables (version counters).
    #[inline]
    pub fn pair(&self, block: BlockId, rtype: ResourceTypeId) -> usize {
        block.index() * self.num_types + rtype.index()
    }

    /// Slice length of every pair of `block` (the block's time range).
    #[inline]
    pub fn len_of(&self, block: BlockId) -> usize {
        self.len[block.index()] as usize
    }

    /// Arena range of the `(block, type)` profile.
    #[inline]
    pub fn range(&self, block: BlockId, rtype: ResourceTypeId) -> Range<usize> {
        let b = block.index();
        let start = (self.base[b] + rtype.index() as u32 * self.len[b]) as usize;
        start..start + self.len[b] as usize
    }

    /// Total arena length covering every pair slice.
    pub fn total_len(&self) -> usize {
        self.total
    }

    /// Allocates a zeroed arena matching this index.
    pub fn alloc(&self) -> Vec<f64> {
        vec![0.0; self.total]
    }
}

/// Accumulates the spring-force terms of one profile/displacement pair
/// (the classical force of equation 5 and the per-slot terms of the
/// modified force, equation 10) onto a running total:
///
/// `acc + Σ_t w · (profile[t] + lookahead · delta[t]) · delta[t]`
///
/// The sum runs in ascending `t` with the exact per-term association the
/// seed's branchy loop used (`total += w * (p + la*x) * x`), threading the
/// caller's accumulator through so multi-pair forces keep the seed's
/// summation order bit-identically. Terms with `delta[t] == 0.0` (which
/// the seed skipped) contribute exactly `±0.0`, which never changes an
/// accumulator that is not `-0.0` — and the accumulator never is, because
/// it starts at `+0.0` and IEEE addition only produces `-0.0` from two
/// negative zeros. Profiles and deltas are never `NaN`.
///
/// # Panics
///
/// Panics in debug builds if `delta` is longer than `profile`.
#[inline]
pub fn force_sum(acc: f64, profile: &[f64], delta: &[f64], weight: f64, lookahead: f64) -> f64 {
    debug_assert!(delta.len() <= profile.len());
    let mut total = acc;
    for (&p, &x) in profile.iter().zip(delta) {
        total += weight * (p + lookahead * x) * x;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcms_ir::{ResourceLibrary, ResourceType, SystemBuilder};

    fn two_block_system() -> System {
        let mut lib = ResourceLibrary::new();
        let add = lib.add(ResourceType::new("add", 1)).unwrap();
        let _mul = lib.add(ResourceType::new("mul", 2)).unwrap();
        let mut b = SystemBuilder::new(lib);
        let p = b.add_process("p");
        let b1 = b.add_block(p, "b1", 4).unwrap();
        b.add_op(b1, "x", add).unwrap();
        let q = b.add_process("q");
        let b2 = b.add_block(q, "b2", 7).unwrap();
        b.add_op(b2, "y", add).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn ranges_are_disjoint_and_cover_the_arena() {
        let sys = two_block_system();
        let idx = SlabIndex::from_system(&sys);
        assert_eq!(idx.num_types(), 2);
        assert_eq!(idx.total_len(), 4 * 2 + 7 * 2);
        let mut covered = vec![false; idx.total_len()];
        for (bid, _) in sys.blocks() {
            for k in sys.library().ids() {
                let r = idx.range(bid, k);
                assert_eq!(r.len(), idx.len_of(bid));
                for i in r {
                    assert!(!covered[i], "arena cell {i} indexed twice");
                    covered[i] = true;
                }
            }
        }
        assert!(covered.iter().all(|&c| c), "arena must be fully covered");
    }

    #[test]
    fn pair_numbers_are_dense() {
        let sys = two_block_system();
        let idx = SlabIndex::from_system(&sys);
        let mut seen = vec![false; idx.num_pairs()];
        for (bid, _) in sys.blocks() {
            for k in sys.library().ids() {
                let p = idx.pair(bid, k);
                assert!(!seen[p]);
                seen[p] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn force_sum_matches_branchy_reference() {
        let profile = [0.5, 1.25, 0.0, 2.0, 0.75];
        let delta = [0.5, -0.5, 0.0, 0.25, -0.25];
        let (w, la) = (2.0, 1.0 / 3.0);
        let mut reference = 0.0;
        for (t, &x) in delta.iter().enumerate() {
            if x != 0.0 {
                reference += w * (profile[t] + la * x) * x;
            }
        }
        let got = force_sum(0.0, &profile, &delta, w, la);
        assert_eq!(got.to_bits(), reference.to_bits());
    }

    #[test]
    fn force_sum_of_zero_delta_keeps_accumulator() {
        let got = force_sum(0.0, &[1.0, 2.0], &[0.0, 0.0], 3.0, 0.5);
        assert_eq!(got.to_bits(), 0.0f64.to_bits());
        let acc = -1.25;
        let got = force_sum(acc, &[1.0, 2.0], &[0.0, 0.0], 3.0, 0.5);
        assert_eq!(got.to_bits(), acc.to_bits());
    }
}
