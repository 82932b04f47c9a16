//! Branch-free fold kernels over contiguous profile slabs.
//!
//! Every kernel here is an `_into` variant writing to caller-provided
//! storage (an arena slice or a reused scratch buffer), so the hot force
//! paths allocate nothing. The loops are fixed-stride over
//! `chunks_exact(period)` with `f64::max` reductions — no per-element
//! branching, no indexing through nested `Vec`s — which the compiler
//! auto-vectorizes.
//!
//! # Bit-identity to the seed's branchy folds
//!
//! The seed folded with `if v > out[slot] { out[slot] = v }` in ascending
//! `t`. Replacing that with `out[slot].max(v)` is bitwise identical here
//! because profile values are never `NaN` and never `-0.0` (occupancy
//! probabilities are sums of non-negative terms; exact cancellation yields
//! `+0.0`), and a `max` reduction over such values is order-insensitive:
//! it returns the same maximum element bitwise no matter how the
//! comparisons associate. This module's proptests pin the chunked kernels
//! bitwise against the strided branchy fold, a private helper of the
//! tests.

/// Folds `dist` (indexed by time step) into `out` (one period of slots),
/// keeping the slot maximum seeded at `0.0`:
/// `out[τ] = max(0, max { dist[t] : t ≡ τ (mod |out|) })`.
///
/// # Panics
///
/// Panics if `out` is empty.
#[inline]
pub fn modulo_max_into(dist: &[f64], out: &mut [f64]) {
    assert!(!out.is_empty(), "period must be at least 1");
    out.fill(0.0);
    let period = out.len();
    let mut chunks = dist.chunks_exact(period);
    for chunk in &mut chunks {
        for (o, &v) in out.iter_mut().zip(chunk) {
            *o = o.max(v);
        }
    }
    for (o, &v) in out.iter_mut().zip(chunks.remainder()) {
        *o = o.max(v);
    }
}

/// Fused tentative fold: like [`modulo_max_into`] over the element-wise
/// sum `dist[t] + delta[t]` (with `delta` zero-extended past its end),
/// without materializing the sum. This is the inner loop of the modified
/// force's tentative evaluation — the seed allocated a full copy of the
/// distribution per candidate here.
///
/// # Panics
///
/// Panics if `out` is empty or `delta` is longer than `dist`.
#[inline]
pub fn modulo_max_delta_into(dist: &[f64], delta: &[f64], out: &mut [f64]) {
    assert!(!out.is_empty(), "period must be at least 1");
    assert!(delta.len() <= dist.len(), "delta must fit the distribution");
    out.fill(0.0);
    let period = out.len();
    let (with_delta, tail) = dist.split_at(delta.len());
    let mut dc = with_delta.chunks_exact(period);
    let mut xc = delta.chunks_exact(period);
    for (chunk, xchunk) in (&mut dc).zip(&mut xc) {
        for ((o, &v), &x) in out.iter_mut().zip(chunk).zip(xchunk) {
            *o = o.max(v + x);
        }
    }
    for ((o, &v), &x) in out.iter_mut().zip(dc.remainder()).zip(xc.remainder()) {
        *o = o.max(v + x);
    }
    // Past the delta the sum is just the distribution; continue at the
    // slot the prefix stopped on, realign to slot 0 with a short scalar
    // head, then fold the rest in full-period chunks again. The span
    // optimization passes deltas truncated to their dirty span, so this
    // tail covers most of the distribution on the hot path.
    let slot0 = delta.len() % period;
    let head_len = if slot0 == 0 {
        0
    } else {
        (period - slot0).min(tail.len())
    };
    let (head, aligned) = tail.split_at(head_len);
    for (slot, &v) in (slot0..).zip(head) {
        out[slot] = out[slot].max(v);
    }
    let mut chunks = aligned.chunks_exact(period);
    for chunk in &mut chunks {
        for (o, &v) in out.iter_mut().zip(chunk) {
            *o = o.max(v);
        }
    }
    for (o, &v) in out.iter_mut().zip(chunks.remainder()) {
        *o = o.max(v);
    }
}

/// Prefix/suffix modulo-max tables of `dist`, into reused buffers (resized
/// to fit): row `j` of `pre` holds the zero-seeded per-slot maximum over
/// `t < j`, row `j` of `suf` over `t >= j` (rows are `period` wide,
/// `dist.len() + 1` rows each).
///
/// With the tables, the fused fold of a delta that is zero outside
/// `[lo, hi)` only has to scan the span:
/// `out[τ] = max(pre[lo][τ], max{dist[t] + delta[t] : t ∈ [lo, hi), t ≡ τ}, suf[hi][τ])`
/// — see [`modulo_max_delta_span_into`]. Regrouping the per-slot maximum
/// this way is bitwise free: profile values are never `NaN`/`-0.0`, so
/// the max reduction is order-insensitive.
///
/// # Panics
///
/// Panics if `period` is zero.
pub fn modulo_boundary_max_tables_into(
    dist: &[f64],
    period: usize,
    pre: &mut Vec<f64>,
    suf: &mut Vec<f64>,
) {
    assert!(period > 0, "period must be at least 1");
    let rows = dist.len() + 1;
    pre.clear();
    pre.resize(rows * period, 0.0);
    for (j, &v) in dist.iter().enumerate() {
        let (prev, cur) = pre.split_at_mut((j + 1) * period);
        let prev = &prev[j * period..];
        cur[..period].copy_from_slice(prev);
        let slot = j % period;
        cur[slot] = cur[slot].max(v);
    }
    suf.clear();
    suf.resize(rows * period, 0.0);
    for (j, &v) in dist.iter().enumerate().rev() {
        let (cur, next) = suf.split_at_mut((j + 1) * period);
        let cur = &mut cur[j * period..];
        cur.copy_from_slice(&next[..period]);
        let slot = j % period;
        cur[slot] = cur[slot].max(v);
    }
}

/// Span-limited fused fold: [`modulo_max_delta_into`] over
/// `dist + delta` where `delta` (starting at time `start`) is the only
/// non-zero stretch, with everything outside the span taken from the
/// [`modulo_boundary_max_tables_into`] of `dist`. Bitwise identical to the
/// full fused fold — same per-slot value multisets, and the zero-seeded
/// max is order-insensitive over never-`NaN`/`-0.0` profiles.
///
/// # Panics
///
/// Panics if `out` is empty, the span `[start, start + delta.len())`
/// overruns `dist`, or the tables are shorter than the span rows need.
#[inline]
pub fn modulo_max_delta_span_into(
    pre: &[f64],
    suf: &[f64],
    dist: &[f64],
    delta: &[f64],
    start: usize,
    out: &mut [f64],
) {
    assert!(!out.is_empty(), "period must be at least 1");
    let period = out.len();
    let end = start + delta.len();
    assert!(end <= dist.len(), "span must fit the distribution");
    let pre_row = &pre[start * period..(start + 1) * period];
    let suf_row = &suf[end * period..(end + 1) * period];
    for ((o, &p), &s) in out.iter_mut().zip(pre_row).zip(suf_row) {
        *o = p.max(s);
    }
    let span = &dist[start..end];
    let slot0 = start % period;
    let head_len = if slot0 == 0 {
        0
    } else {
        (period - slot0).min(span.len())
    };
    let (dist_head, dist_tail) = span.split_at(head_len);
    let (delta_head, delta_tail) = delta.split_at(head_len);
    for ((slot, &v), &x) in (slot0..).zip(dist_head).zip(delta_head) {
        out[slot] = out[slot].max(v + x);
    }
    let mut dist_chunks = dist_tail.chunks_exact(period);
    let mut delta_chunks = delta_tail.chunks_exact(period);
    for (dc, xc) in (&mut dist_chunks).zip(&mut delta_chunks) {
        for ((o, &v), &x) in out.iter_mut().zip(dc).zip(xc) {
            *o = o.max(v + x);
        }
    }
    for ((o, &v), &x) in out
        .iter_mut()
        .zip(dist_chunks.remainder())
        .zip(delta_chunks.remainder())
    {
        *o = o.max(v + x);
    }
}

/// Element-wise maximum fold `acc[i] = max(acc[i], b[i])` — one step of
/// the per-process balancing over non-overlapping blocks (equation 9).
///
/// # Panics
///
/// Panics if the slices differ in length.
#[inline]
pub fn slot_max_into(acc: &mut [f64], b: &[f64]) {
    assert_eq!(acc.len(), b.len(), "profiles must cover the same period");
    for (a, &v) in acc.iter_mut().zip(b) {
        *a = a.max(v);
    }
}

/// Element-wise sum fold `acc[i] += b[i]` — one step of the group
/// summation `G_k = Σ_p M_{p,k}`.
///
/// # Panics
///
/// Panics if the slices differ in length.
#[inline]
pub fn add_into(acc: &mut [f64], b: &[f64]) {
    assert_eq!(acc.len(), b.len(), "profiles must cover the same period");
    for (a, &v) in acc.iter_mut().zip(b) {
        *a += v;
    }
}

/// Element-wise difference `out[i] = a[i] - b[i]` — the profile
/// displacement `ΔG` the modified force prices.
///
/// # Panics
///
/// Panics if the slices differ in length.
#[inline]
pub fn sub_into(out: &mut [f64], b: &[f64]) {
    assert_eq!(out.len(), b.len(), "profiles must cover the same period");
    for (a, &v) in out.iter_mut().zip(b) {
        *a -= v;
    }
}

/// Integer variant of [`modulo_max_into`] for occupancy counts.
///
/// # Panics
///
/// Panics if `out` is empty.
#[inline]
pub fn modulo_max_counts_into(counts: &[u32], out: &mut [u32]) {
    assert!(!out.is_empty(), "period must be at least 1");
    out.fill(0);
    let period = out.len();
    let mut chunks = counts.chunks_exact(period);
    for chunk in &mut chunks {
        for (o, &v) in out.iter_mut().zip(chunk) {
            *o = (*o).max(v);
        }
    }
    for (o, &v) in out.iter_mut().zip(chunks.remainder()) {
        *o = (*o).max(v);
    }
}

/// Integer element-wise maximum fold, used by the exact search's slot
/// profiles.
///
/// # Panics
///
/// Panics if the slices differ in length.
#[inline]
pub fn slot_max_u32_into(acc: &mut [u32], b: &[u32]) {
    assert_eq!(acc.len(), b.len(), "profiles must cover the same period");
    for (a, &v) in acc.iter_mut().zip(b) {
        *a = (*a).max(v);
    }
}

/// Integer element-wise sum fold, used by the exact search's slot
/// profiles.
///
/// # Panics
///
/// Panics if the slices differ in length.
#[inline]
pub fn add_u32_into(acc: &mut [u32], b: &[u32]) {
    assert_eq!(acc.len(), b.len(), "profiles must cover the same period");
    for (a, &v) in acc.iter_mut().zip(b) {
        *a += v;
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;

    /// The seed's strided branchy modulo-max fold: the reference the
    /// chunked kernels are pinned against bitwise.
    fn modulo_max_branchy(dist: &[f64], period: u32) -> Vec<f64> {
        let mut out = vec![0.0; period as usize];
        for (t, &v) in dist.iter().enumerate() {
            let slot = t % period as usize;
            if v > out[slot] {
                out[slot] = v;
            }
        }
        out
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// The chunked modulo-max kernel equals the branchy fold bitwise,
        /// for every (ragged) length/period combination. (The vendored
        /// proptest only generates integer ranges, so values are dyadic
        /// rationals — exact in f64, which is what bitwise comparison
        /// wants anyway.)
        #[test]
        fn modulo_max_kernel_matches_branchy_bitwise(
            raw in prop::collection::vec(0u32..64, 0..40),
            period in 1u32..12,
        ) {
            let dist: Vec<f64> = raw.iter().map(|&v| f64::from(v) * 0.0625).collect();
            let mut out = vec![0.0; period as usize];
            modulo_max_into(&dist, &mut out);
            prop_assert_eq!(
                bits(&out),
                bits(&modulo_max_branchy(&dist, period)),
                "len {} period {}",
                dist.len(),
                period
            );
        }

        /// The fused delta fold (`max(dist + delta)` without materializing
        /// the sum) equals materializing the sum and folding it branchily —
        /// bitwise, including deltas shorter than the distribution and
        /// periods longer than both.
        #[test]
        fn fused_delta_fold_matches_materialized_branchy_bitwise(
            raw_dist in prop::collection::vec(0u32..64, 0..32),
            raw_delta in prop::collection::vec(0u32..64, 0..32),
            period in 1u32..12,
        ) {
            let dist: Vec<f64> = raw_dist.iter().map(|&v| f64::from(v) * 0.0625).collect();
            // Deltas in [-2, +2).
            let delta: Vec<f64> = raw_delta
                .iter()
                .map(|&v| (f64::from(v) - 32.0) * 0.0625)
                .collect();
            prop_assume!(delta.len() <= dist.len());
            let mut summed = dist.clone();
            for (d, x) in summed.iter_mut().zip(&delta) {
                *d += x;
            }
            let mut out = vec![0.0; period as usize];
            modulo_max_delta_into(&dist, &delta, &mut out);
            prop_assert_eq!(
                bits(&out),
                bits(&modulo_max_branchy(&summed, period)),
                "len {}/{} period {}",
                dist.len(),
                delta.len(),
                period
            );
        }
    }

    #[test]
    fn modulo_max_matches_branchy_bitwise() {
        let d = [0.2, 0.9, 0.1, 0.4, 0.8, 0.15, 0.4];
        for period in 1..=9u32 {
            let mut out = vec![f64::NAN; period as usize];
            modulo_max_into(&d, &mut out);
            assert_eq!(
                bits(&out),
                bits(&modulo_max_branchy(&d, period)),
                "period {period}"
            );
        }
    }

    #[test]
    fn delta_fold_matches_materialized_sum() {
        let d = [0.2, 0.9, 0.1, 0.4, 0.8, 0.15, 0.4, 0.0];
        for dlen in 0..=d.len() {
            let delta: Vec<f64> = (0..dlen).map(|i| (i as f64 - 2.0) * 0.125).collect();
            let mut summed = d.to_vec();
            for (t, &x) in delta.iter().enumerate() {
                summed[t] += x;
            }
            for period in 1..=9u32 {
                let mut fused = vec![f64::NAN; period as usize];
                modulo_max_delta_into(&d, &delta, &mut fused);
                assert_eq!(
                    bits(&fused),
                    bits(&modulo_max_branchy(&summed, period)),
                    "period {period}, delta len {dlen}"
                );
            }
        }
    }

    #[test]
    fn slot_max_and_add_fold() {
        let mut acc = vec![1.0, 0.0, 2.0];
        slot_max_into(&mut acc, &[0.5, 3.0, 1.0]);
        assert_eq!(acc, vec![1.0, 3.0, 2.0]);
        add_into(&mut acc, &[1.0, 1.0, 1.0]);
        assert_eq!(acc, vec![2.0, 4.0, 3.0]);
        sub_into(&mut acc, &[2.0, 4.0, 3.0]);
        assert_eq!(acc, vec![0.0, 0.0, 0.0]);
    }

    #[test]
    fn integer_kernels() {
        let mut out = vec![9u32; 2];
        modulo_max_counts_into(&[1, 0, 3, 2], &mut out);
        assert_eq!(out, vec![3, 2]);
        let mut acc = vec![1u32, 5];
        slot_max_u32_into(&mut acc, &[2, 4]);
        assert_eq!(acc, vec![2, 5]);
        add_u32_into(&mut acc, &[1, 1]);
        assert_eq!(acc, vec![3, 6]);
    }

    #[test]
    fn empty_dist_zeroes_out() {
        let mut out = vec![f64::NAN; 3];
        modulo_max_into(&[], &mut out);
        assert_eq!(out, vec![0.0; 3]);
    }

    #[test]
    #[should_panic(expected = "period must be at least 1")]
    fn empty_out_panics() {
        modulo_max_into(&[1.0], &mut []);
    }
}
