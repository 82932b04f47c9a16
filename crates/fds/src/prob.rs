//! Occupancy probabilities of operations with time frames.
//!
//! With a uniform start-time distribution over the frame `[asap, alap]`, an
//! operation occupying its resource for `occ` cycles is busy at time `t`
//! with probability `overlap / width`, where `overlap` counts the start
//! times `s ∈ [asap, alap]` with `s ≤ t < s + occ`.

use tcms_ir::TimeFrame;

/// Probability that an operation with frame `frame` and occupancy `occ`
/// cycles keeps its resource busy at time step `t`.
///
/// # Panics
///
/// Panics if `occ == 0`.
#[inline]
pub fn occupancy_prob(frame: TimeFrame, occ: u32, t: u32) -> f64 {
    debug_assert!(occ > 0, "occupancy must be positive");
    let lo = frame.asap.max(t.saturating_sub(occ - 1));
    let hi = frame.alap.min(t);
    if lo > hi {
        0.0
    } else {
        f64::from(hi - lo + 1) / f64::from(frame.width())
    }
}

/// Adds the occupancy probabilities of one operation to `dist`, scaled by
/// `sign` (`+1.0` to add, `-1.0` to remove).
///
/// `dist` is indexed by time step; probabilities past the end of `dist`
/// are ignored (they cannot occur for feasible frames).
///
/// Returns the half-open range of indices that were written (empty
/// ranges come back as `(0, 0)`), so callers reusing delta buffers can
/// zero exactly the dirty span instead of the whole buffer.
///
/// Bit-identical to one [`occupancy_prob`] call per step — the overlap
/// count changes by at most one between neighbouring steps (ramp up,
/// plateau, ramp down), and identical operands give identical
/// quotients, so the division is only re-done when the count moves.
#[inline]
pub fn accumulate(dist: &mut [f64], frame: TimeFrame, occ: u32, sign: f64) -> (usize, usize) {
    debug_assert!(occ > 0, "occupancy must be positive");
    let Some(top) = dist.len().checked_sub(1) else {
        return (0, 0);
    };
    let last = (frame.alap + occ - 1).min(top as u32);
    if frame.asap > last {
        return (0, 0);
    }
    let width = f64::from(frame.width());
    let mut count_cached = 0u32;
    let mut term = 0.0f64;
    for t in frame.asap..=last {
        let lo = frame.asap.max(t.saturating_sub(occ - 1));
        let hi = frame.alap.min(t);
        let count = hi - lo + 1;
        if count != count_cached {
            count_cached = count;
            term = sign * (f64::from(count) / width);
        }
        dist[t as usize] += term;
    }
    (frame.asap as usize, last as usize + 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The seed's per-step accumulation loop (one [`occupancy_prob`]
    /// division per time step), the oracle [`accumulate`] is pinned
    /// against.
    fn accumulate_reference(dist: &mut [f64], frame: TimeFrame, occ: u32, sign: f64) {
        let last = (frame.alap + occ - 1).min(dist.len().saturating_sub(1) as u32);
        for t in frame.asap..=last {
            dist[t as usize] += sign * occupancy_prob(frame, occ, t);
        }
    }

    #[test]
    fn unit_occupancy_uniform() {
        let f = TimeFrame::new(2, 5);
        for t in 2..=5 {
            assert!((occupancy_prob(f, 1, t) - 0.25).abs() < 1e-12);
        }
        assert_eq!(occupancy_prob(f, 1, 1), 0.0);
        assert_eq!(occupancy_prob(f, 1, 6), 0.0);
    }

    #[test]
    fn fixed_op_is_certain() {
        let f = TimeFrame::new(3, 3);
        assert_eq!(occupancy_prob(f, 2, 3), 1.0);
        assert_eq!(occupancy_prob(f, 2, 4), 1.0);
        assert_eq!(occupancy_prob(f, 2, 5), 0.0);
        assert_eq!(occupancy_prob(f, 2, 2), 0.0);
    }

    #[test]
    fn multicycle_triangle() {
        // Frame [0,1], occupancy 2: busy at 0 with p=1/2, at 1 with p=1,
        // at 2 with p=1/2.
        let f = TimeFrame::new(0, 1);
        assert!((occupancy_prob(f, 2, 0) - 0.5).abs() < 1e-12);
        assert!((occupancy_prob(f, 2, 1) - 1.0).abs() < 1e-12);
        assert!((occupancy_prob(f, 2, 2) - 0.5).abs() < 1e-12);
    }

    /// The run-cached accumulation is bitwise the seed's per-step loop,
    /// and the reported span covers every index it wrote — exhaustively
    /// over small lengths, frames, occupancies and both signs.
    #[test]
    fn accumulate_matches_reference_bitwise() {
        for len in 1..12usize {
            for width in 1..6u32 {
                for asap in 0..6u32 {
                    for occ in 1..4u32 {
                        let f = TimeFrame::new(asap, asap + width - 1);
                        for sign in [1.0, -1.0] {
                            let mut a = vec![0.0625; len];
                            let mut b = a.clone();
                            let (lo, hi) = accumulate(&mut a, f, occ, sign);
                            accumulate_reference(&mut b, f, occ, sign);
                            assert!(lo <= hi && hi <= len, "span must be a valid range");
                            for (t, (x, y)) in a.iter().zip(&b).enumerate() {
                                assert_eq!(
                                    x.to_bits(),
                                    y.to_bits(),
                                    "len {len} frame {f:?} occ {occ} sign {sign} t={t}"
                                );
                                if x.to_bits() != 0.0625f64.to_bits() {
                                    assert!(lo <= t && t < hi, "write at {t} outside span");
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn probabilities_sum_to_occupancy() {
        // Total expected busy time equals the occupancy, independent of the
        // frame width.
        for width in 1..6u32 {
            for occ in 1..4u32 {
                let f = TimeFrame::new(3, 3 + width - 1);
                let total: f64 = (0..20).map(|t| occupancy_prob(f, occ, t)).sum();
                assert!(
                    (total - f64::from(occ)).abs() < 1e-9,
                    "width {width} occ {occ}: {total}"
                );
            }
        }
    }

    #[test]
    fn accumulate_add_then_remove_is_identity() {
        let mut dist = vec![0.0; 10];
        let f = TimeFrame::new(1, 4);
        accumulate(&mut dist, f, 2, 1.0);
        assert!(dist[1] > 0.0 && dist[5] > 0.0);
        accumulate(&mut dist, f, 2, -1.0);
        assert!(dist.iter().all(|&v| v.abs() < 1e-12));
    }

    #[test]
    fn accumulate_clamps_to_dist_len() {
        let mut dist = vec![0.0; 3];
        accumulate(&mut dist, TimeFrame::new(1, 2), 4, 1.0);
        // Would extend to t=5; must not panic and fills what fits.
        assert!(dist[1] > 0.0 && dist[2] > 0.0);
    }
}
