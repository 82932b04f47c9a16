//! The machine-speed probe that `op_ms_p50_ref` is scaled by.
//!
//! The reference machine shares its cores, caches and memory with other
//! tenants, and its speed drifts by tens of percent within minutes
//! (README, "Steadiness"). Every seed of a workload measures the same
//! work, so that drift is nearly all of the spread between runs. The
//! probe times a fixed memory-bound kernel, benchmark code that no
//! change to the program can make faster or slower, throughout the
//! timed phase but only while the program is idle: after every one-shot
//! pass, and between the segments of a serve workload, while its callers
//! wait. Beside the load, the program's own threads would slow the probe
//! and hide a regression. Scaling the median operation time by
//! `REFERENCE_MS / probe` gives the time the operation would take on the
//! reference machine at its usual speed.

use std::time::Instant;

use crate::stats::median;

/// The probe's usual time on the reference machine (2 vCPUs of an
/// Intel Xeon at 2.0 GHz shared with other tenants), in ms.
pub const REFERENCE_MS: f64 = 6.0;

/// Words of the probe's buffer: 8 MiB, more than the reference
/// machine's share of the last-level cache, so the kernel feels the
/// cache and memory contention the workloads feel.
const WORDS: usize = 1 << 20;

/// Random read-modify-writes per probe.
const STEPS: usize = 600_000;

/// The probe's buffer in MiB. It stays resident for the whole run, so
/// `peak_rss_mb` subtracts it.
#[allow(clippy::cast_precision_loss)]
pub const BUFFER_MIB: f64 = (WORDS * 8) as f64 / (1 << 20) as f64;

/// A probe and the times it measured.
#[derive(Debug)]
pub struct Probe {
    buf: Vec<u64>,
    samples_ms: Vec<f64>,
}

impl Probe {
    /// Allocates and touches the buffer. Create it before the workload
    /// sets up, so it is resident whenever the peak memory is read.
    pub fn new() -> Probe {
        Probe {
            buf: vec![1; WORDS],
            samples_ms: Vec::new(),
        }
    }

    /// Times the kernel `n` times on this thread.
    pub fn sample(&mut self, n: usize) {
        for _ in 0..n {
            let start = Instant::now();
            std::hint::black_box(kernel(std::hint::black_box(&mut self.buf)));
            self.samples_ms.push(start.elapsed().as_secs_f64() * 1e3);
        }
    }

    /// Median probe time in ms, and how many probes it summarizes.
    pub fn median_ms(&self) -> (f64, u64) {
        (
            median(&self.samples_ms).unwrap_or(REFERENCE_MS),
            self.samples_ms.len() as u64,
        )
    }
}

/// Pseudo-random read-modify-writes over the buffer: each address
/// depends on the step count only, each value on the previous one.
fn kernel(buf: &mut [u64]) -> u64 {
    let mut i = 1usize;
    let mut sum = 0u64;
    for _ in 0..STEPS {
        i = i
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407)
            % buf.len();
        sum = sum.wrapping_add(buf[i]);
        buf[i] = sum;
    }
    sum
}

/// `raw_ms` at the reference machine's usual speed, given the median
/// probe time measured beside it.
pub fn at_reference(raw_ms: f64, probe_ms: f64) -> f64 {
    if probe_ms > 0.0 {
        raw_ms * REFERENCE_MS / probe_ms
    } else {
        raw_ms
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn times_scale_by_the_probe() {
        // A machine running the probe at half speed doubles the probe
        // time; the scaled operation time stays where it was.
        assert!((at_reference(30.0, 2.0 * REFERENCE_MS) - 15.0).abs() < 1e-12);
        assert!((at_reference(15.0, REFERENCE_MS) - 15.0).abs() < 1e-12);
        assert!((at_reference(15.0, 0.0) - 15.0).abs() < 1e-12);
    }

    #[test]
    fn the_probe_records_its_samples() {
        let mut p = Probe::new();
        p.sample(3);
        let (ms, n) = p.median_ms();
        assert_eq!(n, 3);
        assert!(ms > 0.0);
    }
}
