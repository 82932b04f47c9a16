//! Seeded synthetic workload generation shared by the serve benchmarks.
//!
//! The replay, load and chaos studies all need the same ingredients: a
//! deterministic stream of request lines drawn from a Zipf-skewed
//! popularity distribution over a pool of synthetic designs. This
//! module owns that machinery — a tiny LCG, the Zipf CDF, the design
//! factory and a percentile helper for latency summaries — so every
//! binary reproduces the identical stream for the same seed.

use tcms_ir::generators::RandomSystemConfig;
use tcms_serve::ScheduleOptions;

/// Sizes the layered-DAG generator so the expected op count lands near
/// `ops` over `processes` processes: each layer draws 3..=5 ops (mean 4)
/// per process. Shared by `gen_designs` and the tests that build the
/// large-design specs, so both produce the same specs for the same
/// sizing flags.
#[must_use]
pub fn scaling_config(ops: usize, processes: usize) -> RandomSystemConfig {
    let per_process = ops.div_ceil(processes).max(1);
    RandomSystemConfig {
        processes,
        blocks_per_process: 1,
        layers: per_process.div_ceil(4).max(1),
        ops_per_layer: (3, 5),
        edge_prob: 0.35,
        slack: 2.0,
        type_weights: [4, 1, 2],
    }
}

/// Advances the 64-bit LCG (Knuth's MMIX constants) and returns the new
/// state.
pub fn lcg_next(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6_364_136_223_846_793_005)
        .wrapping_add(1_442_695_040_888_963_407);
    *state
}

/// Uniform draw in `[0, 1)` from the top 53 bits of the LCG.
#[allow(clippy::cast_precision_loss)]
pub fn uniform01(state: &mut u64) -> f64 {
    (lcg_next(state) >> 11) as f64 / (1u64 << 53) as f64
}

/// Cumulative Zipf(α) distribution over `n` ranks; α = 0 is uniform.
#[allow(clippy::cast_precision_loss)]
#[must_use]
pub fn zipf_cdf(n: usize, alpha: f64) -> Vec<f64> {
    let weights: Vec<f64> = (1..=n).map(|i| (i as f64).powf(-alpha)).collect();
    let total: f64 = weights.iter().sum();
    let mut acc = 0.0;
    weights
        .iter()
        .map(|w| {
            acc += w / total;
            acc
        })
        .collect()
}

/// Draws a rank from a cumulative distribution.
pub fn draw(cdf: &[f64], state: &mut u64) -> usize {
    let u = uniform01(state);
    cdf.iter().position(|&c| u < c).unwrap_or(cdf.len() - 1)
}

/// A small synthetic design; `stages` controls its size and `broken`
/// makes it fail to parse (journals must capture error outcomes too).
#[must_use]
pub fn make_design(stages: usize, broken: bool) -> String {
    if broken {
        return format!("resource add delay=oops stages={stages}");
    }
    let time = 6 + 3 * stages;
    let mut lines = vec![
        "resource add delay=1 area=1".to_owned(),
        "resource mul delay=2 area=4 pipelined".to_owned(),
    ];
    for pname in ["P", "Q"] {
        lines.push(format!("process {pname}"));
        lines.push(format!("block body time={time}"));
        for s in 0..stages {
            lines.push(format!("op m{s} mul"));
            lines.push(format!("op a{s} add"));
        }
        for s in 0..stages {
            lines.push(format!("edge m{s} a{s}"));
            if s > 0 {
                lines.push(format!("edge a{} m{s}", s - 1));
            }
        }
    }
    lines.push(String::new());
    lines.join("\n")
}

/// Generates the synthetic request stream for one skew setting: a pool
/// of `designs` designs, `requests` schedule requests drawn Zipf(α)
/// over the pool. The same arguments always yield the same stream.
#[must_use]
pub fn synthetic_requests(requests: usize, designs: usize, alpha: f64, seed: u64) -> Vec<String> {
    let pool: Vec<String> = (0..designs)
        // The two least-popular ranks are broken designs: the journal
        // and the replay must carry error outcomes too, and placing
        // them in the Zipf tail keeps the hot set all-valid so the
        // hit-rate-vs-skew comparison stays clean.
        .map(|d| make_design(2 + d % 4, d + 2 >= designs))
        .collect();
    let cdf = zipf_cdf(designs, alpha);
    let mut state = seed ^ 0x9e37_79b9_7f4a_7c15;
    (0..requests)
        .map(|r| {
            let design = &pool[draw(&cdf, &mut state)];
            tcms_serve::client::schedule_request_line(
                &format!("r{r}"),
                design,
                &ScheduleOptions {
                    all_global: Some(4),
                    ..ScheduleOptions::default()
                },
                None,
            )
        })
        .collect()
}

/// Nearest-rank percentile of an ascending-sorted sample; 0 when empty.
#[must_use]
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    #[allow(
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss,
        clippy::cast_precision_loss
    )]
    let idx = (((sorted.len() - 1) as f64) * q).round() as usize;
    sorted[idx]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_is_deterministic_per_seed() {
        let a = synthetic_requests(40, 8, 1.2, 7);
        let b = synthetic_requests(40, 8, 1.2, 7);
        assert_eq!(a, b);
        let c = synthetic_requests(40, 8, 1.2, 8);
        assert_ne!(a, c, "a different seed reorders the stream");
    }

    #[test]
    fn zipf_cdf_is_monotone_and_normalised() {
        let cdf = zipf_cdf(16, 1.2);
        assert!(cdf.windows(2).all(|w| w[0] <= w[1]));
        assert!((cdf.last().unwrap() - 1.0).abs() < 1e-9);
        // Uniform skew spreads mass evenly.
        let flat = zipf_cdf(4, 0.0);
        assert!((flat[0] - 0.25).abs() < 1e-9);
    }

    #[test]
    fn skew_concentrates_draws_on_low_ranks() {
        let mut state = 3u64;
        let cdf = zipf_cdf(10, 1.5);
        let hot = (0..500).filter(|_| draw(&cdf, &mut state) == 0).count();
        assert!(hot > 150, "rank 0 drew only {hot}/500 under heavy skew");
    }

    #[test]
    fn designs_parse_unless_broken() {
        assert!(tcms_ir::parse::parse_system(&make_design(3, false)).is_ok());
        assert!(tcms_ir::parse::parse_system(&make_design(3, true)).is_err());
    }

    #[test]
    fn percentile_takes_nearest_rank() {
        let s = [1.0, 2.0, 3.0, 4.0];
        assert!((percentile(&s, 0.0) - 1.0).abs() < f64::EPSILON);
        assert!((percentile(&s, 1.0) - 4.0).abs() < f64::EPSILON);
        assert!((percentile(&[], 0.5)).abs() < f64::EPSILON);
    }
}
