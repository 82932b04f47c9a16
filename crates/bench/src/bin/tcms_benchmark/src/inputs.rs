//! Input generation and pinning.
//!
//! Every workload's design corpus is fixed: the same designs at every
//! seed, so runs with different seeds measure the same amount of work
//! and their spread is the machine's, not the corpus's. The seed drives
//! everything that is drawn: the request order of each one-shot pass,
//! the serve workloads' Zipf request streams and the verifier's
//! activation patterns. [`digest`] hashes the whole generated input set
//! and [`check_pinned`] compares it with `inputs.digest`, so a change to
//! the `tcms-ir` generators cannot silently change a workload.

use std::collections::BTreeSet;

use tcms_ir::canon::{Canonicalization, Fnv64};
use tcms_ir::display::to_dfg;
use tcms_ir::generators::{paper_system, random_system, RandomSystemConfig};

/// Committed input digests: `workload seed fnv64` per line.
const PINNED: &str = include_str!("../inputs.digest");

/// A small deterministic generator (splitmix64).
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one `(seed, stream)` pair.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        #[allow(clippy::cast_precision_loss)]
        {
            (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
        }
    }

    /// A uniformly shuffled `0..n`.
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut order: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            #[allow(clippy::cast_possible_truncation)]
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            order.swap(i, j);
        }
        order
    }
}

/// One scheduling request of a one-shot pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OneShotRequest {
    /// Label used in reports and golden digests.
    pub label: String,
    /// The design text, as a user would submit it.
    pub design: String,
    /// `--all-global` period; `None` is the all-local spec.
    pub all_global: Option<u32>,
}

/// The inputs of a one-shot workload: a fixed request set, run in a
/// seeded order on every pass.
#[derive(Debug, Clone)]
pub struct OneShotInputs {
    /// The requests of one pass, in declaration order.
    pub requests: Vec<OneShotRequest>,
    order_rng: Rng,
}

/// How many pass orders [`digest`] pins; later passes continue the
/// same generator.
const PINNED_PASSES: usize = 64;

impl OneShotInputs {
    fn new(requests: Vec<OneShotRequest>, seed: u64) -> OneShotInputs {
        OneShotInputs {
            requests,
            order_rng: Rng::new(seed, 1),
        }
    }

    /// The request order of the next pass.
    pub fn next_order(&mut self) -> Vec<usize> {
        self.order_rng.permutation(self.requests.len())
    }

    /// fnv64 over the designs, specs and the first pass orders.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv64::new();
        for r in &self.requests {
            h.update(r.label.as_bytes());
            h.update(r.design.as_bytes());
            h.update(&r.all_global.unwrap_or(0).to_le_bytes());
        }
        let mut orders = self.order_rng.clone();
        for _ in 0..PINNED_PASSES {
            for i in orders.permutation(self.requests.len()) {
                h.update(&(i as u64).to_le_bytes());
            }
        }
        h.finish()
    }
}

/// Table 1 of the paper: the five-process system scheduled with all
/// types global at period 5, and all local.
pub fn table1(seed: u64) -> OneShotInputs {
    let (system, _) = paper_system().expect("the paper system builds");
    let design = to_dfg(&system);
    OneShotInputs::new(
        vec![
            OneShotRequest {
                label: "global".into(),
                design: design.clone(),
                all_global: Some(5),
            },
            OneShotRequest {
                label: "local".into(),
                design,
                all_global: None,
            },
        ],
        seed,
    )
}

/// Target sizes of the `synth_scale` designs, in operations.
pub const SYNTH_OPS: [usize; 4] = [80, 120, 160, 200];

/// `synth_scale`: four seeded random designs of growing size over eight
/// processes, each scheduled with every type global at period 4.
pub fn synth_scale(seed: u64) -> OneShotInputs {
    let requests = SYNTH_OPS
        .iter()
        .map(|&ops| {
            let design = random_design(ops, 8, 0x5CA1E + ops as u64);
            OneShotRequest {
                label: format!("s{ops:03}"),
                design,
                all_global: Some(4),
            }
        })
        .collect();
    OneShotInputs::new(requests, seed)
}

/// A layered random design of about `ops` operations over `processes`
/// processes (each layer draws 3..=5 operations, so `ops / processes / 4`
/// layers per process).
fn random_design(ops: usize, processes: usize, generator_seed: u64) -> String {
    let per_process = ops.div_ceil(processes).max(1);
    let config = RandomSystemConfig {
        processes,
        blocks_per_process: 1,
        layers: per_process.div_ceil(4).max(1),
        ops_per_layer: (3, 5),
        edge_prob: 0.35,
        slack: 2.0,
        type_weights: [4, 1, 2],
    };
    let (system, _) = random_system(&config, generator_seed).expect("random systems build");
    to_dfg(&system)
}

/// The inputs of a serve workload: a fixed corpus ranked by popularity
/// and one seeded Zipf request stream per caller.
#[derive(Debug, Clone)]
pub struct ServeInputs {
    /// Designs by popularity rank; the last `broken` ones do not parse.
    pub designs: Vec<String>,
    /// How many designs at the end of `designs` are broken on purpose.
    pub broken: usize,
    /// Per caller, the design rank of each request. A caller stops at
    /// the end of its stream even before the deadline.
    pub streams: Vec<Vec<u16>>,
    /// `--all-global` period of every request.
    pub all_global: u32,
}

impl ServeInputs {
    /// Whether the design at `rank` is broken on purpose.
    pub fn is_broken(&self, rank: usize) -> bool {
        rank + self.broken >= self.designs.len()
    }

    /// fnv64 over the corpus, the spec and every request stream.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv64::new();
        for d in &self.designs {
            h.update(d.as_bytes());
            h.update(b"\0");
        }
        h.update(&self.all_global.to_le_bytes());
        for s in &self.streams {
            for r in s {
                h.update(&r.to_le_bytes());
            }
            h.update(b"\0");
        }
        h.finish()
    }
}

/// Requests drawn per caller: more than a caller completes in a run.
const STREAM_LEN: usize = 1 << 18;

/// `serve_hot`: 32 canonically distinct designs of 20 to 60 operations
/// plus 2 broken ones in the tail ranks, drawn Zipf(1.2).
pub fn serve_hot(seed: u64, callers: usize) -> ServeInputs {
    // Sizes are spread over the ranks so the hot head mixes small and
    // large designs.
    let mut designs = distinct_designs(32, |rank| 20 + (rank * 11 % 32) * 40 / 31, 0x5E_0000);
    designs.push("resource add delay=oops area=1\nprocess P\n".to_owned());
    designs
        .push("resource mul delay=2 area=4 pipelined\nprocess Q\nblock b time=zero\n".to_owned());
    serve_inputs(designs, 2, 1.2, seed, callers)
}

/// `fleet_proxy`: 256 canonically distinct designs of 12 to 24
/// operations, drawn Zipf(0.8).
pub fn fleet_proxy(seed: u64, callers: usize) -> ServeInputs {
    let designs = distinct_designs(256, |rank| 12 + rank * 7 % 13, 0xF1_0000);
    serve_inputs(designs, 0, 0.8, seed, callers)
}

fn serve_inputs(
    designs: Vec<String>,
    broken: usize,
    alpha: f64,
    seed: u64,
    callers: usize,
) -> ServeInputs {
    let cdf = zipf_cdf(designs.len(), alpha);
    let streams = (0..callers)
        .map(|c| {
            let mut rng = Rng::new(seed, 100 + c as u64);
            (0..STREAM_LEN)
                .map(|_| {
                    let u = rng.unit();
                    let rank = cdf.partition_point(|&p| p <= u).min(cdf.len() - 1);
                    u16::try_from(rank).expect("corpus fits u16 ranks")
                })
                .collect()
        })
        .collect();
    ServeInputs {
        designs,
        broken,
        streams,
        all_global: 4,
    }
}

/// `n` random two-process designs with the given sizes whose canonical
/// hashes are pairwise distinct (a collision moves on to the next
/// generator seed, deterministically).
fn distinct_designs(n: usize, ops: impl Fn(usize) -> usize, base_seed: u64) -> Vec<String> {
    let mut seen = BTreeSet::new();
    let mut next_seed = base_seed;
    (0..n)
        .map(|rank| loop {
            next_seed += 1;
            let design = random_design(ops(rank), 2, next_seed);
            let system = tcms_ir::parse::parse_system(&design).expect("generated designs parse");
            if seen.insert(Canonicalization::of(&system).hash()) {
                break design;
            }
        })
        .collect()
}

/// Cumulative Zipf(α) over `n` ranks.
fn zipf_cdf(n: usize, alpha: f64) -> Vec<f64> {
    #[allow(clippy::cast_precision_loss)]
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

/// The committed digest for `(workload, seed)`, if that seed is pinned.
fn pinned(workload: &str, seed: u64) -> Option<u64> {
    PINNED.lines().find_map(|line| {
        let mut fields = line.split_whitespace();
        let (w, s, d) = (fields.next()?, fields.next()?, fields.next()?);
        (w == workload && s.parse::<u64>().ok()? == seed)
            .then(|| u64::from_str_radix(d, 16).ok())
            .flatten()
    })
}

/// Compares a generated input set with its committed digest.
///
/// # Errors
///
/// Describes the mismatch when a pinned seed generated other inputs.
pub fn check_pinned(workload: &str, seed: u64, digest: u64) -> Result<(), String> {
    match pinned(workload, seed) {
        Some(want) if want != digest => Err(format!(
            "inputs of {workload} at seed {seed} hash to {digest:016x}, but inputs.digest pins \
             {want:016x}: the generators changed, so this is no longer the same workload"
        )),
        _ => Ok(()),
    }
}
