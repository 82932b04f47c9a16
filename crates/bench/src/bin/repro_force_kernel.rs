//! Force-kernel microbenchmark: the production batch, the scalar force and
//! the from-scratch oracle, on the Table-1 design.
//!
//! ```text
//! repro_force_kernel [--rounds N] [--out FILE]
//! ```
//!
//! Three ways of scoring the same candidate set are timed:
//!
//! * **batched** — `ModuloEvaluator::force_batch` with a term log, the
//!   exact call the IFDS engine makes: slab kernels with scratch, sibling
//!   profiles, removal terms and boundary tables shared across the set.
//! * **scalar** — `ModuloEvaluator::force`, the slab kernels with
//!   per-call scratch.
//! * **naive** — `ModuloEvaluator::force_naive`, the oracle that rebuilds
//!   the whole field per candidate (behind the `naive-oracle` feature).
//!   It is timed over `rounds / 20` sweeps (at least one), recorded as
//!   `naive_sweeps`.
//!
//! All three scores of every candidate are asserted bit-identical before
//! anything is timed — a fast-but-wrong kernel fails loudly. The summary
//! lands in `BENCH_kernel.json` (per-force ns, folds/s, ratios). A run
//! with fewer rounds than the default is a smoke run: it may only write a
//! report named `*_quick.json`, so it never overwrites a full run's
//! numbers.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use tcms_bench::paper_spec;
use tcms_core::ModuloEvaluator;
use tcms_fds::{Candidate, FdsConfig, ForceEvaluator, TermLog};
use tcms_ir::generators::paper_system;
use tcms_ir::{FrameTable, OpId, TimeFrame};
use tcms_obs::json::{self, JsonValue};

/// Sweeps per timed path in a full run.
const DEFAULT_ROUNDS: usize = 200;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut rounds = DEFAULT_ROUNDS;
    let mut out_path = "BENCH_kernel.json".to_owned();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--rounds" => {
                rounds = it
                    .next()
                    .expect("--rounds needs a count")
                    .parse()
                    .expect("--rounds needs a number");
            }
            "--out" => {
                out_path = it.next().expect("--out needs a path").clone();
            }
            other => panic!("unknown flag `{other}`"),
        }
    }
    assert!(rounds > 0, "--rounds must be positive");
    let stem = Path::new(&out_path)
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or("");
    assert!(
        rounds >= DEFAULT_ROUNDS || stem.ends_with("_quick"),
        "refusing to write a {rounds}-round report to {out_path} \
         (runs below {DEFAULT_ROUNDS} rounds must be named *_quick.json)"
    );
    let naive_sweeps = (rounds / 20).max(1);

    let (system, _) = paper_system().expect("paper system builds");
    let spec = paper_spec(&system);
    let frames = FrameTable::initial(&system);
    let eval = ModuloEvaluator::new(&system, spec, FdsConfig::default(), &frames);

    // The candidate set of one full engine sweep: every feasible start
    // slot of every operation — the batch shape the engine's candidate
    // scoring and the exact-search bounds evaluate.
    let mut candidates: Vec<Vec<(OpId, TimeFrame)>> = Vec::new();
    for o in system.op_ids() {
        let fr = frames.get(o);
        for t in fr.asap..=fr.alap {
            candidates.push(vec![(o, TimeFrame::new(t, t))]);
        }
    }
    let views: Vec<&[(OpId, TimeFrame)]> = candidates.iter().map(|c| c.as_slice()).collect();

    // Correctness before speed: all three paths must agree bitwise.
    let mut log = TermLog::default();
    let batched_scores = eval.force_batch(
        &frames,
        views.iter().copied().map(Candidate::Changes),
        &mut log,
    );
    for (i, cand) in views.iter().enumerate() {
        let scalar = eval.force(&frames, cand);
        let naive = eval.force_naive(&frames, cand);
        assert_eq!(
            batched_scores[i].to_bits(),
            scalar.to_bits(),
            "candidate {i}: batched vs scalar"
        );
        assert_eq!(
            scalar.to_bits(),
            naive.to_bits(),
            "candidate {i}: scalar vs naive"
        );
    }

    // Each path scores full sweeps; best-of-sweeps per-force time
    // (minimum is the right statistic — noise only adds time).
    let time_sweep = |sweeps: usize, f: &mut dyn FnMut() -> f64| -> f64 {
        let mut best = f64::INFINITY;
        let mut acc = 0.0;
        for _ in 0..sweeps {
            let started = Instant::now();
            acc += f();
            best = best.min(started.elapsed().as_secs_f64());
        }
        sink_guard(acc);
        best
    };

    let n = views.len() as f64;
    let naive_sweep = time_sweep(naive_sweeps, &mut || {
        views.iter().map(|c| eval.force_naive(&frames, c)).sum()
    });
    let scalar_sweep = time_sweep(rounds, &mut || {
        views.iter().map(|c| eval.force(&frames, c)).sum()
    });
    let batched_sweep = time_sweep(rounds, &mut || {
        log.clear();
        eval.force_batch(
            &frames,
            views.iter().copied().map(Candidate::Changes),
            &mut log,
        )
        .iter()
        .sum()
    });

    let naive_ns = naive_sweep * 1e9 / n;
    let scalar_ns = scalar_sweep * 1e9 / n;
    let batched_ns = batched_sweep * 1e9 / n;
    // One modified-force candidate performs one fused modulo fold per
    // touched (block, type) pair; single-op candidates touch exactly one.
    let folds_per_s = n / batched_sweep;
    let batched_vs_scalar = scalar_ns / batched_ns;

    println!(
        "force kernel on table1 design ({} ops, {} candidates, best of {rounds} sweeps):",
        system.num_ops(),
        views.len()
    );
    println!("  batched (engine call, shared sweep): {batched_ns:11.1} ns/force");
    println!("  scalar  (per-candidate force)      : {scalar_ns:11.1} ns/force");
    println!(
        "  naive   (field rebuilt per force)  : {naive_ns:11.1} ns/force \
         (best of {naive_sweeps} sweeps)"
    );
    println!("  fused folds: {folds_per_s:.0}/s   batched vs scalar: {batched_vs_scalar:.2}x");

    assert!(
        batched_vs_scalar > 1.0,
        "batched evaluation must beat per-candidate scalar evaluation \
         ({batched_ns:.1} ns vs {scalar_ns:.1} ns)"
    );

    let num = |v: f64| JsonValue::Number(v);
    let mut doc = BTreeMap::new();
    doc.insert(
        "benchmark".to_owned(),
        JsonValue::String("force_kernel".to_owned()),
    );
    doc.insert(
        "design".to_owned(),
        JsonValue::String("table1_paper_system".to_owned()),
    );
    #[allow(clippy::cast_precision_loss)]
    doc.insert("ops".to_owned(), num(system.num_ops() as f64));
    doc.insert("candidates".to_owned(), num(n));
    #[allow(clippy::cast_precision_loss)]
    doc.insert("rounds".to_owned(), num(rounds as f64));
    #[allow(clippy::cast_precision_loss)]
    doc.insert("naive_sweeps".to_owned(), num(naive_sweeps as f64));
    doc.insert("naive_ns_per_force".to_owned(), num(naive_ns));
    doc.insert("scalar_ns_per_force".to_owned(), num(scalar_ns));
    doc.insert("batched_ns_per_force".to_owned(), num(batched_ns));
    doc.insert("folds_per_s".to_owned(), num(folds_per_s));
    doc.insert("ratio_batched_vs_scalar".to_owned(), num(batched_vs_scalar));
    doc.insert("bit_identical".to_owned(), JsonValue::Bool(true));
    let rendered = format!("{}\n", json::to_string(&JsonValue::Object(doc)));
    json::parse(&rendered).expect("valid JSON report");
    std::fs::write(&out_path, rendered).expect("write report");
    println!("report written to {out_path}");
}

/// Keeps the summed forces observable so the optimizer cannot delete the
/// timed work.
#[inline(never)]
fn sink_guard(v: f64) {
    assert!(v.is_finite(), "forces must stay finite");
}
