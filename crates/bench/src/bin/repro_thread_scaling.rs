//! Thread-scaling study: wall time of (a) the Table-1 coupled global
//! run and (b) the exact branch-and-bound search at 1/2/4/8 worker
//! threads and at the automatic count, asserting that every result is
//! bit-identical to the one-thread reference. The exact search is
//! sequential, so its rows check that the thread count changes neither
//! its outcome (node count included) nor its speed.
//!
//! ```text
//! repro_thread_scaling [--repeats N] [--threads-list 1,2,4,8]
//! ```
//!
//! Each row reports the best-of-N wall time (minimum is the right
//! statistic for a determinism-preserving speedup study — noise only
//! adds time). On machines with fewer cores than the requested thread
//! count the rows flatten or regress; the identity assertions still
//! hold, which is the point of the deterministic design.
//!
//! The last row of each study, `threads=auto (N)`, clears the override
//! and runs the default path every caller without `--threads` takes:
//! `TCMS_THREADS` if set, else the detected count, `N` being what it
//! resolved to.

use std::time::{Duration, Instant};

use tcms_bench::paper_spec;
use tcms_core::exact::exact_schedule;
use tcms_core::{ModuloScheduler, SharingSpec};
use tcms_ir::generators::{paper_system, random_system, RandomSystemConfig};

/// Sets the row's thread count and names it: the count itself, or
/// `auto (N)` with the count the default path resolved to.
fn select(n: usize) -> String {
    rayon::set_num_threads(n);
    match n {
        0 => format!("auto ({})", rayon::current_num_threads()),
        n => n.to_string(),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut repeats = 3usize;
    let mut thread_list = vec![1usize, 2, 4, 8];
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--repeats" => {
                repeats = it
                    .next()
                    .expect("--repeats needs a count")
                    .parse()
                    .expect("--repeats needs a number");
            }
            "--threads-list" => {
                thread_list = it
                    .next()
                    .expect("--threads-list needs a comma-separated list")
                    .split(',')
                    .map(|s| s.trim().parse().expect("bad thread count"))
                    .collect();
            }
            other => panic!("unknown flag `{other}`"),
        }
    }
    assert!(repeats > 0, "--repeats must be positive");
    assert!(
        thread_list.contains(&1),
        "the list must include 1 (the sequential reference)"
    );
    // The last row clears the override: the default path.
    thread_list.push(0);

    println!(
        "available parallelism: {}",
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    );

    // (a) Table-1 coupled global run.
    let (system, _) = paper_system().expect("paper system builds");
    let spec = paper_spec(&system);
    rayon::set_num_threads(1);
    let reference = ModuloScheduler::new(&system, spec.clone())
        .expect("valid spec")
        .run()
        .expect("feasible");
    println!("\ncoupled table1 global run ({} ops):", system.num_ops());
    let mut base = Duration::ZERO;
    for &n in &thread_list {
        let label = select(n);
        let mut best = Duration::MAX;
        for _ in 0..repeats {
            let started = Instant::now();
            let out = ModuloScheduler::new(&system, spec.clone())
                .expect("valid spec")
                .run()
                .expect("feasible");
            best = best.min(started.elapsed());
            assert_eq!(
                out.schedule, reference.schedule,
                "threads={label}: coupled schedule must be bit-identical"
            );
        }
        if n == 1 {
            base = best;
        }
        println!(
            "  threads={label}: best-of-{repeats} {best:?}  speedup {:.2}x  identical=yes",
            base.as_secs_f64() / best.as_secs_f64()
        );
    }

    // (b) Exact branch-and-bound on a random two-process system small
    // enough to complete (truncated searches are not comparable).
    let cfg = RandomSystemConfig {
        processes: 2,
        blocks_per_process: 1,
        layers: 4,
        ops_per_layer: (2, 2),
        edge_prob: 0.5,
        slack: 2.0,
        type_weights: [2, 1, 2],
    };
    let (sys, _) = random_system(&cfg, 0).expect("feasible");
    let espec = SharingSpec::all_global(&sys, 2);
    rayon::set_num_threads(1);
    let eref = exact_schedule(&sys, &espec, 50_000_000)
        .expect("valid spec")
        .expect("feasible");
    assert!(eref.complete, "study case must fit the node limit");
    println!(
        "\nexact search ({} ops, {} nodes sequential):",
        sys.num_ops(),
        eref.nodes
    );
    let mut ebase = Duration::ZERO;
    for &n in &thread_list {
        let label = select(n);
        let mut best = Duration::MAX;
        let mut nodes = 0u64;
        for _ in 0..repeats {
            let started = Instant::now();
            let out = exact_schedule(&sys, &espec, 50_000_000)
                .expect("valid spec")
                .expect("feasible");
            best = best.min(started.elapsed());
            nodes = out.nodes;
            assert_eq!(
                out, eref,
                "threads={label}: exact optimum must be bit-identical"
            );
        }
        if n == 1 {
            ebase = best;
        }
        println!(
            "  threads={label}: best-of-{repeats} {best:?}  {:.0} nodes/s  speedup {:.2}x  identical=yes",
            nodes as f64 / best.as_secs_f64(),
            ebase.as_secs_f64() / best.as_secs_f64()
        );
    }
}
