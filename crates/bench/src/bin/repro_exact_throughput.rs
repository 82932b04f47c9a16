//! Exact-search node throughput across system sizes.
//!
//! The branch-and-bound's admissible bound is maintained incrementally
//! on DFS push/pop (DESIGN.md §8); its per-node cost no longer grows
//! with `ops × time_range`. Running this study against a build of the
//! from-scratch bound shows the gap widening with system size — the
//! per-node win is superlinear, not a constant factor.
//!
//! ```text
//! repro_exact_throughput [--node-cap N]
//! ```

use std::time::Instant;

use tcms_core::exact::exact_schedule;
use tcms_core::SharingSpec;
use tcms_ir::generators::{random_system, RandomSystemConfig};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut node_cap = 50_000_000u64;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--node-cap" => {
                node_cap = it
                    .next()
                    .expect("--node-cap needs a count")
                    .parse()
                    .expect("--node-cap needs a number");
            }
            other => panic!("unknown flag `{other}`"),
        }
    }

    println!("layers  ops  seed      nodes  complete       wall    nodes/s");
    for &(layers, per_layer) in &[(2, 2), (3, 2), (4, 2), (4, 3), (5, 3)] {
        let cfg = RandomSystemConfig {
            processes: 2,
            blocks_per_process: 1,
            layers,
            ops_per_layer: (per_layer, per_layer),
            edge_prob: 0.5,
            slack: 2.0,
            type_weights: [2, 1, 2],
        };
        for seed in 0..5u64 {
            let (sys, _) = random_system(&cfg, seed).expect("feasible");
            let spec = SharingSpec::all_global(&sys, 2);
            if !tcms_core::period::spacing_feasible(&sys, &spec) {
                continue;
            }
            let started = Instant::now();
            let Some(out) = exact_schedule(&sys, &spec, node_cap).expect("valid spec") else {
                continue;
            };
            let wall = started.elapsed();
            println!(
                "{:>6}  {:>3}  {:>4}  {:>9}  {:>8}  {:>9.3?}  {:>9.0}",
                layers,
                sys.num_ops(),
                seed,
                out.nodes,
                out.complete,
                wall,
                out.nodes as f64 / wall.as_secs_f64()
            );
        }
    }
}
