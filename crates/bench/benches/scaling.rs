//! Criterion bench: coupled scheduling cost vs. process count, plus the
//! thread-scaling study of the parallel force sweeps (1/2/4/8 workers,
//! results bit-identical by construction — see EXPERIMENTS.md for the
//! recorded numbers).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use tcms_core::{ModuloScheduler, SharingSpec};
use tcms_ir::generators::{random_system, RandomSystemConfig};

/// Thread counts of the scaling study. On boxes with fewer cores the
/// higher counts oversubscribe; the bench still runs (and still must
/// produce identical schedules) — the wall-clock column just flattens.
const THREADS: [usize; 4] = [1, 2, 4, 8];

fn bench_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("scaling");
    group.sample_size(10);
    for processes in [2usize, 4, 8] {
        let cfg = RandomSystemConfig {
            processes,
            ..RandomSystemConfig::default()
        };
        let (system, _) = random_system(&cfg, 42).expect("feasible");
        group.bench_with_input(
            BenchmarkId::from_parameter(processes),
            &processes,
            |b, _| {
                b.iter(|| {
                    let spec = SharingSpec::all_global(&system, 4);
                    let out = ModuloScheduler::new(&system, spec)
                        .expect("valid")
                        .run()
                        .unwrap();
                    black_box(out.iterations)
                })
            },
        );
    }
    group.finish();
}

/// Coupled run of an 8-process system at each worker-thread count.
fn bench_coupled_threads(c: &mut Criterion) {
    let cfg = RandomSystemConfig {
        processes: 8,
        ..RandomSystemConfig::default()
    };
    let (system, _) = random_system(&cfg, 42).expect("feasible");
    let mut group = c.benchmark_group("coupled_threads");
    group.sample_size(10);
    let reference = {
        rayon::set_num_threads(1);
        let out = ModuloScheduler::new(&system, SharingSpec::all_global(&system, 4))
            .expect("valid")
            .run()
            .unwrap();
        out.schedule
    };
    for threads in THREADS {
        group.bench_with_input(BenchmarkId::from_parameter(threads), &threads, |b, &n| {
            rayon::set_num_threads(n);
            b.iter(|| {
                let spec = SharingSpec::all_global(&system, 4);
                let out = ModuloScheduler::new(&system, spec)
                    .expect("valid")
                    .run()
                    .unwrap();
                assert_eq!(out.schedule, reference, "threads={n} must be bit-identical");
                black_box(out.iterations)
            })
        });
    }
    group.finish();
    rayon::set_num_threads(0);
}

criterion_group!(benches, bench_scaling, bench_coupled_threads);
criterion_main!(benches);
