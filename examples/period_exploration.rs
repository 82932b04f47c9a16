//! Design-space exploration: the §3.2 period trade-off and the exhaustive
//! period enumeration (S2) of the paper's implementation.
//!
//! Run with `cargo run --release --example period_exploration`.

use tcms::fds::FdsConfig;
use tcms::ir::generators::paper_system;
use tcms::modulo::explore::{best_period_assignment, sweep_uniform_periods};
use tcms::modulo::SharingSpec;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let (system, types) = paper_system()?;
    let config = FdsConfig::default();

    println!("uniform period sweep (global +,-,* over their users):");
    println!("period  add  sub  mul  area");
    for p in sweep_uniform_periods(&system, [1, 2, 3, 5, 10, 15], &config)? {
        println!(
            "{:>6}  {:>3}  {:>3}  {:>3}  {:>4}",
            p.period,
            p.report.instances(types.add),
            p.report.instances(types.sub),
            p.report.instances(types.mul),
            p.report.total_area()
        );
    }

    // S2 as the paper runs it: every period candidate that passes the
    // equation-3 filter is scheduled and the smallest area wins. Only the
    // multiplier is global here, which keeps the example to its 15
    // candidates; `repro_mixed_periods` runs all three global types.
    let mut base = SharingSpec::all_local(&system);
    base.set_global(types.mul, system.users_of_type(types.mul), 5);
    if let Some((spec, report)) = best_period_assignment(&system, &base, &config, None)? {
        println!(
            "\nexhaustive period search over the multiplier: best period {} -> area {}",
            spec.period(types.mul).expect("mul global"),
            report.total_area()
        );
    }
    Ok(())
}
