//! Non-uniform period assignments (equations 2–3): harmonic period sets
//! keep the block-start grid fine, while incommensurate periods blow the
//! lcm up — the paper notes that only combinations complying with the
//! grid spacings survive the equation-3 filter.
//!
//! After the hand-picked rows, one more row is the paper's S2 flow itself:
//! every period combination of the three global types that passes the
//! filter is scheduled, and the area-minimal one is reported.

use tcms_bench::{ObsSession, TextTable};
use tcms_core::explore::best_period_assignment_recorded;
use tcms_core::period::{
    candidate_periods, combined_spacing, enumerate_periods, is_harmonic, spacing_feasible,
};
use tcms_core::{ModuloScheduler, SharingSpec};
use tcms_fds::FdsConfig;
use tcms_ir::generators::paper_system;

/// One table row: the periods of add, sub and mul, whether they are
/// harmonic, the grid spacing they imply, and the area cell.
fn row(t: &mut TextTable, rho: [u32; 3], area: String) {
    let harmonic = if is_harmonic(rho.to_vec()) {
        "yes"
    } else {
        "no"
    };
    t.row([
        rho[0].to_string(),
        rho[1].to_string(),
        rho[2].to_string(),
        harmonic.to_owned(),
        combined_spacing(&rho).to_string(),
        area,
    ]);
}

fn main() {
    let obs = ObsSession::from_env_args();
    let (system, types) = paper_system().expect("paper system builds");
    let mut t = TextTable::new();
    t.row([
        "rho(add)", "rho(sub)", "rho(mul)", "harmonic", "spacing", "area",
    ]);
    t.sep();
    for rho in [
        [5u32, 5, 5],
        [2, 2, 4],
        [3, 3, 6],
        [2, 4, 8],
        [5, 5, 15],
        [3, 5, 5],
        [2, 3, 5],
        [4, 6, 8],
    ] {
        let mut spec = SharingSpec::all_local(&system);
        for (k, period) in [types.add, types.sub, types.mul].into_iter().zip(rho) {
            spec.set_global(k, system.users_of_type(k), period);
        }
        if !spacing_feasible(&system, &spec) {
            row(&mut t, rho, "filtered (eq. 3)".to_owned());
            continue;
        }
        let report = ModuloScheduler::new(&system, spec)
            .expect("valid")
            .run_recorded(obs.recorder())
            .expect("paper specs are feasible under an unlimited budget")
            .report();
        row(&mut t, rho, report.total_area().to_string());
    }
    // S2: the full permutation of period candidates with the eq.-3 filter.
    let base = SharingSpec::all_global(&system, 5);
    let globals = base.global_types(&system);
    let cands: Vec<Vec<u32>> = globals
        .iter()
        .map(|&k| candidate_periods(&system, &base, k))
        .collect();
    let combinations: usize = cands.iter().map(Vec::len).product();
    let feasible = enumerate_periods(&system, &base, &globals, &cands, None).len();
    let (best, report) = best_period_assignment_recorded(
        &system,
        &base,
        &FdsConfig::default(),
        None,
        obs.recorder(),
    )
    .expect("the paper system validates")
    .expect("some period assignment passes eq. 3");
    t.sep();
    row(
        &mut t,
        [types.add, types.sub, types.mul].map(|k| best.period(k).expect("global")),
        report.total_area().to_string(),
    );
    println!("Mixed period assignments on the Table-1 system:\n");
    print!("{}", t.render());
    println!("\nHarmonic sets keep the grid equal to the largest period; incommensurate");
    println!("sets multiply the spacing and are filtered once it exceeds the diffeq");
    println!("processes' budget of 15 steps (equation 3).");
    println!("\nThe last row is the area-minimal assignment of the exhaustive S2 search");
    println!(
        "(`best_period_assignment`): {feasible} of {combinations} combinations pass equation 3"
    );
    println!("and are scheduled.");
    obs.finish();
}
