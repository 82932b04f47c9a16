//! Reusable experiment runners shared by the `repro_*` binaries, the
//! criterion benches and the integration tests.

use std::time::{Duration, Instant};

use tcms_core::{compute_report, ModuloScheduler, ScheduleReport, SharingSpec};
use tcms_fds::{FdsConfig, ForceEvaluator, IfdsStats, Schedule};
use tcms_ir::generators::{paper_system, PaperTypes};
use tcms_ir::{FrameTable, System, TimeFrame};
use tcms_obs::{span, NoopRecorder, Recorder};

use crate::table::{float_profile, profile, TextTable};

/// The paper's sharing configuration: adder and multiplier global over all
/// five processes, subtracter global over the two diffeq processes, every
/// period 5. (`all_global` derives exactly these groups from the usage
/// sets.)
pub fn paper_spec(system: &System) -> SharingSpec {
    SharingSpec::all_global(system, 5)
}

/// One scheduling run of the Table-1 comparison.
#[derive(Debug, Clone)]
pub struct Table1Run {
    /// `"global"` or `"local"`.
    pub label: &'static str,
    /// The spec the run used.
    pub spec: SharingSpec,
    /// The produced schedule.
    pub schedule: Schedule,
    /// Resource/area accounting.
    pub report: ScheduleReport,
    /// IFDS iterations.
    pub iterations: u64,
    /// Wall-clock scheduling time.
    pub wall: Duration,
    /// Engine instrumentation (candidate evaluations, cache hits, phase
    /// times).
    pub stats: IfdsStats,
}

/// Whether the invoking binary was passed `--stats` (print engine
/// instrumentation alongside the reproduction output).
pub fn stats_requested() -> bool {
    std::env::args().any(|a| a == "--stats")
}

/// Renders one engine-instrumentation line for the `--stats` output of the
/// `repro_*` binaries.
pub fn render_stats(label: &str, stats: &IfdsStats) -> String {
    format!(
        "{label}: {} iterations, {} forces evaluated, {} cache hits ({} re-summed) / {} misses ({:.1}% hit rate), eval {:.2?}, commit {:.2?}, total {:.2?}\n",
        stats.iterations,
        stats.ops_evaluated,
        stats.cache_hits,
        stats.resums,
        stats.cache_misses,
        100.0 * stats.hit_rate(),
        stats.eval_time,
        stats.commit_time,
        stats.total_time,
    )
}

/// Both runs of the Table-1 experiment.
#[derive(Debug, Clone)]
pub struct Table1Results {
    /// The 5-process benchmark system.
    pub system: System,
    /// Operator-set handles.
    pub types: PaperTypes,
    /// Modulo scheduling with the paper's global assignment.
    pub global: Table1Run,
    /// Traditional pure-local scheduling.
    pub local: Table1Run,
}

impl Table1Results {
    /// Area ratio local/global (the paper reports ≈ 1.65).
    pub fn area_ratio(&self) -> f64 {
        self.local.report.total_area() as f64 / self.global.report.total_area() as f64
    }

    /// Relative saving (the paper reports ≈ 40 %).
    pub fn saving_percent(&self) -> f64 {
        100.0
            * (1.0 - self.global.report.total_area() as f64 / self.local.report.total_area() as f64)
    }
}

fn timed_run(
    system: &System,
    spec: SharingSpec,
    label: &'static str,
    rec: &dyn Recorder,
) -> Table1Run {
    let _run = span!(rec, "table1.run", label = label);
    let start = Instant::now();
    let out = ModuloScheduler::new(system, spec.clone())
        .expect("valid spec")
        .run_recorded(rec)
        .expect("paper specs are feasible under an unlimited budget");
    let wall = start.elapsed();
    Table1Run {
        label,
        spec,
        report: out.report(),
        iterations: out.iterations,
        stats: out.stats,
        schedule: out.schedule,
        wall,
    }
}

/// Runs the full Table-1 experiment (global vs. pure-local).
pub fn run_table1() -> Table1Results {
    run_table1_recorded(&NoopRecorder)
}

/// [`run_table1`] with observability: each of the two scheduling runs is
/// wrapped in a `"table1.run"` span and records its full S3 convergence
/// timeline through `rec`. Results are identical to [`run_table1`].
pub fn run_table1_recorded(rec: &dyn Recorder) -> Table1Results {
    let (system, types) = paper_system().expect("paper system builds");
    let global = timed_run(&system, paper_spec(&system), "global", rec);
    let local = timed_run(&system, SharingSpec::all_local(&system), "local", rec);
    Table1Results {
        system,
        types,
        global,
        local,
    }
}

/// Renders the Table-1 experiment in the paper's layout: per resource type
/// and process the modulo-max transformed usage profile and the resource
/// counts, followed by the totals and runtimes.
pub fn render_table1(r: &Table1Results) -> String {
    let sys = &r.system;
    let mut t = TextTable::new();
    t.row([
        "type",
        "process",
        "modulo-max profile",
        "#",
        "usage profile",
    ]);
    t.sep();
    for (k, rt) in sys.library().iter() {
        let auth = r.global.report.of_type(k).authorization.as_ref();
        if let Some(auth) = auth {
            for (p, grants) in auth.grants() {
                let block = sys.process(*p).blocks()[0];
                let usage = r.global.schedule.usage(sys, block, k);
                t.row([
                    rt.name().to_owned(),
                    sys.process(*p).name().to_owned(),
                    profile(grants),
                    String::new(),
                    profile(&usage),
                ]);
            }
            t.row([
                rt.name().to_owned(),
                "all".to_owned(),
                profile(&auth.slot_totals()),
                auth.pool().to_string(),
                String::new(),
            ]);
            t.sep();
        }
    }
    let mut out = String::from("Table 1: scheduling results of the multi-process example\n\n");
    out.push_str(&t.render());
    out.push('\n');
    for run in [&r.global, &r.local] {
        let counts: Vec<String> = sys
            .library()
            .iter()
            .map(|(k, rt)| format!("{} {}", run.report.instances(k), rt.name()))
            .collect();
        out.push_str(&format!(
            "{:<6} assignment: {}  area {:>3}  ({} iterations, {:.2?})\n",
            run.label,
            counts.join(", "),
            run.report.total_area(),
            run.iterations,
            run.wall
        ));
    }
    out.push_str(&format!(
        "\nlocal/global area ratio {:.2} (paper: 1.65)   saving {:.0}% (paper: ~40%)\n",
        r.area_ratio(),
        r.saving_percent()
    ));
    out
}

/// Data of the Figure-1 reproduction: the access-authorization mapping of
/// one process onto a shared resource type.
#[derive(Debug, Clone)]
pub struct Figure1Data {
    /// Block-local usage profile of the chosen process and type.
    pub usage: Vec<u32>,
    /// The folded (modulo-max) profile = granted units per slot.
    pub grants: Vec<u32>,
    /// Period of the type.
    pub period: u32,
    /// Absolute time steps (up to a horizon) at which the process holds an
    /// authorization.
    pub authorized_steps: Vec<u64>,
    /// The rendered figure.
    pub rendered: String,
}

/// Reproduces Figure 1 for the paper system: process P4 (diffeq) on the
/// shared multiplier, period 5.
pub fn run_figure1() -> Figure1Data {
    run_figure1_recorded(&NoopRecorder)
}

/// [`run_figure1`] with observability: the scheduling run records its S3
/// convergence through `rec` under a `"figure1.run"` span.
pub fn run_figure1_recorded(rec: &dyn Recorder) -> Figure1Data {
    let _fig = span!(rec, "figure1.run");
    let (system, types) = paper_system().expect("paper system builds");
    let spec = paper_spec(&system);
    let out = ModuloScheduler::new(&system, spec.clone())
        .expect("valid spec")
        .run_recorded(rec)
        .expect("paper specs are feasible under an unlimited budget");
    let p4 = system.process_by_name("P4").expect("paper process");
    let block = system.process(p4).blocks()[0];
    let usage = out.schedule.usage(&system, block, types.mul);
    let report = compute_report(&system, &spec, &out.schedule);
    let auth = report
        .of_type(types.mul)
        .authorization
        .as_ref()
        .expect("mul is global");
    let grants: Vec<u32> = (0..5).map(|s| auth.granted(p4, s)).collect();
    let horizon = 20u64;
    let authorized_steps: Vec<u64> = (0..horizon)
        .filter(|&t| auth.granted_at(p4, t) > 0)
        .collect();

    let mut rendered = String::from(
        "Figure 1: time steps of access authorization for process P4 onto the shared multiplier\n\n",
    );
    rendered.push_str(&format!("block-local usage     : {}\n", profile(&usage)));
    rendered.push_str(&format!("granted per slot (ρ=5): {}\n\n", profile(&grants)));
    rendered.push_str("absolute time: ");
    for t in 0..horizon {
        rendered.push_str(&format!("{:>3}", t % 10));
    }
    rendered.push_str("\nauthorized   : ");
    for t in 0..horizon {
        if auth.granted_at(p4, t) > 0 {
            rendered.push_str("  ~");
        } else {
            rendered.push_str("  .");
        }
    }
    rendered.push_str("\n\nA grant for slot τ holds at every absolute step t with t mod 5 = τ.\n");
    Figure1Data {
        usage,
        grants,
        period: 5,
        authorized_steps,
        rendered,
    }
}

/// Data of the Figure-2 reproduction: per-placement forces of the
/// unmodified and the first-part-modified algorithm on the two-operation
/// block.
#[derive(Debug, Clone)]
pub struct Figure2Data {
    /// Candidate start times of the mobile operation.
    pub candidates: Vec<u32>,
    /// Classical forces per candidate.
    pub unmodified: Vec<f64>,
    /// Modulo-modified forces per candidate.
    pub modified: Vec<f64>,
    /// The distribution `D(t)` of the partial solution.
    pub dist: Vec<f64>,
    /// Its modulo-max transform `D̂(τ)`.
    pub dhat: Vec<f64>,
    /// The rendered figure.
    pub rendered: String,
}

/// Reproduces the Figure-2 situation: a block of time range 4 with one
/// operation fixed at step 0 and one mobile operation with frame `[0,2]`,
/// period 2. The unmodified algorithm rates steps 1 and 2 identically; the
/// modification hides the displacement of step 2 under the slot maximum
/// and prefers the periodic alignment.
pub fn run_figure2() -> Figure2Data {
    run_figure2_recorded(&NoopRecorder)
}

/// [`run_figure2`] with observability: the per-candidate force ratings are
/// recorded as `"figure2.force"` events under a `"figure2.run"` span.
pub fn run_figure2_recorded(rec: &dyn Recorder) -> Figure2Data {
    let _fig = span!(rec, "figure2.run");
    use tcms_core::ModuloEvaluator;
    use tcms_fds::ClassicEvaluator;
    use tcms_ir::generators::paper_library;
    use tcms_ir::SystemBuilder;

    let (lib, types) = paper_library();
    let mut b = SystemBuilder::new(lib);
    let p1 = b.add_process("P1");
    let blk = b.add_block(p1, "body", 4).expect("time range ok");
    let a = b.add_op(blk, "a", types.add).expect("fresh name");
    let fixed = b.add_op(blk, "b", types.add).expect("fresh name");
    // A second process so the adder can be globally assigned.
    let p2 = b.add_process("P2");
    let blk2 = b.add_block(p2, "body", 4).expect("time range ok");
    let c = b.add_op(blk2, "c", types.add).expect("fresh name");
    let system = b.build().expect("valid system");

    let mut spec = SharingSpec::all_local(&system);
    spec.set_global(types.add, vec![p1, p2], 2);
    spec.validate(&system).expect("valid spec");

    let mut frames = FrameTable::initial(&system);
    frames.set(fixed, TimeFrame::new(0, 0));
    frames.set(c, TimeFrame::new(1, 1));
    frames.set(a, TimeFrame::new(0, 2));

    // Lookahead 0 keeps the numbers identical to the hand calculation.
    let cfg = FdsConfig {
        lookahead: 0.0,
        spring_weights: tcms_fds::SpringWeights::Uniform,
        ..FdsConfig::default()
    };
    let classic = ClassicEvaluator::new(&system, &[blk], cfg.clone());
    // ClassicEvaluator builds from initial frames; rebuild its view of the
    // partial solution by committing the fixed placements.
    let mut classic = classic;
    let initial = FrameTable::initial(&system);
    classic.commit(
        &initial,
        &[(fixed, TimeFrame::new(0, 0)), (c, TimeFrame::new(1, 1))],
    );
    let modulo = ModuloEvaluator::new(&system, spec.clone(), cfg, &frames);

    let candidates = vec![0u32, 1, 2];
    let unmodified: Vec<f64> = candidates
        .iter()
        .map(|&t| classic.force(&frames, &[(a, TimeFrame::new(t, t))]))
        .collect();
    let modified: Vec<f64> = candidates
        .iter()
        .map(|&t| modulo.force(&frames, &[(a, TimeFrame::new(t, t))]))
        .collect();
    let dist = modulo.field().distributions().get(blk, types.add).to_vec();
    let dhat = modulo.field().block_profile(blk, types.add).to_vec();
    if rec.enabled() {
        for (i, &cand) in candidates.iter().enumerate() {
            rec.event(
                "figure2.force",
                &[
                    ("placement", cand.into()),
                    ("unmodified", unmodified[i].into()),
                    ("modified", modified[i].into()),
                ],
            );
        }
    }

    let mut rendered = String::from(
        "Figure 2: unmodified vs modified IFDS on the two-operation block (ρ = 2)\n\n",
    );
    rendered.push_str(&format!("D(t)  = {}\n", float_profile(&dist)));
    rendered.push_str(&format!("D̂(τ) = {}\n\n", float_profile(&dhat)));
    let mut t = TextTable::new();
    t.row(["placement of a", "unmodified force", "modified force"]);
    t.sep();
    for (i, &cand) in candidates.iter().enumerate() {
        t.row([
            format!("t = {cand}"),
            format!("{:+.3}", unmodified[i]),
            format!("{:+.3}", modified[i]),
        ]);
    }
    rendered.push_str(&t.render());
    rendered.push_str(
        "\nThe unmodified algorithm rates t=1 and t=2 identically; the modulo-maximum\n\
         transformation hides the displacement of t=2 under the slot maximum of the\n\
         operation fixed at t=0, so the modified force prefers the periodic alignment.\n",
    );
    Figure2Data {
        candidates,
        unmodified,
        modified,
        dist,
        dhat,
        rendered,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_shape_matches_paper() {
        let r = run_table1();
        // Local: one resource per type and process at minimum.
        assert!(r.local.report.instances(r.types.mul) >= 5);
        assert!(r.local.report.instances(r.types.sub) >= 2);
        assert!(r.local.report.instances(r.types.add) >= 5);
        // Global sharing breaks that floor.
        assert!(r.global.report.instances(r.types.mul) < 5);
        assert!(r.global.report.instances(r.types.sub) <= 2);
        // Headline: the area ratio is in the paper's ballpark (1.65).
        let ratio = r.area_ratio();
        assert!(ratio > 1.3, "ratio {ratio}");
        // The render includes both assignments.
        let text = render_table1(&r);
        assert!(text.contains("global assignment"));
        assert!(text.contains("local  assignment"));
        assert!(text.contains("mul"));
    }

    #[test]
    fn figure1_authorized_steps_are_periodic() {
        let f = run_figure1();
        assert_eq!(f.period, 5);
        assert!(!f.authorized_steps.is_empty());
        for &t in &f.authorized_steps {
            assert!(f.grants[(t % 5) as usize] > 0);
        }
        assert!(f.rendered.contains("Figure 1"));
    }

    #[test]
    fn figure2_reproduces_preference_flip() {
        let f = run_figure2();
        // Unmodified: t=1 and t=2 tie (symmetric distribution).
        assert!((f.unmodified[1] - f.unmodified[2]).abs() < 1e-9);
        // Modified: t=2 (the aligned slot) is strictly preferred.
        assert!(f.modified[2] < f.modified[1] - 1e-9);
        assert!(f.modified[2] < f.modified[0] - 1e-9);
        // Hand-calculated values: D = (4/3, 1/3, 1/3, 0);
        // G = (4/3, 4/3) once P2's fixed op joins the group profile.
        // Placing `a` at 2 folds under the slot maximum: ΔG = (-1/3, -1/3)
        // and F = -8/9; the unmodified force at t=1/t=2 is -1/3.
        assert!((f.unmodified[1] - (-1.0 / 3.0)).abs() < 1e-9);
        assert!((f.modified[2] - (-8.0 / 9.0)).abs() < 1e-9);
        assert!(f.rendered.contains("modified force"));
    }
}
