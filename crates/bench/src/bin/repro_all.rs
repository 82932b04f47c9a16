//! Runs every reproduction binary in sequence — the one-shot harness that
//! regenerates all tables, figures and ablations of EXPERIMENTS.md.
//!
//! Command-line arguments (e.g. `--stats`, `--metrics`) are forwarded to
//! every child that understands them. The file arguments of
//! `--trace`/`--timeline` are prefixed with the child's name
//! (`trace.json` → `repro_table1.trace.json`) so the children do not
//! overwrite each other's sink files. The harness-style binaries
//! (`repro_force_kernel`, `repro_replay`, `repro_chaos`) take their own
//! flag sets, so they run with their defaults and get no forwarded
//! flags.

use std::path::Path;
use std::process::Command;

const TARGETS: &[&str] = &[
    "repro_table1",
    "repro_figure1",
    "repro_figure2",
    "repro_period_sweep",
    "repro_scope_ablation",
    "repro_budget_sensitivity",
    "repro_merging_baseline",
    "repro_alu_ablation",
    "repro_mixed_periods",
    "repro_fault_sweep",
    "repro_optimality_gap",
    "repro_force_kernel",
    "repro_replay",
    "repro_chaos",
];

/// Targets with their own flag vocabulary: observability flags are not
/// forwarded to them (an unknown flag is a hard error in every child).
const RAW_TARGETS: &[&str] = &["repro_force_kernel", "repro_replay", "repro_chaos"];

/// Prefixes the file name of an observability sink path with the target
/// name, keeping any directory components.
fn per_target_path(target: &str, path: &str) -> String {
    let p = Path::new(path);
    let file = p
        .file_name()
        .map(|f| f.to_string_lossy().into_owned())
        .unwrap_or_else(|| path.to_owned());
    match p.parent() {
        Some(dir) if !dir.as_os_str().is_empty() => dir
            .join(format!("{target}.{file}"))
            .to_string_lossy()
            .into_owned(),
        _ => format!("{target}.{file}"),
    }
}

/// Rewrites `--trace`/`--timeline` file arguments for one child; raw
/// targets get none.
fn args_for(target: &str, forwarded: &[String]) -> Vec<String> {
    if RAW_TARGETS.contains(&target) {
        return Vec::new();
    }
    let mut out = Vec::with_capacity(forwarded.len());
    let mut it = forwarded.iter();
    while let Some(a) = it.next() {
        out.push(a.clone());
        if a == "--trace" || a == "--timeline" {
            if let Some(path) = it.next() {
                out.push(per_target_path(target, path));
            }
        }
    }
    out
}

fn main() {
    let exe_dir = std::env::current_exe()
        .expect("own path")
        .parent()
        .expect("bin dir")
        .to_path_buf();
    let forwarded: Vec<String> = std::env::args().skip(1).collect();
    let mut failures = 0;
    for target in TARGETS {
        println!("==================== {target} ====================");
        let status = Command::new(exe_dir.join(target))
            .args(args_for(target, &forwarded))
            .status()
            .unwrap_or_else(|e| panic!("failed to launch {target}: {e}"));
        if !status.success() {
            eprintln!("{target} FAILED ({status})");
            failures += 1;
        }
        println!();
    }
    if failures > 0 {
        std::process::exit(1);
    }
    println!("all {} reproduction targets completed", TARGETS.len());
}
