//! Regenerates the checked-in `designs/` inputs from the generators.
//!
//! ```text
//! gen_designs [--ops N] [--processes P] [--seed S] [--out FILE]
//! ```
//!
//! Without flags, rewrites `designs/paper_table1.dfg` from the paper
//! generator — the historical behavior. With any sizing flag, emits a
//! seeded synthetic multi-process design of roughly `N` operations
//! spread over `P` processes (the large-design inputs of the CI
//! `large-design` step and of the scaling measurements). The same flags
//! always produce the same bytes.

use tcms_bench::workload::scaling_config;
use tcms_ir::generators::random_system;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut ops: Option<usize> = None;
    let mut processes = 8usize;
    let mut seed = 1u64;
    let mut out: Option<String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let next = |it: &mut std::slice::Iter<'_, String>, flag: &str| {
            it.next()
                .unwrap_or_else(|| panic!("{flag} needs a value"))
                .clone()
        };
        match a.as_str() {
            "--ops" => ops = Some(next(&mut it, "--ops").parse().expect("bad op count")),
            "--processes" => {
                processes = next(&mut it, "--processes")
                    .parse()
                    .expect("bad process count");
            }
            "--seed" => seed = next(&mut it, "--seed").parse().expect("bad seed"),
            "--out" => out = Some(next(&mut it, "--out")),
            other => panic!("unknown flag `{other}`"),
        }
    }

    if let Some(ops) = ops {
        assert!(ops > 0 && processes > 0, "sizes must be positive");
        let cfg = scaling_config(ops, processes);
        let (sys, _) = random_system(&cfg, seed).expect("synthetic system builds");
        let path =
            out.unwrap_or_else(|| format!("designs/synth_{ops}ops_{processes}p_seed{seed}.dfg"));
        if let Some(dir) = std::path::Path::new(&path).parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir).expect("create output dir");
            }
        }
        std::fs::write(&path, tcms_ir::display::to_dfg(&sys)).expect("write design");
        println!(
            "wrote {path} ({} ops, {} processes, seed {seed})",
            sys.num_ops(),
            sys.num_processes()
        );
        return;
    }

    let (sys, _) = tcms_ir::generators::paper_system().expect("paper system builds");
    let path = out.unwrap_or_else(|| "designs/paper_table1.dfg".to_owned());
    if let Some(dir) = std::path::Path::new(&path).parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir).expect("create designs dir");
        }
    }
    std::fs::write(&path, tcms_ir::display::to_dfg(&sys)).expect("write design");
    println!("wrote {path}");
}
