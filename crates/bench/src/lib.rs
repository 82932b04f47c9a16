#![warn(missing_docs)]
//! Benchmark harness reproducing every table and figure of the paper.
//!
//! * [`experiments`] — reusable runners for Table 1, Figure 1 and Figure 2
//!   plus the render functions the `repro_*` binaries print,
//! * [`chaos`] — a seeded in-process TCP fault proxy (resets, latency
//!   spikes, truncation, mid-write kills) that `repro_chaos` and
//!   `repro_fleet` put in front of a daemon,
//! * [`table`] — fixed-width text tables,
//! * [`workload`] — seeded synthetic request streams (LCG + Zipf) shared
//!   by the serve-facing benchmarks.
//!
//! Binaries (run with `cargo run -p tcms-bench --bin <name>`):
//!
//! | binary | reproduces |
//! |--------|------------|
//! | `repro_table1` | Table 1: global vs. pure-local resource counts/area |
//! | `repro_figure1` | Figure 1: periodic access-authorization mapping |
//! | `repro_figure2` | Figure 2: unmodified vs. modified force ratings |
//! | `repro_period_sweep` | §3.2 period trade-off curve |
//! | `repro_scope_ablation` | per-type local/global ablation of step (S1) |
//! | `repro_partition_scaling` | partitioned vs monolithic scheduling (DESIGN §13) |
//!
//! Criterion benches (`cargo bench -p tcms-bench`) measure the scheduling
//! runtimes the paper reports alongside Table 1, the FDS-vs-IFDS baseline
//! gap and scaling with system size.

pub mod chaos;
pub mod experiments;
pub mod netfault;
pub mod obs;
pub mod table;
pub mod workload;

pub use chaos::{ChaosProxy, ChaosStats};
pub use experiments::{
    paper_spec, render_stats, render_table1, run_figure1, run_figure1_recorded, run_figure2,
    run_figure2_recorded, run_table1, run_table1_recorded, stats_requested, Figure1Data,
    Figure2Data, Table1Results, Table1Run,
};
pub use netfault::{ChunkFault, NetFaultPlan, NetFaultStream};
pub use obs::ObsSession;
pub use table::{float_profile, profile, TextTable};
pub use workload::{make_design, percentile, scaling_config, synthetic_requests, zipf_cdf};
