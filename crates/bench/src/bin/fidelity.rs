//! DRAM-fidelity ablation: impact of the timing constraints Table I omits
//! (tFAW, tWTR, refresh) on the headline co-execution metrics, verifying
//! that the paper's simplified timing set does not change the story.

use pimsim_bench::{header, or_exit, BenchArgs};
use pimsim_core::PolicyKind;
use pimsim_sim::experiments::competitive::{run_competitive, CompetitiveConfig};
use pimsim_stats::table::{f3, Table};
use pimsim_types::{DramTiming, VcMode};
use pimsim_workloads::pim_suite::PimBenchmark;
use pimsim_workloads::rodinia::GpuBenchmark;

fn main() {
    let args = BenchArgs::parse();
    let variants: Vec<(&str, DramTiming)> = vec![
        ("Table I (paper)", DramTiming::default()),
        (
            "+ tFAW=16",
            DramTiming {
                t_faw: 16,
                ..DramTiming::default()
            },
        ),
        (
            "+ tWTR=4",
            DramTiming {
                t_wtr: 4,
                ..DramTiming::default()
            },
        ),
        (
            "+ refresh (tREFI=3328, tRFC=298)",
            DramTiming {
                t_refi: 3328,
                t_rfc: 298,
                ..DramTiming::default()
            },
        ),
        ("all extensions", DramTiming::with_fidelity_extensions()),
    ];

    header("DRAM fidelity ablation: F3FS + FR-FCFS under VC1");
    let mut t = Table::new(vec![
        "timing".into(),
        "FR-FCFS FI".into(),
        "FR-FCFS ST".into(),
        "F3FS FI".into(),
        "F3FS ST".into(),
    ]);
    for (label, timing) in variants {
        let mut system = args.system();
        system.timing = timing;
        let mut cfg = CompetitiveConfig::full(system, args.scale, args.budget);
        cfg.policies = vec![PolicyKind::FrFcfs, PolicyKind::f3fs_competitive()];
        cfg.vcs = vec![VcMode::Shared];
        cfg.gpus = vec![8, 11, 17].into_iter().map(GpuBenchmark).collect();
        cfg.pims = vec![1, 4].into_iter().map(PimBenchmark).collect();
        eprintln!("{label}...");
        let report = or_exit(run_competitive(&cfg));
        t.row(vec![
            label.into(),
            f3(report.mean_fairness(PolicyKind::FrFcfs, VcMode::Shared)),
            f3(report.mean_throughput(PolicyKind::FrFcfs, VcMode::Shared)),
            f3(report.mean_fairness(PolicyKind::f3fs_competitive(), VcMode::Shared)),
            f3(report.mean_throughput(PolicyKind::f3fs_competitive(), VcMode::Shared)),
        ]);
    }
    println!("{}", t.render());
    println!(
        "(expectation: the omitted constraints shave a few percent of throughput but do\n\
         not reorder the policies — supporting the paper's simplified timing set)"
    );
}
