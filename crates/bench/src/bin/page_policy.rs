//! Row-buffer management ablation: open-page (the paper's implicit
//! policy, which FR-FCFS and F3FS exploit for locality) vs. closed-page
//! (auto-precharge after every MEM access).
//!
//! Expectation: closed-page removes the row hits the first-ready policies
//! feed on, hurting high-RBHR kernels most, and flattens the difference
//! between FR-FCFS and FCFS-like behavior.

use pimsim_bench::{header, or_exit, BenchArgs};
use pimsim_core::PolicyKind;
use pimsim_sim::experiments::competitive::{run_competitive, CompetitiveConfig};
use pimsim_stats::table::{f3, Table};
use pimsim_types::{PagePolicy, VcMode};
use pimsim_workloads::pim_suite::PimBenchmark;
use pimsim_workloads::rodinia::GpuBenchmark;

fn main() {
    let args = BenchArgs::parse();
    header("Row-buffer policy ablation: open-page vs closed-page (VC1)");
    let mut t = Table::new(vec![
        "page policy".into(),
        "FR-FCFS FI".into(),
        "FR-FCFS ST".into(),
        "F3FS FI".into(),
        "F3FS ST".into(),
    ]);
    for (label, policy) in [
        ("open-page", PagePolicy::Open),
        ("closed-page", PagePolicy::Closed),
    ] {
        let mut system = args.system();
        system.mc.page_policy = policy;
        let mut cfg = CompetitiveConfig::full(system, args.scale, args.budget);
        cfg.policies = vec![PolicyKind::FrFcfs, PolicyKind::f3fs_competitive()];
        cfg.vcs = vec![VcMode::Shared];
        cfg.gpus = vec![8, 17, 19].into_iter().map(GpuBenchmark).collect();
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
        "(closed-page auto-precharges after every MEM access: the high-RBHR kernels lose\n\
         their open-row stream and MEM throughput drops — the paper's open-page choice)"
    );
}
