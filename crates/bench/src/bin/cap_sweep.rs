//! F3FS CAP sensitivity study (the paper's Section VII-B methodology:
//! "empirically set ... strategically a multiple of the PIM RF size").
//!
//! Sweeps symmetric competitive CAPs and asymmetric splits over a
//! representative kernel subset, reporting fairness and throughput — the
//! study that selected this reproduction's default CAP of 32.

use pimsim_bench::{header, or_exit, BenchArgs};
use pimsim_core::PolicyKind;
use pimsim_sim::experiments::competitive::{run_competitive, CompetitiveConfig};
use pimsim_stats::table::{f3, Table};
use pimsim_types::VcMode;
use pimsim_workloads::pim_suite::PimBenchmark;
use pimsim_workloads::rodinia::GpuBenchmark;

fn main() {
    let args = BenchArgs::parse();
    let caps: Vec<(u32, u32)> = vec![
        (8, 8),
        (16, 16),
        (32, 32),
        (64, 64),
        (128, 128),
        (256, 256),
        (32, 16),
        (64, 32),
        (16, 32),
        (32, 64),
    ];
    let f3fs = |m: u32, p: u32| {
        PolicyKind::parse_spec(&format!("f3fs:mem-cap={m},pim-cap={p}")).expect("registered")
    };
    let mut cfg = CompetitiveConfig::full(args.system(), args.scale, args.budget);
    cfg.policies = caps.iter().map(|&(m, p)| f3fs(m, p)).collect();
    cfg.gpus = vec![4, 8, 11, 15, 17, 19]
        .into_iter()
        .map(GpuBenchmark)
        .collect();
    if args.quick {
        cfg.pims = vec![1, 2, 4].into_iter().map(PimBenchmark).collect();
    }
    eprintln!(
        "sweeping {} CAP settings over {} GPU x {} PIM x 2 VCs (scale {})...",
        caps.len(),
        cfg.gpus.len(),
        cfg.pims.len(),
        args.scale
    );
    let report = or_exit(run_competitive(&cfg));

    header("F3FS CAP sensitivity (competitive)");
    let mut t = Table::new(vec![
        "MEM/PIM cap".into(),
        "VC1 fairness".into(),
        "VC1 throughput".into(),
        "VC2 fairness".into(),
        "VC2 throughput".into(),
    ]);
    for &(m, p) in &caps {
        let policy = f3fs(m, p);
        t.row(vec![
            format!("{m}/{p}"),
            f3(report.mean_fairness(policy, VcMode::Shared)),
            f3(report.mean_throughput(policy, VcMode::Shared)),
            f3(report.mean_fairness(policy, VcMode::SplitPim)),
            f3(report.mean_throughput(policy, VcMode::SplitPim)),
        ]);
    }
    println!("{}", t.render());
    println!(
        "(paper: competitive fairness favors symmetric CAPs; throughput favors higher\n\
         ones; asymmetry trades competitive fairness for collaborative speedup)"
    );
}
