//! Figure 10: mode-switch behavior across all kernel combinations —
//! (a) number of mode switches normalized to FCFS (geometric mean),
//! (b) additional MEM conflicts per MEM→PIM switch (arithmetic mean),
//! (c) MEM drain latency per switch in DRAM cycles (arithmetic mean).

use pimsim_bench::{header, or_exit, BenchArgs};
use pimsim_sim::experiments::competitive::{run_competitive, CompetitiveConfig};
use pimsim_stats::table::{f2, f3, Table};
use pimsim_types::VcMode;
use pimsim_workloads::pim_suite::PimBenchmark;
use pimsim_workloads::rodinia::GpuBenchmark;

fn main() {
    let args = BenchArgs::parse();
    let mut cfg = CompetitiveConfig::full(args.system(), args.scale, args.budget);
    if args.quick {
        cfg.gpus = vec![4, 8, 11, 15, 17, 19]
            .into_iter()
            .map(GpuBenchmark)
            .collect();
        cfg.pims = vec![1, 2, 4].into_iter().map(PimBenchmark).collect();
    }
    eprintln!(
        "running competitive sweep: {} GPU x {} PIM x {} policies x {} VCs (scale {})...",
        cfg.gpus.len(),
        cfg.pims.len(),
        cfg.policies.len(),
        cfg.vcs.len(),
        args.scale
    );
    let report = or_exit(run_competitive(&cfg));

    header("Figure 10a: mode switches normalized to FCFS (geomean across combinations)");
    let mut t = Table::new(vec!["policy".into(), "VC1".into(), "VC2".into()]);
    for &policy in &cfg.policies {
        t.row(vec![
            policy.label().into(),
            report
                .switches_vs_fcfs(policy, VcMode::Shared)
                .map_or("-".into(), f3),
            report
                .switches_vs_fcfs(policy, VcMode::SplitPim)
                .map_or("-".into(), f3),
        ]);
    }
    println!("{}", t.render());

    let mean =
        |f: &dyn Fn(&pimsim_sim::experiments::competitive::CompetitivePoint) -> f64, policy, vc| {
            let v: Vec<f64> = report
                .points
                .iter()
                .filter(|p| p.policy == policy && p.vc == vc)
                .map(f)
                .collect();
            v.iter().sum::<f64>() / v.len().max(1) as f64
        };

    header("Figure 10b: additional MEM conflicts per MEM->PIM switch (mean)");
    let mut t = Table::new(vec!["policy".into(), "VC1".into(), "VC2".into()]);
    for &policy in &cfg.policies {
        t.row(vec![
            policy.label().into(),
            f2(mean(&|p| p.conflicts_per_switch, policy, VcMode::Shared)),
            f2(mean(&|p| p.conflicts_per_switch, policy, VcMode::SplitPim)),
        ]);
    }
    println!("{}", t.render());

    header("Figure 10c: MEM drain latency per switch, DRAM cycles (mean)");
    let mut t = Table::new(vec!["policy".into(), "VC1".into(), "VC2".into()]);
    for &policy in &cfg.policies {
        t.row(vec![
            policy.label().into(),
            f2(mean(&|p| p.drain_per_switch, policy, VcMode::Shared)),
            f2(mean(&|p| p.drain_per_switch, policy, VcMode::SplitPim)),
        ]);
    }
    println!("{}", t.render());
}
