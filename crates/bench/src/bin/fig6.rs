//! Figure 6: MEM request arrival rate into the memory controller under
//! co-execution, normalized to standalone execution, per GPU kernel and
//! scheduling policy, without (a) and with (b) separate MEM/PIM virtual
//! channels.

use pimsim_bench::{header, or_exit, BenchArgs};
use pimsim_core::PolicyKind;
use pimsim_sim::experiments::competitive::{run_competitive, CompetitiveConfig};
use pimsim_stats::table::{f2, Table};
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

    for vc in [VcMode::Shared, VcMode::SplitPim] {
        header(&format!(
            "Figure 6{}: normalized MEM arrival rate at the MC, {} (avg across PIM kernels)",
            if vc == VcMode::Shared { 'a' } else { 'b' },
            vc
        ));
        let mut t = Table::new(
            std::iter::once("GPU kernel".to_owned())
                .chain(cfg.policies.iter().map(|p| p.label().to_owned()))
                .collect(),
        );
        for &g in &cfg.gpus {
            let mut row = vec![g.label()];
            for &policy in &cfg.policies {
                let pts: Vec<f64> = report
                    .points
                    .iter()
                    .filter(|p| p.gpu == g && p.policy == policy && p.vc == vc)
                    .map(|p| p.mem_arrival_ratio)
                    .collect();
                row.push(f2(pts.iter().sum::<f64>() / pts.len().max(1) as f64));
            }
            t.row(row);
        }
        // Column means (the paper quotes per-policy averages).
        let mut mean_row = vec!["mean".to_owned()];
        for &policy in &cfg.policies {
            let pts: Vec<f64> = report
                .points
                .iter()
                .filter(|p| p.policy == policy && p.vc == vc)
                .map(|p| p.mem_arrival_ratio)
                .collect();
            mean_row.push(f2(pts.iter().sum::<f64>() / pts.len().max(1) as f64));
        }
        t.row(mean_row);
        println!("{}", t.render());
    }

    // The headline: MEM-First's improvement from VC1 to VC2 (paper: 2.87x).
    let mean = |policy: PolicyKind, vc: VcMode| -> f64 {
        let pts: Vec<f64> = report
            .points
            .iter()
            .filter(|p| p.policy == policy && p.vc == vc)
            .map(|p| p.mem_arrival_ratio)
            .collect();
        pts.iter().sum::<f64>() / pts.len().max(1) as f64
    };
    let v1 = mean(PolicyKind::MemFirst, VcMode::Shared);
    let v2 = mean(PolicyKind::MemFirst, VcMode::SplitPim);
    header("headline (paper: MEM-First improves 2.87x, degradation 68% -> 9%)");
    println!(
        "MEM-First mean normalized arrival rate: VC1 {v1:.2}, VC2 {v2:.2} ({:.2}x)",
        v2 / v1
    );
}
