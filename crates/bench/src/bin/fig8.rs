//! Figure 8: fairness index (a) and system throughput (b) for each PIM
//! kernel under every scheduling policy and VC configuration, averaged
//! across all GPU kernels.

use pimsim_bench::{header, or_exit, BenchArgs};
use pimsim_sim::experiments::competitive::{run_competitive, CompetitiveConfig};
use pimsim_stats::table::{f3, Table};
use pimsim_types::VcMode;
use pimsim_workloads::rodinia::GpuBenchmark;

fn main() {
    let args = BenchArgs::parse();
    let mut cfg = CompetitiveConfig::full(args.system(), args.scale, args.budget);
    if args.quick {
        cfg.gpus = vec![4, 8, 11, 15, 17, 19]
            .into_iter()
            .map(GpuBenchmark)
            .collect();
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

    use pimsim_sim::experiments::competitive::CompetitivePoint;
    type Metric = fn(&CompetitivePoint) -> f64;
    let figures: [(&str, &str, Metric); 2] = [
        ("Figure 8a", "fairness index", |p| p.fairness),
        ("Figure 8b", "system throughput", |p| p.throughput),
    ];
    for (fig, metric, f) in figures {
        for vc in [VcMode::Shared, VcMode::SplitPim] {
            header(&format!("{fig}: {metric}, {vc} (avg across GPU kernels)"));
            let mut t = Table::new(
                std::iter::once("PIM kernel".to_owned())
                    .chain(cfg.policies.iter().map(|p| p.label().to_owned()))
                    .collect(),
            );
            for &pim in &cfg.pims {
                let mut row = vec![pim.label()];
                for &policy in &cfg.policies {
                    let vals: Vec<f64> = report
                        .points
                        .iter()
                        .filter(|p| p.pim == pim && p.policy == policy && p.vc == vc)
                        .map(f)
                        .collect();
                    row.push(f3(vals.iter().sum::<f64>() / vals.len().max(1) as f64));
                }
                t.row(row);
            }
            let mut mean = vec!["mean".to_owned()];
            for &policy in &cfg.policies {
                let vals: Vec<f64> = report
                    .points
                    .iter()
                    .filter(|p| p.policy == policy && p.vc == vc)
                    .map(f)
                    .collect();
                mean.push(f3(vals.iter().sum::<f64>() / vals.len().max(1) as f64));
            }
            t.row(mean);
            println!("{}", t.render());
        }
    }

    // Throughput composition (the shaded/non-shaded split of Figure 8b).
    header("MEM share of system throughput (paper: FR-FCFS 41% VC1 / 45% VC2)");
    for vc in [VcMode::Shared, VcMode::SplitPim] {
        for &policy in &cfg.policies {
            let pts: Vec<_> = report
                .points
                .iter()
                .filter(|p| p.policy == policy && p.vc == vc)
                .collect();
            let mem: f64 = pts.iter().map(|p| p.mem_speedup).sum();
            let total: f64 = pts.iter().map(|p| p.throughput).sum();
            if total > 0.0 {
                println!("{:12} {}: {:.0}%", policy.label(), vc, mem / total * 100.0);
            }
        }
    }
}
