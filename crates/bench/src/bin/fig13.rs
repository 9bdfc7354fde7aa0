//! Figure 13: fairness and throughput of a compute-intensive kernel (G10)
//! and four memory-intensive kernels (G6, G11, G17, G19), averaged across
//! all PIM kernels — the orthogonal slice of Figure 8.

use pimsim_bench::{header, or_exit, BenchArgs};
use pimsim_sim::experiments::competitive::{run_competitive, CompetitiveConfig};
use pimsim_stats::table::{f3, Table};
use pimsim_types::VcMode;
use pimsim_workloads::pim_suite::PimBenchmark;
use pimsim_workloads::rodinia::figure13_picks;

fn main() {
    let args = BenchArgs::parse();
    let mut cfg = CompetitiveConfig::full(args.system(), args.scale, args.budget);
    cfg.gpus = figure13_picks().to_vec();
    if args.quick {
        cfg.pims = vec![1, 2, 4].into_iter().map(PimBenchmark).collect();
    }
    eprintln!(
        "running Figure 13 slice: {} GPU x {} PIM x {} policies x 2 VCs (scale {})...",
        cfg.gpus.len(),
        cfg.pims.len(),
        cfg.policies.len(),
        args.scale
    );
    let report = or_exit(run_competitive(&cfg));

    use pimsim_sim::experiments::competitive::CompetitivePoint;
    type Metric = fn(&CompetitivePoint) -> f64;
    let figures: [(&str, Metric); 2] = [
        ("Figure 13a: fairness index", |p| p.fairness),
        ("Figure 13b: system throughput", |p| p.throughput),
    ];
    for (title, f) in figures {
        for vc in [VcMode::Shared, VcMode::SplitPim] {
            header(&format!("{title}, {vc} (avg across PIM kernels)"));
            let mut t = Table::new(
                std::iter::once("GPU kernel".to_owned())
                    .chain(cfg.policies.iter().map(|p| p.label().to_owned()))
                    .collect(),
            );
            for &g in &cfg.gpus {
                let mut row = vec![format!("{g}")];
                for &policy in &cfg.policies {
                    let vals: Vec<f64> = report
                        .points
                        .iter()
                        .filter(|p| p.gpu == g && p.policy == policy && p.vc == vc)
                        .map(f)
                        .collect();
                    row.push(f3(vals.iter().sum::<f64>() / vals.len().max(1) as f64));
                }
                t.row(row);
            }
            println!("{}", t.render());
        }
    }
    println!(
        "(paper: G10 shows little variation across policies — compute-intensive kernels\n\
         tolerate memory delays; F3FS equalizes well on G19 but favors the GPU on G6/G11\n\
         and PIM on G17)"
    );
}
