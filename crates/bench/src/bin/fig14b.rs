//! Figure 14b: F3FS's sensitivity to the interconnect queue size under
//! the VC2 configuration — fairness index and system throughput with the
//! input buffers at half (256), baseline (512), and double (1024) size.

use pimsim_bench::{header, or_exit, BenchArgs};
use pimsim_core::PolicyKind;
use pimsim_sim::experiments::competitive::{run_competitive, CompetitiveConfig};
use pimsim_stats::table::{f3, Table};
use pimsim_types::VcMode;
use pimsim_workloads::pim_suite::PimBenchmark;
use pimsim_workloads::rodinia::GpuBenchmark;

fn main() {
    let args = BenchArgs::parse();
    header("Figure 14b: F3FS sensitivity to interconnect queue size (VC2)");
    let mut t = Table::new(vec![
        "queue size".into(),
        "fairness index".into(),
        "system throughput".into(),
    ]);
    for queue in [256usize, 512, 1024] {
        let mut system = args.system();
        system.noc.input_queue_entries = queue;
        let mut cfg = CompetitiveConfig::full(system, args.scale, args.budget);
        cfg.policies = vec![PolicyKind::f3fs_competitive()];
        cfg.vcs = vec![VcMode::SplitPim];
        if args.quick {
            cfg.gpus = vec![4, 8, 11, 15, 17, 19]
                .into_iter()
                .map(GpuBenchmark)
                .collect();
            cfg.pims = vec![1, 2, 4].into_iter().map(PimBenchmark).collect();
        }
        eprintln!(
            "queue {queue}: {} GPU x {} PIM combinations...",
            cfg.gpus.len(),
            cfg.pims.len()
        );
        let report = or_exit(run_competitive(&cfg));
        t.row(vec![
            queue.to_string(),
            f3(report.mean_fairness(PolicyKind::f3fs_competitive(), VcMode::SplitPim)),
            f3(report.mean_throughput(PolicyKind::f3fs_competitive(), VcMode::SplitPim)),
        ]);
    }
    println!("{}", t.render());
    println!("(paper: F3FS is largely agnostic to the interconnect queue size)");
}
