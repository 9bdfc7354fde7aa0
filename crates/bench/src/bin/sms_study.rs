//! SMS suitability study (related-work claim): the paper argues SMS's
//! batch-granularity scheduling is unsuitable for host/PIM co-scheduling
//! because CPU/GPU batches can run on different banks in parallel, but
//! host/PIM batches are mutually exclusive. With SMS-lite implemented,
//! the claim becomes measurable: SMS must trail F3FS (and FR-FCFS) on
//! throughput because every batch boundary is a full mode switch.

use pimsim_bench::{header, or_exit, BenchArgs};
use pimsim_core::PolicyKind;
use pimsim_sim::experiments::competitive::{run_competitive, CompetitiveConfig};
use pimsim_stats::table::{f3, Table};
use pimsim_types::VcMode;
use pimsim_workloads::pim_suite::PimBenchmark;
use pimsim_workloads::rodinia::GpuBenchmark;

fn main() {
    let args = BenchArgs::parse();
    let policies: Vec<(String, PolicyKind)> = vec![
        (
            "SMS (batch 8)".into(),
            PolicyKind::Sms {
                batch_cap: 8,
                sjf_percent: 90,
            },
        ),
        (
            "SMS (batch 16)".into(),
            PolicyKind::Sms {
                batch_cap: 16,
                sjf_percent: 90,
            },
        ),
        (
            "SMS (batch 32)".into(),
            PolicyKind::Sms {
                batch_cap: 32,
                sjf_percent: 90,
            },
        ),
        (
            "SMS (batch 32, RR)".into(),
            PolicyKind::Sms {
                batch_cap: 32,
                sjf_percent: 0,
            },
        ),
        ("FR-FCFS".into(), PolicyKind::FrFcfs),
        ("FR-RR-FCFS".into(), PolicyKind::FrRrFcfs),
        ("F3FS".into(), PolicyKind::f3fs_competitive()),
    ];
    let mut cfg = CompetitiveConfig::full(args.system(), args.scale, args.budget);
    cfg.policies = policies.iter().map(|&(_, p)| p).collect();
    cfg.gpus = vec![4, 8, 11, 17].into_iter().map(GpuBenchmark).collect();
    cfg.pims = vec![1, 2, 4, 7].into_iter().map(PimBenchmark).collect();
    eprintln!(
        "SMS study: {} policies x 16 kernel pairs x 2 VCs (scale {})...",
        policies.len(),
        args.scale
    );
    let report = or_exit(run_competitive(&cfg));

    header("SMS-lite vs. the PIM-aware policies");
    let mut t = Table::new(vec![
        "policy".into(),
        "VC1 fairness".into(),
        "VC1 throughput".into(),
        "VC2 fairness".into(),
        "VC2 throughput".into(),
        "switches vs FCFS-less F3FS".into(),
    ]);
    let f3fs_switches: f64 = report
        .slice(PolicyKind::f3fs_competitive(), VcMode::Shared)
        .iter()
        .map(|p| p.switches as f64)
        .sum::<f64>()
        .max(1.0);
    for (label, policy) in policies {
        let sw: f64 = report
            .slice(policy, VcMode::Shared)
            .iter()
            .map(|p| p.switches as f64)
            .sum();
        t.row(vec![
            label,
            f3(report.mean_fairness(policy, VcMode::Shared)),
            f3(report.mean_throughput(policy, VcMode::Shared)),
            f3(report.mean_fairness(policy, VcMode::SplitPim)),
            f3(report.mean_throughput(policy, VcMode::SplitPim)),
            f3(sw / f3fs_switches),
        ]);
    }
    println!("{}", t.render());
    println!(
        "(claim check: every batch boundary is a mode switch for SMS, so it switches\n\
         several times more often than F3FS and pays the drain + locality cost each\n\
         time — trailing every PIM-aware policy on throughput)"
    );
}
