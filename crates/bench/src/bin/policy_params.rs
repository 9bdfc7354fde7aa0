//! Parameter sweeps for the baseline policies, mirroring the paper's
//! tuning notes:
//!
//! * BLISS blacklist threshold ("BLISS performs best with a lower
//!   threshold, indicating its tendency to converge toward FR-FCFS");
//! * G&I high/low watermarks (paper: 56/32);
//! * FR-FCFS-Cap row-hit cap (paper: 32).

use pimsim_bench::{header, or_exit, BenchArgs};
use pimsim_core::PolicyKind;
use pimsim_sim::experiments::competitive::{run_competitive, CompetitiveConfig};
use pimsim_stats::table::{f3, Table};
use pimsim_types::VcMode;
use pimsim_workloads::pim_suite::PimBenchmark;
use pimsim_workloads::rodinia::GpuBenchmark;

fn sweep(args: &BenchArgs, title: &str, policies: Vec<(String, PolicyKind)>) {
    let mut cfg = CompetitiveConfig::full(args.system(), args.scale, args.budget);
    cfg.policies = policies.iter().map(|&(_, p)| p).collect();
    cfg.gpus = vec![4, 8, 11, 17].into_iter().map(GpuBenchmark).collect();
    cfg.pims = vec![1, 2, 4, 7].into_iter().map(PimBenchmark).collect();
    cfg.vcs = vec![VcMode::Shared];
    eprintln!("{title}: {} settings x 16 kernel pairs...", policies.len());
    let report = or_exit(run_competitive(&cfg));
    header(title);
    let mut t = Table::new(vec![
        "setting".into(),
        "fairness".into(),
        "throughput".into(),
    ]);
    for (label, policy) in policies {
        t.row(vec![
            label,
            f3(report.mean_fairness(policy, VcMode::Shared)),
            f3(report.mean_throughput(policy, VcMode::Shared)),
        ]);
    }
    println!("{}", t.render());
}

/// Builds a sweep point from a registry spec string, so this binary never
/// names `PolicyKind` variants directly.
fn spec(label: impl Into<String>, spec: String) -> (String, PolicyKind) {
    let kind = PolicyKind::parse_spec(&spec).unwrap_or_else(|e| panic!("{spec}: {e}"));
    (label.into(), kind)
}

fn main() {
    let args = BenchArgs::parse();

    sweep(
        &args,
        "BLISS blacklist-threshold sweep (VC1)",
        [1u32, 2, 4, 8, 16]
            .into_iter()
            .map(|th| spec(format!("threshold {th}"), format!("bliss:threshold={th}")))
            .collect(),
    );

    sweep(
        &args,
        "G&I watermark sweep (VC1)",
        [(24usize, 8usize), (40, 16), (56, 32), (60, 48)]
            .into_iter()
            .map(|(high, low)| {
                spec(
                    format!("high {high} / low {low}"),
                    format!("gi:high={high},low={low}"),
                )
            })
            .collect(),
    );

    sweep(
        &args,
        "FR-FCFS-Cap row-hit-cap sweep (VC1)",
        [4u32, 8, 16, 32, 64, 128]
            .into_iter()
            .map(|cap| spec(format!("cap {cap}"), format!("fr-fcfs-cap:cap={cap}")))
            .collect(),
    );
}
