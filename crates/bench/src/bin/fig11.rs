//! Figure 11: LLM (QKV generation + multi-head attention) speedup under
//! each policy with both VC configurations, normalized to sequential
//! execution, against the ideal perfect-overlap bound.

use pimsim_bench::{header, or_exit, BenchArgs};
use pimsim_sim::experiments::collaborative::run_collaborative;
use pimsim_stats::table::{f3, Table};
use pimsim_types::VcMode;

fn main() {
    let args = BenchArgs::parse();
    eprintln!(
        "running the collaborative LLM scenario (scale {})...",
        args.scale
    );
    let report = or_exit(run_collaborative(&args.system(), args.scale, args.budget));

    header("Figure 11: LLM speedup over sequential execution");
    println!(
        "QKV alone: {} cycles, MHA alone: {} cycles, ideal speedup: {:.3}\n",
        report.qkv_alone, report.mha_alone, report.ideal
    );
    let mut t = Table::new(vec!["policy".into(), "VC1".into(), "VC2".into()]);
    let labels: Vec<&str> = {
        let mut seen = Vec::new();
        for p in &report.points {
            if !seen.contains(&p.policy.label()) {
                seen.push(p.policy.label());
            }
        }
        seen
    };
    for label in labels {
        let pick = |vc: VcMode| {
            report
                .points
                .iter()
                .find(|p| p.policy.label() == label && p.vc == vc)
                .map_or("-".to_owned(), |p| f3(p.speedup))
        };
        t.row(vec![
            label.into(),
            pick(VcMode::Shared),
            pick(VcMode::SplitPim),
        ]);
    }
    t.row(vec!["Ideal".into(), f3(report.ideal), f3(report.ideal)]);
    println!("{}", t.render());
    println!(
        "(paper: VC1 policies struggle, G&I works best; VC2 lets FR-FCFS and tuned F3FS\n\
         approach the ideal; F3FS beats FR-RR-FCFS by 11.23% / 7.37% in VC1 / VC2)"
    );
}
