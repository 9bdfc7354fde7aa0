//! Figure 5: average speedup of the Rodinia suite on 72 SMs when
//! co-executing with four memory-intensive GPU kernels vs. PIM kernel P1,
//! normalized to standalone execution on 80 SMs.
//!
//! The paper's result: the suite slows by ~60% with P1 vs. a worst case of
//! ~30% with any Rodinia co-runner.

use pimsim_bench::{header, or_exit, BenchArgs};
use pimsim_sim::experiments::interference::run_interference;
use pimsim_stats::table::{f3, Table};

fn main() {
    let args = BenchArgs::parse();
    eprintln!(
        "running Figure 5 interference sweep (20 victims x 6 co-runners, scale {})...",
        args.scale
    );
    let bars = or_exit(run_interference(&args.system(), args.scale, args.budget));
    header("Figure 5: average Rodinia speedup on 72 SMs vs. co-runner (normalized to 80-SM standalone)");
    let mut t = Table::new(vec!["co-runner (on 8 SMs)".into(), "avg speedup".into()]);
    for b in &bars {
        t.row(vec![b.corunner.clone(), f3(b.avg_speedup)]);
    }
    println!("{}", t.render());
    let none = bars.first().expect("bars").avg_speedup;
    let pim = bars.last().expect("bars").avg_speedup;
    println!(
        "slowdown vs 72-SM no-contention: PIM co-runner {:.0}%, worst GPU co-runner {:.0}%",
        (1.0 - pim / none) * 100.0,
        (1.0 - bars[1..bars.len() - 1]
            .iter()
            .map(|b| b.avg_speedup)
            .fold(f64::INFINITY, f64::min)
            / none)
            * 100.0
    );
}
