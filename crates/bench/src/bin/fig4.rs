//! Figure 4: memory access characteristics of the Rodinia suite (80 and 8
//! SMs) and the PIM kernels — box plots of interconnect arrival rate, DRAM
//! arrival rate, bank-level parallelism, and row-buffer hit rate.

use pimsim_bench::{fmt_box, header, or_exit, BenchArgs};
use pimsim_sim::experiments::characterization::characterize;
use pimsim_stats::table::Table;

fn main() {
    let args = BenchArgs::parse();
    eprintln!(
        "running 49 standalone characterization simulations (scale {})...",
        args.scale
    );
    let report = or_exit(characterize(&args.system(), args.scale, args.budget));

    for (title, boxes) in [
        (
            "Figure 4a: interconnect request arrival rate (req/kilo-GPU-cycle)",
            report.icnt_boxes(),
        ),
        (
            "Figure 4b: DRAM request arrival rate (req/kilo-GPU-cycle)",
            report.dram_boxes(),
        ),
        ("Figure 4c: DRAM bank-level parallelism", report.blp_boxes()),
        ("Figure 4d: DRAM row buffer hit rate", report.rbhr_boxes()),
    ] {
        header(title);
        println!("population       min       q1      med       q3      max");
        println!("GPU-80    {}", fmt_box(boxes.gpu80));
        println!("GPU-8     {}", fmt_box(boxes.gpu8));
        println!("PIM       {}", fmt_box(boxes.pim));
    }

    // The paper's headline ratios (Section IV).
    let icnt = report.icnt_boxes();
    let dram = report.dram_boxes();
    header("headline ratios (paper: PIM icnt = 3.95x GPU-8, 17.8% below GPU-80; PIM DRAM = 8.33x GPU-8, 2.07x GPU-80)");
    println!(
        "PIM/GPU-8 icnt (median):  {:.2}x",
        icnt.pim.median / icnt.gpu8.median
    );
    println!(
        "PIM/GPU-80 icnt (median): {:.2}x",
        icnt.pim.median / icnt.gpu80.median
    );
    println!(
        "PIM/GPU-8 DRAM (median):  {:.2}x",
        dram.pim.median / dram.gpu8.median
    );
    println!(
        "PIM/GPU-80 DRAM (median): {:.2}x",
        dram.pim.median / dram.gpu80.median
    );

    header("per-kernel profiles (GPU-80)");
    let mut t = Table::new(vec![
        "kernel".into(),
        "icnt/kcyc".into(),
        "dram/kcyc".into(),
        "BLP".into(),
        "RBHR".into(),
        "cycles".into(),
    ]);
    for p in report.gpu80.iter().chain(report.pim.iter()) {
        t.row(vec![
            p.label.clone(),
            format!("{:.1}", p.icnt_rate),
            format!("{:.1}", p.dram_rate),
            format!("{:.1}", p.blp),
            format!("{:.3}", p.rbhr),
            p.cycles.to_string(),
        ]);
    }
    println!("{}", t.render());
}
