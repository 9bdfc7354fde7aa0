//! Address-mapping study: the Table I bit-sliced mapping vs. I-poly-style
//! pseudo-random channel hashing.
//!
//! The paper turns I-poly *off* to make PIM programmable (each warp must
//! own one channel). This study quantifies what that choice costs the
//! regular GPU kernels: I-poly spreads pathological strides across
//! channels, so some kernels lose performance under the regular mapping.

use pimsim_bench::{header, or_exit, BenchArgs};
use pimsim_core::PolicyKind;
use pimsim_sim::experiments::sweep::parallel_map;
use pimsim_sim::{CycleBudgetExceeded, Runner};
use pimsim_stats::table::{f2, Table};
use pimsim_types::AddressMapConfig;
use pimsim_workloads::{gpu_kernel, rodinia::GpuBenchmark};

fn main() {
    let args = BenchArgs::parse();
    let gpus: Vec<GpuBenchmark> = if args.quick {
        vec![3, 6, 11, 15, 17]
            .into_iter()
            .map(GpuBenchmark)
            .collect()
    } else {
        GpuBenchmark::all()
    };
    eprintln!(
        "running {} kernels x 2 mappings (scale {})...",
        gpus.len(),
        args.scale
    );

    let jobs: Vec<(GpuBenchmark, bool)> =
        gpus.iter().flat_map(|&g| [(g, false), (g, true)]).collect();
    let scale = args.scale;
    let budget = args.budget;
    let system = args.system();
    let results = parallel_map(jobs, move |(g, ipoly)| {
        let mut sys = system.clone();
        if ipoly {
            sys.addr_map = AddressMapConfig::IPolyHash;
        }
        let mut runner = Runner::new(sys, PolicyKind::FrFcfs);
        runner.max_gpu_cycles = budget * 4;
        let out = runner.standalone(Box::new(gpu_kernel(g, 80, scale)), 0, false)?;
        Ok((g, ipoly, out.cycles, out.mc.avg_blp().unwrap_or(0.0)))
    });
    let results: Vec<_> = or_exit(
        results
            .into_iter()
            .collect::<Result<_, CycleBudgetExceeded>>(),
    );

    header("GPU-80 standalone: Table I bit-sliced mapping vs. I-poly hashing");
    let mut t = Table::new(vec![
        "kernel".into(),
        "TableI cycles".into(),
        "I-poly cycles".into(),
        "I-poly speedup".into(),
        "TableI BLP".into(),
        "I-poly BLP".into(),
    ]);
    for &g in &gpus {
        let pick = |ip: bool| {
            results
                .iter()
                .find(|&&(rg, ri, _, _)| rg == g && ri == ip)
                .expect("all jobs ran")
        };
        let (_, _, c0, b0) = *pick(false);
        let (_, _, c1, b1) = *pick(true);
        t.row(vec![
            g.to_string(),
            c0.to_string(),
            c1.to_string(),
            f2(c0 as f64 / c1 as f64),
            f2(b0),
            f2(b1),
        ]);
    }
    println!("{}", t.render());
    println!(
        "(the paper accepts the regular mapping's cost because PIM's warp-to-channel\n\
         mapping requires it; a speedup above 1.00 means I-poly would have helped)"
    );
}
