//! Figure 14a: ablation of F3FS's three components beyond FR-FCFS-Cap —
//! (1) CAP counts requests in the current mode instead of row hits,
//! (2) current-mode-first arbitration,
//! (3) asymmetric per-mode CAPs —
//! evaluated on P2 (Stream Copy) across all GPU kernels plus the LLM,
//! under the VC2 configuration.

use pimsim_bench::{header, or_exit, BenchArgs};
use pimsim_core::PolicyKind;
use pimsim_sim::experiments::collaborative::run_collaborative;
use pimsim_sim::experiments::competitive::{run_competitive, CompetitiveConfig};
use pimsim_stats::table::{f3, Table};
use pimsim_types::VcMode;
use pimsim_workloads::pim_suite::PimBenchmark;
use pimsim_workloads::rodinia::GpuBenchmark;

fn main() {
    let args = BenchArgs::parse();
    // Stage 0: FR-FCFS-Cap (cap on row hits).
    // Stage 1: + cap counts current-mode requests (F3FS without mode-first).
    // Stage 2: + current mode first (full symmetric F3FS).
    // Stage 3: + asymmetric caps (favoring the slower MEM kernel).
    let stages: Vec<(&str, PolicyKind)> = vec![
        (
            "FR-FCFS-Cap (cap=32 hits)",
            PolicyKind::FrFcfsCap { cap: 32 },
        ),
        (
            "+ cap on mode requests",
            PolicyKind::F3fsNoModeFirst {
                mem_cap: 32,
                pim_cap: 32,
            },
        ),
        (
            "+ current mode first",
            PolicyKind::F3fs {
                mem_cap: 32,
                pim_cap: 32,
            },
        ),
        (
            "+ asymmetric caps (32/16)",
            PolicyKind::F3fs {
                mem_cap: 32,
                pim_cap: 16,
            },
        ),
    ];

    // Competitive half: P2 across all GPU kernels, VC2.
    let mut cfg = CompetitiveConfig::full(args.system(), args.scale, args.budget);
    cfg.pims = vec![PimBenchmark(2)];
    cfg.vcs = vec![VcMode::SplitPim];
    cfg.policies = stages.iter().map(|&(_, p)| p).collect();
    if args.quick {
        cfg.gpus = vec![4, 8, 11, 15, 17, 19]
            .into_iter()
            .map(GpuBenchmark)
            .collect();
    }
    eprintln!(
        "running Figure 14a ablation (P2 x {} GPU kernels + LLM)...",
        cfg.gpus.len()
    );
    let competitive = or_exit(run_competitive(&cfg));

    // LLM half: rerun the collaborative scenario per stage.
    let llm = or_exit(run_collaborative(&args.system(), args.scale, args.budget));
    let llm_for = |policy: PolicyKind| -> Option<f64> {
        // The collaborative driver includes the baselines and the tuned
        // F3FS; compute missing stages directly.
        let mut sys = args.system();
        sys.noc.vc_mode = VcMode::SplitPim;
        let mut runner = pimsim_sim::Runner::new(sys, policy);
        runner.max_gpu_cycles = args.budget;
        let s = pimsim_workloads::llm_scenario(
            72,
            32,
            4,
            args.system().gpu.max_outstanding_pim_per_warp as u32,
            args.scale,
        );
        runner
            .collaborative(Box::new(s.qkv), Box::new(s.mha))
            .ok()
            .map(|o| o.speedup(llm.qkv_alone, llm.mha_alone))
    };

    header("Figure 14a: F3FS component ablation (VC2)");
    let mut t = Table::new(vec![
        "stage".into(),
        "P2 fairness".into(),
        "P2 throughput".into(),
        "LLM speedup".into(),
    ]);
    for &(label, policy) in &stages {
        let fi = competitive.mean_fairness(policy, VcMode::SplitPim);
        let st = competitive.mean_throughput(policy, VcMode::SplitPim);
        let llm_speedup = llm_for(policy).map_or("-".to_owned(), f3);
        t.row(vec![label.into(), f3(fi), f3(st), llm_speedup]);
    }
    println!("{}", t.render());
    println!(
        "(paper: moving the CAP to mode requests raises P2 fairness 0.73 -> 0.80 and costs\n\
         the LLM 4%; mode-first adds throughput at the same fairness; asymmetry trades\n\
         competitive fairness for +10% LLM speedup)"
    );
}
