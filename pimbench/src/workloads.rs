//! The benchmark's workloads. Each solo workload is one closed-loop
//! simulation per sample; `policy_sweep` is a grid of simulations run on
//! the worker pool, a slice of the sweep that regenerates
//! `results/fig8.txt`.

use pimsim_core::PolicyKind;
use pimsim_types::{SystemConfig, VcMode};

use crate::sim::{Kernel, SimSpec};

/// Every workload, in reporting order.
pub const NAMES: [&str; 6] = [
    "mem_sparse",
    "mem_dense",
    "pim_dense",
    "pim_sparse_lp5x",
    "coexec_f3fs",
    "policy_sweep",
];

/// Budget for solo simulations: about 35x the longest (`mem_sparse`), so
/// only a runaway simulation overruns it.
const SOLO_BUDGET: u64 = 4_000_000;
/// `policy_sweep`'s kernel pair, scale and budget: those of
/// `fig8 --scale 0.25 --budget 2000000`, which regenerates
/// `results/fig8.txt`. Of the pairs measured, G4 with P1 has the stage
/// mix closest to the whole sweep's (README.md).
const SWEEP_GPU: u8 = 4;
const SWEEP_PIM: u8 = 1;
const SWEEP_SCALE: f64 = 0.25;
const SWEEP_BUDGET: u64 = 2_000_000;
/// Threads `policy_sweep` runs on (the global pool's width).
pub const SWEEP_THREADS: usize = 2;

/// Fingerprints of one sample of each workload at seeds 0 and 1 (1 is
/// the held-out seed). Simulation is deterministic, so any change to
/// them is a change in simulated behaviour, not in speed.
const PINNED: [(&str, u64, u64); 12] = [
    ("mem_sparse", 0, 0x59e8_debf_dac1_f7fa),
    ("mem_dense", 0, 0xf96f_ff41_7c13_78ef),
    ("pim_dense", 0, 0x103b_5416_9c04_93c9),
    ("pim_sparse_lp5x", 0, 0xc465_9662_3ec0_17bb),
    ("coexec_f3fs", 0, 0xd81d_f5c3_1221_a62e),
    ("policy_sweep", 0, 0x2dc3_d3e3_c22d_45ba),
    ("mem_sparse", 1, 0xec11_21b2_3c3f_8908),
    ("mem_dense", 1, 0x4927_5632_5bbd_911a),
    // PIM kernels have no randomness: seed-invariant by construction.
    ("pim_dense", 1, 0x103b_5416_9c04_93c9),
    ("pim_sparse_lp5x", 1, 0xc465_9662_3ec0_17bb),
    ("coexec_f3fs", 1, 0xa4fa_9589_cfb9_b759),
    ("policy_sweep", 1, 0x8abf_3770_c09a_bc7d),
];

/// The pinned fingerprint of `name` at `seed`, if there is one.
pub fn pinned(name: &str, seed: u64) -> Option<u64> {
    PINNED
        .iter()
        .find(|(n, s, _)| *n == name && *s == seed)
        .map(|&(_, _, fp)| fp)
}

fn solo(cfg: SystemConfig, policy: PolicyKind, kernels: Vec<Kernel>) -> SimSpec {
    SimSpec {
        cfg,
        policy,
        kernels,
        restart: false,
        budget: SOLO_BUDGET,
        cutoff: None,
        first_sm: 0,
        memory_threads: 1,
    }
}

/// The simulations of one sample of `name`. `quick` shrinks every
/// workload (and the sweep's grid) for the smoke test.
pub fn specs(name: &str, quick: bool) -> Vec<SimSpec> {
    let s = |scale: f64| if quick { scale * 0.02 } else { scale };
    let hbm = SystemConfig::default;
    match name {
        // Compute-bound MEM with idle gaps: fast-forward and the memory
        // stage's idle logic do the work; no PIM path runs.
        "mem_sparse" => vec![solo(
            hbm(),
            PolicyKind::FrFcfs,
            vec![Kernel::Gpu {
                bench: 10,
                sms: 8,
                scale: s(1.0),
            }],
        )],
        // Saturated load/store: L2 MSHR exhaustion and eject
        // backpressure, full controller steps every cycle, no PIM.
        "mem_dense" => vec![solo(
            hbm(),
            PolicyKind::FrFcfs,
            vec![Kernel::Gpu {
                bench: 11,
                sms: 80,
                scale: s(0.5),
            }],
        )],
        // Saturated all-bank PIM: the request crossbar dominates.
        "pim_dense" => vec![solo(
            hbm(),
            PolicyKind::FrFcfs,
            vec![Kernel::Pim {
                bench: 1,
                cap: 256,
                scale: s(2.0),
            }],
        )],
        // Throttled PIM on the second DRAM backend: the completion stage
        // dominates, with nonzero tFAW/tWTR.
        "pim_sparse_lp5x" => {
            let kind = pimsim_dram::backend::parse_spec("lp5x:ranks=4")
                .expect("lp5x is a registered backend");
            vec![solo(
                pimsim_dram::backend::system_config(kind),
                PolicyKind::FrFcfs,
                vec![Kernel::Pim {
                    bench: 1,
                    cap: 4,
                    scale: s(1.5),
                }],
            )]
        }
        // The paper's concurrent servicing: mode switches, mixed queues.
        "coexec_f3fs" => {
            let mut cfg = hbm();
            cfg.noc.vc_mode = VcMode::SplitPim;
            vec![SimSpec {
                restart: true,
                cutoff: Some(25),
                ..solo(
                    cfg,
                    PolicyKind::f3fs_competitive(),
                    vec![
                        Kernel::Pim {
                            bench: 2,
                            cap: 256,
                            scale: s(0.25),
                        },
                        Kernel::Gpu {
                            bench: 8,
                            sms: 72,
                            scale: s(0.25),
                        },
                    ],
                )
            }]
        }
        "policy_sweep" => sweep(quick),
        other => panic!("unknown workload {other}"),
    }
}

/// One kernel pair of the Figure 8 sweep, run as `run_competitive` runs
/// it: the standalone baselines (the GPU kernel on 80 SMs and on SMs
/// 8..80, the PIM kernel on 8), then the pair under every policy with
/// VC1 and with VC2.
fn sweep(quick: bool) -> Vec<SimSpec> {
    let scale = if quick { 0.002 } else { SWEEP_SCALE };
    let hbm = SystemConfig::default();
    let cap = hbm.gpu.max_outstanding_pim_per_warp as u32;
    let pim = Kernel::Pim {
        bench: SWEEP_PIM,
        cap,
        scale,
    };
    let gpu = |sms| Kernel::Gpu {
        bench: SWEEP_GPU,
        sms,
        scale,
    };
    let baseline = |k, first_sm| SimSpec {
        budget: SWEEP_BUDGET * 4,
        first_sm,
        ..solo(hbm.clone(), PolicyKind::FrFcfs, vec![k])
    };
    let mut out = vec![baseline(gpu(80), 0), baseline(gpu(72), 8), baseline(pim, 0)];
    for vc in [VcMode::Shared, VcMode::SplitPim] {
        for policy in PolicyKind::all() {
            let mut cfg = hbm.clone();
            cfg.noc.vc_mode = vc;
            out.push(SimSpec {
                cfg,
                policy,
                kernels: vec![pim, gpu(72)],
                restart: true,
                budget: SWEEP_BUDGET,
                cutoff: Some(25),
                first_sm: 0,
                memory_threads: 1,
            });
        }
    }
    out
}
