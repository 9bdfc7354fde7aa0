//! The figure renderers behind `regen`, the table of the `results/`
//! files they write, and the scenario set the simulator gates `hotloop`
//! and `ablation` share.
//!
//! Every figure takes the same flags (see [`BenchArgs`]):
//!
//! * `--scale <f64>` — workload scale (default 0.2; 1.0 = the largest
//!   footprints the fast sweep was tuned for).
//! * `--budget <u64>` — per-simulation GPU-cycle budget (default 6M).
//! * `--quick` — restrict sweeps to a representative kernel subset.
//! * `--dram <spec>` — DRAM backend spec resolved through
//!   `pimsim_dram::backend` (default `hbm`; e.g. `lp5x:ranks=4`).
//!
//! Output is aligned text (the paper's artifact plots the same series with
//! matplotlib; we print the rows so they can be diffed).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use pimsim_core::policy::PolicyKind;
use pimsim_core::McStats;
use pimsim_sim::{KernelModel, Runner};
use pimsim_types::{DramBackendKind, SystemConfig};
use pimsim_workloads::{gpu_kernel, pim_kernel, pim_suite::PimBenchmark, rodinia::GpuBenchmark};

pub mod figures;
pub mod regen;

/// The flags every figure takes.
#[derive(Debug, Clone)]
pub struct BenchArgs {
    /// Workload scale factor.
    pub scale: f64,
    /// Per-simulation GPU-cycle budget.
    pub budget: u64,
    /// Use a reduced kernel subset.
    pub quick: bool,
    /// DRAM backend the sweep runs on (registry-resolved; default HBM).
    pub dram: DramBackendKind,
}

impl Default for BenchArgs {
    fn default() -> Self {
        BenchArgs {
            scale: 0.2,
            budget: 6_000_000,
            quick: false,
            dram: DramBackendKind::default(),
        }
    }
}

impl BenchArgs {
    /// Parses `flags` over the defaults.
    ///
    /// # Errors
    ///
    /// A message naming a flag that is unknown or lacks a valid value.
    pub fn parse<S: AsRef<str>>(flags: &[S]) -> Result<Self, String> {
        let mut args = BenchArgs::default();
        let mut it = flags.iter().map(AsRef::as_ref);
        while let Some(flag) = it.next() {
            let mut value = |msg: &str| it.next().ok_or_else(|| msg.to_owned());
            match flag {
                "--scale" => {
                    let msg = "--scale needs a positive number";
                    args.scale = value(msg)?.parse().map_err(|_| msg)?;
                }
                "--budget" => {
                    let msg = "--budget needs an integer";
                    args.budget = value(msg)?.parse().map_err(|_| msg)?;
                }
                "--quick" => args.quick = true,
                "--dram" => {
                    args.dram = pimsim_dram::backend::parse_spec(value("--dram needs a spec")?)
                        .map_err(|e| format!("--dram: {e}"))?;
                }
                other => return Err(format!("unknown flag: {other}")),
            }
        }
        if !pimsim_workloads::valid_scale(args.scale) {
            return Err("--scale must be finite and positive".into());
        }
        Ok(args)
    }

    /// The system configuration for the selected backend (Table I GPU
    /// side; memory side installed by the backend registry).
    pub fn system(&self) -> SystemConfig {
        pimsim_dram::backend::system_config(self.dram)
    }
}

/// The simulator-throughput scenarios `hotloop` gates on counters and
/// `ablation` switches fast paths off on, in report order.
pub const HOTLOOP_SCENARIOS: [&str; 6] = [
    "standalone_mem",
    "standalone_pim",
    "standalone_pim_lp5x",
    "sparse_pim",
    "sparse_pim_lp5x",
    "coexec_f3fs",
];

/// Workload scale of the standalone MEM and PIM scenarios.
const HOTLOOP_SCALE: f64 = 1.0;
/// Co-execution is slower per simulated cycle; a smaller size keeps the
/// measurement wall-time reasonable.
const HOTLOOP_COEXEC_SCALE: f64 = 0.2;
/// GPU-cycle budget of every scenario run.
pub const HOTLOOP_BUDGET: u64 = 60_000_000;

/// Scenario `name`'s system configuration, resolved through the DRAM
/// backend registry exactly like `--dram` on the CLI: `_lp5x`-suffixed
/// scenarios run the LPDDR5X-PIM substrate at 4 ranks, everything else
/// the default HBM tables.
pub fn hotloop_config(name: &str) -> SystemConfig {
    if name.ends_with("_lp5x") {
        let kind = pimsim_dram::backend::parse_spec("lp5x:ranks=4").expect("registered backend");
        pimsim_dram::backend::system_config(kind)
    } else {
        SystemConfig::default()
    }
}

/// Scenario `name`'s scheduling policy: F3FS for co-execution, FR-FCFS
/// otherwise.
pub fn hotloop_policy(name: &str) -> PolicyKind {
    if name == "coexec_f3fs" {
        PolicyKind::f3fs_competitive()
    } else {
        PolicyKind::FrFcfs
    }
}

/// Scenario `name`'s kernels as `(model, is_pim)` in mount order: one
/// for a standalone scenario; for co-execution the PIM kernel (on the
/// low SMs), then the GPU kernel, as [`Runner::coexec`] mounts them.
///
/// The `sparse_pim` scenarios throttle P1 with a per-warp credit cap of
/// 4, so the request crossbar alternates between empty and lightly
/// loaded and the completion stage's pull-driven ack drains run almost
/// every cycle.
///
/// # Panics
///
/// Panics on a name outside [`HOTLOOP_SCENARIOS`].
pub fn hotloop_kernels(name: &str) -> Vec<(Box<dyn KernelModel>, bool)> {
    let pim = |bench, cap, scale| -> (Box<dyn KernelModel>, bool) {
        (
            Box::new(pim_kernel(PimBenchmark(bench), 32, 4, cap, scale)),
            true,
        )
    };
    match name {
        "standalone_mem" => vec![(
            Box::new(gpu_kernel(GpuBenchmark(10), 8, HOTLOOP_SCALE)),
            false,
        )],
        "standalone_pim" | "standalone_pim_lp5x" => vec![pim(1, 256, HOTLOOP_SCALE)],
        "sparse_pim" | "sparse_pim_lp5x" => vec![pim(1, 4, 0.5)],
        "coexec_f3fs" => vec![
            pim(2, 256, HOTLOOP_COEXEC_SCALE),
            (
                Box::new(gpu_kernel(GpuBenchmark(8), 72, HOTLOOP_COEXEC_SCALE)),
                false,
            ),
        ],
        other => panic!("unknown hotloop scenario {other}"),
    }
}

/// A runner for scenario `name`: its configuration and policy with the
/// default fast paths and [`HOTLOOP_BUDGET`]. Callers flip switches on it
/// before [`run_hotloop_scenario`].
pub fn hotloop_runner(name: &str) -> Runner {
    let mut r = Runner::new(hotloop_config(name), hotloop_policy(name));
    r.max_gpu_cycles = HOTLOOP_BUDGET;
    r
}

/// Runs scenario `name` once on `runner`; returns the simulated GPU
/// cycles (the kernel's first run when standalone, the whole run for
/// co-execution) and the merged controller stats.
///
/// # Panics
///
/// Panics if a standalone scenario exceeds the runner's budget.
pub fn run_hotloop_scenario(name: &str, runner: &Runner) -> (u64, McStats) {
    let mut kernels = hotloop_kernels(name);
    if kernels.len() == 1 {
        let (kernel, is_pim) = kernels.pop().expect("one kernel");
        let out = runner.standalone(kernel, 0, is_pim).expect("finishes");
        return (out.cycles, out.mc);
    }
    let (gpu, _) = kernels.pop().expect("GPU kernel mounts last");
    let (pim, is_pim) = kernels.pop().expect("PIM kernel mounts first");
    let out = runner.coexec(gpu, pim, is_pim);
    (out.total_cycles, out.mc)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let a = BenchArgs::default();
        assert!(a.scale > 0.0);
        assert!(a.budget > 0);
        assert!(!a.quick);
        a.system().validate().unwrap();
    }
}
