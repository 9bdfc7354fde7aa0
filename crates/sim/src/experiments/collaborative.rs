//! The collaborative scenarios: a GPU kernel overlapped with a PIM kernel,
//! each run alone and then together under a list of (policy, VC)
//! settings. The LLM scenario (QKV generation on the GPU, multi-head
//! attention on PIM) is Figure 11 and the LLM half of Figure 14a; the FFT
//! scenario (transpose on the GPU, butterflies on PIM) is its mirror.

use pimsim_core::PolicyKind;
use pimsim_gpu::KernelModel;
use pimsim_types::{SystemConfig, VcMode};
use pimsim_workloads::{fft_scenario, llm_scenario};

use crate::runner::{CollabOutcome, Runner};
use crate::system::CycleBudgetExceeded;

use super::sweep::parallel_map;

/// Which pair of kernels a collaborative run overlaps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scenario {
    /// QKV generation on the GPU, multi-head attention on PIM; the GPU
    /// stage is the longer one.
    Llm,
    /// Transpose/twiddle on the GPU, row-wise butterflies on PIM; the PIM
    /// stage is the longer one.
    Fft,
}

impl Scenario {
    /// The GPU kernel (on the SMs the PIM kernel leaves,
    /// [`SystemConfig::coexec_gpu_sms`]) and the PIM kernel (one warp per
    /// channel) for `system` at `scale`.
    pub fn kernels(
        self,
        system: &SystemConfig,
        scale: f64,
    ) -> (Box<dyn KernelModel>, Box<dyn KernelModel>) {
        let gpu_sms = system.coexec_gpu_sms();
        let channels = system.dram.channels;
        let warps = system.gpu.pim_warps_per_sm;
        let outstanding = system.gpu.max_outstanding_pim_per_warp as u32;
        match self {
            Scenario::Llm => {
                let s = llm_scenario(gpu_sms, channels, warps, outstanding, scale);
                (Box::new(s.qkv), Box::new(s.mha))
            }
            Scenario::Fft => {
                let s = fft_scenario(gpu_sms, channels, warps, outstanding, scale);
                (Box::new(s.transpose), Box::new(s.butterflies))
            }
        }
    }
}

/// One concurrent run of a collaborative sweep.
#[derive(Debug, Clone)]
pub struct CollabPoint {
    /// Policy.
    pub policy: PolicyKind,
    /// VC configuration.
    pub vc: VcMode,
    /// Speedup over running the GPU kernel, then the PIM kernel; `None`
    /// if the pair overran the budget.
    pub speedup: Option<f64>,
}

/// A collaborative sweep: each kernel's standalone time and one point
/// per setting.
#[derive(Debug, Clone)]
pub struct CollabReport {
    /// One point per (policy, VC) setting, in the order given.
    pub points: Vec<CollabPoint>,
    /// GPU kernel alone (on the SMs above the PIM kernel's), GPU cycles.
    pub gpu_alone: u64,
    /// PIM kernel alone, GPU cycles.
    pub pim_alone: u64,
    /// Perfect-overlap speedup bound.
    pub ideal: f64,
}

/// F3FS CAP choices for the LLM, from a sensitivity study against our
/// scaled workloads (mirroring the paper's method; the paper lands on
/// MEM/PIM = 256/128 under VC1 and 64/64 under VC2 for its full-size
/// kernels). For us the study lands on a symmetric 32/32 under VC1 and an
/// asymmetric 32/16 — favoring the slower MEM kernel — under VC2; the
/// `fig14a` ablation regenerates the sweep.
pub fn f3fs_llm_caps(vc: VcMode) -> PolicyKind {
    match vc {
        VcMode::Shared => PolicyKind::F3fs {
            mem_cap: 32,
            pim_cap: 32,
        },
        VcMode::SplitPim => PolicyKind::F3fs {
            mem_cap: 32,
            pim_cap: 16,
        },
    }
}

/// Figure 11's settings: under each VC configuration, the eight
/// baselines and F3FS with the LLM-tuned CAPs ([`f3fs_llm_caps`]).
pub fn llm_settings() -> Vec<(PolicyKind, VcMode)> {
    [VcMode::Shared, VcMode::SplitPim]
        .into_iter()
        .flat_map(|vc| {
            let mut policies = PolicyKind::baselines();
            policies.push(f3fs_llm_caps(vc));
            policies.into_iter().map(move |policy| (policy, vc))
        })
        .collect()
}

/// Runs `scenario`'s two kernels alone (FR-FCFS, on four times the
/// budget), then together under every setting, side by side.
///
/// # Errors
///
/// [`CycleBudgetExceeded`] if a kernel alone overruns `4 * budget`. A
/// concurrent run that overruns `budget` is a point without a speedup.
pub fn run_collaborative(
    system: &SystemConfig,
    scenario: Scenario,
    scale: f64,
    budget: u64,
    settings: Vec<(PolicyKind, VcMode)>,
) -> Result<CollabReport, CycleBudgetExceeded> {
    let mut solo_runner = Runner::new(system.clone(), PolicyKind::FrFcfs);
    solo_runner.max_gpu_cycles = budget * 4;
    let (gpu, _) = scenario.kernels(system, scale);
    let gpu_alone = solo_runner.standalone(gpu, system.pim_sms(), false)?.cycles;
    let (_, pim) = scenario.kernels(system, scale);
    let pim_alone = solo_runner.standalone(pim, 0, true)?.cycles;

    let points = parallel_map(settings, |(policy, vc)| {
        let mut sys = system.clone();
        sys.noc.vc_mode = vc;
        let mut runner = Runner::new(sys, policy);
        runner.max_gpu_cycles = budget;
        let (gpu, pim) = scenario.kernels(system, scale);
        CollabPoint {
            policy,
            vc,
            speedup: runner
                .collaborative(gpu, pim)
                .ok()
                .map(|out| out.speedup(gpu_alone, pim_alone)),
        }
    });
    Ok(CollabReport {
        points,
        gpu_alone,
        pim_alone,
        ideal: CollabOutcome::ideal_speedup(gpu_alone, pim_alone),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[ignore = "several seconds; run via `scripts/tier1.sh --slow` or `regen fig11`"]
    fn qkv_runs_longer_and_speedups_bounded_by_ideal() {
        let report = run_collaborative(
            &SystemConfig::default(),
            Scenario::Llm,
            0.1,
            20_000_000,
            llm_settings(),
        )
        .expect("finishes");
        // The scenario's premise: QKV (GPU) is the longer kernel.
        assert!(
            report.gpu_alone > report.pim_alone,
            "QKV {} must outlast MHA {}",
            report.gpu_alone,
            report.pim_alone
        );
        assert!(report.ideal > 1.0 && report.ideal <= 2.0);
        for p in &report.points {
            let Some(speedup) = p.speedup else { continue };
            assert!(
                speedup <= report.ideal * 1.05,
                "{:?} exceeds ideal: {} > {}",
                p.policy,
                speedup,
                report.ideal
            );
        }
    }

    #[test]
    fn budget_overrun_is_an_error() {
        for scenario in [Scenario::Llm, Scenario::Fft] {
            let run = run_collaborative(&SystemConfig::default(), scenario, 0.01, 0, vec![]);
            assert!(run.is_err(), "{scenario:?}");
        }
    }
}
