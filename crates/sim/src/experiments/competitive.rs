//! Competitive co-execution sweeps: Figures 6, 8, 10, 13, and 14b.
//!
//! A sweep point is one (GPU kernel, PIM kernel, policy, VC configuration)
//! co-execution, reduced against per-kernel standalone baselines into the
//! paper's metrics: fairness index, system throughput, MEM arrival-rate
//! ratio, mode switches, and switch overheads.

use std::collections::HashMap;

use pimsim_core::PolicyKind;
use pimsim_types::{SystemConfig, VcMode};
use pimsim_workloads::{gpu_kernel, pim_kernel, pim_suite::PimBenchmark, rodinia::GpuBenchmark};

use crate::runner::Runner;
use crate::system::CycleBudgetExceeded;

use super::sweep::parallel_map;

/// Parameters of a competitive sweep.
#[derive(Debug, Clone)]
pub struct CompetitiveConfig {
    /// Base system configuration (its `noc.vc_mode` is overridden per
    /// point).
    pub system: SystemConfig,
    /// Work scale.
    pub scale: f64,
    /// Per-simulation GPU-cycle budget.
    pub budget: u64,
    /// GPU kernels to sweep.
    pub gpus: Vec<GpuBenchmark>,
    /// PIM kernels to sweep.
    pub pims: Vec<PimBenchmark>,
    /// Policies to sweep.
    pub policies: Vec<PolicyKind>,
    /// VC configurations to sweep.
    pub vcs: Vec<VcMode>,
}

impl CompetitiveConfig {
    /// The paper's full sweep: 20×9 kernel pairs × 9 policies × 2 VCs.
    pub fn full(system: SystemConfig, scale: f64, budget: u64) -> Self {
        CompetitiveConfig {
            system,
            scale,
            budget,
            gpus: GpuBenchmark::all(),
            pims: PimBenchmark::all(),
            policies: PolicyKind::all(),
            vcs: vec![VcMode::Shared, VcMode::SplitPim],
        }
    }
}

/// Standalone reference times for one sweep.
#[derive(Debug, Clone, Default)]
pub struct Baselines {
    /// GPU kernel alone on 80 SMs (speedup reference), GPU cycles.
    pub gpu80: HashMap<u8, u64>,
    /// GPU kernel alone on its co-execution SMs
    /// ([`SystemConfig::coexec_gpu_sms`]: 72 on HBM; the arrival-rate
    /// reference and Figure 5's no-contention bar), GPU cycles and MEM
    /// arrival rate.
    pub gpu72: HashMap<u8, (u64, f64)>,
    /// PIM kernel alone on its SMs ([`SystemConfig::pim_sms`]: 8 on HBM),
    /// GPU cycles.
    pub pim8: HashMap<u8, u64>,
}

/// One sweep point's reduced results.
#[derive(Debug, Clone)]
pub struct CompetitivePoint {
    /// GPU benchmark.
    pub gpu: GpuBenchmark,
    /// PIM benchmark.
    pub pim: PimBenchmark,
    /// Policy.
    pub policy: PolicyKind,
    /// VC configuration.
    pub vc: VcMode,
    /// GPU (MEM) kernel speedup vs. 80-SM standalone.
    pub mem_speedup: f64,
    /// PIM kernel speedup vs. 8-SM standalone.
    pub pim_speedup: f64,
    /// Fairness index.
    pub fairness: f64,
    /// System throughput.
    pub throughput: f64,
    /// MEM arrival rate at the MC, normalized to the GPU kernel's
    /// standalone rate on its co-execution SMs (Figure 6).
    pub mem_arrival_ratio: f64,
    /// Completed mode switches.
    pub switches: u64,
    /// Additional MEM conflicts per MEM→PIM switch (Figure 10b).
    pub conflicts_per_switch: f64,
    /// MEM drain latency per MEM→PIM switch, DRAM cycles (Figure 10c).
    pub drain_per_switch: f64,
}

/// A finished sweep.
#[derive(Debug, Clone)]
pub struct CompetitiveReport {
    /// Standalone references.
    pub baselines: Baselines,
    /// All sweep points.
    pub points: Vec<CompetitivePoint>,
}

impl CompetitiveReport {
    /// Points matching a policy and VC configuration.
    pub fn slice(&self, policy: PolicyKind, vc: VcMode) -> Vec<&CompetitivePoint> {
        self.points
            .iter()
            .filter(|p| p.policy == policy && p.vc == vc)
            .collect()
    }

    /// Mean fairness index for (policy, vc).
    pub fn mean_fairness(&self, policy: PolicyKind, vc: VcMode) -> f64 {
        let s = self.slice(policy, vc);
        s.iter().map(|p| p.fairness).sum::<f64>() / s.len().max(1) as f64
    }

    /// Mean system throughput for (policy, vc).
    pub fn mean_throughput(&self, policy: PolicyKind, vc: VcMode) -> f64 {
        let s = self.slice(policy, vc);
        s.iter().map(|p| p.throughput).sum::<f64>() / s.len().max(1) as f64
    }

    /// Geometric-mean mode switches of `policy` normalized to FCFS over
    /// matching kernel pairs (Figure 10a). Requires FCFS in the sweep.
    pub fn switches_vs_fcfs(&self, policy: PolicyKind, vc: VcMode) -> Option<f64> {
        let fcfs: HashMap<(u8, u8), u64> = self
            .points
            .iter()
            .filter(|p| p.policy == PolicyKind::Fcfs && p.vc == vc)
            .map(|p| ((p.gpu.0, p.pim.0), p.switches))
            .collect();
        let ratios: Vec<f64> = self
            .slice(policy, vc)
            .iter()
            .filter_map(|p| {
                let base = *fcfs.get(&(p.gpu.0, p.pim.0))?;
                (base > 0).then(|| (p.switches.max(1)) as f64 / base as f64)
            })
            .collect();
        pimsim_stats::geomean(&ratios)
    }
}

/// Runs the standalone baselines for a sweep's kernels.
///
/// # Errors
///
/// [`CycleBudgetExceeded`] if a baseline overruns four times the budget.
pub fn run_baselines(cfg: &CompetitiveConfig) -> Result<Baselines, CycleBudgetExceeded> {
    let system = cfg.system.clone();
    let channels = system.dram.channels;
    let warps = system.gpu.pim_warps_per_sm;
    let outstanding = system.gpu.max_outstanding_pim_per_warp as u32;
    let (pim_sms, gpu_sms) = (system.pim_sms(), system.coexec_gpu_sms());
    #[derive(Clone, Copy)]
    enum Job {
        Gpu80(GpuBenchmark),
        Gpu72(GpuBenchmark),
        Pim(PimBenchmark),
    }
    let mut jobs = Vec::new();
    for &g in &cfg.gpus {
        jobs.push(Job::Gpu80(g));
        jobs.push(Job::Gpu72(g));
    }
    for &p in &cfg.pims {
        jobs.push(Job::Pim(p));
    }
    let scale = cfg.scale;
    let budget = cfg.budget;
    let results = parallel_map(jobs, move |job| {
        let mut runner = Runner::new(system.clone(), PolicyKind::FrFcfs);
        runner.max_gpu_cycles = budget * 4;
        let out = match job {
            Job::Gpu80(b) => runner.standalone(Box::new(gpu_kernel(b, 80, scale)), 0, false),
            Job::Gpu72(b) => {
                runner.standalone(Box::new(gpu_kernel(b, gpu_sms, scale)), pim_sms, false)
            }
            Job::Pim(b) => runner.standalone(
                Box::new(pim_kernel(b, channels, warps, outstanding, scale)),
                0,
                true,
            ),
        };
        out.map(|out| (job, out))
    });
    let mut baselines = Baselines::default();
    for result in results {
        let (job, out) = result?;
        match job {
            Job::Gpu80(b) => {
                baselines.gpu80.insert(b.0, out.cycles);
            }
            Job::Gpu72(b) => {
                let rate = out.mc.mem_arrivals as f64 * 1000.0 / out.cycles as f64;
                baselines.gpu72.insert(b.0, (out.cycles, rate));
            }
            Job::Pim(b) => {
                baselines.pim8.insert(b.0, out.cycles);
            }
        }
    }
    Ok(baselines)
}

/// Runs the full competitive sweep (baselines plus every point), in
/// parallel.
///
/// # Errors
///
/// [`CycleBudgetExceeded`] if a baseline overruns ([`run_baselines`]).
pub fn run_competitive(cfg: &CompetitiveConfig) -> Result<CompetitiveReport, CycleBudgetExceeded> {
    let baselines = run_baselines(cfg)?;
    let system = cfg.system.clone();
    let channels = system.dram.channels;
    let warps = system.gpu.pim_warps_per_sm;
    let outstanding = system.gpu.max_outstanding_pim_per_warp as u32;
    let gpu_sms = system.coexec_gpu_sms();
    let mut jobs = Vec::new();
    for &vc in &cfg.vcs {
        for &policy in &cfg.policies {
            for &g in &cfg.gpus {
                for &p in &cfg.pims {
                    jobs.push((g, p, policy, vc));
                }
            }
        }
    }
    let scale = cfg.scale;
    let budget = cfg.budget;
    let b = baselines.clone();
    let points = parallel_map(jobs, move |(g, p, policy, vc)| {
        let mut system = system.clone();
        system.noc.vc_mode = vc;
        let mut runner = Runner::new(system, policy);
        runner.max_gpu_cycles = budget;
        let out = runner.coexec(
            Box::new(gpu_kernel(g, gpu_sms, scale)),
            Box::new(pim_kernel(p, channels, warps, outstanding, scale)),
            true,
        );
        let gpu80 = b.gpu80[&g.0];
        let pim8 = b.pim8[&p.0];
        let m = out.metrics(gpu80, pim8);
        let (_, solo_rate) = b.gpu72[&g.0];
        CompetitivePoint {
            gpu: g,
            pim: p,
            policy,
            vc,
            mem_speedup: m.mem_speedup,
            pim_speedup: m.pim_speedup,
            fairness: m.fairness_index(),
            throughput: m.system_throughput(),
            mem_arrival_ratio: if solo_rate > 0.0 {
                out.mem_arrival_rate() / solo_rate
            } else {
                0.0
            },
            switches: out.mc.switches,
            conflicts_per_switch: out.mc.conflicts_per_switch().unwrap_or(0.0),
            drain_per_switch: out.mc.drain_latency_per_switch().unwrap_or(0.0),
        }
    });
    Ok(CompetitiveReport { baselines, points })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config() -> CompetitiveConfig {
        CompetitiveConfig {
            system: SystemConfig::default(),
            scale: 0.01,
            budget: 4_000_000,
            gpus: vec![GpuBenchmark(8)],
            pims: vec![PimBenchmark(2)],
            policies: vec![
                PolicyKind::Fcfs,
                PolicyKind::FrFcfs,
                PolicyKind::F3fs {
                    mem_cap: 256,
                    pim_cap: 256,
                },
            ],
            vcs: vec![VcMode::Shared, VcMode::SplitPim],
        }
    }

    #[test]
    fn sweep_produces_every_point_with_sane_metrics() {
        let report = run_competitive(&tiny_config()).expect("baselines finish");
        assert_eq!(report.points.len(), 3 * 2);
        for p in &report.points {
            assert!((0.0..=1.0).contains(&p.fairness), "{p:?}");
            assert!(p.throughput >= 0.0 && p.throughput <= 3.5, "{p:?}");
            // At tiny scales a contended run can beat the 80-SM standalone
            // (different SM partitioning + queueing-induced locality — the
            // paper observes the same effect in Figure 6); just bound it.
            assert!(p.mem_speedup <= 2.0, "implausible speedup: {p:?}");
        }
        // FCFS must switch at least as often as F3FS (geomean ratio <= 1).
        let f3 = report
            .switches_vs_fcfs(
                PolicyKind::F3fs {
                    mem_cap: 256,
                    pim_cap: 256,
                },
                VcMode::SplitPim,
            )
            .expect("FCFS present");
        assert!(f3 <= 1.0, "F3FS must not switch more than FCFS: {f3}");
    }

    #[test]
    fn budget_overrun_is_an_error() {
        let cfg = CompetitiveConfig {
            budget: 0,
            ..tiny_config()
        };
        assert!(run_baselines(&cfg).is_err());
        assert!(run_competitive(&cfg).is_err());
    }
}
