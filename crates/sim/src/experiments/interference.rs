//! Figure 5: average slowdown of the Rodinia suite on the SMs a PIM
//! kernel leaves (72 on HBM) when co-executing with memory-intensive GPU
//! kernels vs. a PIM kernel.
//!
//! The co-runners are the paper's picks: G4 (interconnect rate), G6
//! (BLP), G15 (DRAM rate), G17 (RBHR) on the PIM kernel's SMs (8 on
//! HBM), and the PIM kernel P1. The "72 SMs, no contention" bar isolates
//! the SM-loss effect from memory contention.

use pimsim_core::PolicyKind;
use pimsim_types::SystemConfig;
use pimsim_workloads::{
    gpu_kernel, pim_kernel, pim_suite::PimBenchmark, rodinia::memory_intensive_picks,
    rodinia::GpuBenchmark,
};

use crate::runner::Runner;
use crate::system::CycleBudgetExceeded;

use super::sweep::parallel_map;

/// One bar of Figure 5.
#[derive(Debug, Clone)]
pub struct InterferenceBar {
    /// Co-runner label (`none (72 SMs)`, `G4 (cfd)`, …, `P1 (Stream Add)`).
    pub corunner: String,
    /// Average speedup of the Rodinia suite on its co-execution SMs,
    /// normalized to its 80-SM standalone time.
    pub avg_speedup: f64,
}

/// Runs the Figure 5 experiment.
///
/// For every Rodinia kernel (on 72 SMs on HBM) × co-runner (on 8), measures
/// the victim's first-run time and normalizes to its 80-SM standalone run.
///
/// # Errors
///
/// [`CycleBudgetExceeded`] if a standalone run overruns `4 * budget`.
pub fn run_interference(
    system: &SystemConfig,
    scale: f64,
    budget: u64,
) -> Result<Vec<InterferenceBar>, CycleBudgetExceeded> {
    let victims = GpuBenchmark::all();
    // 80-SM standalone baselines.
    let sys = system.clone();
    let base80 = parallel_map(victims.clone(), move |v| {
        let mut r = Runner::new(sys.clone(), PolicyKind::FrFcfs);
        r.max_gpu_cycles = budget * 4;
        r.standalone(Box::new(gpu_kernel(v, 80, scale)), 0, false)
            .map(|out| out.cycles)
    })
    .into_iter()
    .collect::<Result<Vec<u64>, _>>()?;

    #[derive(Clone, Copy, PartialEq)]
    enum Corunner {
        None,
        Gpu(GpuBenchmark),
        Pim(PimBenchmark),
    }
    let mut corunners = vec![Corunner::None];
    corunners.extend(memory_intensive_picks().into_iter().map(Corunner::Gpu));
    corunners.push(Corunner::Pim(PimBenchmark(1)));

    let channels = system.dram.channels;
    let warps = system.gpu.pim_warps_per_sm;
    let outstanding = system.gpu.max_outstanding_pim_per_warp as u32;
    let (pim_sms, gpu_sms) = (system.pim_sms(), system.coexec_gpu_sms());

    let mut jobs = Vec::new();
    for (vi, &v) in victims.iter().enumerate() {
        for (ci, &c) in corunners.iter().enumerate() {
            jobs.push((vi, v, ci, c));
        }
    }
    let sys = system.clone();
    let speedups = parallel_map(jobs, move |(vi, v, ci, c)| {
        let mut r = Runner::new(sys.clone(), PolicyKind::FrFcfs);
        r.max_gpu_cycles = budget;
        let victim = Box::new(gpu_kernel(v, gpu_sms, scale));
        let contended = match c {
            Corunner::None => {
                // No contention: the victim alone on its own SMs.
                r.max_gpu_cycles = budget * 4;
                r.standalone(victim, pim_sms, false)?.cycles
            }
            Corunner::Gpu(g) => {
                let co = Box::new(gpu_kernel(g, pim_sms, scale * 0.5));
                r.coexec(victim, co, false).gpu_first_run
            }
            Corunner::Pim(p) => {
                let co = Box::new(pim_kernel(p, channels, warps, outstanding, scale));
                r.coexec(victim, co, true).gpu_first_run
            }
        };
        Ok((ci, base80[vi] as f64 / contended as f64))
    });

    let labels: Vec<String> = corunners
        .iter()
        .map(|c| match c {
            Corunner::None => format!("none ({gpu_sms} SMs)"),
            Corunner::Gpu(g) => g.to_string(),
            Corunner::Pim(p) => p.to_string(),
        })
        .collect();
    let mut sums = vec![0.0f64; corunners.len()];
    let mut counts = vec![0usize; corunners.len()];
    for speedup in speedups {
        let (ci, s) = speedup?;
        sums[ci] += s;
        counts[ci] += 1;
    }
    Ok(labels
        .into_iter()
        .enumerate()
        .map(|(ci, corunner)| InterferenceBar {
            corunner,
            avg_speedup: sums[ci] / counts[ci].max(1) as f64,
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Scaled-down check of the paper's headline claim: a PIM co-runner
    /// hurts more than any GPU co-runner (Figure 5 reports a 60% average
    /// slowdown with P1 vs. a worst case of 30% with Rodinia kernels).
    #[test]
    #[ignore = "several seconds; run via `scripts/tier1.sh --slow` or the fig5 binary"]
    fn pim_corunner_hurts_most() {
        let bars = run_interference(&SystemConfig::default(), 0.01, 8_000_000).expect("finishes");
        assert_eq!(bars.len(), 6);
        let none = bars[0].avg_speedup;
        let pim = bars.last().expect("nonempty").avg_speedup;
        assert!(none > pim, "contention must hurt: {none} vs {pim}");
        let worst_gpu = bars[1..5]
            .iter()
            .map(|b| b.avg_speedup)
            .fold(f64::INFINITY, f64::min);
        assert!(
            pim < worst_gpu,
            "PIM co-runner ({pim}) must hurt more than any GPU co-runner ({worst_gpu})"
        );
    }

    #[test]
    fn budget_overrun_is_an_error() {
        assert!(run_interference(&SystemConfig::default(), 0.01, 0).is_err());
    }
}
