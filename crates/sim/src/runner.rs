//! Standalone and co-execution run harnesses implementing the paper's
//! methodology (Section III-B/C):
//!
//! * **Standalone**: one kernel alone; its execution time is the speedup
//!   denominator's reference.
//! * **Competitive co-execution**: a GPU kernel on 72 SMs and a PIM kernel
//!   on 8 SMs, both re-launched in a loop until each has completed at
//!   least once; the first completed run of each is reported.
//! * **Collaborative co-execution**: both kernels once, end-to-end time
//!   against the sequential sum.

use pimsim_core::{McStats, PolicyKind};
use pimsim_gpu::KernelModel;
use pimsim_stats::metrics::CoexecMetrics;
use pimsim_types::SystemConfig;

use crate::system::{CycleBudgetExceeded, Simulator};

/// Shared run parameters.
#[derive(Debug, Clone)]
pub struct Runner {
    /// System configuration (VC mode lives in `system.noc.vc_mode`).
    pub system: SystemConfig,
    /// Memory-controller scheduling policy.
    pub policy: PolicyKind,
    /// Safety budget; runs failing to finish return an error.
    pub max_gpu_cycles: u64,
    /// Skip provably idle spans instead of ticking them cycle by cycle
    /// (see [`Simulator::set_fast_forward`]). On by default; results are
    /// bit-identical either way, so turning it off is only useful for
    /// measuring what the skip is worth or profiling the lock-step path.
    pub fast_forward: bool,
    /// Partition lag (see [`Simulator::set_partition_lag`]). On by
    /// default; results are bit-identical either way, so turning it off
    /// is only useful for measuring what lag is worth.
    pub partition_lag: bool,
    /// Run on [`Simulator::reference`] (see [`Runner::reference`]).
    reference: bool,
}

impl Runner {
    /// A runner over `system` with the given policy and a generous default
    /// cycle budget.
    pub fn new(system: SystemConfig, policy: PolicyKind) -> Self {
        Runner {
            system,
            policy,
            max_gpu_cycles: 60_000_000,
            fast_forward: true,
            partition_lag: true,
            reference: false,
        }
    }

    /// Like [`Runner::new`], but every simulation runs on
    /// [`Simulator::reference`], with every fast path off: the oracle the
    /// default must match exactly.
    pub fn reference(system: SystemConfig, policy: PolicyKind) -> Self {
        Runner {
            fast_forward: false,
            partition_lag: false,
            reference: true,
            ..Self::new(system, policy)
        }
    }

    /// Like [`Runner::new`], but resolves the policy through the registry
    /// from a spec string such as `"fr-fcfs"` or
    /// `"f3fs:mem-cap=64,pim-cap=16"` (see [`PolicyKind::parse_spec`]).
    ///
    /// # Errors
    ///
    /// Returns the registry's error for unknown names, unknown parameter
    /// keys, or out-of-range values.
    pub fn from_spec(
        system: SystemConfig,
        spec: &str,
    ) -> Result<Self, pimsim_core::policy::PolicyParseError> {
        Ok(Self::new(system, PolicyKind::parse_spec(spec)?))
    }

    fn simulator(&self) -> Simulator {
        let (system, policy) = (self.system.clone(), self.policy);
        let mut sim = if self.reference {
            Simulator::reference(system, policy)
        } else {
            Simulator::new(system, policy)
        };
        sim.set_fast_forward(self.fast_forward);
        sim.set_partition_lag(self.partition_lag);
        sim
    }
}

/// Result of a standalone run.
#[derive(Debug, Clone)]
pub struct SoloOutcome {
    /// Execution time in GPU cycles.
    pub cycles: u64,
    /// Interconnect injections by the kernel.
    pub icnt_injections: u64,
    /// Merged controller stats.
    pub mc: McStats,
}

impl SoloOutcome {
    /// Interconnect request arrival rate, requests per kilo-GPU-cycle.
    /// A zero-cycle outcome has rate 0, not NaN.
    pub fn icnt_rate(&self) -> f64 {
        if self.cycles == 0 {
            return 0.0;
        }
        self.icnt_injections as f64 * 1000.0 / self.cycles as f64
    }

    /// DRAM request arrival rate (MEM + PIM arrivals at the controllers),
    /// requests per kilo-GPU-cycle. A zero-cycle outcome has rate 0, not
    /// NaN.
    pub fn dram_rate(&self) -> f64 {
        if self.cycles == 0 {
            return 0.0;
        }
        (self.mc.mem_arrivals + self.mc.pim_arrivals) as f64 * 1000.0 / self.cycles as f64
    }
}

/// Result of a competitive co-execution run.
#[derive(Debug, Clone)]
pub struct CoexecOutcome {
    /// First-run execution time of the GPU (MEM) kernel, GPU cycles (the
    /// cycle budget if it starved).
    pub gpu_first_run: u64,
    /// First-run execution time of the PIM kernel, GPU cycles (the cycle
    /// budget if it starved).
    pub pim_first_run: u64,
    /// The GPU kernel never completed a run within the budget (denial of
    /// service — the paper's fairness-index-0 pathologies).
    pub gpu_starved: bool,
    /// The PIM kernel never completed a run within the budget.
    pub pim_starved: bool,
    /// Total simulated GPU cycles until both had completed once (or the
    /// budget).
    pub total_cycles: u64,
    /// MEM arrivals at the controllers over the window.
    pub mem_arrivals: u64,
    /// PIM arrivals at the controllers over the window.
    pub pim_arrivals: u64,
    /// Merged controller stats.
    pub mc: McStats,
}

impl CoexecOutcome {
    /// MEM request arrival rate at the MC, requests per kilo-GPU-cycle
    /// (Figure 6's quantity before normalization). A zero-cycle outcome
    /// has rate 0, not NaN.
    pub fn mem_arrival_rate(&self) -> f64 {
        if self.total_cycles == 0 {
            return 0.0;
        }
        self.mem_arrivals as f64 * 1000.0 / self.total_cycles as f64
    }

    /// Speedups and derived fairness/throughput against standalone times.
    /// A starved kernel reports a speedup of exactly 0, giving the paper's
    /// fairness index of 0.
    pub fn metrics(&self, gpu_alone: u64, pim_alone: u64) -> CoexecMetrics {
        CoexecMetrics {
            mem_speedup: if self.gpu_starved {
                0.0
            } else {
                gpu_alone as f64 / self.gpu_first_run as f64
            },
            pim_speedup: if self.pim_starved {
                0.0
            } else {
                pim_alone as f64 / self.pim_first_run as f64
            },
        }
    }
}

/// Result of a collaborative run.
#[derive(Debug, Clone)]
pub struct CollabOutcome {
    /// End-to-end concurrent execution time, GPU cycles.
    pub concurrent_cycles: u64,
    /// Merged controller stats.
    pub mc: McStats,
}

impl CollabOutcome {
    /// Speedup over sequential execution of the two kernels.
    pub fn speedup(&self, gpu_alone: u64, pim_alone: u64) -> f64 {
        (gpu_alone + pim_alone) as f64 / self.concurrent_cycles as f64
    }

    /// The ideal (perfect-overlap) speedup bound.
    pub fn ideal_speedup(gpu_alone: u64, pim_alone: u64) -> f64 {
        (gpu_alone + pim_alone) as f64 / gpu_alone.max(pim_alone) as f64
    }
}

impl Runner {
    /// Runs `model` alone on SMs `[sm_base, sm_base + slots)`.
    ///
    /// # Errors
    ///
    /// Returns [`CycleBudgetExceeded`] if the run does not finish in
    /// budget.
    pub fn standalone(
        &self,
        model: Box<dyn KernelModel>,
        sm_base: usize,
        is_pim: bool,
    ) -> Result<SoloOutcome, CycleBudgetExceeded> {
        let slots = model.num_slots();
        let mut sim = self.simulator();
        let k = sim.mount(model, (sm_base..sm_base + slots).collect(), is_pim, false);
        sim.run_until_all_first_done(self.max_gpu_cycles)?;
        Ok(SoloOutcome {
            cycles: sim.kernels()[k].first_run_cycles.expect("run finished"),
            icnt_injections: sim.kernels()[k].icnt_injections,
            mc: sim.merged_mc_stats(),
        })
    }

    /// Competitive co-execution: `gpu` on the high SMs, `pim` on SMs
    /// `[0, pim_slots)`, both looped until each completes once.
    ///
    /// `pim_is_pim` is false when the co-runner is another regular GPU
    /// kernel (used by the Figure 5 interference experiment).
    ///
    /// Starvation (a kernel failing to complete any run within the cycle
    /// budget) is a legitimate outcome under pathological policies; the
    /// returned outcome flags it instead of erroring.
    pub fn coexec(
        &self,
        gpu: Box<dyn KernelModel>,
        pim: Box<dyn KernelModel>,
        pim_is_pim: bool,
    ) -> CoexecOutcome {
        let pim_slots = pim.num_slots();
        let gpu_slots = gpu.num_slots();
        assert!(
            pim_slots + gpu_slots <= self.system.gpu.num_sms,
            "kernels need more SMs than the GPU has"
        );
        let mut sim = self.simulator();
        let kp = sim.mount(pim, (0..pim_slots).collect(), pim_is_pim, true);
        let kg = sim.mount(
            gpu,
            (pim_slots..pim_slots + gpu_slots).collect(),
            false,
            true,
        );
        // A budget overrun is starvation data, not an error; a kernel that
        // hasn't finished once while the co-runner looped 25 times is
        // declared starved early to keep sweeps fast.
        let _ = sim.run_with_starvation_cutoff(self.max_gpu_cycles, Some(25));
        let mc = sim.merged_mc_stats();
        let gpu_first = sim.kernels()[kg].first_run_cycles;
        let pim_first = sim.kernels()[kp].first_run_cycles;
        CoexecOutcome {
            gpu_first_run: gpu_first.unwrap_or(self.max_gpu_cycles),
            pim_first_run: pim_first.unwrap_or(self.max_gpu_cycles),
            gpu_starved: gpu_first.is_none(),
            pim_starved: pim_first.is_none(),
            total_cycles: sim.gpu_cycles(),
            mem_arrivals: mc.mem_arrivals,
            pim_arrivals: mc.pim_arrivals,
            mc,
        }
    }

    /// Collaborative co-execution: both kernels once, no restart.
    ///
    /// # Errors
    ///
    /// Returns [`CycleBudgetExceeded`] if the pair does not finish in
    /// budget.
    pub fn collaborative(
        &self,
        gpu: Box<dyn KernelModel>,
        pim: Box<dyn KernelModel>,
    ) -> Result<CollabOutcome, CycleBudgetExceeded> {
        let pim_slots = pim.num_slots();
        let gpu_slots = gpu.num_slots();
        assert!(
            pim_slots + gpu_slots <= self.system.gpu.num_sms,
            "kernels need more SMs than the GPU has"
        );
        let mut sim = self.simulator();
        sim.mount(pim, (0..pim_slots).collect(), true, false);
        sim.mount(
            gpu,
            (pim_slots..pim_slots + gpu_slots).collect(),
            false,
            false,
        );
        let total = sim.run_until_all_first_done(self.max_gpu_cycles)?;
        Ok(CollabOutcome {
            concurrent_cycles: total,
            mc: sim.merged_mc_stats(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pimsim_workloads::{
        gpu_kernel, pim_kernel, pim_suite::PimBenchmark, rodinia::GpuBenchmark,
    };

    fn small_cfg() -> SystemConfig {
        SystemConfig::default()
    }

    fn runner(policy: PolicyKind) -> Runner {
        let mut r = Runner::new(small_cfg(), policy);
        r.max_gpu_cycles = 20_000_000;
        r
    }

    const SCALE: f64 = 0.02;

    #[test]
    fn from_spec_resolves_through_registry() {
        let r = Runner::from_spec(small_cfg(), "f3fs:mem-cap=64,pim-cap=16").unwrap();
        assert_eq!(
            r.policy,
            PolicyKind::F3fs {
                mem_cap: 64,
                pim_cap: 16
            }
        );
        assert!(Runner::from_spec(small_cfg(), "warp-speed").is_err());
    }

    #[test]
    fn standalone_gpu_kernel_completes() {
        let r = runner(PolicyKind::FrFcfs);
        let k = gpu_kernel(GpuBenchmark(3), 8, SCALE);
        let out = r.standalone(Box::new(k), 0, false).expect("finishes");
        assert!(out.cycles > 0);
        assert!(out.icnt_injections > 0);
        assert!(out.mc.mem_arrivals > 0, "misses must reach DRAM");
        assert!(out.icnt_rate() > 0.0);
    }

    #[test]
    fn standalone_pim_kernel_completes() {
        let r = runner(PolicyKind::FrFcfs);
        let k = pim_kernel(PimBenchmark(1), 32, 4, 256, SCALE);
        let total = pimsim_gpu::KernelModel::total_requests(&k);
        let out = r.standalone(Box::new(k), 0, true).expect("finishes");
        assert!(out.cycles > 0);
        assert_eq!(out.mc.pim_arrivals, total);
        assert_eq!(out.mc.pim_served, total);
        // All-bank lock-step: BLP pinned at the bank count.
        let blp = out.mc.avg_blp().expect("active");
        assert!(blp > 12.0, "PIM BLP should be near 16, got {blp}");
        // Block structure yields high PIM row locality.
        let rbhr = out.mc.pim_rbhr().expect("ops served");
        assert!(rbhr > 0.6, "PIM RBHR should be high, got {rbhr}");
    }

    #[test]
    fn coexec_reports_both_first_runs() {
        let r = runner(PolicyKind::FrRrFcfs);
        let g = gpu_kernel(GpuBenchmark(8), 72, SCALE);
        let p = pim_kernel(PimBenchmark(2), 32, 4, 256, SCALE);
        let out = r.coexec(Box::new(g), Box::new(p), true);
        assert!(out.gpu_first_run > 0);
        assert!(out.pim_first_run > 0);
        assert!(out.total_cycles >= out.gpu_first_run.max(out.pim_first_run));
        assert!(out.mem_arrivals > 0 && out.pim_arrivals > 0);
    }

    #[test]
    fn contention_slows_the_gpu_kernel_down() {
        // The headline interference effect: co-running with a PIM kernel
        // slows a memory-intensive GPU kernel beyond its standalone time.
        let r = runner(PolicyKind::FrFcfs);
        let alone = r
            .standalone(Box::new(gpu_kernel(GpuBenchmark(15), 72, SCALE)), 8, false)
            .expect("alone finishes");
        let out = r.coexec(
            Box::new(gpu_kernel(GpuBenchmark(15), 72, SCALE)),
            Box::new(pim_kernel(PimBenchmark(1), 32, 4, 256, SCALE)),
            true,
        );
        assert!(!out.gpu_starved && !out.pim_starved);
        assert!(
            out.gpu_first_run > alone.cycles,
            "contended {} must exceed standalone {}",
            out.gpu_first_run,
            alone.cycles
        );
        let m = out.metrics(alone.cycles, out.pim_first_run); // speedup_pim = 1 here
        assert!(m.mem_speedup < 1.0);
    }

    #[test]
    fn collaborative_overlap_beats_nothing() {
        let r = runner(PolicyKind::FrFcfs);
        let g = gpu_kernel(GpuBenchmark(8), 72, SCALE);
        let p = pim_kernel(PimBenchmark(2), 32, 4, 256, SCALE);
        let out = r.collaborative(Box::new(g), Box::new(p)).expect("finishes");
        assert!(out.concurrent_cycles > 0);
        // Speedup over sequential must be at least ~1 (running together
        // can't be slower than twice the slowest here) and at most ideal.
        let ga = r
            .standalone(Box::new(gpu_kernel(GpuBenchmark(8), 72, SCALE)), 8, false)
            .unwrap()
            .cycles;
        let pa = r
            .standalone(
                Box::new(pim_kernel(PimBenchmark(2), 32, 4, 256, SCALE)),
                0,
                true,
            )
            .unwrap()
            .cycles;
        let s = out.speedup(ga, pa);
        let ideal = CollabOutcome::ideal_speedup(ga, pa);
        assert!(s > 0.5, "degenerate collaborative speedup {s}");
        assert!(s <= ideal * 1.05, "speedup {s} exceeds ideal {ideal}");
    }

    #[test]
    fn deterministic_across_identical_runs() {
        let r = runner(PolicyKind::F3fs {
            mem_cap: 256,
            pim_cap: 256,
        });
        let run = || {
            let g = gpu_kernel(GpuBenchmark(5), 72, SCALE);
            let p = pim_kernel(PimBenchmark(3), 32, 4, 256, SCALE);
            r.coexec(Box::new(g), Box::new(p), true)
        };
        let a = run();
        let b = run();
        assert_eq!(a.gpu_first_run, b.gpu_first_run);
        assert_eq!(a.pim_first_run, b.pim_first_run);
        assert_eq!(a.total_cycles, b.total_cycles);
    }

    #[test]
    fn zero_cycle_solo_rates_are_zero_not_nan() {
        let out = SoloOutcome {
            cycles: 0,
            icnt_injections: 42,
            mc: McStats::default(),
        };
        assert_eq!(out.icnt_rate(), 0.0);
        assert_eq!(out.dram_rate(), 0.0);
    }

    #[test]
    fn zero_cycle_coexec_rate_is_zero_not_nan() {
        let out = CoexecOutcome {
            gpu_first_run: 0,
            pim_first_run: 0,
            gpu_starved: true,
            pim_starved: true,
            total_cycles: 0,
            mem_arrivals: 7,
            pim_arrivals: 7,
            mc: McStats::default(),
        };
        assert_eq!(out.mem_arrival_rate(), 0.0);
    }

    #[test]
    #[should_panic(expected = "more SMs than the GPU has")]
    fn collaborative_rejects_oversubscribed_sms() {
        let r = runner(PolicyKind::FrFcfs);
        let num_sms = r.system.gpu.num_sms;
        let g = gpu_kernel(GpuBenchmark(8), num_sms, SCALE);
        let p = pim_kernel(PimBenchmark(2), 32, 4, 256, SCALE);
        let _ = r.collaborative(Box::new(g), Box::new(p));
    }
}
