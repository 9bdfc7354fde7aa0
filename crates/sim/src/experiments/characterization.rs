//! Figure 4: memory access characteristics of the Rodinia suite (on 80
//! and 8 SMs) and the PIM kernels — interconnect arrival rate, DRAM
//! arrival rate, bank-level parallelism, and row-buffer hit rate.

use pimsim_core::PolicyKind;
use pimsim_gpu::KernelModel;
use pimsim_stats::{FiveNumber, Samples};
use pimsim_types::SystemConfig;
use pimsim_workloads::{gpu_kernel, pim_kernel, pim_suite::PimBenchmark, rodinia::GpuBenchmark};

use crate::runner::Runner;
use crate::system::CycleBudgetExceeded;

use super::sweep::parallel_map;

/// One kernel's measured memory behaviour.
#[derive(Debug, Clone)]
pub struct KernelProfile {
    /// Kernel label (`G4 (cfd)` / `P1 (Stream Add)`).
    pub label: String,
    /// Interconnect request arrival rate, requests / kilo-GPU-cycle.
    pub icnt_rate: f64,
    /// DRAM request arrival rate, requests / kilo-GPU-cycle.
    pub dram_rate: f64,
    /// Average bank-level parallelism over active DRAM cycles.
    pub blp: f64,
    /// Row-buffer hit rate at the controllers.
    pub rbhr: f64,
    /// Standalone execution time, GPU cycles.
    pub cycles: u64,
}

/// The three populations of Figure 4.
#[derive(Debug, Clone)]
pub struct CharacterizationReport {
    /// Rodinia on 80 SMs.
    pub gpu80: Vec<KernelProfile>,
    /// Rodinia on 8 SMs.
    pub gpu8: Vec<KernelProfile>,
    /// The PIM suite (8 SMs / 32 warps).
    pub pim: Vec<KernelProfile>,
}

/// Box-plot summaries of one metric across the three populations.
#[derive(Debug, Clone, Copy)]
pub struct MetricBoxes {
    /// GPU-80 five-number summary.
    pub gpu80: FiveNumber,
    /// GPU-8 five-number summary.
    pub gpu8: FiveNumber,
    /// PIM five-number summary.
    pub pim: FiveNumber,
}

impl CharacterizationReport {
    fn boxes(&self, f: impl Fn(&KernelProfile) -> f64) -> MetricBoxes {
        let summary = |v: &[KernelProfile]| -> FiveNumber {
            v.iter()
                .map(&f)
                .collect::<Samples>()
                .five_number()
                .expect("population nonempty")
        };
        MetricBoxes {
            gpu80: summary(&self.gpu80),
            gpu8: summary(&self.gpu8),
            pim: summary(&self.pim),
        }
    }

    /// Figure 4a: interconnect arrival-rate boxes.
    pub fn icnt_boxes(&self) -> MetricBoxes {
        self.boxes(|p| p.icnt_rate)
    }

    /// Figure 4b: DRAM arrival-rate boxes.
    pub fn dram_boxes(&self) -> MetricBoxes {
        self.boxes(|p| p.dram_rate)
    }

    /// Figure 4c: bank-level-parallelism boxes.
    pub fn blp_boxes(&self) -> MetricBoxes {
        self.boxes(|p| p.blp)
    }

    /// Figure 4d: row-buffer-hit-rate boxes.
    pub fn rbhr_boxes(&self) -> MetricBoxes {
        self.boxes(|p| p.rbhr)
    }
}

/// Runs the 49 standalone characterization simulations (20 Rodinia × two
/// SM counts, 9 PIM kernels) under FR-FCFS / VC1, in parallel.
///
/// # Errors
///
/// [`CycleBudgetExceeded`] if a standalone run overruns `budget`.
pub fn characterize(
    system: &SystemConfig,
    scale: f64,
    budget: u64,
) -> Result<CharacterizationReport, CycleBudgetExceeded> {
    #[derive(Clone, Copy)]
    enum Job {
        Gpu(GpuBenchmark, usize),
        Pim(PimBenchmark),
    }
    let mut jobs = Vec::new();
    for b in GpuBenchmark::all() {
        jobs.push(Job::Gpu(b, 80));
        jobs.push(Job::Gpu(b, 8));
    }
    for b in PimBenchmark::all() {
        jobs.push(Job::Pim(b));
    }
    let channels = system.dram.channels;
    let warps = system.gpu.pim_warps_per_sm;
    let outstanding = system.gpu.max_outstanding_pim_per_warp as u32;
    let sys = system.clone();
    let profiles = parallel_map(jobs, move |job| {
        let mut runner = Runner::new(sys.clone(), PolicyKind::FrFcfs);
        runner.max_gpu_cycles = budget;
        let (label, kernel, is_pim): (_, Box<dyn KernelModel>, _) = match job {
            Job::Gpu(b, sms) => (b.to_string(), Box::new(gpu_kernel(b, sms, scale)), false),
            Job::Pim(b) => (
                b.to_string(),
                Box::new(pim_kernel(b, channels, warps, outstanding, scale)),
                true,
            ),
        };
        let out = runner.standalone(kernel, 0, is_pim)?;
        let rbhr = if is_pim {
            out.mc.pim_rbhr()
        } else {
            out.mc.mem_rbhr()
        };
        Ok((
            job,
            KernelProfile {
                label,
                icnt_rate: out.icnt_rate(),
                dram_rate: out.dram_rate(),
                blp: out.mc.avg_blp().unwrap_or(0.0),
                rbhr: rbhr.unwrap_or(0.0),
                cycles: out.cycles,
            },
        ))
    });
    let mut report = CharacterizationReport {
        gpu80: Vec::new(),
        gpu8: Vec::new(),
        pim: Vec::new(),
    };
    for profile in profiles {
        let (job, p) = profile?;
        match job {
            Job::Gpu(_, 80) => report.gpu80.push(p),
            Job::Gpu(..) => report.gpu8.push(p),
            Job::Pim(_) => report.pim.push(p),
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A scaled-down end-to-end characterization checking the paper's
    /// qualitative claims (Section IV).
    #[test]
    fn pim_kernels_dominate_dram_arrivals_and_blp() {
        let system = SystemConfig::default();
        let report = characterize(&system, 0.01, 20_000_000).expect("finishes");
        assert_eq!(report.gpu80.len(), 20);
        assert_eq!(report.gpu8.len(), 20);
        assert_eq!(report.pim.len(), 9);

        // "PIM request arrival rate at the memory controller outpaces
        // GPU-8" (the paper reports 8.33x on the median).
        let dram = report.dram_boxes();
        assert!(
            dram.pim.median > dram.gpu8.median,
            "PIM median DRAM rate {} must exceed GPU-8 {}",
            dram.pim.median,
            dram.gpu8.median
        );

        // PIM executes on all banks at once: BLP pinned near 16 with no
        // spread, above every GPU kernel.
        let blp = report.blp_boxes();
        assert!(blp.pim.min > 12.0, "PIM BLP min {}", blp.pim.min);
        assert!(blp.pim.median > blp.gpu80.max, "PIM BLP must dominate");

        // PIM row locality is high (block structure).
        let rbhr = report.rbhr_boxes();
        assert!(rbhr.pim.median > 0.7, "PIM RBHR median {}", rbhr.pim.median);
    }

    #[test]
    fn budget_overrun_is_an_error() {
        assert!(characterize(&SystemConfig::default(), 0.01, 0).is_err());
    }
}
