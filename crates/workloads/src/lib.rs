//! Workload definitions: the 20 Rodinia-like GPU kernels (Table II), the
//! 9 PIM kernels (Table III), and the GPT-3-like collaborative LLM
//! scenario of the paper's evaluation.
//!
//! The kernels are *synthetic models* calibrated to the memory-behaviour
//! characterization in Figure 4 (see `DESIGN.md` for the substitution
//! rationale): each Rodinia benchmark is described by its issue pacing,
//! L2 reuse, row locality, stream count (bank-level parallelism), and
//! footprint; each PIM kernel by its block phase pattern and block size.
//!
//! Working-set *footprints* are scaled down so a full 180-combination
//! sweep runs in minutes rather than the paper's two weeks of GPGPU-Sim
//! time; the `scale` parameter restores larger runs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fft;
pub mod llm;
pub mod pim_suite;
pub mod rodinia;

pub use fft::{fft_scenario, FftScenario};
pub use llm::{llm_scenario, LlmScenario};
pub use pim_suite::{pim_kernel, pim_suite, stream_triad_spec, PimBenchmark};
pub use rodinia::{gpu_kernel, rodinia_suite, GpuBenchmark};

/// Whether `scale` is a usable workload scale: finite and positive.
/// Every kernel builder asserts it, and the front ends check it before
/// building anything.
pub fn valid_scale(scale: f64) -> bool {
    scale.is_finite() && scale > 0.0
}
