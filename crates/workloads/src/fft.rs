//! A second collaborative scenario (extension): FFT split across GPU SMs
//! and PIM FUs, in the spirit of Pimacolaba (Ibrahim & Aga, MEMSYS 2024),
//! which the paper cites as a collaborative use case alongside the LLM.
//!
//! The decomposition follows the four-step FFT: the PIM side performs the
//! row-wise butterfly passes in place (long same-row blocks — exactly what
//! bank-level PIM is good at), while the GPU performs the transpose and
//! twiddle multiplication between passes (strided, cache-unfriendly
//! traffic). Unlike the LLM, here the *PIM* stage is the longer one, so
//! policy preferences flip — a useful second data point for the
//! collaborative analysis.

use pimsim_gpu::{GpuKernelParams, PimKernelModel, PimKernelSpec, PimPhase, SyntheticGpuKernel};

use crate::valid_scale;

/// The two halves of the FFT scenario.
#[derive(Debug, Clone)]
pub struct FftScenario {
    /// Transpose + twiddle factors on the GPU SMs.
    pub transpose: SyntheticGpuKernel,
    /// Row-wise butterfly passes on the PIM FUs.
    pub butterflies: PimKernelModel,
}

/// GPU-side transpose/twiddle parameters.
///
/// Transposes stride across rows (poor row locality, modest L2 reuse from
/// tile buffering) — the opposite profile of the LLM's GEMMs.
pub fn transpose_params(scale: f64) -> GpuKernelParams {
    assert!(valid_scale(scale), "scale must be finite and positive");
    GpuKernelParams {
        name: "FFT-transpose".into(),
        total_requests: ((60_000_f64) * scale).max(1.0) as u64,
        issue_interval: 5,
        read_fraction: 0.5, // read one layout, write the other
        footprint_bytes: 64 * 1024 * 1024,
        row_locality: 0.3,
        l2_reuse: 0.4,
        streams_per_slot: 8,
        seed: 0xFF7,
    }
}

/// PIM-side butterfly spec: long same-row blocks of load/compute/store
/// (in-place butterflies over row-resident data), several passes.
pub fn butterfly_spec(channels: usize, scale: f64) -> PimKernelSpec {
    assert!(valid_scale(scale), "scale must be finite and positive");
    use PimPhase::{Compute, Load, Store};
    PimKernelSpec {
        name: "FFT-butterflies".into(),
        pattern: vec![Load, Compute, Compute, Store],
        ops_per_block: 64, // row-long in-place passes
        blocks_per_channel: ((160_f64) * scale).max(1.0) as u64,
        channels,
        rf_entries_per_bank: 8,
        max_row: 1 << 13,
    }
}

/// Builds the FFT scenario.
pub fn fft_scenario(
    gpu_sms: usize,
    channels: usize,
    warps_per_sm: usize,
    max_outstanding: u32,
    scale: f64,
) -> FftScenario {
    FftScenario {
        transpose: SyntheticGpuKernel::new(transpose_params(scale), gpu_sms),
        butterflies: PimKernelModel::new(
            butterfly_spec(channels, scale),
            channels / warps_per_sm,
            warps_per_sm,
            max_outstanding,
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pimsim_gpu::KernelModel;

    #[test]
    fn scenario_builds() {
        let s = fft_scenario(72, 32, 4, 256, 0.1);
        assert_eq!(s.transpose.num_slots(), 72);
        assert_eq!(s.butterflies.num_slots(), 8);
        transpose_params(1.0).validate();
        butterfly_spec(32, 1.0).validate();
    }

    #[test]
    fn profiles_are_opposite_to_the_llm() {
        // FFT: GPU side strided/cache-unfriendly; LLM: GPU side cache
        // friendly. The two scenarios must bracket the design space.
        let fft = transpose_params(1.0);
        let llm = crate::llm::qkv_params(1.0);
        assert!(fft.row_locality < llm.row_locality);
        assert!(fft.l2_reuse < llm.l2_reuse);
        // FFT butterflies run row-long blocks (maximal PIM locality).
        assert_eq!(butterfly_spec(32, 1.0).ops_per_block, 64);
    }
}
